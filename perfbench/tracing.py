"""In-memory span tracing installed from outside the library.

:func:`install` wraps the entry points of every layer (module functions,
methods, registry entries) with timing wrappers and returns a
:class:`Tracer` whose :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` changes.  A span is ``[layer, name, start, end,
parent, attrs, thread]``; spans nest per thread, and a layer's self time is
its span minus the time its direct children cover.  Process-pool workers
inherit the wrappers when they fork, so wrappers record only in the process
that installed them (strip kernels running in workers are seen from the
parent as the backend round trip).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("bfs", "engine", "kernel", "layout", "backend", "serve", "block", "delta")

# span fields
LAYER, NAME, START, END, PARENT, ATTRS, THREAD = range(7)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.pid = os.getpid()
        self._local = threading.local()
        self._restore: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> list:
        stack = self._stack()
        rec = [layer, name, time.perf_counter(), 0.0,
               stack[-1] if stack else -1, None, threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, name: str):
        rec = self.open(layer, name)
        try:
            yield rec
        finally:
            self.close(rec)

    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, layer: str, name: str,
             hook: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span; ``hook(attrs, args, result)`` keeps cheap facts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            rec = tracer.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if hook is not None:
                attrs: Dict[str, object] = {}
                hook(attrs, args, out)
                rec[ATTRS] = attrs
            return out

        return traced

    def patch(self, owner, attr: str, layer: str, *, hook=None,
              kind: str = "function") -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        if kind == "classmethod":
            replacement = classmethod(self.wrap(raw.__func__, layer, name, hook))
        else:
            replacement = self.wrap(raw, layer, name, hook)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, raw, replacement))

    def patch_item(self, mapping: dict, key: str, layer: str, name: str,
                   hook=None) -> None:
        raw = mapping[key]
        mapping[key] = replacement = self.wrap(raw, layer, name, hook)
        self._restore.append((mapping, key, raw, replacement))

    def _set(self, which: int) -> None:
        for entry in reversed(self._restore):
            owner, attr = entry[0], entry[1]
            if isinstance(owner, dict):
                owner[attr] = entry[which]
            else:
                setattr(owner, attr, entry[which])

    def uninstall(self) -> None:
        """Put the original entry points back (reversible with :meth:`reinstall`)."""
        self._set(2)

    def reinstall(self) -> None:
        self._set(3)

    # ------------------------------------------------------------------ #
    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover (s)."""
        dur = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return dur - child

    def roots(self) -> np.ndarray:
        """Index of each span's root span."""
        root = np.empty(len(self.spans), dtype=np.int64)
        for i, s in enumerate(self.spans):
            root[i] = i if s[PARENT] < 0 else root[s[PARENT]]
        return root

    def dump(self, path) -> None:
        """Write every span as one JSON line (attrs reduced to scalars)."""
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in (s[ATTRS] or {}).items()
                         if isinstance(v, (int, float, str))}
                out.write(json.dumps({"id": i, "layer": s[LAYER], "name": s[NAME],
                                      "start": s[START], "end": s[END],
                                      "parent": s[PARENT], "thread": s[THREAD],
                                      **attrs}) + "\n")


# --------------------------------------------------------------------------- #
# hooks: keep references and counts only; totals are computed after the run
# --------------------------------------------------------------------------- #
def _outs(out) -> list:
    return out if isinstance(out, list) else [out]


def _kernel_work(attrs, args, out) -> None:
    attrs["records"] = [o.record for o in _outs(out)]
    attrs["nnz_y"] = sum(o.vector.nnz for o in _outs(out))


def _patch_nnz(attrs, args, out) -> None:
    attrs["patch_nnz"] = [o.info["delta_patch_nnz"] for o in _outs(out)
                          if "delta_patch_nnz" in o.info]


def _strip_records(attrs, args, out) -> None:
    # _finish_call(self, plan, outs_or_partials)
    attrs["strip_records"] = [o.record for o in args[2]]


def _reduce(attrs, args, out) -> None:
    attrs["entries"] = sum(len(p.rows) for p in args[0])
    attrs["nnz_out"] = out[0].nnz


def _pack(attrs, args, block) -> None:
    attrs["union"] = block.union_nnz
    attrs["total"] = block.total_nnz


def _batch(attrs, args, out) -> None:
    batch = args[1]
    attrs["kind"] = batch.kind
    attrs["futures"] = [r.future for r in batch.requests]


def install(*, keep_records: bool) -> Tracer:
    """Wrap every layer's entry points; returns the tracer holding the spans.

    ``keep_records`` keeps each engine call's execution record for the
    kernel work counts (the BFS phase).  The serving phase keeps only the
    overlay patch size: thousands of retained records would slow the
    garbage collector and with it the server being traced.
    """
    from repro.core import column_sharded, dispatch, spmspv_block
    from repro.core import engine as engine_mod
    from repro.core.column_sharded import ColumnShardedEngine
    from repro.core.engine import SpMSpVEngine
    from repro.core.sharded import ShardedEngine
    from repro.formats.vector_block import SparseVectorBlock
    from repro.parallel.backends import ProcessBackend
    from repro.serve.server import QueryServer

    tracer = Tracer()
    # kernel: every registered algorithm plus the fused block kernel
    dispatch.get_algorithm("bucket")  # populate the lazy registry
    for key in list(dispatch._REGISTRY):
        tracer.patch_item(dispatch._REGISTRY, key, "kernel", f"kernel.{key}")
    tracer.patch(spmspv_block, "spmspv_bucket_block", "kernel")
    # engine (core.engine)
    engine_hook = _kernel_work if keep_records else _patch_nnz
    tracer.patch(SpMSpVEngine, "multiply", "engine", hook=engine_hook)
    tracer.patch(SpMSpVEngine, "multiply_many", "engine")
    tracer.patch(SpMSpVEngine, "multiply_block", "engine")
    tracer.patch(SpMSpVEngine, "_multiply_block", "engine", hook=engine_hook)
    # delta overlay (formats.delta, as the engine calls it)
    tracer.patch(SpMSpVEngine, "apply_updates", "delta")
    tracer.patch(SpMSpVEngine, "_overlay_locked", "delta")
    for fn in ("build_patch", "apply_delta", "splice_overlay"):
        tracer.patch(engine_mod, fn, "delta")
    # layout (core.sharded, core.column_sharded, core.spmspv_column)
    for cls in (ShardedEngine, ColumnShardedEngine):
        tracer.patch(cls, "multiply", "layout")
        tracer.patch(cls, "multiply_many", "layout")
        tracer.patch(cls, "_finish_call", "layout", hook=_strip_records)
    tracer.patch(ShardedEngine, "_multiply_many_fused", "layout")
    tracer.patch(column_sharded, "slice_frontier", "layout")
    tracer.patch(column_sharded, "reduce_partials", "layout", hook=_reduce)
    # backend (parallel.backends)
    for attr in ("__init__", "run_multiply", "run_block", "run_partial", "close"):
        tracer.patch(ProcessBackend, attr, "backend")
    # serve and block
    tracer.patch(QueryServer, "submit", "serve")
    tracer.patch(QueryServer, "_execute", "serve", hook=_batch)
    tracer.patch(SparseVectorBlock, "from_vectors", "block", hook=_pack,
                 kind="classmethod")
    return tracer

