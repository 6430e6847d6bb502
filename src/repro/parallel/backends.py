"""Pluggable execution backends for sharded SpMSpV.

A sharded engine (:class:`~repro.core.sharded.ShardedEngine` over row
strips, :class:`~repro.core.column_sharded.ColumnShardedEngine` over column
strips) turns one multiplication into P independent per-strip calls (paper
§II-F).  *Where* those calls run is this module's concern, behind one seam:
a backend implements :meth:`ExecutionBackend.run`, which runs one operation
on every strip and returns the per-strip result lists in strip order.  The
operations are ``"multiply"`` (one kernel call per strip), ``"block"`` (one
fused block call per strip) and ``"partial"`` (one column-strip partial per
strip); their arguments travel by name, and :func:`run_strip` is the one
place a strip's kernel is called, whichever backend runs it.

* :class:`EmulatedBackend` — strips run one after another in the calling
  thread.  Bit-reproducible, zero setup cost, no wall-clock parallelism.
* :class:`ProcessBackend` — a persistent ``multiprocessing`` worker pool
  with a **zero-copy comm plane**.  Strip arrays are copied **once**, at
  backend build, into ``multiprocessing.shared_memory`` slabs
  (:class:`~repro.core.workspace.SharedSlab`); each worker attaches
  zero-copy views, builds its strips' persistent
  :class:`~repro.core.workspace.SpMSpVWorkspace` objects, and keeps both for
  its lifetime.  A call runs in two halves.  :meth:`ProcessBackend.submit`
  packs every array of the call's arguments **once** into a shared-memory
  input arena (:class:`~repro.core.workspace.SlabArena`): the arguments all
  strips share (the frontier, a packed block, a column call's row map) are
  described to every worker, and a strip's own argument (its mask slice,
  its masks, its frontier slice) only to the worker that owns the strip.
  Workers write their results straight into preallocated per-strip output
  slabs, so the only pipe traffic is small control records (call id, strip
  ids, region descriptors, record metadata).  Output slabs grow
  geometrically: a result that outgrows its granted region is retained by
  the worker, reported as a ``grow`` record, and flushed into a re-granted
  region — no respawn, no recompute.  :meth:`ProcessBackend.gather` drains
  the completion records (the ``chaos`` backend of
  :mod:`repro.parallel.faults` injects its mid-call faults between the two
  halves).  A call gathering fewer than :data:`POOL_MIN_WORK` matrix
  entries packs nothing and runs in the parent.

Determinism contract: a kernel is a pure function of (strip, vector, call
options), so for any fixed kernel and block mode the two backends are
**bit identical** — outputs and work metrics (only wall times differ).
``tests/test_backend_equivalence.py`` locks this down across the full
sharded grid, including the slab data plane (output overflow/regrow,
broadcast-once blocks).

Failure contract: an exception raised inside a strip's kernel propagates to
the caller as itself (same type, same args), annotated with the failing
strip id (``exc.strip_id`` plus an ``add_note`` line) — identically for both
backends, and never retried (kernel exceptions are deterministic).  A worker
that *dies* (kill -9, segfault) is a *retryable* failure: under the
context's :class:`~repro.parallel.context.RetryPolicy` the lost strips are
transparently re-dispatched (respawn + re-grant + resend of the same input
region — bit-identical results), past the retry budget the
``degraded_fallback`` mode recomputes them in-process from the parent's own
strip copies, and only with both exhausted/disabled does the call surface
exactly one :class:`~repro.errors.BackendError`.  A call that exceeds the
context's ``deadline`` raises :class:`~repro.errors.DeadlineError` after
being cleanly abandoned (its slab regions release as late replies drain).
``health_stats()`` reports deaths/retries/fallbacks/deadline hits;
:mod:`repro.parallel.faults` injects all of these failures deterministically
through the ``chaos`` backend.  The pool respawns dead workers against the
same shared-memory strips, and backend shutdown (or garbage collection of
the engine, via a ``weakref`` finalizer) releases every shared-memory
segment — strip slabs and comm arenas alike — following the context's
``shutdown_timeouts`` stop→terminate→kill escalation ladder.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import BackendError, DeadlineError, NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..semiring import Semiring, get_semiring
from .context import ExecutionContext, RetryPolicy

#: env knobs for the comm plane's initial shared-memory footprint (bytes);
#: tests shrink these to force the overflow/regrow paths deterministically
_INPUT_SLAB_ENV = "REPRO_BACKEND_INPUT_SLAB"
_OUTPUT_SLAB_ENV = "REPRO_BACKEND_OUTPUT_SLAB"
#: env knob carrying a seeded fault plan (see :mod:`repro.parallel.faults`);
#: when set, :func:`make_backend` builds the chaos backend for ``process``
#: requests, so every backend-selecting call site runs under injected faults
_FAULTS_ENV = "REPRO_BACKEND_FAULTS"

_DEFAULT_INPUT_SLAB = 1 << 16
_DEFAULT_OUTPUT_SLAB = 1 << 16

#: gathered entries (the nonzeros in the frontier's columns, summed over
#: strips and over a block's vectors) below which a process-backend call
#: runs in the parent instead of on the pool.  GraphBLAS's chunk rule
#: (SuiteSparse ``GxB_CHUNK``, default 64K): work below one chunk gets no
#: parallel dispatch.  It sits at or below the measured break-even: on a
#: 2-vCPU host a 2-strip call at 64K entries costs the same or less in the
#: parent, and the pool wins clearly from ~280K.  Read at call time.
POOL_MIN_WORK = 1 << 16

#: the argument of each strip operation that holds one entry per strip
_STRIP_ARG = {"multiply": "mask_slices", "block": "strip_masks",
              "partial": "slices"}


def idle_health() -> Dict[str, object]:
    """The health counters of an executor with no workers to lose: all zero."""
    return {"worker_deaths": [], "respawns": 0, "retries": 0,
            "fallback_calls": 0, "fallback_strips": 0, "deadline_hits": 0}


def _attach_strip_id(exc: BaseException, strip: int, backend: str,
                     remote_traceback: Optional[str] = None) -> BaseException:
    """Annotate a kernel exception with the strip that raised it."""
    try:
        exc.strip_id = strip
    except Exception:  # pragma: no cover - exotic immutable exceptions
        pass
    if hasattr(exc, "add_note"):
        try:
            exc.add_note(f"[repro] raised by strip {strip} ({backend} backend)")
            if remote_traceback:
                exc.add_note("[repro] worker traceback:\n" + remote_traceback)
        except Exception:  # pragma: no cover
            pass
    return exc


def run_strip(op: str, s: int, matrix, ctx: ExecutionContext, workspace,
              args: Dict) -> List:
    """Strip ``s``'s results of one call: the one place a strip kernel runs.

    ``op`` is ``"multiply"``, ``"block"`` or ``"partial"`` and ``args`` the
    keyword arguments of the matching ``ExecutionBackend.run_*`` method, by
    name; the strip's own argument is ``args[name][s]`` (``mask_slices``,
    ``strip_masks`` or ``slices``).  ``matrix`` and ``workspace`` are the
    strip's own (a column partial uses no workspace).  Returns one result,
    or a block's ``k`` results, as a list.
    """
    if op == "multiply":
        from ..core.dispatch import get_algorithm  # late: avoids import cycle

        return [get_algorithm(args["algorithm"])(
            matrix, args["x"], ctx, semiring=args["semiring"],
            sorted_output=args["sorted_output"], mask=args["mask_slices"][s],
            mask_complement=args["mask_complement"], workspace=workspace,
            **args["kwargs"])]
    if op == "block":
        from ..core.spmspv_block import spmspv_bucket_block

        return spmspv_bucket_block(
            matrix, args["block"], ctx, semiring=args["semiring"],
            sorted_output=args["sorted_output"], masks=args["strip_masks"][s],
            mask_complement=args["mask_complement"], workspace=workspace)
    from ..core.spmspv_column import column_partial

    idx, vals, gpos = args["slices"][s]
    return [column_partial(
        matrix, idx, vals, gpos, ctx, semiring=args["semiring"],
        out_dtype=args["out_dtype"], algorithm=args["algorithm"],
        bitmap=args["mask"], mask_complement=args["mask_complement"])]


class ExecutionBackend(ABC):
    """How a sharded engine executes its P independent per-strip calls.

    A backend is built once per sharded engine from the engine's strips and
    per-strip context (``num_threads=1`` — the paper's sync-free split),
    owns whatever persistent per-strip state the execution needs
    (workspaces, worker processes, shared memory), and implements one call
    method, :meth:`run`.  The engines call it through ``run_multiply``,
    ``run_block`` and ``run_partial``, which name each operation's
    arguments.  Results always come back in strip order; row-strip outputs
    are row-disjoint, so the engine concatenates them without a merge.
    """

    name: str = "?"
    #: the partition the strips came from: ``"row"`` or ``"column"``
    scheme: str = "row"

    @abstractmethod
    def run(self, op: str, args: Dict) -> List[List]:
        """Run ``op`` on every strip; the per-strip result lists, in order.

        Strip ``s``'s list is what :func:`run_strip` returns for it.
        """

    def run_multiply(self, algorithm: str, x: SparseVector, *,
                     semiring: Semiring, sorted_output: Optional[bool],
                     mask_slices: Sequence[Optional[np.ndarray]],
                     mask_complement: bool, kwargs: Dict) -> List:
        """One kernel call per strip; returns per-strip results in strip order.

        ``mask_slices[s]`` is strip ``s``'s rows of the dense row-mask map
        (a 1-D ``bool`` array of the strip's length) or None.
        """
        return [results[0] for results in self.run("multiply", {
            "algorithm": algorithm, "x": x, "semiring": semiring,
            "sorted_output": sorted_output, "mask_slices": mask_slices,
            "mask_complement": mask_complement, "kwargs": kwargs})]

    def run_block(self, block, *, semiring: Semiring,
                  sorted_output: Optional[bool], strip_masks: Sequence,
                  mask_complement: bool) -> List[List]:
        """One fused block call per strip; per-strip lists of k results."""
        return self.run("block", {
            "block": block, "semiring": semiring,
            "sorted_output": sorted_output, "strip_masks": strip_masks,
            "mask_complement": mask_complement})

    def run_partial(self, algorithm: str, slices: Sequence[tuple], *,
                    semiring: Semiring, mask: Optional[np.ndarray],
                    mask_complement: bool, out_dtype) -> List:
        """One column-strip partial per strip (column-split scheme).

        ``slices`` holds one ``(local_idx, values, gpos)`` frontier slice
        per strip (see :func:`repro.core.spmspv_column.slice_frontier`);
        ``mask`` is the **full row-space** dense row-mask map (column strips
        all span the full row space, so one map serves every strip).  Returns
        per-strip :class:`~repro.core.spmspv_column.ColumnPartial` streams
        in strip order; the caller runs the reduction phase.  Only backends
        built with ``scheme="column"`` support this operation.
        """
        if self.scheme != "column":
            raise NotSupportedError(
                f"backend {self.name!r} was not built for the column-split "
                f"scheme; construct it with scheme='column'")
        return [results[0] for results in self.run("partial", {
            "algorithm": algorithm, "slices": slices, "semiring": semiring,
            "mask": mask, "mask_complement": mask_complement,
            "out_dtype": out_dtype})]

    def workspace_stats(self) -> List[Dict[str, float]]:
        """Latest known per-strip workspace reuse statistics (none here)."""
        return []

    def comm_stats(self) -> Dict[str, float]:
        """Comm-plane accounting (empty for in-process backends)."""
        return {}

    def update_strip(self, strip: int, matrix: CSCMatrix) -> None:
        """Replace one strip's matrix in place (delta-layer compaction).

        The replacement must keep the strip's row count (sharded row ranges
        are fixed at build time), so the strip's persistent workspace stays
        valid and *must* be kept — per-strip compaction rebuilds only the
        matrix, never the warm state around it.  Backends without mutable
        strips reject the call.
        """
        raise NotSupportedError(
            f"backend {self.name!r} cannot update strips in place; "
            f"rebuild the engine instead")

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting: deaths, retries, fallbacks, deadline hits.

        In-process backends have no workers to lose, so every counter is
        zero (:func:`idle_health`); the keys are stable across backends so
        serving layers can aggregate health uniformly.
        """
        return idle_health()

    def close(self) -> None:
        """Release backend resources (idempotent; default: nothing to do)."""

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EmulatedBackend(ExecutionBackend):
    """Deterministic in-process execution: strips run one after another.

    Strips run in the calling thread, each with a local persistent
    workspace.  This is the default backend: zero setup cost,
    bit-reproducible, and the right choice whenever the workload is
    dominated by correctness runs, tests, or single-core machines.
    """

    name = "emulated"

    def __init__(self, *, strips: Sequence[CSCMatrix], shard_ctx: ExecutionContext,
                 dtype, workers: int = 0, scheme: str = "row"):
        from ..core.workspace import SpMSpVWorkspace  # late: avoids import cycle

        self.strips = list(strips)
        self.shard_ctx = shard_ctx
        self.scheme = scheme
        self.workspaces = [SpMSpVWorkspace(s.nrows, dtype=dtype)
                           for s in self.strips]

    def run(self, op, args):
        """Every strip in strip order, stopping at the first that raises.

        In-process strips cannot be preempted, so the context's deadline is
        checked between strips: a call that has already exceeded it fails
        before starting its next strip.
        """
        t0 = time.monotonic()
        deadline = self.shard_ctx.deadline
        out = []
        for s, strip in enumerate(self.strips):
            if deadline is not None and time.monotonic() - t0 > deadline:
                raise DeadlineError(
                    f"emulated backend call exceeded its {deadline:.3f}s "
                    f"deadline before strip {s} started")
            try:
                out.append(run_strip(op, s, strip, self.shard_ctx,
                                     self.workspaces[s], args))
            except Exception as exc:
                raise _attach_strip_id(exc, s, self.name)
        return out

    def workspace_stats(self):
        return [ws.stats() for ws in self.workspaces]

    def update_strip(self, strip, matrix):
        if matrix.nrows != self.strips[strip].nrows:
            raise BackendError(
                f"strip {strip} replacement has {matrix.nrows} rows, "
                f"expected {self.strips[strip].nrows} (row ranges are fixed "
                f"at engine build)")
        # swap the matrix only: the strip's workspace (same nrows) stays warm
        self.strips[strip] = matrix


# --------------------------------------------------------------------------- #
# the process backend: shared-memory comm plane + a persistent worker pool
# --------------------------------------------------------------------------- #
def _dump_exception(exc: BaseException):
    """Serialize a worker-side exception for transport to the parent.

    Picklability is probed with ``dumps`` only — the historical immediate
    ``loads`` round-trip doubled the serialization cost for zero benefit,
    since the parent-side :func:`_load_exception` guards its own ``loads``
    and degrades to the same textual fallback.
    """
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return ("pickle", pickle.dumps(exc), tb)
    except Exception:
        return ("text", f"{type(exc).__name__}: {exc}", tb)


def _load_exception(dump, strip: int) -> BaseException:
    kind, payload, tb = dump
    if kind == "pickle":
        try:
            exc = pickle.loads(payload)
        except Exception:
            # dumps succeeded worker-side but loads failed here (e.g. an
            # exception whose reconstruction raises): degrade like the
            # unpicklable case instead of masking the kernel failure with a
            # parent-side UnpicklingError
            exc = BackendError(
                f"strip {strip} worker raised an exception that could not "
                f"be reconstructed parent-side; worker traceback follows")
    else:
        exc = BackendError(f"strip {strip} worker raised an unpicklable "
                           f"exception: {payload}")
    return _attach_strip_id(exc, strip, "process", remote_traceback=tb)


def _dumps(obj) -> bytes:
    """One control record as the bytes a pipe carries."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _send_obj(conn, obj) -> None:
    """Pickle + send one control record."""
    conn.send_bytes(_dumps(obj))


def _payload_nbytes(descs) -> int:
    """Region bytes a packed payload actually used (from its descriptors)."""
    from ..core.workspace import _align_up  # late: avoids import cycle

    end = 0
    for offset, dtype, shape in descs:
        count = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        end = max(end, offset + count * np.dtype(dtype).itemsize)
    return _align_up(end)


class _Packing:
    """The arrays of one call's input region, in packing order.

    Each array gets its final region descriptor when it is queued: arrays
    sit back to back at slab alignment, as
    :func:`~repro.core.workspace.pack_arrays` lays them out.
    """

    __slots__ = ("arrays", "nbytes")

    def __init__(self):
        self.arrays: List[np.ndarray] = []
        self.nbytes = 0

    def add(self, array: np.ndarray) -> Tuple[int, str, Tuple[int, ...]]:
        from ..core.workspace import _align_up  # late: avoids import cycle

        array = np.ascontiguousarray(array)
        desc = (self.nbytes, array.dtype.str, array.shape)
        self.arrays.append(array)
        self.nbytes += _align_up(array.nbytes)
        return desc


def _encode(value, packing: _Packing):
    """The transport form of one call argument (inverse: :func:`_decode`).

    Arrays, vectors and blocks go into the call's input region and travel
    as region descriptors; a semiring travels by registry name; lists and
    tuples are encoded item by item; anything else (kernel names, flags,
    kernel kwargs, dtypes) is pickled as it is.
    """
    if isinstance(value, np.ndarray):
        return ("array", [packing.add(value)])
    if isinstance(value, SparseVector):
        return ("vector", [packing.add(value.indices), packing.add(value.values)],
                value.n, value.sorted)
    if isinstance(value, SparseVectorBlock):
        meta, arrays = value.pack_arrays()
        return ("block", [packing.add(a) for a in arrays], meta)
    if isinstance(value, Semiring):
        return ("semiring", value.name)
    if isinstance(value, (list, tuple)):
        return [_encode(item, packing) for item in value]
    return value


def _decode(value, region: np.ndarray):
    """Rebuild one call argument from :func:`_encode`'s form, as zero-copy
    views of the input ``region``."""
    from ..core.workspace import unpack_arrays  # late: avoids import cycle

    if isinstance(value, list):
        return [_decode(item, region) for item in value]
    if not isinstance(value, tuple):
        return value
    if value[0] == "semiring":
        return get_semiring(value[1])
    arrays = unpack_arrays(region, value[1])
    if value[0] == "array":
        return arrays[0]
    if value[0] == "vector":
        return SparseVector(value[2], *arrays, sorted=value[3], check=False)
    return SparseVectorBlock.from_arrays(value[2], arrays)


def _result_arrays(result) -> Tuple[List[np.ndarray], tuple]:
    """``(arrays, meta)`` of one strip result, for its output slab.

    A kernel result packs its output indices and values, a column partial
    its rows, values and gpos; both add their execution record's int64
    count matrix.  ``meta`` is the small picklable rest, the record's phase
    table among it.
    """
    record = result.record
    rec_meta = (record.algorithm, record.num_threads, record.table,
                record.info, record.wall_time_s)
    if hasattr(result, "gpos"):  # ColumnPartial: unreduced strip stream
        return ([result.rows, result.vals, result.gpos, record.counts],
                (rec_meta, result.info, result.nrows))
    vector = result.vector
    return ([vector.indices, vector.values, record.counts],
            (rec_meta, result.info, vector.n, vector.sorted))


def _result_from_arrays(arrays: List[np.ndarray], meta: tuple):
    """Inverse of :func:`_result_arrays`; copies out of the slab views."""
    from ..core.result import SpMSpVResult
    from ..core.spmspv_column import ColumnPartial
    from .metrics import ExecutionRecord

    (algorithm, num_threads, table, rec_info, wall_time_s), info, *head = meta
    *data, counts = arrays
    data = [a.copy() for a in data]
    record = ExecutionRecord(algorithm, num_threads, info=rec_info,
                             wall_time_s=wall_time_s, table=table,
                             counts=counts.copy())
    if len(data) == 3:  # a column partial's rows, values and gpos
        return ColumnPartial(*head, *data, record=record, info=info)
    n, sorted_flag = head
    return SpMSpVResult(
        vector=SparseVector(n, *data, sorted=sorted_flag, check=False),
        record=record, info=info)


def _worker_loop(conn, spec, closers):  # pragma: no cover - worker process
    """Serve calls until stopped; every shm view lives inside this frame.

    The worker holds, for its assigned strips, zero-copy views over the
    parent's shared-memory slabs and locally-allocated persistent
    workspaces.  A call message carries the call's shared arguments and its
    strips' own arguments in :func:`_encode`'s form, over one input region;
    each strip runs through :func:`run_strip`, and its results are packed
    into the parent-granted per-strip output region, so replies carry only
    descriptors, record metadata and stats.  A result that outgrows its
    grant is retained locally and reported as a ``grow`` record; the parent
    re-grants a large-enough region and the worker flushes the retained
    results — no recompute, no respawn.  Kernel exceptions are caught per
    strip and shipped back; only transport failure ends the loop.  Workers
    do *not* untrack the segments they attach: a pool worker shares its
    parent's ``resource_tracker`` (both fork and spawn ship the tracker
    fd), whose registry is a set — the attach-side register is idempotent
    and the owner's unlink unregisters exactly once.

    The recv loop polls with a timeout and watches ``os.getppid()``: a
    fork-started worker inherits the parent ends of its *siblings'* pipes,
    so an abruptly-killed parent (SIGKILL skips daemon cleanup) never
    delivers EOF — the reparent check is what lets orphaned workers exit
    instead of pinning their shared-memory mappings forever.
    """
    from ..core.workspace import (
        SharedSlab,
        SlabReader,
        SpMSpVWorkspace,
        pack_arrays,
        packed_nbytes,
    )
    from ..formats.dcsc import DCSCMatrix

    if spec.get("affinity") is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {spec["affinity"]})
        except OSError:
            pass  # affinity is best-effort: containers may mask cores

    strips: Dict[int, CSCMatrix] = {}
    workspaces: Dict[int, "SpMSpVWorkspace"] = {}
    #: strip -> version of the shared-memory CSC currently attached; calls
    #: carry the parent's expected versions, so a call racing a compaction
    #: fails loudly instead of silently multiplying a stale strip
    versions: Dict[int, int] = {}

    def attach_strip(st) -> None:
        views = {}
        for name in st["arrays"]:
            seg, shape, dt = st["arrays"][name]
            slab = SharedSlab.attach(seg, shape, dt)
            closers.append(slab)
            views[name] = slab.array
        if st.get("format", "csc") == "dcsc":
            strips[st["strip"]] = DCSCMatrix(
                st["shape"], views["jc"], views["cp"], views["ir"],
                views["num"], build_aux=True, check=False)
        else:
            strips[st["strip"]] = CSCMatrix(
                st["shape"], views["indptr"], views["indices"], views["data"],
                sorted_within_columns=st["sorted"], check=False)
        versions[st["strip"]] = int(st.get("version", 0))

    for st in spec["strips"]:
        attach_strip(st)
        workspaces[st["strip"]] = SpMSpVWorkspace(
            strips[st["strip"]].nrows, dtype=np.dtype(st["dtype"]))
    reader = SlabReader()
    closers.append(reader)
    ctx = spec["ctx"]
    parent = os.getppid()
    #: (call_id, strip) -> list of results awaiting a bigger grant
    retained: Dict[Tuple[int, int], List] = {}

    def write_results(out_ref, results):
        """Pack results into the granted region: ``(payload, needed_bytes)``.

        ``payload`` holds one ``(descriptors, meta)`` pair per result (see
        :func:`_result_arrays`), or is ``None`` when the region is too small
        (the parent re-grants ``needed_bytes``).  Execution records travel
        as their int64 count matrices *inside the slab*, so the per-call
        pipe traffic stays small.
        """
        parts = [_result_arrays(r) for r in results]
        arrays = [a for part, _meta in parts for a in part]
        region = reader.region(out_ref)
        needed = packed_nbytes(arrays)
        if needed > region.nbytes:
            return None, needed
        descs = pack_arrays(region, arrays)
        payload = []
        for part, meta in parts:
            payload.append((descs[:len(part)], meta))
            descs = descs[len(part):]
        return payload, needed

    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:  # orphaned: parent died abruptly
                    return
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        op = msg[0]
        if op == "stop":
            return
        if op == "flush":
            _, call_id, out_refs = msg
            flushed = {}
            for strip, ref in out_refs.items():
                results = retained.pop((call_id, strip), None)
                if results is None:
                    continue  # pragma: no cover - flush for an unknown call
                payload, _ = write_results(ref, results)
                if payload is None:  # pragma: no cover - parent granted too little
                    flushed[strip] = ("err", _dump_exception(BackendError(
                        f"strip {strip}: re-granted output region still too "
                        f"small for the retained result")))
                else:
                    flushed[strip] = ("ok", payload)
            try:
                _send_obj(conn, ("flushed", call_id, flushed))
            except (BrokenPipeError, OSError):
                return
            continue
        if op == "update_strip":
            # swap one strip's CSC view for a freshly-compacted shared copy;
            # the row count is unchanged, so the persistent workspace stays
            st = msg[1]
            attach_strip(st)
            try:
                _send_obj(conn, ("strip_updated", st["strip"], versions[st["strip"]]))
            except (BrokenPipeError, OSError):
                return
            continue

        _, call_id, strip_ids, expected, shared, in_ref, own, out_refs = msg
        region = reader.region(in_ref)
        outs = []
        for strip in strip_ids:
            try:
                if expected[strip] != versions[strip]:
                    raise BackendError(
                        f"strip {strip} version mismatch: call expects "
                        f"v{expected[strip]}, worker holds "
                        f"v{versions[strip]} — a compaction raced this call")
                args = {name: _decode(value, region)
                        for name, value in shared.items()}
                args[_STRIP_ARG[op]] = {strip: _decode(own[strip], region)}
                results = run_strip(op, strip, strips[strip], ctx,
                                    workspaces[strip], args)
                payload, needed = write_results(out_refs[strip], results)
                if payload is None:
                    retained[(call_id, strip)] = results
                    outs.append((strip, "grow", needed))
                else:
                    outs.append((strip, "ok", payload))
            except Exception as exc:
                outs.append((strip, "err", _dump_exception(exc)))
        stats = {strip: workspaces[strip].stats() for strip in strip_ids}
        try:
            _send_obj(conn, ("done", call_id, outs, stats))
        except (BrokenPipeError, OSError):
            return


def _worker_main(conn, spec):  # pragma: no cover - runs in the worker process
    """Entry point of one pool worker: loop, release shm mappings, hard-exit.

    The CSC views, kernel results and message locals all live in
    :func:`_worker_loop`'s frame, so by the time the slabs close here no
    exported pointer into *this worker's* segments remains.  The exit is
    ``os._exit`` rather than a normal interpreter teardown: a forked worker
    also inherits the parent's own slab objects (and whatever other engines
    were alive at fork time), whose still-exported views would make their
    inherited ``SharedMemory.__del__``\\ s spray ``BufferError`` tracebacks
    during shutdown — those mappings belong to the parent, die with the
    process either way, and are not this worker's to close.
    """
    closers: List = []
    try:
        _worker_loop(conn, spec, closers)
    finally:
        for closer in closers:
            closer.close()
        try:
            conn.close()
        except OSError:
            pass
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)


def _shutdown_pool(workers: List, conns: List, slabs: List, arenas: List,
                   timeouts: Tuple[float, float, float] = (2.0, 1.0, 1.0)
                   ) -> None:
    """Stop workers, close pipes, release shared memory (idempotent).

    Module-level so a ``weakref.finalize`` can run it after the backend
    object is gone; the lists are the backend's own mutable state, shared by
    identity, so an explicit ``close()`` beforehand leaves nothing to do.
    ``timeouts`` is the context's ``shutdown_timeouts`` escalation ladder:
    a worker that ignores ``stop`` for ``timeouts[0]`` seconds is
    terminated, one that survives SIGTERM for ``timeouts[1]`` more (e.g. a
    SIGSTOPped process, whose pending SIGTERM never delivers) is killed,
    and the final join waits ``timeouts[2]``.  The slabs and arenas are
    released regardless of how far the escalation had to go, so a worker
    dying (or hanging) mid-shutdown never leaks a ``/dev/shm`` segment —
    the parent owns every segment and unlinks them all here.
    """
    stop_s, term_s, kill_s = timeouts
    for conn in conns:
        if conn is not None:
            try:
                _send_obj(conn, ("stop",))
            except Exception:
                pass
    for w, proc in enumerate(workers):
        if proc is None:
            continue
        proc.join(timeout=stop_s)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=term_s)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=kill_s)
        workers[w] = None
    for i, conn in enumerate(conns):
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            conns[i] = None
    for slab in slabs:
        slab.close()
        slab.unlink()
    slabs.clear()
    for arena in arenas:
        arena.destroy()
    arenas.clear()


class _Inflight:
    """Parent-side state of one submitted (possibly still running) call."""

    __slots__ = ("call_id", "op", "inline", "pending", "flushing", "payloads",
                 "errors", "input_region", "out_regions", "abandoned",
                 "finalized",
                 # resilience state
                 "shared", "in_ref", "strip_specs", "call_args", "outstanding",
                 "lost", "last_death", "attempts", "redispatches",
                 "local_results", "local_errors", "deadline_at",
                 "used_fallback")

    def __init__(self, call_id: int, op: str, inline: bool,
                 call_args: Dict[str, object]):
        self.call_id = call_id
        self.op = op
        #: runs in the parent at gather time (below POOL_MIN_WORK)
        self.inline = inline
        self.pending: Set[int] = set()
        self.flushing: Set[int] = set()
        self.payloads: Dict[int, object] = {}
        self.errors: Dict[int, tuple] = {}
        self.input_region = None
        self.out_regions: Dict[int, tuple] = {}
        self.abandoned = False
        self.finalized = False
        #: the call's encoded shared arguments, its input region ref and
        #: each strip's encoded own argument, kept so lost strips can be
        #: resent (see :func:`_encode`)
        self.shared: Dict[str, object] = {}
        self.in_ref: Optional[tuple] = None
        self.strip_specs: List[object] = []
        #: parent-side Python objects of the call: the inputs of in-parent
        #: execution and of degraded-fallback recomputes
        self.call_args = call_args
        #: worker -> strips dispatched to it and not yet resolved
        self.outstanding: Dict[int, Set[int]] = {}
        #: strips lost to a worker death, awaiting retry/fallback/raise
        self.lost: Set[int] = set()
        self.last_death: Optional[Tuple[int, Optional[int]]] = None
        #: strip -> total dispatch attempts (first dispatch counts as 1)
        self.attempts: Dict[int, int] = {}
        self.redispatches = 0
        #: strip -> results computed in the parent (in-parent or fallback)
        self.local_results: Dict[int, List] = {}
        #: strip -> kernel exception raised computing it in the parent
        self.local_errors: Dict[int, BaseException] = {}
        #: monotonic instant the call's deadline expires (None = no deadline)
        self.deadline_at: Optional[float] = None
        self.used_fallback = False

    @property
    def complete(self) -> bool:
        return not self.pending and not self.flushing


class ProcessBackend(ExecutionBackend):
    """Real multi-process execution of the per-strip kernel calls.

    Build cost: one shared-memory copy of every strip's CSC arrays plus one
    worker process per strip (capped by ``workers`` / the machine's core
    count; strips are assigned round-robin, and a strip always runs on the
    same worker so its workspace persists), plus the comm plane's input
    arena and per-strip output slabs.  Per-call cost: one packed
    shared-memory write of the call's arrays (broadcast-once: every strip
    attaches the same region), one shared-memory write per strip of its
    results, and small control records over the pipes.  :meth:`submit` and
    :meth:`gather` are the two halves of :meth:`run`.

    A call that gathers fewer than :data:`POOL_MIN_WORK` entries skips all
    of that and runs in the parent at gather time, through
    :func:`run_strip` on the parent's own strips and workspaces (as the
    degraded fallback does), counted in ``inline_calls``.  Its work is an
    O(nnz(x)) lookup in a per-column nonzero count that
    :meth:`update_strip` keeps current.

    Environment knobs: ``REPRO_BACKEND_WORKERS`` caps the pool when the
    context doesn't, ``REPRO_BACKEND_START`` picks the multiprocessing start
    method (default ``fork`` where available — workers inherit the loaded
    package; ``spawn`` re-imports it), ``REPRO_BACKEND_INPUT_SLAB`` /
    ``REPRO_BACKEND_OUTPUT_SLAB`` set the initial arena sizes (bytes; they
    grow geometrically on demand).  ``ExecutionContext.pin_workers``
    pins each worker to one CPU core (``os.sched_setaffinity``; silently a
    no-op where unsupported).
    """

    name = "process"

    def __init__(self, *, strips: Sequence[CSCMatrix], shard_ctx: ExecutionContext,
                 dtype, workers: int = 0, scheme: str = "row"):
        from ..core.workspace import (  # late: avoids import cycle
            SharedSlab,
            SlabArena,
            SpMSpVWorkspace,
        )

        self.shard_ctx = shard_ctx
        self.scheme = scheme
        #: shared-memory array set per strip: CSC triplets for row strips,
        #: DCSC quadruplets for column strips
        self._array_names = (("jc", "cp", "ir", "num") if scheme == "column"
                             else ("indptr", "indices", "data"))
        self._strip_format = "dcsc" if scheme == "column" else "csc"
        self.num_strips = len(strips)
        #: the parent's strip references (zero-copy: the engine's own split)
        #: and warm workspaces, for the calls below POOL_MIN_WORK and the
        #: strips recomputed in degraded fallback
        self._strips = list(strips)
        self._workspaces = [SpMSpVWorkspace(s.nrows, dtype=dtype)
                            for s in self._strips]
        #: each strip's first global column (row strips span every column)
        widths = [strip.ncols for strip in strips]
        self._col_lo = (np.cumsum([0] + widths[:-1]).tolist()
                        if scheme == "column" else [0] * self.num_strips)
        #: stored entries per global column, summed over strips: a call's
        #: gathered work is one lookup per frontier entry
        self._col_nnz = np.zeros(sum(widths) if scheme == "column"
                                 else widths[0], dtype=np.int64)
        for s, strip in enumerate(strips):
            self._count_columns(s, strip, 1)
        self._dtype = np.dtype(dtype)
        #: resilience knobs (older pickled contexts may lack the fields)
        self._retry: RetryPolicy = getattr(shard_ctx, "retry", None) or RetryPolicy()
        self._degraded_fallback = bool(getattr(shard_ctx, "degraded_fallback",
                                               False))
        self._deadline_s: Optional[float] = getattr(shard_ctx, "deadline", None)
        self._shutdown_timeouts: Tuple[float, float, float] = tuple(
            getattr(shard_ctx, "shutdown_timeouts", (2.0, 1.0, 1.0)))
        cap = int(workers) or int(os.environ.get("REPRO_BACKEND_WORKERS", "0") or 0) \
            or (os.cpu_count() or 1)
        self.num_workers = max(1, min(self.num_strips, cap))
        start = os.environ.get(
            "REPRO_BACKEND_START",
            "fork" if "fork" in get_all_start_methods() else "spawn")
        self._mp = get_context(start)

        #: flat slab list shared by identity with the weakref finalizer —
        #: mutated in place (never rebound) when strips are updated
        self._slabs: List = []
        #: strip -> the three slabs currently backing it (retired on update)
        self._strip_slabs: List[List] = []
        self._strip_specs = []
        #: monotonically increasing per-strip version (bumped by update_strip)
        self._strip_versions: List[int] = [0] * self.num_strips
        #: (strip, version) update acks routed out of the reply stream
        self._strip_acks: Set[Tuple[int, int]] = set()
        for s, strip in enumerate(strips):
            arrays = {}
            slabs = []
            for name in self._array_names:
                slab = SharedSlab.create(getattr(strip, name))
                self._slabs.append(slab)
                slabs.append(slab)
                arrays[name] = slab.meta
            self._strip_slabs.append(slabs)
            self._strip_specs.append({
                "strip": s, "shape": strip.shape,
                "sorted": getattr(strip, "sorted_within_columns", True),
                "arrays": arrays, "format": self._strip_format,
                "dtype": np.dtype(dtype).str, "version": 0,
            })
        #: strip -> worker assignment (round-robin; fixed for the pool's life)
        self.assignment = [[s for s in range(self.num_strips)
                            if s % self.num_workers == w]
                           for w in range(self.num_workers)]
        #: worker -> pinned core (only when the context asks for pinning)
        self._affinity: List[Optional[int]] = [None] * self.num_workers
        if getattr(shard_ctx, "pin_workers", False) and \
                hasattr(os, "sched_getaffinity"):
            cores = sorted(os.sched_getaffinity(0))
            if cores:
                self._affinity = [cores[w % len(cores)]
                                  for w in range(self.num_workers)]

        in_bytes = int(os.environ.get(_INPUT_SLAB_ENV, "0") or 0) \
            or _DEFAULT_INPUT_SLAB
        out_bytes = int(os.environ.get(_OUTPUT_SLAB_ENV, "0") or 0) \
            or _DEFAULT_OUTPUT_SLAB
        self._input_arena = SlabArena("in", initial_bytes=in_bytes)
        self._out_arenas = [SlabArena(f"out{s}", initial_bytes=out_bytes)
                            for s in range(self.num_strips)]
        self._arenas: List = [self._input_arena, *self._out_arenas]
        #: per-op, per-strip grant size hints (grown from observed outputs)
        self._grant_hint = {
            "multiply": [out_bytes] * self.num_strips,
            "block": [out_bytes] * self.num_strips,
            "partial": [out_bytes] * self.num_strips,
        }
        self._comm: Dict[str, float] = {
            "calls": 0, "inline_calls": 0, "pipe_bytes_out": 0,
            "pipe_bytes_in": 0,
            "pipe_msgs_out": 0, "pipe_msgs_in": 0,
            "slab_bytes_in": 0, "slab_bytes_out": 0,
            "output_overflows": 0,
        }

        self._health: Dict[str, object] = {
            "worker_deaths": [0] * self.num_workers, "respawns": 0,
            "retries": 0, "fallback_calls": 0, "fallback_strips": 0,
            "deadline_hits": 0,
        }
        self._workers: List = [None] * self.num_workers
        self._conns: List = [None] * self.num_workers
        self._stats: Dict[int, Dict[str, float]] = {}
        self._call_seq = 0
        self._tokens: Dict[int, _Inflight] = {}
        #: (worker, pid) deaths detected outside any gather (e.g. by the
        #: non-blocking drain); raised once from the next _ensure_workers
        self._dead_unreported: List[Tuple[int, Optional[int]]] = []
        self._closed = False
        #: gc safety net: releases workers and /dev/shm segments even when
        #: nobody called close() (the lists are shared by identity, so an
        #: explicit close() leaves this a no-op).  Registered *before* the
        #: spawn loop: if a fork fails mid-way, the half-built pool and every
        #: already-created segment still get torn down when this object dies.
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._workers, self._conns, self._slabs,
            self._arenas, self._shutdown_timeouts)
        try:
            for w in range(self.num_workers):
                self._spawn(w)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #
    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        spec = {"strips": [self._strip_specs[s] for s in self.assignment[w]],
                "ctx": self.shard_ctx, "affinity": self._affinity[w]}
        proc = self._mp.Process(target=_worker_main, args=(child_conn, spec),
                                daemon=True, name=f"repro-strip-worker-{w}")
        proc.start()
        child_conn.close()  # parent keeps one end only, so worker death -> EOF
        self._workers[w] = proc
        self._conns[w] = parent_conn

    @property
    def _resilient(self) -> bool:
        """Whether worker deaths are absorbed (retried or degraded) instead
        of surfacing as one :class:`BackendError` per death."""
        return self._retry.max_attempts > 1 or self._degraded_fallback

    def _mark_dead(self, w: int) -> Optional[int]:
        conn, self._conns[w] = self._conns[w], None
        proc = self._workers[w]
        was_live = conn is not None or proc is not None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers[w] = None
        pid = None
        if proc is not None:
            pid = proc.pid
            if proc.is_alive():  # pragma: no cover - unreachable but hung
                proc.terminate()
            proc.join(timeout=1.0)
        if was_live:
            self._health["worker_deaths"][w] += 1
        # every in-flight call expecting this worker has lost the strips it
        # still owed; their gathers recover (retry/fallback) or raise, which
        # counts as reporting the death
        reported = False
        for token in list(self._tokens.values()):
            waited = w in token.pending or w in token.flushing
            lost = token.outstanding.pop(w, None)
            if not waited and not lost:
                continue
            token.pending.discard(w)
            token.flushing.discard(w)
            if lost:
                token.lost.update(lost)
            token.last_death = (w, pid)
            reported = reported or not token.abandoned
            if token.abandoned and token.complete:
                self._finalize(token)
        if not reported:
            # died between calls (nobody was waiting on it): surface the
            # death from the next _ensure_workers instead of losing it
            self._dead_unreported.append((w, pid))
        return pid

    def _ensure_workers(self) -> None:
        """Respawn dead workers; report each worker death exactly once.

        A slot that is ``None`` was already reported (its death was
        recovered or raised mid-call) and is respawned silently; a worker
        found dead *here* — killed between calls — is respawned too, but the
        death still surfaces as one clean :class:`BackendError` so callers
        never silently lose a worker.  With retries or degraded fallback
        enabled, between-call deaths are absorbed instead — they are counted
        in :meth:`health_stats` and the pool heals without failing any call.
        Either way the very next call runs on a complete pool.
        """
        for w in range(self.num_workers):
            if self._workers[w] is None:
                self._spawn(w)
                self._health["respawns"] += 1
            elif not self._workers[w].is_alive():
                self._mark_dead(w)  # lands in _dead_unreported
                self._spawn(w)
                self._health["respawns"] += 1
        unreported, self._dead_unreported = self._dead_unreported, []
        if unreported and not self._resilient:
            raise BackendError(
                f"strip worker(s) {unreported} died since the last call "
                f"(killed or crashed); the pool has respawned them — the "
                f"next call will run normally")

    def worker_pids(self) -> List[int]:
        """Live worker pids (fault-injection tests kill these)."""
        return [proc.pid for proc in self._workers if proc is not None]

    def update_strip(self, strip: int, matrix: CSCMatrix) -> None:
        """Swap one strip for a freshly-compacted matrix, versioned.

        Copies ``matrix`` into new shared-memory slabs, sends the owning
        worker an ``update_strip`` record, waits for its ack, and only then
        unlinks the old slabs (attach-after-unlink is a race; ack-first is
        not).  The strip's version is bumped and every subsequent call
        message carries the expected versions, so a worker that somehow
        still holds the stale strip fails that call with a clear
        :class:`BackendError` instead of returning stale results.  Requires
        no calls in flight — the sharded engines run their calls and their
        ``apply_updates``/``compact`` under one lock.  A worker that dies
        mid-update is simply left dead: its respawn (from ``_ensure_workers`` on the
        next call, which also reports the death once) attaches the already-
        updated strip specs.
        """
        from ..core.workspace import SharedSlab  # late: avoids import cycle

        if self._closed:
            raise BackendError("process backend is closed")
        if self._tokens:
            raise BackendError(
                f"update_strip({strip}) with {len(self._tokens)} call(s) "
                f"in flight; gather them first")
        if matrix.nrows != self._strips[strip].nrows:
            raise BackendError(
                f"strip {strip} replacement has {matrix.nrows} rows, "
                f"expected {self._strips[strip].nrows} (row ranges are "
                f"fixed at engine build)")
        old_slabs = list(self._strip_slabs[strip])
        arrays = {}
        new_slabs = []
        for name in self._array_names:
            slab = SharedSlab.create(getattr(matrix, name))
            self._slabs.append(slab)
            new_slabs.append(slab)
            arrays[name] = slab.meta
        version = self._strip_versions[strip] + 1
        spec = {"strip": strip, "shape": matrix.shape,
                "sorted": getattr(matrix, "sorted_within_columns", True),
                "arrays": arrays, "format": self._strip_format,
                "dtype": self._dtype.str, "version": version}
        # commit parent-side state first: even if the worker dies below, its
        # respawn, the in-parent path and the degraded fallback all see the
        # new strip
        self._strip_specs[strip] = spec
        self._strip_slabs[strip] = new_slabs
        self._strip_versions[strip] = version
        self._count_columns(strip, self._strips[strip], -1)
        self._count_columns(strip, matrix, 1)
        self._strips[strip] = matrix
        w = strip % self.num_workers
        key = (strip, version)
        if self._workers[w] is not None and self._send(w, _dumps(("update_strip", spec))):
            while key not in self._strip_acks:
                conn = self._conns[w]
                if conn is None:
                    break  # died mid-update; respawn reads the new specs
                try:
                    ready = conn.poll(0.2)
                except (EOFError, OSError):  # pragma: no cover - pipe torn down
                    self._mark_dead(w)
                    break
                if ready:
                    if not self._pump_worker(w):
                        break
                elif self._workers[w] is not None and \
                        not self._workers[w].is_alive():
                    self._mark_dead(w)
                    break
        self._strip_acks.discard(key)
        # nothing references the old segments anymore (worker swapped or died)
        for slab in old_slabs:
            try:
                self._slabs.remove(slab)
            except ValueError:  # pragma: no cover - already shut down
                continue
            slab.close()
            slab.unlink()

    def _count_columns(self, s: int, strip, sign: int) -> None:
        """Add (``sign=1``) or remove (``-1``) strip ``s``'s column counts."""
        if self._strip_format == "dcsc":  # only nonempty columns are stored
            counts = np.zeros(strip.ncols, dtype=np.int64)
            counts[strip.jc] = np.diff(strip.cp)
        else:
            counts = strip.column_counts()
        lo = self._col_lo[s]
        self._col_nnz[lo:lo + len(counts)] += sign * counts

    @staticmethod
    def _semiring_name(semiring: Semiring) -> str:
        """Encode a semiring for transport (registered semirings only).

        Built-in semirings carry lambdas, which do not pickle; both ends of
        the pipe therefore exchange registry *names*.  An unregistered
        custom semiring is rejected here, parent-side, with a clear message
        instead of a worker-side pickling failure.
        """
        try:
            if get_semiring(semiring.name) == semiring:
                return semiring.name
        except KeyError:
            pass
        raise NotSupportedError(
            f"the process backend ships semirings by registry name, and "
            f"{semiring!r} is not the registered semiring of that name; "
            f"use the emulated backend for ad-hoc semirings")

    # ------------------------------------------------------------------ #
    # comm plane: packing, granting, pumping
    # ------------------------------------------------------------------ #
    def _send(self, w: int, payload: bytes) -> bool:
        """Send one control record, pickled by :func:`_dumps`, to worker
        ``w``; never raises.

        A send that fails (worker already dead, pipe gone) marks the worker
        dead, which attributes every strip it still owed to the affected
        tokens' ``lost`` sets — the gather loop then retries, degrades, or
        raises, exactly as if the death had happened mid-compute.  Returns
        whether the send succeeded.
        """
        conn = self._conns[w]
        if conn is None:
            self._mark_dead(w)
            return False
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            self._mark_dead(w)
            return False
        self._comm["pipe_bytes_out"] += len(payload)
        self._comm["pipe_msgs_out"] += 1
        return True

    def _grant(self, token: _Inflight, strip: int) -> tuple:
        """Reserve a per-strip output region sized from observed history."""
        region = self._out_arenas[strip].reserve(
            self._grant_hint[token.op][strip])
        token.out_regions[strip] = region
        return self._out_arenas[strip].ref(region)

    def _begin_call(self, op: str, work: int,
                    call_args: Dict[str, object]) -> _Inflight:
        """Register one call that gathers ``work`` entries.

        Below :data:`POOL_MIN_WORK` the call will run in the parent at
        gather time and touches no worker or pipe; it stays registered until
        gathered, so :meth:`update_strip` refuses while it is queued.
        """
        if self._closed:
            raise BackendError("process backend is closed")
        inline = work < POOL_MIN_WORK
        if not inline:
            self._drain_ready()
            self._ensure_workers()
        self._call_seq += 1
        token = _Inflight(self._call_seq, op, inline, call_args)
        if self._deadline_s is not None:
            # the budget covers the whole call, measured from submission
            token.deadline_at = time.monotonic() + self._deadline_s
        self._tokens[token.call_id] = token
        self._comm["inline_calls" if inline else "calls"] += 1
        return token

    def _drain_ready(self) -> None:
        """Route any replies already sitting in the pipes (non-blocking)."""
        for w in range(self.num_workers):
            conn = self._conns[w]
            while conn is not None and conn.poll(0):
                if not self._pump_worker(w):
                    break

    def _pump_worker(self, w: int) -> bool:
        """Receive + route one reply from worker ``w``; False if it died."""
        conn = self._conns[w]
        if conn is None:
            return False
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            self._mark_dead(w)
            return False
        self._comm["pipe_bytes_in"] += len(payload)
        self._comm["pipe_msgs_in"] += 1
        reply = pickle.loads(payload)
        self._route(w, reply)
        return True

    def _route(self, w: int, reply) -> None:
        kind, call_id = reply[0], reply[1]
        if kind == "strip_updated":
            self._strip_acks.add((reply[1], reply[2]))
            return
        token = self._tokens.get(call_id)
        if token is None:
            return  # reply for a call that was already finalized
        if kind == "done":
            _, _, outs, stats = reply
            self._stats.update(stats)
            token.pending.discard(w)
            grows: Dict[int, int] = {}
            for strip, status, payload in outs:
                if status == "ok":
                    token.payloads[strip] = payload
                    token.outstanding.get(w, set()).discard(strip)
                elif status == "err":
                    token.errors[strip] = payload
                    token.outstanding.get(w, set()).discard(strip)
                else:  # grow: result retained worker-side, needs a bigger grant
                    grows[strip] = int(payload)
            if grows:
                self._comm["output_overflows"] += len(grows)
                refs = {}
                for strip, needed in grows.items():
                    arena = self._out_arenas[strip]
                    arena.release(token.out_regions[strip])
                    hint = self._grant_hint[token.op]
                    hint[strip] = max(hint[strip], needed + needed // 4)
                    region = arena.reserve(needed)
                    token.out_regions[strip] = region
                    refs[strip] = arena.ref(region)
                if self._send(w, _dumps(("flush", call_id, refs))):
                    token.flushing.add(w)
            else:
                token.outstanding.pop(w, None)
        elif kind == "flushed":
            _, _, flushed = reply
            token.flushing.discard(w)
            for strip, (status, payload) in flushed.items():
                if status == "ok":
                    token.payloads[strip] = payload
                else:  # pragma: no cover - re-granted region still too small
                    token.errors[strip] = payload
                token.outstanding.get(w, set()).discard(strip)
            if not token.outstanding.get(w):
                token.outstanding.pop(w, None)
        if token.abandoned and token.complete:
            self._finalize(token)

    def _pump_token(self, token: _Inflight) -> None:
        """Block until every strip of this call is resolved.

        Resolution means: an ``ok``/``err`` record routed, a lost strip
        recovered (re-dispatched within the :class:`RetryPolicy` budget or
        recomputed in-process under ``degraded_fallback``), or — past the
        budget with fallback off — exactly one :class:`BackendError` for
        the whole call.  A configured ``deadline`` is checked before every
        wait, so a stalled worker can never hang the gather past its
        budget: the call is abandoned (regions release as late replies
        drain) and :class:`~repro.errors.DeadlineError` raised.  An
        in-parent call resolves by running its strips now.
        """
        if token.inline:
            self._run_inline(token)
            return
        while True:
            if token.lost:
                self._recover(token)
            if not token.pending and not token.flushing:
                return
            if token.deadline_at is not None and \
                    time.monotonic() >= token.deadline_at:
                self._deadline_hit(
                    f"with worker(s) {sorted(token.pending | token.flushing)} "
                    f"still running; the call was abandoned — its "
                    f"shared-memory regions are released as the late "
                    f"replies drain")
            waiting = token.pending or token.flushing
            w = next(iter(waiting))
            conn = self._conns[w]
            if conn is None:
                # raced with a death detected elsewhere; _mark_dead already
                # moved its strips to token.lost
                self._mark_dead(w)
                continue
            if token.deadline_at is None:
                self._pump_worker(w)
                continue
            remaining = token.deadline_at - time.monotonic()
            try:
                ready = conn.poll(min(max(remaining, 0.0), 0.2))
            except (EOFError, OSError):  # pragma: no cover - pipe torn down
                self._mark_dead(w)
                continue
            if ready:
                self._pump_worker(w)

    def _deadline_hit(self, detail: str) -> None:
        """Count a call that exceeded its deadline and raise DeadlineError."""
        self._health["deadline_hits"] += 1
        raise DeadlineError(
            f"backend call exceeded its {self._deadline_s:.3f}s deadline "
            f"{detail}, and no partial result is returned")

    def _run_inline(self, token: _Inflight) -> None:
        """Run an in-parent call's strips now, in strip order; like the
        emulated backend, check the deadline before each strip and stop at
        the first (lowest) failing strip."""
        for s in range(self.num_strips):
            if token.deadline_at is not None and \
                    time.monotonic() >= token.deadline_at:
                self._deadline_hit(f"in the parent before strip {s} started")
            self._run_local(token, s)
            if token.local_errors:
                return

    def _run_local(self, token: _Inflight, strip: int) -> None:
        """Compute one strip of a call in the parent, bit-identical to the
        worker's result; a kernel exception is kept, annotated with the
        strip id, exactly as a worker-side failure would surface."""
        try:
            token.local_results[strip] = run_strip(
                token.op, strip, self._strips[strip], self.shard_ctx,
                self._workspaces[strip], token.call_args)
        except Exception as exc:
            token.local_errors[strip] = _attach_strip_id(exc, strip, self.name)
            return
        self._stats[strip] = self._workspaces[strip].stats()

    # ------------------------------------------------------------------ #
    # resilience: re-dispatch, degraded fallback
    # ------------------------------------------------------------------ #
    def _dispatch(self, token: _Inflight, w: int, strips: Sequence[int]) -> None:
        """(Re-)send a subset of the call's strips to worker ``w``.

        Builds the call message from the token's encoded arguments with
        fresh output grants — the input region is still held by the token,
        so the resent call reads the exact bytes of the original dispatch
        and its results are bit-identical.  Bookkeeping
        (``pending``/``outstanding``) is updated *before* the send so a send
        failure attributes the strips as lost.
        """
        strips = sorted(strips)
        out_refs = {}
        for s in strips:
            old = token.out_regions.pop(s, None)
            if old is not None:
                self._out_arenas[s].release(old)
            out_refs[s] = self._grant(token, s)
            token.attempts[s] = token.attempts.get(s, 0) + 1
        payload = _dumps((token.op, token.call_id, strips,
                          {s: self._strip_versions[s] for s in strips},
                          token.shared, token.in_ref,
                          {s: token.strip_specs[s] for s in strips}, out_refs))
        token.pending.add(w)
        token.outstanding.setdefault(w, set()).update(strips)
        self._send(w, payload)

    def _recover(self, token: _Inflight) -> None:
        """Resolve the call's lost strips: retry, degrade, or raise."""
        lost, token.lost = sorted(token.lost), set()
        retryable: List[int] = []
        exhausted: List[int] = []
        for s in lost:
            if token.attempts.get(s, 1) < self._retry.max_attempts and \
                    token.redispatches < self._retry.budget:
                retryable.append(s)
                token.redispatches += 1
            else:
                exhausted.append(s)
        if retryable:
            self._health["retries"] += len(retryable)
            # exponential backoff before the i-th re-dispatch of a strip,
            # clipped so it can never sleep the call past its deadline
            max_prior = max(token.attempts.get(s, 1) for s in retryable)
            delay = self._retry.backoff_s * (2 ** (max_prior - 1))
            if delay > 0:
                if token.deadline_at is not None:
                    delay = min(delay, max(
                        0.0, token.deadline_at - time.monotonic()))
                time.sleep(delay)
            for w in range(self.num_workers):
                if self._workers[w] is None:
                    self._spawn(w)
                    self._health["respawns"] += 1
            by_worker: Dict[int, List[int]] = {}
            for s in retryable:
                by_worker.setdefault(s % self.num_workers, []).append(s)
            for w, strips in by_worker.items():
                self._dispatch(token, w, strips)
        if exhausted:
            if self._degraded_fallback:
                if not token.used_fallback:
                    token.used_fallback = True
                    self._health["fallback_calls"] += 1
                for s in exhausted:
                    # nothing will ever write the strip's output region
                    old = token.out_regions.pop(s, None)
                    if old is not None:
                        self._out_arenas[s].release(old)
                    self._health["fallback_strips"] += 1
                    self._run_local(token, s)
            else:
                w, pid = token.last_death or (None, None)
                raise BackendError(
                    f"strip(s) {exhausted} lost to worker death (last: "
                    f"worker {w}, pid {pid}) after "
                    f"{max(token.attempts.get(s, 1) for s in exhausted)} "
                    f"attempt(s); retry policy {self._retry} exhausted — "
                    f"the pool respawns dead workers on the next call")

    def _finalize(self, token: _Inflight) -> None:
        """Release the call's arena regions once nothing can still write them."""
        if not token.complete:
            token.abandoned = True  # finalized by _route on the last reply
            return
        if token.finalized:
            return
        token.finalized = True
        if token.input_region is not None:
            self._input_arena.release(token.input_region)
        for strip, region in token.out_regions.items():
            self._out_arenas[strip].release(region)
        self._tokens.pop(token.call_id, None)

    def _read_results(self, token: _Inflight, strip: int) -> List:
        """Copy a strip's packed results out of its output region (see
        :func:`_result_arrays`), and grow the strip's grant hint to fit."""
        from ..core.workspace import unpack_arrays  # late: avoids import cycle

        region = self._out_arenas[strip].view(token.out_regions[strip])
        results = []
        for descs, meta in token.payloads[strip]:
            arrays = unpack_arrays(region, descs)
            self._comm["slab_bytes_out"] += sum(a.nbytes for a in arrays)
            results.append(_result_from_arrays(arrays, meta))
        if token.payloads[strip]:
            total = _payload_nbytes(
                [d for descs, _meta in token.payloads[strip] for d in descs])
            hint = self._grant_hint[token.op]
            hint[strip] = max(hint[strip], total + total // 4)
        return results

    def _raise_strip_error(self, token: _Inflight) -> None:
        """Re-raise the lowest-strip kernel exception, worker- or parent-side."""
        strips = set(token.errors) | set(token.local_errors)
        if not strips:
            return
        strip = min(strips)
        if strip in token.local_errors:
            raise token.local_errors[strip]
        raise _load_exception(token.errors[strip], strip)

    # ------------------------------------------------------------------ #
    # ExecutionBackend interface: run = gather(submit)
    # ------------------------------------------------------------------ #
    def submit(self, op: str, **args) -> _Inflight:
        """First half of :meth:`run`: register the call, send its strips out.

        Every array of ``args`` is packed once into the input arena; the
        shared arguments go to every worker, and each strip's own argument
        (``args[name][s]``, see :func:`run_strip`) only to the worker that
        owns the strip.  A call below :data:`POOL_MIN_WORK` packs and sends
        nothing: it runs in the parent when gathered.  Returns the token to
        pass to :meth:`gather`.
        """
        self._semiring_name(args["semiring"])
        if op == "multiply":
            work = int(self._col_nnz[args["x"].indices].sum())
        elif op == "block":
            # each union column is gathered once per vector that holds it
            block = args["block"]
            work = int(self._col_nnz[block.indices]
                       @ np.count_nonzero(block.member, axis=1))
        else:  # a column strip reads only its own frontier slice
            work = sum(int(self._col_nnz[lo + idx].sum())
                       for (idx, _vals, _gpos), lo in zip(args["slices"],
                                                          self._col_lo))
        token = self._begin_call(op, work, args)
        if token.inline:
            return token
        from ..core.workspace import pack_arrays  # late: avoids import cycle

        try:
            strip_arg = _STRIP_ARG[op]
            packing = _Packing()
            token.shared = {name: _encode(value, packing)
                            for name, value in args.items() if name != strip_arg}
            token.strip_specs = [_encode(value, packing)
                                 for value in args[strip_arg]]
            token.input_region = self._input_arena.reserve(packing.nbytes)
            pack_arrays(self._input_arena.view(token.input_region), packing.arrays)
            token.in_ref = self._input_arena.ref(token.input_region)
            self._comm["slab_bytes_in"] += packing.nbytes
            for w in range(self.num_workers):
                if self.assignment[w]:
                    self._dispatch(token, w, self.assignment[w])
        except BaseException:
            # finalized like an abandoned call: the regions of strips already
            # sent are released once their late replies drain
            self._finalize(token)
            raise
        return token

    def gather(self, token: _Inflight) -> List[List]:
        """Second half of :meth:`run`: the call's per-strip result lists.

        Re-raises the lowest failing strip's kernel exception; the call's
        slab regions are released either way.
        """
        try:
            self._pump_token(token)
            self._raise_strip_error(token)
            return [token.local_results[s] if s in token.local_results
                    else self._read_results(token, s)
                    for s in range(self.num_strips)]
        finally:
            self._finalize(token)

    def run(self, op, args):
        return self.gather(self.submit(op, **args))

    # bound here by name too: perfbench's tracer wraps the entry points it
    # finds in this class's own ``__dict__``
    run_multiply = ExecutionBackend.run_multiply
    run_block = ExecutionBackend.run_block
    run_partial = ExecutionBackend.run_partial

    def workspace_stats(self):
        # a strip no call has reached reads as the parent's untouched workspace
        return [self._stats.get(s) or self._workspaces[s].stats()
                for s in range(self.num_strips)]

    def comm_stats(self) -> Dict[str, float]:
        """Comm-plane accounting: pipe vs. slab traffic, growth, calls in flight.

        ``calls`` and every byte counter count pool round trips only;
        ``inline_calls`` counts the calls that ran in the parent.
        """
        stats = dict(self._comm)
        stats["inflight"] = len(self._tokens)
        stats["input_grows"] = self._input_arena.grow_count
        stats["output_grows"] = sum(a.grow_count for a in self._out_arenas)
        stats["input_arena_bytes"] = self._input_arena.capacity
        stats["output_arena_bytes"] = sum(a.capacity for a in self._out_arenas)
        return stats

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting: deaths, retries, fallbacks, deadlines.

        ``worker_deaths`` is a per-worker-slot death count; ``respawns``
        counts replacement workers started; ``retries`` counts strip
        re-dispatches after a death; ``fallback_calls``/``fallback_strips``
        count calls (and strips within them) served by the in-process
        degraded path; ``deadline_hits`` counts calls abandoned at their
        deadline.  All zero on a healthy pool.
        """
        stats = dict(self._health)
        stats["worker_deaths"] = list(self._health["worker_deaths"])
        return stats

    def segment_names(self) -> List[str]:
        """Names of the live shared-memory segments (leak checks)."""
        names = [slab.name for slab in self._slabs]
        for arena in self._arenas:
            names.extend(arena.segment_names())
        return names

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the pool and release every shared-memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._tokens.clear()
        self._finalizer.detach()
        _shutdown_pool(self._workers, self._conns, self._slabs, self._arenas,
                       self._shutdown_timeouts)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "emulated": EmulatedBackend,
    "process": ProcessBackend,
}


def register_backend(name: str, factory: Callable[..., ExecutionBackend], *,
                     overwrite: bool = False) -> None:
    """Register an execution backend under a context-selectable name.

    ``factory`` is called with the keyword arguments of
    :func:`make_backend` (``strips``, ``shard_ctx``, ``dtype``, ``workers``,
    ``scheme``) and must return an :class:`ExecutionBackend`, whose one
    call method is :meth:`ExecutionBackend.run`.
    """
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Names of all registered execution backends."""
    return sorted(_BACKENDS)


def make_backend(name: str, *, strips: Sequence[CSCMatrix],
                 shard_ctx: ExecutionContext, dtype,
                 workers: int = 0, scheme: str = "row") -> ExecutionBackend:
    """Build the backend ``name`` for one sharded engine's strips.

    ``scheme`` names the partition the strips came from: ``"row"``
    (horizontal CSC strips, the default) or ``"column"`` (vertical
    :class:`~repro.formats.dcsc.DCSCMatrix` strips, enabling the
    ``run_partial`` column-split operation).  When the
    ``REPRO_BACKEND_FAULTS`` environment variable carries a fault plan (see
    :mod:`repro.parallel.faults`), requests for the ``process`` backend are
    transparently rerouted to the ``chaos`` backend, so every call site
    that selects the process backend — including suites that name it
    explicitly — runs under the seeded injected faults.
    """
    if name == "process" and os.environ.get(_FAULTS_ENV):
        from . import faults  # noqa: F401  (registers the chaos backend)
        name = "chaos"
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise NotSupportedError(
            f"unknown execution backend {name!r}; available: "
            f"{available_backends()}") from None
    return factory(strips=strips, shard_ctx=shard_ctx, dtype=dtype,
                   workers=workers, scheme=scheme)
