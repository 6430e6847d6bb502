"""The SpMSpV execution engine: one protocol over three layouts.

:class:`SpMSpVEngine` runs every multiplication of one matrix.  It is the
``whole`` layout, which keeps the matrix as one strip (``strips ==
[matrix]``), and the base class of the two partitionings of §II-F: the row
split (:class:`~repro.core.sharded.ShardedEngine`) and the column split
(:class:`~repro.core.column_sharded.ColumnShardedEngine`), which cut it into
P strips run by an execution backend.  A layout supplies its partition, its
``multiply`` (inline kernel, concatenated row strips, or reduced column
partials) and a ``_replace_strip`` hook; everything else is defined here,
once:

* **Persistent workspaces** (§III-A "Memory allocation") — the whole layout
  owns one :class:`~repro.core.workspace.SpMSpVWorkspace` (the bucket store
  the bucket kernel fills at ``num_threads > 1`` and the fused kernel's
  block buffers; every kernel merges through
  :func:`~repro.core.buckets.merge_rows`, whose SPA is built per call) and
  threads it through every kernel call, so an iterative algorithm allocates
  no buffer per iteration.
* **One kernel per engine** — every call runs the registered kernel it is
  given (the engine default is the paper's bucket algorithm, overridable
  per call) and records the call's measured wall time in the call log.
* **Batched multi-vector execution** — :meth:`SpMSpVEngine.multiply_many`
  validates and numbers a block of input vectors (multi-source BFS
  frontiers, blocked PageRank deltas) and runs one call per vector by
  default, or — with ``block_mode="fused"`` — the layout's fused block
  path (:func:`repro.core.spmspv_block.spmspv_bucket_block`), one gather
  and one scatter for the whole vector block.
* **Edge updates** — :meth:`~SpMSpVEngine.apply_updates` validates a batch
  once and routes it into one :class:`~repro.formats.delta.DeltaLog` per
  strip (``deltas``; the whole layout's log is ``deltas[0]``).  Reads
  overlay a per-strip patch correction until a strip crosses the
  compaction break-even and is rebuilt alone; ``matrix`` joins the strips
  again on its next read.
* **Lifecycle and reporting** — ``close``, ``health_stats``,
  ``delta_stats``, ``effective_matrix`` and one ``summary`` shape for
  every layout.

:func:`engine_for` caches whole-layout engines per ``(matrix, context)`` so
the backward-compatible :func:`repro.core.dispatch.spmspv` entry point also
executes through the engine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats.csc import CSCMatrix
from ..formats.delta import (
    DeltaLog,
    apply_delta,
    build_patch,
    check_updates,
    splice_overlay,
)
from ..formats.partition import join_strips
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.backends import ExecutionBackend, idle_health
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord
from ..semiring import PLUS_TIMES, Semiring
from .result import SpMSpVResult
from .vector_ops import Mask
from .workspace import SpMSpVWorkspace

#: default compaction break-even: rebuild a matrix (or strip) once the
#: delta-touched rows carry more than this fraction of its nonzeros.  The
#: overlay pays ~c1·patch_nnz extra kernel work per multiply while a rebuild
#: pays ~c2·nnz·log(nnz) once, so over an expected query horizon H the
#: break-even is patch_nnz > (c2·log(nnz)/(H·c1))·nnz — a constant fraction
#: for the steady-state serving workloads this repo targets.
COMPACT_FRACTION = 0.25


def merge_overlay_record(base: ExecutionRecord,
                         patch: ExecutionRecord) -> ExecutionRecord:
    """One record for a base ⊕ delta overlay execution.

    The patch kernel's phases are appended under ``delta:``-prefixed names so
    the cost model prices the overlay's extra work (and reporting can see
    it), without colliding with the base phases that per-strip record merging
    matches by name.
    """
    return ExecutionRecord(
        base.algorithm, base.num_threads, info=dict(base.info),
        wall_time_s=base.wall_time_s + patch.wall_time_s,
        table=base.table + tuple(("delta:" + name, *rest) for name, *rest in patch.table),
        counts=np.concatenate([base.counts, patch.counts]))


def check_block_mode(block_mode: str) -> None:
    """Raise ``ValueError`` unless ``block_mode`` names a batched path: the
    per-vector loop (``"looped"``, the default) or the fused block kernel."""
    if block_mode not in ("looped", "fused"):
        raise ValueError(f"block_mode must be looped|fused, got {block_mode!r}")


@dataclass
class EngineCall:
    """One executed call of an engine (the unit of the reporting layer)."""

    index: int
    algorithm: str
    f: int
    density: float
    #: measured wall time of the call (its record's ``wall_time_s`` in ms)
    wall_ms: float
    #: batch id for calls issued through multiply_many, else None
    batch: Optional[int] = None
    #: True when the call was served by the fused block kernel
    fused: bool = False


class SpMSpVEngine:
    """Persistent-workspace SpMSpV executor for one matrix.

    This class is the ``whole`` layout — one strip, the matrix itself, run
    inline through the kernel — and the base of the row and column layouts,
    which share its call log, batches, updates, compaction, lifecycle and
    reporting.

    Parameters
    ----------
    matrix:
        The matrix every multiplication of this engine uses.
    ctx:
        Execution context shared by all calls (defaults to a single-threaded
        Edison context).
    algorithm:
        Default kernel: a registered algorithm name (``"bucket"`` unless
        given).  Overridable per call.  An unknown name raises
        :class:`~repro.errors.NotSupportedError`.
    workspace:
        An externally owned workspace to share (e.g. between engines over the
        same matrix); by default the engine allocates its own.
    """

    #: how the matrix is cut into strips: "whole", "row" or "column"
    scheme = "whole"
    #: the coordinate (0: row, 1: column) that routes an update to its strip
    _split_axis = 0
    #: the strip executor of the sharded layouts; the whole layout has none
    backend: Optional[ExecutionBackend] = None
    #: compaction break-even (see :data:`COMPACT_FRACTION`), settable per
    #: engine; the column layout ignores it (it compacts every update)
    compact_fraction = COMPACT_FRACTION

    def __init__(self, matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "bucket",
                 workspace: Optional[SpMSpVWorkspace] = None):
        self._init_layout(matrix, ctx, algorithm, strips=[matrix], lows=[0])
        self.workspace = (workspace if workspace is not None
                          else SpMSpVWorkspace(matrix.nrows, dtype=matrix.dtype))

    def _init_layout(self, matrix: CSCMatrix, ctx: Optional[ExecutionContext],
                     algorithm: str, *, strips: List[CSCMatrix],
                     lows: Sequence[int]) -> None:
        """State every layout shares; ``lows[s]`` is the first row (or, for
        a column split, column) of strip ``s``."""
        from .dispatch import get_algorithm  # late: avoids import cycle

        get_algorithm(algorithm)  # an unknown default fails before any pool starts
        self._matrix: Optional[CSCMatrix] = matrix
        #: shape and nnz of ``matrix``, which calls read without a join
        self.nrows, self.ncols = matrix.shape
        self.nnz = matrix.nnz
        self.ctx = ctx if ctx is not None else default_context()
        self.algorithm = algorithm
        #: the base strips (CSC); for the whole layout, ``[matrix]``
        self.strips = strips
        self._lows = np.asarray(lows, dtype=np.int64)
        strip_nnz = np.array([strip.nnz for strip in strips], dtype=np.float64)
        mean_nnz = float(strip_nnz.mean())
        #: static max/mean stored-entry balance of the partition
        self.nnz_balance = float(strip_nnz.max() / mean_nnz) if mean_nnz > 0 else 1.0
        #: recent calls (trimmed beyond max_history; lifetime aggregates
        #: live in total_calls / total_wall_ms)
        self.history: List[EngineCall] = []
        self.max_history = 4096
        self.total_calls = 0
        self.total_wall_ms = 0.0
        self._batches = 0
        self._fused_batches = 0
        #: per-strip pending edge updates overlaid on the base strips (see
        #: formats.delta); each strip compacts on its own
        self.deltas: List[DeltaLog] = [DeltaLog(strip.shape) for strip in strips]
        self.compactions = 0
        self._patches: List[Optional[Tuple[CSCMatrix, np.ndarray]]] = \
            [None] * len(strips)
        self._row_nnz: List[Optional[np.ndarray]] = [None] * len(strips)
        # one call at a time per engine (workspaces are not reentrant);
        # reentrant because a batch holds it across its per-vector calls
        self._lock = threading.RLock()

    @property
    def num_shards(self) -> int:
        return len(self.strips)

    # ------------------------------------------------------------------ #
    # dynamic updates (per-strip delta overlay + compaction)
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates, routed to the owning strips' delta logs.

        ``values=None`` deletes the listed edges; otherwise each ``(row,
        col)`` is inserted (or reweighted if present).  The whole batch is
        validated before any strip records it, so a malformed batch
        (:func:`~repro.formats.delta.check_updates`) changes nothing.
        Updates take effect on the very next multiply via the delta overlay
        — the base strips and their workspaces stay warm.  A strip whose
        delta-touched rows carry more than ``compact_fraction`` of its
        nonzeros compacts **alone**: it is rebuilt once, handed to
        :meth:`_replace_strip`, and its delta resets.
        """
        with self._lock:
            rows, cols, values = check_updates((self.nrows, self.ncols),
                                               rows, cols, values)
            compacted: List[int] = []
            for s, local_rows, local_cols, local_values in self._route(
                    rows, cols, values):
                if local_values is None:
                    self.deltas[s].delete_edges(local_rows, local_cols)
                else:
                    self.deltas[s].set_edges(local_rows, local_cols, local_values)
                self._patches[s] = None
                if self._maybe_compact_locked(s):
                    compacted.append(s)
            return {"applied": len(rows),
                    "delta_entries": sum(d.entries for d in self.deltas),
                    "compacted": bool(compacted),
                    "compacted_strips": compacted}

    def _route(self, rows: np.ndarray, cols: np.ndarray, values: Optional[np.ndarray]):
        """Split a validated update batch by owning strip; yields ``(strip,
        rows, cols, values)`` in strip-local coordinates."""
        strip_of = np.searchsorted(self._lows, cols if self._split_axis else rows,
                                   side="right") - 1
        for s in np.unique(strip_of).tolist():
            sel = strip_of == s
            lo = self._lows[s]
            yield (s, rows[sel] - (0 if self._split_axis else lo),
                   cols[sel] - (lo if self._split_axis else 0),
                   None if values is None else values[sel])

    def _maybe_compact_locked(self, s: int) -> bool:
        """Compact strip ``s`` once its overlay costs more than a rebuild:
        the patch nnz a multiply pays exceeds ``compact_fraction`` of the
        strip's nonzeros."""
        delta = self.deltas[s]
        if delta.is_empty:
            return False
        if self._row_nnz[s] is None:
            self._row_nnz[s] = self.strips[s].row_counts()
        patch_nnz = int(self._row_nnz[s][delta.touched_rows()].sum()) + delta.entries
        if patch_nnz <= self.compact_fraction * max(self.strips[s].nnz, 1):
            return False
        return self._compact_locked(s)

    def _compact_locked(self, s: int) -> bool:
        if self.deltas[s].is_empty:
            return False
        strip = apply_delta(self.strips[s], self.deltas[s])
        self._replace_strip(s, strip)
        self.strips[s] = strip
        self._matrix = None  # the strips are joined again on the next read
        self.nnz = sum(strip.nnz for strip in self.strips)
        self.deltas[s] = DeltaLog(strip.shape)
        self._patches[s] = None
        self._row_nnz[s] = None
        self.compactions += 1
        return True

    def _replace_strip(self, s: int, strip: CSCMatrix) -> None:
        """Where a compacted strip goes before it becomes ``strips[s]``: the
        whole layout computes with ``strips[0]`` directly; the sharded
        layouts push it to their backend."""

    @property
    def matrix(self) -> CSCMatrix:
        """The matrix the base strips hold, pending deltas aside: a
        compaction drops it, and the next read joins the strips in O(nnz)."""
        with self._lock:
            if self._matrix is None:
                self._matrix = join_strips(self.strips, self._split_axis)
            return self._matrix

    def compact(self, strip: Optional[int] = None) -> bool:
        """Fold pending deltas into their base strips now (only ``strip``
        when given); True if any compaction ran."""
        with self._lock:
            if strip is not None:
                return self._compact_locked(strip)
            return any([self._compact_locked(s) for s in range(self.num_shards)])

    def effective_matrix(self) -> CSCMatrix:
        """The full matrix this engine currently computes with (base ⊕ delta)."""
        with self._lock:
            return join_strips([strip if delta.is_empty else apply_delta(strip, delta)
                                for strip, delta in zip(self.strips, self.deltas)],
                               self._split_axis)

    def delta_stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "events": sum(len(d) for d in self.deltas),
                "entries": sum(d.entries for d in self.deltas),
                "per_strip_entries": [d.entries for d in self.deltas],
                "compactions": self.compactions,
            }

    def _patch_locked(self, s: int) -> Tuple[CSCMatrix, np.ndarray]:
        """Strip ``s``'s ``(patch, touched)`` pair, built on the first read
        after a write (the strip must have pending updates)."""
        if self._patches[s] is None:
            self._patches[s] = build_patch(self.strips[s], self.deltas[s])
        return self._patches[s]

    def _overlay_locked(self, s: int, fn, base: SpMSpVResult, x: SparseVector,
                        ctx: ExecutionContext, *, semiring: Semiring,
                        sorted_output: Optional[bool], mask: Optional[Mask],
                        mask_complement: bool, workspace: object,
                        kwargs: Dict) -> SpMSpVResult:
        """Patch-correct strip ``s``'s base result (same kernel, same inputs,
        same mask)."""
        patch, touched = self._patch_locked(s)
        pres = fn(patch, x, ctx, semiring=semiring, sorted_output=sorted_output,
                  mask=mask, mask_complement=mask_complement, workspace=workspace,
                  **kwargs)
        return SpMSpVResult(vector=splice_overlay(base.vector, pres.vector, touched),
                            record=merge_overlay_record(base.record, pres.record),
                            info=dict(base.info, delta_patch_nnz=patch.nnz))

    def _overlay_block_locked(self, s: int, results: List[SpMSpVResult],
                              block: SparseVectorBlock, ctx: ExecutionContext, *,
                              semiring: Semiring, sorted_output: Optional[bool],
                              masks, mask_complement: bool,
                              workspace: SpMSpVWorkspace) -> List[SpMSpVResult]:
        """:meth:`_overlay_locked` for one fused block call on strip ``s``."""
        from .spmspv_block import spmspv_bucket_block  # late: avoids import cycle

        patch, touched = self._patch_locked(s)
        presults = spmspv_bucket_block(
            patch, block, ctx, semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, workspace=workspace)
        return [SpMSpVResult(vector=splice_overlay(r.vector, p.vector, touched),
                             record=merge_overlay_record(r.record, p.record),
                             info=dict(r.info, delta_patch_nnz=patch.nnz))
                for r, p in zip(results, presults)]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _log_call(self, algorithm: str, f: int, n: int, wall_ms: float,
                  batch: Optional[int], fused: bool = False) -> None:
        """Append one executed call to the history and lifetime totals."""
        self.history.append(EngineCall(
            index=self.total_calls, algorithm=algorithm, f=f,
            density=f / max(n, 1), wall_ms=wall_ms, batch=batch, fused=fused))
        self.total_calls += 1
        self.total_wall_ms += wall_ms
        if len(self.history) > 2 * self.max_history:
            # cached engines live for the process: keep memory bounded
            del self.history[:len(self.history) - self.max_history]

    def multiply(self, x: SparseVector, *,
                 semiring: Semiring = PLUS_TIMES,
                 sorted_output: Optional[bool] = None,
                 mask: Optional[Mask] = None,
                 mask_complement: bool = False,
                 algorithm: Optional[str] = None,
                 workspace: Optional[object] = None,
                 _batch: Optional[int] = None,
                 **kwargs) -> SpMSpVResult:
        """Run ``y <- A x`` through the engine's (or the given) kernel."""
        from .dispatch import get_algorithm  # late: avoids import cycle

        with self._lock:
            name = algorithm if algorithm is not None else self.algorithm
            fn = get_algorithm(name)
            if workspace is None:
                workspace = self.workspace
            result = fn(self.strips[0], x, self.ctx, semiring=semiring,
                        sorted_output=sorted_output, mask=mask,
                        mask_complement=mask_complement, workspace=workspace,
                        **kwargs)
            if not self.deltas[0].is_empty:
                result = self._overlay_locked(
                    0, fn, result, x, self.ctx, semiring=semiring,
                    sorted_output=sorted_output, mask=mask,
                    mask_complement=mask_complement, workspace=workspace,
                    kwargs=kwargs)
            self._log_call(name, x.nnz, x.n, result.record.wall_time_s * 1e3, _batch)
            return result

    # ------------------------------------------------------------------ #
    # blocked execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _block_eligible(xs: List[SparseVector], algorithm: str,
                        kwargs: Dict) -> bool:
        """Whether this batch can run through the fused block kernel.

        The fused kernel is the block variant of the bucket algorithm, so the
        batch must run ``"bucket"``; it also needs ≥ 2 vectors of one dtype
        (mixed-dtype blocks would promote the value slab and break
        bit-identity with per-vector calls) and no kernel-specific kwargs.
        """
        return (algorithm == "bucket" and len(xs) >= 2 and not kwargs
                and len({x.dtype for x in xs}) == 1)

    def multiply_block(self, block: SparseVectorBlock, *,
                       semiring: Semiring = PLUS_TIMES,
                       sorted_output: Optional[bool] = None,
                       masks: Optional[Sequence[Optional[Mask]]] = None,
                       mask_complement: bool = False,
                       algorithm: Optional[str] = None,
                       block_mode: str = "looped") -> List[SpMSpVResult]:
        """Blocked execution of an **already-packed** :class:`SparseVectorBlock`.

        The batch entry point of the serving layer: a coalescer that packed
        concurrent requests into one block (it needs the block anyway, to
        demultiplex per-request results through the block's positions) hands
        it straight to the engine — the fused path reuses the pack instead of
        re-deriving the column union, and results come back one per member
        vector, in pack order, bit-identical to :meth:`multiply_many` over
        ``block.to_vectors()``.
        """
        return self.multiply_many(
            block.to_vectors(), semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, _block=block)

    def multiply_many(self, xs: Sequence[SparseVector], *,
                      semiring: Semiring = PLUS_TIMES,
                      sorted_output: Optional[bool] = None,
                      masks: Optional[Sequence[Optional[Mask]]] = None,
                      mask_complement: bool = False,
                      algorithm: Optional[str] = None,
                      block_mode: str = "looped",
                      _block: Optional[SparseVectorBlock] = None,
                      **kwargs) -> List[SpMSpVResult]:
        """Blocked execution of one matrix against many input vectors.

        The whole batch shares the engine's workspace and one kernel.  The
        default ``block_mode="looped"`` runs one kernel call per vector —
        the faster path at ``num_threads=1``.  ``"fused"`` runs an
        eligible batch (see :meth:`_block_eligible`) through the **fused
        block kernel** instead: one gather, one masked scatter and one
        segmented merge for the whole block
        (:func:`~repro.core.spmspv_block.spmspv_bucket_block`).  Per-vector
        ``masks`` are folded into the fused scatter, so masked batches
        (multi-source BFS frontiers, restricted PageRank) do O(surviving
        pairs) merge work.  Both paths return bit-identical results.  This
        is the multi-source BFS / blocked PageRank entry point.
        """
        return self._run_batch(
            self._multiply_block, xs, semiring=semiring,
            sorted_output=sorted_output, masks=masks,
            mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, block=_block, kwargs=kwargs)

    def _run_batch(self, fused, xs: Sequence[SparseVector], *,
                   semiring: Semiring, sorted_output: Optional[bool],
                   masks: Optional[Sequence[Optional[Mask]]],
                   mask_complement: bool, algorithm: Optional[str],
                   block_mode: str, block: Optional[SparseVectorBlock],
                   kwargs: Dict) -> List[SpMSpVResult]:
        """Validate and number one batch, then run it: through the layout's
        ``fused`` path when asked and eligible, else one :meth:`multiply`
        per vector (an ineligible batch, e.g. a single surviving BFS
        frontier, quietly loops, which is bit-identical anyway)."""
        check_block_mode(block_mode)
        xs = list(xs)
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} vectors but {len(masks)} masks")
        name = algorithm if algorithm is not None else self.algorithm
        with self._lock:
            batch = self._batches
            self._batches += 1
            if block_mode == "fused" and self._block_eligible(xs, name, kwargs):
                return fused(xs, batch=batch, semiring=semiring,
                             sorted_output=sorted_output, masks=masks,
                             mask_complement=mask_complement, block=block)
            return [self.multiply(x, semiring=semiring, sorted_output=sorted_output,
                                  mask=masks[i] if masks is not None else None,
                                  mask_complement=mask_complement, algorithm=name,
                                  _batch=batch, **kwargs)
                    for i, x in enumerate(xs)]

    def _multiply_block(self, xs: List[SparseVector], *, batch: int,
                        semiring: Semiring, sorted_output: Optional[bool],
                        masks: Optional[Sequence[Optional[Mask]]],
                        mask_complement: bool,
                        block: Optional[SparseVectorBlock] = None
                        ) -> List[SpMSpVResult]:
        """Run one batch through the fused block kernel."""
        from .spmspv_block import spmspv_bucket_block  # late: avoids import cycle

        with self._lock:
            if block is None:
                block = SparseVectorBlock.from_vectors(xs)
            results = spmspv_bucket_block(
                self.strips[0], block, self.ctx, semiring=semiring,
                sorted_output=sorted_output, masks=masks,
                mask_complement=mask_complement, workspace=self.workspace)
            if not self.deltas[0].is_empty:
                results = self._overlay_block_locked(
                    0, results, block, self.ctx, semiring=semiring,
                    sorted_output=sorted_output, masks=masks,
                    mask_complement=mask_complement, workspace=self.workspace)
            self._fused_batches += 1
            for f, result in zip(block.nnz_per_vector().tolist(), results):
                self._log_call("bucket_block", f, block.n,
                               result.record.wall_time_s * 1e3, batch, fused=True)
            return results

    # ------------------------------------------------------------------ #
    # lifecycle: process-backed layouts hold real resources, so callers
    # treat every engine as a context manager
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release backend resources (worker pool, shared memory; idempotent).

        The whole layout and the emulated backend hold none.  Engines are
        also cleaned up by a gc finalizer, so forgetting to close leaks
        nothing past collection — but long-lived processes that churn
        through process-backed engines should close (or ``with``) them
        promptly.
        """
        if self.backend is not None:
            self.backend.close()

    def health_stats(self) -> Dict[str, object]:
        """Backend resilience accounting (deaths, retries, fallbacks,
        deadline hits): all zero for the whole layout, in-process backends
        and a healthy pool, so serving layers aggregate health over a mixed
        engine fleet without special-casing; see
        :meth:`.parallel.backends.ExecutionBackend.health_stats`."""
        if self.backend is None:
            return idle_health()
        return self.backend.health_stats()

    def __enter__(self) -> "SpMSpVEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection (consumed by repro.analysis.reporting and detach())
    # ------------------------------------------------------------------ #
    def workspace_stats(self) -> Dict[str, float]:
        """Reuse statistics of the engine's workspace."""
        return self.workspace.stats()

    def algorithms_used(self) -> List[str]:
        """Distinct kernels executed, in first-use order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for call in self.history:
            seen.setdefault(call.algorithm, None)
        return list(seen)

    @property
    def switch_count(self) -> int:
        """How many times consecutive calls used different algorithms."""
        return sum(1 for a, b in zip(self.history, self.history[1:])
                   if a.algorithm != b.algorithm)

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the engine's lifetime (for reporting).

        ``algorithms_used`` and ``switches`` are computed over the retained
        history window (``max_history`` recent calls); the scalar totals are
        lifetime counters.  Every layout reports the same keys.
        """
        return {
            "calls": self.total_calls,
            "batches": self._batches,
            "fused_batches": self._fused_batches,
            "algorithms_used": self.algorithms_used(),
            "switches": self.switch_count,
            "total_wall_ms": self.total_wall_ms,
            "scheme": self.scheme,
            "shards": self.num_shards,
            "nnz_balance": self.nnz_balance,
            "workspace": self.workspace_stats(),
            "comm": self.backend.comm_stats() if self.backend is not None else {},
            "health": self.health_stats(),
            "delta_entries": sum(d.entries for d in self.deltas),
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}(matrix={self.nrows}x"
                f"{self.ncols}, shards={self.num_shards}, "
                f"algorithm={self.algorithm!r}, calls={self.total_calls})")


# --------------------------------------------------------------------------- #
# engine cache backing the repro.core.dispatch.spmspv shim
# --------------------------------------------------------------------------- #
_ENGINE_CACHE: "OrderedDict[tuple, SpMSpVEngine]" = OrderedDict()
_ENGINE_CACHE_LIMIT = 8


def engine_for(matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None
               ) -> SpMSpVEngine:
    """The cached engine serving ``spmspv`` calls for ``(matrix, ctx)``.

    Entries pin the matrix (so ids cannot be recycled while cached) and are
    evicted LRU beyond a small limit; repeated calls on the same matrix —
    the shape of every iterative algorithm and benchmark — therefore reuse
    one workspace.
    """
    ctx = ctx if ctx is not None else default_context()
    key = (id(matrix), ctx)
    engine = _ENGINE_CACHE.get(key)
    if engine is not None and engine.matrix is matrix:
        _ENGINE_CACHE.move_to_end(key)
    else:
        engine = SpMSpVEngine(matrix, ctx)
        _ENGINE_CACHE[key] = engine
        while len(_ENGINE_CACHE) > _ENGINE_CACHE_LIMIT:
            _ENGINE_CACHE.popitem(last=False)
    return engine


def clear_engine_cache() -> None:
    """Drop all cached engines (exposed for tests)."""
    _ENGINE_CACHE.clear()
