"""The unified SpMSpV execution engine.

:class:`SpMSpVEngine` is the one place where three cross-cutting concerns
live, instead of being re-plumbed by every graph algorithm:

* **Persistent workspaces** (§III-A "Memory allocation") — the engine owns
  one :class:`~repro.core.workspace.SpMSpVWorkspace` per matrix and threads
  it through every kernel call, so an iterative algorithm performs zero
  per-iteration ``BucketStore``/SPA allocations.
* **One kernel per engine** — every call runs the registered kernel it is
  given (the engine default is the paper's bucket algorithm, overridable
  per call) and records the call's measured wall time.
* **Batched multi-vector execution** — :meth:`SpMSpVEngine.multiply_many`
  runs a block of input vectors (multi-source BFS frontiers, blocked
  PageRank deltas) through one shared workspace: one kernel call per
  vector by default, or — with ``block_mode="fused"`` — the fused block
  kernel (:func:`repro.core.spmspv_block.spmspv_bucket_block`), one gather
  and one scatter for the whole vector block.

:func:`engine_for` caches engines per ``(matrix, context)`` so the
backward-compatible :func:`repro.core.dispatch.spmspv` entry point also
executes through the engine.
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats.csc import CSCMatrix
from ..formats.delta import DeltaLog, apply_delta, build_patch, splice_overlay
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord
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
    phases = list(base.phases)
    phases.extend(PhaseRecord(name="delta:" + p.name, parallel=p.parallel,
                              thread_metrics=p.thread_metrics,
                              serial_metrics=p.serial_metrics,
                              barriers=p.barriers)
                  for p in patch.phases)
    return ExecutionRecord(algorithm=base.algorithm,
                           num_threads=base.num_threads, phases=phases,
                           info=dict(base.info),
                           wall_time_s=base.wall_time_s + patch.wall_time_s)


@lru_cache(maxsize=None)
def _accepts_workspace(fn) -> bool:
    """Whether a registered kernel supports the shared ``workspace=`` signature."""
    try:
        return "workspace" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/partials
        return False


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

    def __init__(self, matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "bucket",
                 workspace: Optional[SpMSpVWorkspace] = None):
        from .dispatch import get_algorithm  # late: avoids import cycle

        get_algorithm(algorithm)  # an unknown default fails at construction
        self.matrix = matrix
        self.ctx = ctx if ctx is not None else default_context()
        self.algorithm = algorithm
        self.workspace = (workspace if workspace is not None
                          else SpMSpVWorkspace(matrix.nrows, dtype=matrix.dtype))
        #: recent calls (trimmed beyond max_history; lifetime aggregates
        #: live in total_calls / total_wall_ms)
        self.history: List[EngineCall] = []
        self.max_history = 4096
        self.total_calls = 0
        self.total_wall_ms = 0.0
        self._batches = 0
        self._fused_batches = 0
        #: pending edge updates overlaid on self.matrix (see formats.delta)
        self.delta = DeltaLog(matrix.shape)
        self.compact_fraction = COMPACT_FRACTION
        self.compactions = 0
        self._patch: Optional[Tuple[CSCMatrix, np.ndarray]] = None
        self._row_nnz: Optional[np.ndarray] = None
        # one multiplication at a time per engine: concurrent callers of the
        # spmspv shim share this engine's workspace, which is not reentrant
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # dynamic updates (delta overlay)
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates against this engine's matrix.

        ``values=None`` deletes the listed edges; otherwise each ``(row,
        col)`` is inserted (or reweighted if present).  Updates take effect
        on the very next multiply via the delta overlay — the base matrix
        and its workspace stay warm.  Once the delta-touched rows carry more
        than ``compact_fraction`` of the base nonzeros the engine compacts:
        the effective matrix is rebuilt once and the delta resets.
        """
        with self._lock:
            if values is None:
                applied = self.delta.delete_edges(rows, cols)
            else:
                applied = self.delta.set_edges(rows, cols, values)
            self._patch = None
            compacted = self._maybe_compact_locked()
            return {"applied": applied, "delta_entries": self.delta.entries,
                    "compacted": compacted}

    def _overlay_nnz_locked(self) -> int:
        """Upper bound on the patch nnz the overlay pays per multiply."""
        if self._row_nnz is None:
            self._row_nnz = self.matrix.row_counts()
        return int(self._row_nnz[self.delta.touched_rows()].sum()) + self.delta.entries

    def _maybe_compact_locked(self) -> bool:
        if self.delta.is_empty:
            return False
        if self._overlay_nnz_locked() <= self.compact_fraction * max(self.matrix.nnz, 1):
            return False
        return self._compact_locked()

    def _compact_locked(self) -> bool:
        if self.delta.is_empty:
            return False
        self.matrix = apply_delta(self.matrix, self.delta)
        self.delta = DeltaLog(self.matrix.shape)
        self._patch = None
        self._row_nnz = None
        self.compactions += 1
        return True

    def compact(self) -> bool:
        """Fold the pending delta into the base matrix now; True if it ran."""
        with self._lock:
            return self._compact_locked()

    def effective_matrix(self) -> CSCMatrix:
        """The matrix this engine currently computes with (base ⊕ delta)."""
        with self._lock:
            if self.delta.is_empty:
                return self.matrix
            return apply_delta(self.matrix, self.delta)

    def delta_stats(self) -> Dict[str, object]:
        with self._lock:
            stats = self.delta.stats()
            stats["compactions"] = self.compactions
            return stats

    def _patch_pair_locked(self) -> Optional[Tuple[CSCMatrix, np.ndarray]]:
        if self.delta.is_empty:
            return None
        if self._patch is None:
            self._patch = build_patch(self.matrix, self.delta)
        return self._patch

    def _overlay_locked(self, fn, base: SpMSpVResult, x: SparseVector, *,
                        semiring: Semiring, sorted_output: Optional[bool],
                        mask: Optional[Mask], mask_complement: bool,
                        kwargs: Dict) -> SpMSpVResult:
        """Patch-correct one base result (same kernel, same inputs, same mask)."""
        patch, touched = self._patch
        pres = fn(patch, x, self.ctx, semiring=semiring,
                  sorted_output=sorted_output, mask=mask,
                  mask_complement=mask_complement, **kwargs)
        vector = splice_overlay(base.vector, pres.vector, touched)
        info = dict(base.info)
        info["delta_patch_nnz"] = patch.nnz
        return SpMSpVResult(vector=vector,
                            record=merge_overlay_record(base.record, pres.record),
                            info=info)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
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
            if _accepts_workspace(fn):
                kwargs = dict(kwargs, workspace=workspace)
            result = fn(self.matrix, x, self.ctx, semiring=semiring,
                        sorted_output=sorted_output, mask=mask,
                        mask_complement=mask_complement, **kwargs)
            if self._patch_pair_locked() is not None:
                result = self._overlay_locked(
                    fn, result, x, semiring=semiring,
                    sorted_output=sorted_output, mask=mask,
                    mask_complement=mask_complement, kwargs=kwargs)

            wall_ms = result.record.wall_time_s * 1e3
            self.history.append(EngineCall(
                index=self.total_calls, algorithm=name, f=x.nnz,
                density=x.nnz / max(x.n, 1), wall_ms=wall_ms, batch=_batch))
            self.total_calls += 1
            self.total_wall_ms += wall_ms
            if len(self.history) > 2 * self.max_history:
                # cached engines live for the process: keep memory bounded
                del self.history[:len(self.history) - self.max_history]
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
        check_block_mode(block_mode)
        xs = list(xs)
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} vectors but {len(masks)} masks")
        batch = self._batches
        self._batches += 1
        name = algorithm if algorithm is not None else self.algorithm
        if block_mode == "fused" and self._block_eligible(xs, name, kwargs):
            return self._multiply_block(
                xs, batch=batch, semiring=semiring, sorted_output=sorted_output,
                masks=masks, mask_complement=mask_complement, block=_block)
        # an ineligible batch (e.g. a single surviving BFS frontier) quietly
        # runs the per-vector loop, which is bit-identical anyway
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
                self.matrix, block, self.ctx, semiring=semiring,
                sorted_output=sorted_output, masks=masks,
                mask_complement=mask_complement, workspace=self.workspace)
            pair = self._patch_pair_locked()
            if pair is not None:
                patch, touched = pair
                presults = spmspv_bucket_block(
                    patch, block, self.ctx, semiring=semiring,
                    sorted_output=sorted_output, masks=masks,
                    mask_complement=mask_complement, workspace=self.workspace)
                results = [
                    SpMSpVResult(
                        vector=splice_overlay(r.vector, p.vector, touched),
                        record=merge_overlay_record(r.record, p.record),
                        info=dict(r.info, delta_patch_nnz=patch.nnz))
                    for r, p in zip(results, presults)]
            self._fused_batches += 1
            nnzs = block.nnz_per_vector()
            for i, result in enumerate(results):
                f = int(nnzs[i])
                wall_ms = result.record.wall_time_s * 1e3
                self.history.append(EngineCall(
                    index=self.total_calls, algorithm="bucket_block", f=f,
                    density=f / max(block.n, 1), wall_ms=wall_ms,
                    batch=batch, fused=True))
                self.total_calls += 1
                self.total_wall_ms += wall_ms
            if len(self.history) > 2 * self.max_history:
                del self.history[:len(self.history) - self.max_history]
            return results

    # ------------------------------------------------------------------ #
    # lifecycle: symmetric with ShardedEngine, whose process backend holds
    # real resources — callers can treat any engine as a context manager
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine resources (the monolithic engine holds none)."""

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting, shape-compatible with sharded engines.

        The monolithic engine has no workers to lose, so every counter is
        zero — serving layers can aggregate health over a mixed engine
        fleet without special-casing."""
        return {"worker_deaths": [], "respawns": 0, "retries": 0,
                "fallback_calls": 0, "fallback_strips": 0, "deadline_hits": 0}

    def __enter__(self) -> "SpMSpVEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection (consumed by repro.analysis.reporting)
    # ------------------------------------------------------------------ #
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
        lifetime counters.
        """
        return {
            "calls": self.total_calls,
            "batches": self._batches,
            "fused_batches": self._fused_batches,
            "algorithms_used": self.algorithms_used(),
            "switches": self.switch_count,
            "total_wall_ms": self.total_wall_ms,
            "workspace": self.workspace.stats(),
            "delta_entries": self.delta.entries,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SpMSpVEngine(matrix={self.matrix.nrows}x{self.matrix.ncols}, "
                f"algorithm={self.algorithm!r}, calls={len(self.history)})")


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
