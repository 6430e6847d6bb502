"""Column-split (DCSC) sharded SpMSpV execution with a reduction phase.

:class:`ColumnShardedEngine` is the work-efficient counterpart of the
row-split :class:`~repro.core.sharded.ShardedEngine` (§II-F, Table II of the
paper): the matrix is cut into P **vertical** strips stored as
:class:`~repro.formats.dcsc.DCSCMatrix` (hypersparse strips keep their
column index proportional to their nonzero columns, not to n/P), every
multiplication

* slices the frontier by column range — each strip reads only its
  **private slice** of ``x``, the O(nnz(x)) total input traffic row-split
  cannot achieve (row-split makes all P strips scan the whole frontier);
* runs the private gather/mask/scale/sort half of the kernel per strip
  (:func:`~repro.core.spmspv_column.column_partial`), producing unreduced
  ``(row, value, global-position)`` streams;
* merges the streams in one synchronized **reduction phase**
  (:func:`~repro.core.spmspv_column.reduce_partials`) that folds every
  row's addends exactly like the monolithic kernel — the price column-split
  pays (and row-split avoids) per Table II.

Results are **bit-identical** to the monolithic engine across kernels,
semirings and masks: strips ship unreduced addend streams tagged with their
global frontier positions, so the parent-side fold re-creates the
monolithic gather stream position for position (see
:mod:`repro.core.spmspv_column` for the argument).  Outputs are always
row-sorted — the reduction sorts by construction — which is byte-identical
to sorted monolithic outputs and pair-identical to unsorted ones.

Edge updates (:meth:`ColumnShardedEngine.apply_updates`) are routed to the
owning column strips and **compacted immediately**: the DCSC path has no
delta-overlay splice (the row-split overlay patches disjoint *row* ranges,
which a column strip does not own), so rather than risk a wrong answer the
engine rebuilds each touched strip and pushes it to the backend — never
stale, never approximate, just eager.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .._typing import as_index_array
from ..errors import DimensionMismatchError, NotSupportedError
from ..formats.coo import COOMatrix
from ..formats.csc import CSCMatrix
from ..formats.dcsc import DCSCMatrix
from ..formats.delta import DeltaLog, apply_delta
from ..formats.partition import ColumnSplit, column_split
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.backends import ExecutionBackend, make_backend
from ..parallel.context import ExecutionContext, default_context
from ..semiring import PLUS_TIMES, Semiring
from .engine import EngineCall, check_block_mode
from .result import SpMSpVResult
from .spmspv_column import merge_partial_records, reduce_partials, slice_frontier
from .vector_ops import Mask, check_operands, mask_bitmap

__all__ = ["ColumnShardedEngine", "make_sharded_engine"]


class ColumnShardedEngine:
    """Column-split, reduction-merged SpMSpV executor for one matrix.

    Parameters
    ----------
    matrix:
        The matrix every multiplication of this engine uses.
    shards:
        Partition width P; the matrix is column-split into P vertical DCSC
        strips (strips may be empty when ``shards > ncols``).
    ctx:
        Execution context.  ``ctx.backend`` selects the strip executor
        (``"emulated"`` | ``"process"``); ``ctx.backend_workers`` caps the
        process pool.
    algorithm:
        Default kernel name (``"bucket"`` unless given; overridable per
        call).  It labels the partial calls — the private half is shared by
        the whole kernel family.  An unknown name raises
        :class:`~repro.errors.NotSupportedError`.
    """

    scheme = "column"

    def __init__(self, matrix: CSCMatrix, shards: int,
                 ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "bucket"):
        from .dispatch import get_algorithm  # late: avoids import cycle

        if int(shards) < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        get_algorithm(algorithm)  # fail before a worker pool starts
        self.matrix = matrix
        self.ctx = ctx if ctx is not None else default_context()
        self.algorithm = algorithm
        self.split: ColumnSplit = column_split(matrix, int(shards))
        #: hypersparse per-strip matrices the backend actually executes on;
        #: :attr:`split` keeps the CSC originals for update compaction
        self.dcsc_strips: List[DCSCMatrix] = [
            DCSCMatrix.from_csc(s) for s in self.split.strips]
        #: per-strip execution context: one strip per thread, like row-split
        self.shard_ctx = replace(self.ctx, num_threads=1)
        self.backend: ExecutionBackend = make_backend(
            self.ctx.backend, strips=self.dcsc_strips,
            shard_ctx=self.shard_ctx, dtype=matrix.dtype,
            use_thread_pool=self.ctx.use_thread_pool,
            workers=self.ctx.backend_workers, scheme="column")
        strip_nnz = np.array([s.nnz for s in self.split.strips], dtype=np.float64)
        mean_nnz = float(strip_nnz.mean()) if len(strip_nnz) else 0.0
        #: static max/mean stored-entry balance of the column partition
        self.nnz_balance = float(strip_nnz.max() / mean_nnz) if mean_nnz > 0 else 1.0
        self.history: List[EngineCall] = []
        self.max_history = 4096
        self.total_calls = 0
        self.total_wall_ms = 0.0
        self._batches = 0
        self.compactions = 0
        self._lock = threading.RLock()

    @property
    def num_shards(self) -> int:
        return self.split.num_parts

    # ------------------------------------------------------------------ #
    # dynamic updates (eager per-strip compaction — no DCSC overlay)
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Apply edge updates, routed to the owning column strips.

        ``values=None`` deletes the listed edges.  The DCSC execution path
        has no delta-overlay splice (the row-split overlay corrects disjoint
        *row* ranges, which a vertical strip does not own), so every update
        **compacts immediately**: each touched strip is rebuilt from its CSC
        original plus the delta, re-encoded as DCSC and pushed to the
        backend.  Costlier per update than the row-split overlay, but never
        a wrong or stale answer.
        """
        with self._lock:
            rows = as_index_array(rows)
            cols = as_index_array(cols)
            m, n = self.matrix.shape
            if len(rows) and (rows.min() < 0 or rows.max() >= m):
                raise DimensionMismatchError(f"update row out of range for {m} rows")
            if len(cols) and (cols.min() < 0 or cols.max() >= n):
                raise DimensionMismatchError(f"update col out of range for {n} cols")
            if values is not None:
                values = np.asarray(values, dtype=np.float64)
                if values.ndim == 0:
                    values = np.broadcast_to(values, rows.shape).copy()
            lows = np.array([lo for lo, _hi in self.split.col_ranges])
            strip_of = np.searchsorted(lows, cols, side="right") - 1
            compacted: List[int] = []
            for s in np.unique(strip_of).tolist():
                sel = strip_of == s
                lo = self.split.col_ranges[s][0]
                delta = DeltaLog(self.split.strips[s].shape)
                if values is None:
                    delta.delete_edges(rows[sel], cols[sel] - lo)
                else:
                    delta.set_edges(rows[sel], cols[sel] - lo, values[sel])
                new_strip = apply_delta(self.split.strips[s], delta)
                self.split.strips[s] = new_strip
                self.dcsc_strips[s] = DCSCMatrix.from_csc(new_strip)
                self.backend.update_strip(s, self.dcsc_strips[s])
                compacted.append(s)
            self.compactions += len(compacted)
            return {"applied": int(len(rows)), "delta_entries": 0,
                    "compacted": bool(compacted),
                    "compacted_strips": compacted}

    def compact(self, strip: Optional[int] = None) -> bool:
        """No-op: the column scheme compacts eagerly inside apply_updates."""
        return False

    def delta_stats(self) -> Dict[str, object]:
        return {"events": 0, "entries": 0,
                "per_strip_entries": [0] * self.num_shards,
                "compactions": self.compactions}

    def effective_matrix(self) -> CSCMatrix:
        """The full-column-space matrix this engine currently computes with."""
        with self._lock:
            rows_parts, cols_parts, vals_parts = [], [], []
            for (lo, _hi), strip in zip(self.split.col_ranges, self.split.strips):
                coo = strip.to_coo()
                rows_parts.append(coo.rows)
                cols_parts.append(coo.cols + lo)
                vals_parts.append(coo.vals)
            return CSCMatrix.from_coo(
                COOMatrix(self.matrix.shape,
                          np.concatenate(rows_parts) if rows_parts else [],
                          np.concatenate(cols_parts) if cols_parts else [],
                          np.concatenate(vals_parts) if vals_parts else [],
                          check=False),
                sum_duplicates=False)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def multiply(self, x: SparseVector, *,
                 semiring: Semiring = PLUS_TIMES,
                 sorted_output: Optional[bool] = None,
                 mask: Optional[Mask] = None,
                 mask_complement: bool = False,
                 algorithm: Optional[str] = None,
                 _batch: Optional[int] = None,
                 **kwargs) -> SpMSpVResult:
        """Run ``y <- A x`` as P private strip partials plus one reduction.

        Bit-identical to the unsharded engine; the output is always
        row-sorted (the reduction sorts by construction), so it is
        byte-identical to sorted monolithic outputs and pair-identical to
        unsorted ones regardless of ``sorted_output``.
        """
        with self._lock:
            plan = self._plan_call(
                x, semiring=semiring, sorted_output=sorted_output, mask=mask,
                mask_complement=mask_complement, algorithm=algorithm,
                _batch=_batch, **kwargs)
            partials = self.backend.run_partial(
                plan["name"], plan["slices"], semiring=semiring,
                mask=plan["mask"], mask_complement=mask_complement,
                out_dtype=plan["out_dtype"])
            return self._finish_call(plan, partials)

    def _plan_call(self, x: SparseVector, *,
                   semiring: Semiring = PLUS_TIMES,
                   sorted_output: Optional[bool] = None,
                   mask: Optional[Mask] = None,
                   mask_complement: bool = False,
                   algorithm: Optional[str] = None,
                   _batch: Optional[int] = None, **kwargs) -> Dict:
        """Validate + slice one call, without executing it."""
        from .dispatch import get_algorithm  # late: avoids import cycle

        if kwargs:
            raise NotSupportedError(
                f"column-split execution does not forward kernel-specific "
                f"options (the merge runs parent-side); got {sorted(kwargs)}")
        check_operands(self.matrix, x)
        # column strips all span the full row space: one map serves them all
        bitmap = mask_bitmap(mask, self.matrix.nrows)
        name = algorithm if algorithm is not None else self.algorithm
        get_algorithm(name)  # validate the kernel name before dispatching
        return {"x": x, "name": name, "semiring": semiring,
                "mask": bitmap, "mask_complement": mask_complement,
                "slices": slice_frontier(x, self.split.col_ranges),
                "out_dtype": np.result_type(self.matrix.dtype, x.dtype),
                "x_sorted": x.sorted, "batch": _batch,
                "t0": time.perf_counter()}

    def _finish_call(self, plan: Dict, partials) -> SpMSpVResult:
        """Reduce strip partials into one result + all per-call bookkeeping."""
        x = plan["x"]
        name = plan["name"]
        y, reduce_metrics = reduce_partials(
            partials, semiring=plan["semiring"], nrows=self.matrix.nrows,
            x_sorted=plan["x_sorted"], out_dtype=plan["out_dtype"])
        record = merge_partial_records(
            [p.record for p in partials], algorithm=name,
            num_strips=self.num_shards, reduce_metrics=reduce_metrics,
            wall_time_s=time.perf_counter() - plan["t0"])
        df = record.info.get("df", 0)
        record.info.update({"m": self.matrix.nrows, "n": self.matrix.ncols,
                            "nnz_A": self.matrix.nnz, "f": x.nnz,
                            "nnz_y": y.nnz, "shards": self.num_shards,
                            "early_mask": plan["mask"] is not None})
        wall_ms = record.wall_time_s * 1e3
        self.history.append(EngineCall(
            index=self.total_calls, algorithm=name, f=x.nnz,
            density=x.nnz / max(x.n, 1), wall_ms=wall_ms, batch=plan["batch"]))
        self.total_calls += 1
        self.total_wall_ms += wall_ms
        if len(self.history) > 2 * self.max_history:
            del self.history[:len(self.history) - self.max_history]
        return SpMSpVResult(vector=y, record=record,
                            info={"f": x.nnz, "df": df, "nnz_y": y.nnz,
                                  "shards": self.num_shards,
                                  "scheme": "column"})

    # ------------------------------------------------------------------ #
    # blocked execution (looped only — the reduction is inherently per-call)
    # ------------------------------------------------------------------ #
    def multiply_block(self, block: SparseVectorBlock, *,
                       semiring: Semiring = PLUS_TIMES,
                       sorted_output: Optional[bool] = None,
                       masks: Optional[Sequence[Optional[Mask]]] = None,
                       mask_complement: bool = False,
                       algorithm: Optional[str] = None,
                       block_mode: str = "looped") -> List[SpMSpVResult]:
        """Blocked execution of an already-packed block (serving entry point)."""
        return self.multiply_many(
            block.to_vectors(), semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode)

    def multiply_many(self, xs: Sequence[SparseVector], *,
                      semiring: Semiring = PLUS_TIMES,
                      sorted_output: Optional[bool] = None,
                      masks: Optional[Sequence[Optional[Mask]]] = None,
                      mask_complement: bool = False,
                      algorithm: Optional[str] = None,
                      block_mode: str = "looped",
                      **kwargs) -> List[SpMSpVResult]:
        """Looped blocked execution of one matrix against many inputs.

        The column scheme has no fused block path — each call's reduction is
        a synchronization point, so fusing would serialize the block anyway.
        An explicit ``block_mode="fused"`` request raises
        :class:`NotSupportedError` instead of silently running something
        else.
        """
        check_block_mode(block_mode)
        if block_mode == "fused":
            raise NotSupportedError(
                "column-split execution has no fused block path (each call "
                "ends in a synchronized reduction); use block_mode='looped' "
                "or a row-split engine")
        xs = list(xs)
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} vectors but {len(masks)} masks")
        with self._lock:
            batch = self._batches
            self._batches += 1
            results = []
            for i, x in enumerate(xs):
                results.append(self.multiply(
                    x, semiring=semiring, sorted_output=sorted_output,
                    mask=masks[i] if masks is not None else None,
                    mask_complement=mask_complement, algorithm=algorithm,
                    _batch=batch, **kwargs))
            return results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def algorithms_used(self) -> List[str]:
        """Distinct kernel labels executed, in first-use order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for call in self.history:
            seen.setdefault(call.algorithm, None)
        return list(seen)

    @property
    def switch_count(self) -> int:
        return sum(1 for a, b in zip(self.history, self.history[1:])
                   if a.algorithm != b.algorithm)

    def close(self) -> None:
        """Release backend resources (worker pool, shared memory; idempotent)."""
        self.backend.close()

    def __enter__(self) -> "ColumnShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def workspace_stats(self) -> Dict[str, float]:
        """Workspace reuse statistics — all zero for the column scheme.

        The partial path has no SPA/bucket/heap merge on the strips (the
        merge runs parent-side in the reduction), so no strip workspace is
        ever acquired; the keys stay shape-compatible with the row-split
        engine for reporting."""
        return {"acquisitions": 0, "allocations": 0, "allocations_saved": 0,
                "reuse_fraction": 0.0, "bucket_capacity": 0,
                "spa_rows": self.matrix.nrows, "block_capacity": 0}

    def health_stats(self) -> Dict[str, object]:
        """Backend resilience accounting; see
        :meth:`.parallel.backends.ExecutionBackend.health_stats`."""
        return self.backend.health_stats()

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the engine's lifetime (for reporting)."""
        return {
            "calls": self.total_calls,
            "batches": self._batches,
            "fused_batches": 0,
            "algorithms_used": self.algorithms_used(),
            "switches": self.switch_count,
            "total_wall_ms": self.total_wall_ms,
            "shards": self.num_shards,
            "scheme": "column",
            "nnz_balance": self.nnz_balance,
            "workspace": self.workspace_stats(),
            "comm": self.backend.comm_stats(),
            "health": self.backend.health_stats(),
            "delta_entries": 0,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ColumnShardedEngine(matrix={self.matrix.nrows}x"
                f"{self.matrix.ncols}, shards={self.num_shards}, "
                f"algorithm={self.algorithm!r}, calls={self.total_calls})")


def make_sharded_engine(matrix: CSCMatrix, shards: int,
                        ctx: Optional[ExecutionContext] = None, *,
                        algorithm: str = "bucket",
                        scheme: Optional[str] = None,
                        **kwargs) -> Union["ColumnShardedEngine", object]:
    """Build a sharded engine over the ``"row"`` or ``"column"`` partition.

    ``scheme=None`` defers to ``ctx.shard_scheme``.
    """
    from .sharded import ShardedEngine  # late: avoids import cycle

    ctx = ctx if ctx is not None else default_context()
    resolved = scheme if scheme is not None else ctx.shard_scheme
    if resolved == "column":
        return ColumnShardedEngine(matrix, shards, ctx,
                                   algorithm=algorithm, **kwargs)
    if resolved == "row":
        return ShardedEngine(matrix, shards, ctx, algorithm=algorithm, **kwargs)
    raise ValueError(f"shard scheme must be 'row' or 'column', got {resolved!r}")
