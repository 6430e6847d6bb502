"""Column-split (DCSC) sharded SpMSpV execution with a reduction phase.

:class:`ColumnShardedEngine` is the ``column`` layout of the
:class:`~repro.core.engine.SpMSpVEngine` protocol and the work-efficient
counterpart of the row-split :class:`~repro.core.sharded.ShardedEngine`
(§II-F, Table II of the paper): the matrix is cut into P **vertical** strips
stored as :class:`~repro.formats.dcsc.DCSCMatrix` (hypersparse strips keep
their column index proportional to their nonzero columns, not to n/P), and
every multiplication

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

Edge updates go through the base class, routed to the owning column
strips, but each one **compacts its strips immediately**: the DCSC path has
no delta-overlay splice (the row-split overlay patches disjoint *row*
ranges, which a column strip does not own), so rather than risk a wrong
answer the engine rebuilds each touched strip, re-encodes it as DCSC and
pushes it to the backend — never stale, never approximate, just eager.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.dcsc import DCSCMatrix
from ..formats.partition import ColumnSplit, column_split
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.backends import make_backend
from ..parallel.context import ExecutionContext, default_context
from ..semiring import PLUS_TIMES, Semiring
from .engine import SpMSpVEngine, check_block_mode
from .result import SpMSpVResult
from .sharded import ShardedEngine, check_shards
from .spmspv_column import merge_partial_records, reduce_partials, slice_frontier
from .vector_ops import Mask, check_operands, mask_bitmap

__all__ = ["ColumnShardedEngine", "make_sharded_engine"]


class ColumnShardedEngine(SpMSpVEngine):
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
    _split_axis = 1

    def __init__(self, matrix: CSCMatrix, shards: int,
                 ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "bucket"):
        #: the CSC strips (:attr:`strips`) are what updates compact; the
        #: backend executes their hypersparse DCSC encodings
        self.split: ColumnSplit = column_split(matrix, check_shards(shards))
        self._init_layout(matrix, ctx, algorithm, strips=self.split.strips,
                          lows=[lo for lo, _hi in self.split.col_ranges])
        #: per-strip execution context: one strip per thread, like row-split
        self.shard_ctx = replace(self.ctx, num_threads=1)
        self.backend = make_backend(
            self.ctx.backend,
            strips=[DCSCMatrix.from_csc(s) for s in self.split.strips],
            shard_ctx=self.shard_ctx, dtype=matrix.dtype,
            workers=self.ctx.backend_workers, scheme="column")

    # ------------------------------------------------------------------ #
    # dynamic updates (eager per-strip compaction — no DCSC overlay)
    # ------------------------------------------------------------------ #
    def _maybe_compact_locked(self, s: int) -> bool:
        """Every update compacts its strip at once, whatever
        ``compact_fraction`` says: a vertical strip does not own the *row*
        ranges the overlay patches, so the DCSC path has no overlay splice.
        Costlier per update than the row-split overlay, but never a wrong
        or stale answer."""
        return self._compact_locked(s)

    def _replace_strip(self, s: int, strip: CSCMatrix) -> None:
        self.backend.update_strip(s, DCSCMatrix.from_csc(strip))

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
        check_operands(self, x)
        # column strips all span the full row space: one map serves them all
        bitmap = mask_bitmap(mask, self.nrows)
        name = algorithm if algorithm is not None else self.algorithm
        get_algorithm(name)  # validate the kernel name before dispatching
        return {"x": x, "name": name, "semiring": semiring,
                "mask": bitmap, "mask_complement": mask_complement,
                "slices": slice_frontier(x, self.split.col_ranges),
                "out_dtype": np.result_type(self.strips[0].dtype, x.dtype),
                "x_sorted": x.sorted, "batch": _batch,
                "t0": time.perf_counter()}

    def _finish_call(self, plan: Dict, partials) -> SpMSpVResult:
        """Reduce strip partials into one result + all per-call bookkeeping."""
        x = plan["x"]
        name = plan["name"]
        y, reduce_metrics = reduce_partials(
            partials, semiring=plan["semiring"], nrows=self.nrows,
            x_sorted=plan["x_sorted"], out_dtype=plan["out_dtype"])
        record = merge_partial_records(
            [p.record for p in partials], algorithm=name,
            num_strips=self.num_shards, reduce_metrics=reduce_metrics,
            wall_time_s=time.perf_counter() - plan["t0"])
        df = record.info.get("df", 0)
        record.info.update({"m": self.nrows, "n": self.ncols,
                            "nnz_A": self.nnz, "f": x.nnz,
                            "nnz_y": y.nnz, "shards": self.num_shards,
                            "early_mask": plan["mask"] is not None})
        self._log_call(name, x.nnz, x.n, record.wall_time_s * 1e3, plan["batch"])
        return SpMSpVResult(vector=y, record=record,
                            info={"f": x.nnz, "df": df, "nnz_y": y.nnz,
                                  "shards": self.num_shards,
                                  "scheme": "column"})

    # ------------------------------------------------------------------ #
    # blocked execution (looped only — the reduction is inherently per-call)
    # ------------------------------------------------------------------ #
    def multiply_many(self, xs: Sequence[SparseVector], *,
                      semiring: Semiring = PLUS_TIMES,
                      sorted_output: Optional[bool] = None,
                      masks: Optional[Sequence[Optional[Mask]]] = None,
                      mask_complement: bool = False,
                      algorithm: Optional[str] = None,
                      block_mode: str = "looped",
                      _block: Optional[SparseVectorBlock] = None,
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
        return self._run_batch(
            None, xs, semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, block=_block, kwargs=kwargs)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def workspace_stats(self) -> Dict[str, float]:
        """Workspace reuse statistics — all zero for the column scheme.

        The partial path has no merge on the strips (the merge runs
        parent-side in the reduction), so no strip workspace is ever
        acquired; the keys stay shape-compatible with the row-split engine
        for reporting."""
        return {"acquisitions": 0, "allocations": 0, "allocations_saved": 0,
                "reuse_fraction": 0.0, "bucket_capacity": 0,
                "block_capacity": 0}


def make_sharded_engine(matrix: CSCMatrix, shards: int,
                        ctx: Optional[ExecutionContext] = None, *,
                        algorithm: str = "bucket",
                        scheme: Optional[str] = None,
                        **kwargs) -> SpMSpVEngine:
    """Build a sharded engine over the ``"row"`` or ``"column"`` partition.

    ``scheme=None`` defers to ``ctx.shard_scheme``.
    """
    ctx = ctx if ctx is not None else default_context()
    resolved = scheme if scheme is not None else ctx.shard_scheme
    if resolved == "column":
        return ColumnShardedEngine(matrix, shards, ctx,
                                   algorithm=algorithm, **kwargs)
    if resolved == "row":
        return ShardedEngine(matrix, shards, ctx, algorithm=algorithm, **kwargs)
    raise ValueError(f"shard scheme must be 'row' or 'column', got {resolved!r}")
