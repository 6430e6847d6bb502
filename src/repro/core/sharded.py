"""Row-split sharded SpMSpV execution: the ``row`` layout of the engine.

:class:`ShardedEngine` is the :class:`~repro.core.engine.SpMSpVEngine`
protocol over P row strips (the paper's per-thread buckets over row strips,
at the *engine* level).  The call log, batches, update routing, per-strip
overlay and compaction, lifecycle and reporting are the base class's; this
layout adds only what the row split changes:

* the matrix is **row-split** into P strips
  (:func:`repro.formats.partition.row_split`, the §II-F scheme the CombBLAS
  and GraphMat baselines distribute with), each strip owning its own
  persistent :class:`~repro.core.workspace.SpMSpVWorkspace`;
* every multiplication issues one **independent per-strip SpMSpV call**
  (any registered kernel), executed with the single-strip-per-thread
  configuration of the paper's row-split — strips are sync-free, so their
  calls are embarrassingly parallel and are scheduled onto the context's
  thread budget with :func:`repro.parallel.scheduler.schedule`;
* strip outputs live in **disjoint row ranges**, so the full result is a
  plain concatenation — no merge — and is **bit-identical** to the
  unsharded engine: each row's addend stream (the selected columns in the
  input vector's storage order, restricted to the strip) is untouched by
  the split, so every floating-point reduction sees the same addends in
  the same order.  Sorted outputs are byte-identical as stored; unsorted
  outputs are byte-identical as (row, value) pairs (storage order is
  bucket-layout-specific, exactly as across the kernel family);
* pending updates are corrected parent-side, strip by strip, while the
  workers keep serving the immutable base strips; a compacted strip is
  pushed to the backend alone (``backend.update_strip``);
* :meth:`ShardedEngine.multiply_many` loops over its vectors by default and
  shards fused blocks on request (``block_mode="fused"``): the
  column-union block is packed **once** and shared by every strip's fused
  kernel call, while the (row, vector-id) scatter and the segmented merge
  stay strip-local.

:class:`EngineGroup` holds one engine per named matrix — whole, or
row-sharded when ``shards`` is given — that it builds and owns, so
long-lived multi-graph workloads (BFS/PageRank over many graphs, the query
server) keep every member's workspace warm for the group's lifetime.

*Where* the per-strip calls execute is delegated to the context's pluggable
**execution backend** (:mod:`repro.parallel.backends`): the default
``"emulated"`` backend preserves the deterministic in-process loop, while
``"process"`` runs the strips on a persistent ``multiprocessing`` pool whose
workers hold the strip matrices in shared memory — same bits, real cores.
Process-backed engines should be closed (or used as context managers) to
release the pool promptly; a gc finalizer covers the rest.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.csc import CSCMatrix
from ..formats.partition import RowSplit, row_split
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.backends import make_backend
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, merge_records
from ..parallel.scheduler import Assignment, schedule
from ..semiring import PLUS_TIMES, Semiring
from .engine import SpMSpVEngine
from .result import SpMSpVResult
from .vector_ops import Mask, check_operands, mask_bitmap
from .workspace import SpMSpVWorkspace


def check_shards(shards: int) -> int:
    """The partition width P as an int; raises ``ValueError`` below 1."""
    if int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(shards)


class ShardedEngine(SpMSpVEngine):
    """Row-split, per-strip-scheduled SpMSpV executor for one matrix.

    Parameters
    ----------
    matrix:
        The matrix every multiplication of this engine uses.
    shards:
        Partition width P; the matrix is row-split into P strips (strips may
        be empty when ``shards > nrows``).
    ctx:
        Execution context.  ``num_threads`` is the budget the strip calls
        are scheduled onto; each strip call itself runs the paper's
        row-split configuration (one thread per strip, sync-free).
        ``ctx.backend`` selects the strip executor (``"emulated"`` |
        ``"process"``); ``ctx.backend_workers`` caps the process pool.
    algorithm:
        As in :class:`~repro.core.engine.SpMSpVEngine`.
    """

    scheme = "row"

    def __init__(self, matrix: CSCMatrix, shards: int,
                 ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "bucket"):
        self.split: RowSplit = row_split(matrix, check_shards(shards))
        self._init_layout(matrix, ctx, algorithm, strips=self.split.strips,
                          lows=[lo for lo, _hi in self.split.row_ranges])
        #: per-strip execution context: the paper's row-split runs one strip
        #: per thread with no intra-strip parallelism (§II-F)
        self.shard_ctx = replace(self.ctx, num_threads=1)
        #: pluggable strip executor (emulated in-process loop by default, or
        #: a persistent shared-memory worker pool with ``backend="process"``)
        self.backend = make_backend(
            self.ctx.backend, strips=self.split.strips,
            shard_ctx=self.shard_ctx, dtype=matrix.dtype,
            workers=self.ctx.backend_workers)
        #: the emulated backend's local per-strip workspaces; empty for
        #: backends whose workspaces live out-of-process
        self.workspaces = getattr(self.backend, "workspaces", [])
        #: parent-side workspaces for the (tiny) strip patch corrections —
        #: the workers keep serving the immutable base strips
        self._patch_ws: Dict[int, SpMSpVWorkspace] = {}

    def _replace_strip(self, s: int, strip: CSCMatrix) -> None:
        self.backend.update_strip(s, strip)

    # ------------------------------------------------------------------ #
    # shard plumbing
    # ------------------------------------------------------------------ #
    def _slice_mask(self, mask: Optional[Mask]) -> List[Optional[np.ndarray]]:
        """Compile a row-space mask once and view it per strip.

        Strip ``s`` gets ``map[lo:hi]`` — its rows of the one dense row map
        (:func:`~repro.core.vector_ops.mask_bitmap`), with no copy — so each
        strip's early and late masking behave exactly like the full mask
        restricted to its rows.  Raises for a mask outside the row space.
        """
        bitmap = mask_bitmap(mask, self.nrows)
        if bitmap is None:
            return [None] * self.num_shards
        return [bitmap[lo:hi] for lo, hi in self.split.row_ranges]

    def _concatenate(self, vectors: List[SparseVector], sorted_flag: bool
                     ) -> SparseVector:
        """Concatenate strip outputs back into the full row space (no merge)."""
        idx_parts = []
        val_parts = []
        for (lo, _hi), v in zip(self.split.row_ranges, vectors):
            if v.nnz:
                idx_parts.append((v.indices + lo).astype(INDEX_DTYPE, copy=False))
                val_parts.append(v.values)
        if not idx_parts:
            return SparseVector(self.nrows, np.empty(0, dtype=INDEX_DTYPE),
                                np.empty(0, dtype=vectors[0].dtype if vectors
                                         else np.float64),
                                sorted=sorted_flag, check=False)
        return SparseVector(self.nrows, np.concatenate(idx_parts),
                            np.concatenate(val_parts), sorted=sorted_flag,
                            check=False)

    def _schedule_shards(self, costs: List[float]) -> Assignment:
        """Assign the strip calls to the context's threads (makespan model)."""
        return schedule(costs, self.ctx.num_threads, self.ctx.scheduling)

    def _merge_records(self, records: List[ExecutionRecord],
                       assignment: Assignment, algorithm: str,
                       info: Dict) -> ExecutionRecord:
        """Fold the strip records into one record of the sharded execution.

        Phases are matched by name across strips, in the order of the strip
        record with the most phases; within a phase, each thread's row is
        the per-strip totals summed over the strips the schedule assigned to
        it (:func:`~repro.parallel.metrics.merge_records`).  Strips are
        sync-free, so the merged phase is parallel with the barrier count of
        a single strip — the cost model then prices the makespan of the
        strip schedule, which is exactly the parallel completion time of the
        sharded execution.
        """
        base = max(records, key=lambda r: len(r.table))
        return merge_records(
            records, base.phase_names(),
            [items for items in assignment.items_per_thread if items],
            algorithm=algorithm, num_threads=self.ctx.num_threads, info=info)

    def _patch_workspace_locked(self, s: int) -> SpMSpVWorkspace:
        ws = self._patch_ws.get(s)
        if ws is None:
            strip = self.strips[s]
            ws = SpMSpVWorkspace(strip.nrows, dtype=strip.dtype)
            self._patch_ws[s] = ws
        return ws

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
        """Run ``y <- A x`` as P independent strip multiplications.

        Bit-identical to the unsharded engine (sorted outputs byte-for-byte,
        unsorted outputs pair-for-pair); the combined record models the
        strip schedule's makespan on the context's threads.
        """
        with self._lock:
            plan = self._plan_call(
                x, semiring=semiring, sorted_output=sorted_output, mask=mask,
                mask_complement=mask_complement, algorithm=algorithm,
                _batch=_batch, **kwargs)
            outs = self.backend.run_multiply(
                plan["name"], x, semiring=semiring,
                sorted_output=plan["resolved_sorted"],
                mask_slices=plan["mask_slices"],
                mask_complement=mask_complement, kwargs=kwargs)
            return self._finish_call(plan, outs)

    def _plan_call(self, x: SparseVector, *,
                   semiring: Semiring = PLUS_TIMES,
                   sorted_output: Optional[bool] = None,
                   mask: Optional[Mask] = None,
                   mask_complement: bool = False,
                   algorithm: Optional[str] = None,
                   _batch: Optional[int] = None, **kwargs) -> Dict:
        """Validate + resolve one call, without executing it.

        Everything that must happen *before* the strip calls go out
        (operand/mask checks, kernel name validation, sorted-output
        resolution, mask compilation).  The bookkeeping half is
        :meth:`_finish_call`.
        """
        from .dispatch import get_algorithm  # late: avoids import cycle

        check_operands(self, x)
        mask_slices = self._slice_mask(mask)
        name = algorithm if algorithm is not None else self.algorithm
        fn = get_algorithm(name)  # validate the kernel name before dispatching
        resolved_sorted = (sorted_output if sorted_output is not None
                           else (x.sorted and self.ctx.sorted_vectors))
        return {"x": x, "name": name, "fn": fn, "resolved_sorted": resolved_sorted,
                "semiring": semiring, "mask_slices": mask_slices,
                "mask_complement": mask_complement, "kwargs": kwargs,
                "batch": _batch, "t0": time.perf_counter()}

    def _finish_call(self, plan: Dict, outs: List[SpMSpVResult]) -> SpMSpVResult:
        """Fold strip results into one result + all per-call bookkeeping."""
        x = plan["x"]
        resolved_sorted = plan["resolved_sorted"]
        if any(not d.is_empty for d in self.deltas):
            outs = list(outs)
            for s, delta in enumerate(self.deltas):
                if not delta.is_empty:
                    outs[s] = self._overlay_locked(
                        s, plan["fn"], outs[s], x, self.shard_ctx,
                        semiring=plan["semiring"], sorted_output=resolved_sorted,
                        mask=plan["mask_slices"][s],
                        mask_complement=plan["mask_complement"],
                        workspace=self._patch_workspace_locked(s),
                        kwargs=plan["kwargs"])
        y = self._concatenate([o.vector for o in outs], resolved_sorted)
        dfs = [float(o.info.get("df", o.record.info.get("df", 0.0))) for o in outs]
        assignment = self._schedule_shards([df + 1.0 for df in dfs])
        record = self._merge_records(
            [o.record for o in outs], assignment,
            algorithm=f"sharded[{self.num_shards}]:{outs[0].record.algorithm}",
            info={"m": self.nrows, "n": self.ncols,
                  "nnz_A": self.nnz, "f": x.nnz,
                  "df": sum(dfs), "nnz_y": y.nnz,
                  "shards": self.num_shards,
                  "shard_imbalance": assignment.imbalance(),
                  "early_mask": outs[0].record.info.get("early_mask", False)})
        record.wall_time_s = time.perf_counter() - plan["t0"]
        self._log_call(plan["name"], x.nnz, x.n, record.wall_time_s * 1e3,
                       plan["batch"])
        return SpMSpVResult(vector=y, record=record,
                            info={"f": x.nnz, "df": sum(dfs),
                                  "nnz_y": y.nnz, "shards": self.num_shards})

    # ------------------------------------------------------------------ #
    # blocked execution
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
        """Sharded blocked execution of one matrix against many input vectors.

        Loops over the vectors by default.  ``block_mode="fused"`` runs an
        eligible batch (as in :meth:`SpMSpVEngine.multiply_many`) through
        the fused path, which packs the :class:`SparseVectorBlock` **once**
        — its column union, value slab and replay positions are
        row-independent — and hands the same block to every strip's fused
        kernel call, so only the (row, vector-id) scatter and the segmented
        merge are paid per strip.  Per-vector masks are sliced per strip and
        folded into each strip's scatter.  Outputs are bit-identical to the
        unsharded ``multiply_many`` in both modes.
        """
        return self._run_batch(
            self._multiply_many_fused, xs, semiring=semiring,
            sorted_output=sorted_output, masks=masks,
            mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, block=_block, kwargs=kwargs)

    def _multiply_many_fused(self, xs: List[SparseVector], *, batch: int,
                             semiring: Semiring, sorted_output: Optional[bool],
                             masks: Optional[Sequence[Optional[Mask]]],
                             mask_complement: bool,
                             block: Optional[SparseVectorBlock] = None
                             ) -> List[SpMSpVResult]:
        """Fused block execution across strips: one shared block, P fused calls."""
        t0 = time.perf_counter()
        k = len(xs)
        if block is None:
            block = SparseVectorBlock.from_vectors(xs)
        if masks is not None:
            sliced = [self._slice_mask(mask) for mask in masks]  # [vector][strip]
            strip_masks = [[sliced[i][s] for i in range(k)]
                           for s in range(self.num_shards)]
        else:
            strip_masks = [None] * self.num_shards

        per_strip = self.backend.run_block(
            block, semiring=semiring, sorted_output=sorted_output,
            strip_masks=strip_masks, mask_complement=mask_complement)
        for s, delta in enumerate(self.deltas):
            if not delta.is_empty:
                per_strip[s] = self._overlay_block_locked(
                    s, per_strip[s], block, self.shard_ctx, semiring=semiring,
                    sorted_output=sorted_output, masks=strip_masks[s],
                    mask_complement=mask_complement,
                    workspace=self._patch_workspace_locked(s))
        # equal per-vector share of the batch wall time, frozen before the
        # bookkeeping below (as the fused kernel itself apportions)
        wall_share_s = (time.perf_counter() - t0) / max(k, 1)

        # one schedule for the whole batch: strips are the work items
        strip_dfs = [sum(float(r.info.get("df", 0.0)) for r in rs)
                     for rs in per_strip]
        assignment = self._schedule_shards([df + 1.0 for df in strip_dfs])
        nnzs = block.nnz_per_vector()
        results: List[SpMSpVResult] = []
        for i in range(k):
            outs = [per_strip[s][i] for s in range(self.num_shards)]
            resolved_sorted = (sorted_output if sorted_output is not None
                               else (block.sorted_flags[i]
                                     and self.ctx.sorted_vectors))
            y = self._concatenate([o.vector for o in outs], resolved_sorted)
            df_i = sum(float(o.info.get("df", 0.0)) for o in outs)
            record = self._merge_records(
                [o.record for o in outs], assignment,
                algorithm=f"sharded[{self.num_shards}]:{outs[0].record.algorithm}",
                info={"m": self.nrows, "n": self.ncols,
                      "nnz_A": self.nnz, "f": int(nnzs[i]),
                      "df": df_i, "nnz_y": y.nnz, "fused": True,
                      "block_k": k, "shards": self.num_shards})
            record.wall_time_s = wall_share_s
            self._log_call("bucket_block", int(nnzs[i]), block.n,
                           wall_share_s * 1e3, batch, fused=True)
            results.append(SpMSpVResult(
                vector=y, record=record,
                info={"f": int(nnzs[i]), "df": df_i, "nnz_y": y.nnz,
                      "fused": True, "shards": self.num_shards}))
        self._fused_batches += 1
        return results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def workspace_stats(self) -> Dict[str, float]:
        """Aggregate reuse statistics over the per-strip workspaces.

        For out-of-process backends these are the latest stats the workers
        piggybacked on their replies (fresh-workspace values before any
        call)."""
        stats = self.backend.workspace_stats()
        acq = sum(s["acquisitions"] for s in stats)
        alloc = sum(s["allocations"] for s in stats)
        saved = max(acq - alloc, 0)
        return {
            "acquisitions": acq,
            "allocations": alloc,
            "allocations_saved": saved,
            "reuse_fraction": saved / acq if acq else 0.0,
            "bucket_capacity": sum(s["bucket_capacity"] for s in stats),
            "block_capacity": sum(s["block_capacity"] for s in stats),
        }


class EngineGroup:
    """One engine per named matrix, built and owned by the group.

    Each member is an :class:`~repro.core.engine.SpMSpVEngine`, or a
    :class:`ShardedEngine` over ``shards`` row strips when given.  Members
    live as long as the group, so their workspaces stay warm no matter how
    many other matrices the process touches; the ``spmspv`` shim's
    :func:`~repro.core.engine.engine_for` cache is not involved.  The
    serving layer reaches a member by key through the forwarding methods.

    Use as a context manager (or call :meth:`close`) to release the
    members' backend pools.
    """

    def __init__(self, matrices: Union[Sequence[CSCMatrix], Mapping[object, CSCMatrix]],
                 ctx: Optional[ExecutionContext] = None, *,
                 shards: Optional[int] = None):
        self.ctx = ctx if ctx is not None else default_context()
        items = (list(matrices.items()) if isinstance(matrices, Mapping)
                 else list(enumerate(matrices)))
        if not items:
            raise ValueError("EngineGroup needs at least one matrix")
        self._engines: "OrderedDict[object, SpMSpVEngine]" = OrderedDict(
            (key, SpMSpVEngine(matrix, self.ctx) if shards is None
             else ShardedEngine(matrix, shards, self.ctx))
            for key, matrix in items)

    # ------------------------------------------------------------------ #
    def keys(self) -> List[object]:
        return list(self._engines)

    def engine(self, key) -> SpMSpVEngine:
        """The member engine for ``key`` (raises ``KeyError`` if absent)."""
        return self._engines[key]

    def multiply(self, key, x: SparseVector, **kwargs) -> SpMSpVResult:
        """Multiplication against one member; see :meth:`SpMSpVEngine.multiply`."""
        return self._engines[key].multiply(x, **kwargs)

    def multiply_many(self, key, xs: Sequence[SparseVector],
                      **kwargs) -> List[SpMSpVResult]:
        """Blocked multiplication against one member (the serving layer's
        coalesced entry point); see :meth:`SpMSpVEngine.multiply_many`."""
        return self._engines[key].multiply_many(xs, **kwargs)

    def multiply_block(self, key, block: SparseVectorBlock,
                       **kwargs) -> List[SpMSpVResult]:
        """Blocked multiplication of an already-packed block against one
        member; see :meth:`SpMSpVEngine.multiply_block`."""
        return self._engines[key].multiply_block(block, **kwargs)

    def apply_updates(self, key, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates against member ``key`` (``values=None`` deletes);
        see :meth:`SpMSpVEngine.apply_updates`."""
        return self._engines[key].apply_updates(rows, cols, values)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[object, Dict[str, object]]:
        """Per-member engine summaries."""
        return {key: engine.summary() for key, engine in self._engines.items()}

    def close(self) -> None:
        """Release the members' backend pools (idempotent)."""
        for engine in self._engines.values():
            engine.close()

    def __enter__(self) -> "EngineGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._engines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"EngineGroup(members={len(self._engines)})"
