"""Fused vector-block SpMSpV: the bucket algorithm over (row, vector-id) pairs.

:meth:`SpMSpVEngine.multiply_many <repro.core.engine.SpMSpVEngine.multiply_many>`
historically looped k independent :func:`~repro.core.spmspv_bucket.spmspv_bucket`
calls — k column gathers, k scatters, k merges, k rounds of interpreter
overhead.  :func:`spmspv_bucket_block` is the genuinely fused variant: the
whole :class:`~repro.formats.vector_block.SparseVectorBlock` is executed with

* **one gather** — the shared column union is pulled out of the matrix once
  (:meth:`~repro.formats.csc.CSCMatrix.gather_columns_block`) and the
  semiring multiply is broadcast across all k vectors in a single vectorized
  pass; columns selected by several vectors are never re-gathered;
* **one masked scatter** — the gathered entries are expanded into a flat
  array of ``(row, vector-id)`` pairs (each vector's pairs in its *original*
  gather order, replayed from the block's stored positions) living in
  persistent :class:`~repro.core.workspace.BlockBuffers`.  Per-vector masks
  are folded in right here: each vector's dense row map is probed once per
  gathered entry and dead ``(row, vector-id)`` pairs never enter the buffers
  (nor are their values read or multiplied), so masked
  batched workloads (multi-source BFS frontiers, restricted PageRank) do
  O(surviving pairs) merge work;
* **one segmented merge** — pairs are already partitioned by vector (each
  vector's slice is contiguous, in that vector's own gather order), and
  each slice goes through the row merge every kernel uses
  (:func:`~repro.core.buckets.merge_rows`), so each vector's output is
  **bit-identical** to its own ``multiply`` call (including unsorted
  inputs, first-touch unsorted output, and early-masked calls).  The merge
  reports each (vector, bucket) segment's size; the segments are priced
  independently (:func:`~repro.core.buckets.merge_work`) and scheduled onto
  threads with the §III-A dynamic policy;
* **one output pass** — each vector's merged rows, already in its output
  order, are wrapped into k output vectors.

The four phases are priced like the per-vector bucket kernel — estimate /
bucketing / spa_merge / output, with the pair counts of Algorithm 1 applied
to (row, vector-id) pairs — and each vector's
:class:`~repro.core.result.SpMSpVResult` carries its proportional share of
the block's work, so the fused records sum to the block total (the gather
is charged once across the block: that is the fusion saving).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..machine.cache import estimate_column_gather_misses
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import NUM_FIELDS, ExecutionRecord, PhaseRecord, WorkMetrics
from ..parallel.scheduler import schedule
from ..semiring import PLUS_TIMES, Semiring
from .buckets import merge_rows, merge_work
from .result import SpMSpVResult
from .vector_ops import Mask, check_mask, check_operands, finalize_output, mask_bitmap, mask_keep
from .workspace import BlockBuffers, SpMSpVWorkspace


def _even_split(totals: np.ndarray, num_threads: int, share: float) -> np.ndarray:
    """A record matrix splitting ``share`` of each phase's totals evenly.

    ``totals`` holds one row per phase; each phase gets ``num_threads``
    equal thread rows (``share / num_threads`` of its total, rounded as
    :meth:`WorkMetrics.scale` rounds) and a zero serial row.
    """
    counts = np.zeros((len(totals), num_threads + 1, NUM_FIELDS), dtype=np.int64)
    counts[:, :num_threads] = np.rint(totals * (share / num_threads))[:, None]
    return counts.reshape(-1, NUM_FIELDS)


def spmspv_bucket_block(matrix: CSCMatrix,
                        block: Union[SparseVectorBlock, Sequence[SparseVector]],
                        ctx: Optional[ExecutionContext] = None, *,
                        semiring: Semiring = PLUS_TIMES,
                        sorted_output: Optional[bool] = None,
                        masks: Optional[Sequence[Optional[Mask]]] = None,
                        mask_complement: bool = False,
                        early_mask: bool = True,
                        workspace: Optional[SpMSpVWorkspace] = None
                        ) -> List[SpMSpVResult]:
    """Multiply one CSC matrix by a block of k sparse vectors in one fused pass.

    Parameters mirror :func:`~repro.core.spmspv_bucket.spmspv_bucket`, with
    ``block`` either a :class:`SparseVectorBlock` or a plain sequence of
    :class:`SparseVector` (packed on the fly) and ``masks`` an optional
    per-vector mask list (each a :class:`SparseVector` of length ``nrows``
    or a dense row map, a 1-D ``bool`` array of length ``nrows`` — anything
    else raises :class:`~repro.errors.DimensionError`).  ``early_mask`` folds the
    masks into the scatter (bit-identical to finalize-time masking, see
    module docstring).  ``sorted_output=None`` resolves per vector, exactly
    as the per-vector kernel does.  Returns one :class:`SpMSpVResult` per
    vector, indices and values exactly equal to k independent per-vector
    calls.
    """
    ctx = ctx if ctx is not None else default_context()
    if not isinstance(block, SparseVectorBlock):
        block = SparseVectorBlock.from_vectors(block)
    check_operands(matrix, block)
    if masks is not None and len(masks) != block.k:
        raise ValueError(f"got {block.k} vectors but {len(masks)} masks")
    if masks is not None:
        for m_i in masks:
            check_mask(m_i, matrix.nrows)
    if workspace is not None:
        workspace.check_rows(matrix.nrows)

    t_start = time.perf_counter()
    m, n = matrix.shape
    t = ctx.num_threads
    nb = ctx.num_buckets
    k = block.k
    u = block.union_nnz
    nnz_per_vec = block.nnz_per_vector()
    out_sorted = [sorted_output if sorted_output is not None
                  else (block.sorted_flags[i] and ctx.sorted_vectors)
                  for i in range(k)]
    bitmaps = ([mask_bitmap(masks[i], m) for i in range(k)]
               if early_mask and masks is not None else None)

    # ------------------------------------------------------------------ #
    # one gather over the whole column union (+ multiply, see below)
    # ------------------------------------------------------------------ #
    from ..baselines.common import gather_cost_chunks

    col_weights, chunks = gather_cost_chunks(matrix, block.indices, t)

    # pair counts: gathered entry e fans out to one (row, vector-id) pair per
    # vector that stores entry src_g[e] of the union
    member_counts = block.member.sum(axis=1).astype(INDEX_DTYPE) if u else \
        np.empty(0, dtype=INDEX_DTYPE)
    pair_weights = (col_weights * member_counts) if u else col_weights
    df_per_vec = np.array(
        [int(col_weights[pos].sum()) if len(pos) else 0 for pos in block.positions],
        dtype=np.int64)
    total_pairs = int(df_per_vec.sum())
    total_g = int(col_weights.sum()) if u else 0

    # The multiply is broadcast across the (union gather) x (k vectors) slab
    # only while that slab stays close to the true pair count — dense,
    # heavily-shared blocks (PageRank deltas, overlapping BFS frontiers).  A
    # weakly-shared block would waste k/sharing times the multiplies (and a
    # (total, k) temporary) on products no vector needs, so it computes each
    # vector's df_i products directly during the expansion instead; both
    # paths produce identical scalars.
    broadcast = total_pairs > 0 and total_g * k <= 2 * total_pairs
    rows_g, vals_g, _src_g, scaled = matrix.gather_columns_block(
        block.indices, block.values if broadcast else None,
        multiply=semiring.multiply)
    out_dtype = np.result_type(matrix.dtype, block.dtype)

    # Phase 0: ESTIMATE-BUCKETS over the union: each thread reads its chunk
    # of the gather and keeps per-(thread, bucket) counters; it scales nothing
    entries_per_chunk = [int(col_weights[chunk].sum()) if len(chunk) else 0
                         for chunk in chunks]
    estimate_phase = PhaseRecord("estimate", thread_metrics=[
        WorkMetrics(vector_reads=len(chunk), colptr_reads=len(chunk),
                    matrix_nnz_reads=entries, buffer_writes=nb)
        for chunk, entries in zip(chunks, entries_per_chunk)])

    # ------------------------------------------------------------------ #
    # one masked scatter: expand into flat (row, vector-id, value) pairs
    # ------------------------------------------------------------------ #
    # pairs dropped by an early mask never enter the buffers, so the buffers
    # are sized by the unmasked upper bound and filled to the surviving count
    use_small_keys = m <= (1 << 30)
    if workspace is not None:
        buffers = workspace.acquire_block(max(total_pairs, 1), dtype=out_dtype,
                                          sort_keys=use_small_keys)
    else:
        buffers = BlockBuffers(max(total_pairs, 1), dtype=out_dtype,
                               sort_keys=use_small_keys)
    exp_rows = buffers.rows
    exp_vals = buffers.values

    # flat segment table of the union gather: column p of the union occupies
    # rows_g[starts_u[p] : starts_u[p] + col_weights[p]]
    starts_u = np.zeros(u + 1, dtype=np.int64)
    if u:
        np.cumsum(col_weights, out=starts_u[1:])
    seg_offsets = np.zeros(k + 1, dtype=np.int64)
    mask_probes = 0
    cursor = 0
    for i in range(k):
        pos = block.positions[i]
        df_i = int(df_per_vec[i])
        if df_i == 0:
            seg_offsets[i + 1] = cursor
            continue
        lengths = col_weights[pos]
        # replay vector i's own gather order from the compact union gather
        offs = np.zeros(len(pos), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offs[1:])
        gpos = (np.repeat(starts_u[pos], lengths)
                + np.arange(df_i, dtype=np.int64) - np.repeat(offs, lengths))
        rows_i = rows_g[gpos]
        keep = None
        if bitmaps is not None and bitmaps[i] is not None:
            # early masking: dead (row, vector-id) pairs are dropped before
            # they are scattered, merged or even multiplied
            mask_probes += df_i
            keep = np.flatnonzero(
                mask_keep(bitmaps[i], rows_i, complement=mask_complement))
            rows_i, gpos = rows_i[keep], gpos[keep]
        lo, hi = cursor, cursor + len(rows_i)
        exp_rows[lo:hi] = rows_i
        if broadcast:
            exp_vals[lo:hi] = scaled[gpos, i]
        else:
            # same scalars as the broadcast slab (and as the per-vector
            # kernel): A values in this vector's gather order times its own
            # x value repeated over each column's entries
            xv = np.repeat(block.values[pos, i], lengths)
            if keep is not None:
                xv = xv[keep]
            exp_vals[lo:hi] = semiring.multiply(vals_g[gpos], xv)
        seg_offsets[i + 1] = hi
        cursor = hi
    total_kept = cursor
    kept_per_vec = np.diff(seg_offsets)
    share = (kept_per_vec / total_kept) if total_kept else np.full(k, 1.0 / max(k, 1))

    pairs_per_chunk = [int(pair_weights[chunk].sum()) if len(chunk) else 0
                      for chunk in chunks]
    kept_fraction = total_kept / total_pairs if total_pairs else 1.0
    # only the masked vectors' pairs are probed: bill each chunk its share
    probe_fraction = mask_probes / total_pairs if total_pairs else 0.0
    bucketed = []
    for chunk, entries, pairs in zip(chunks, entries_per_chunk, pairs_per_chunk):
        kept_chunk = int(round(pairs * kept_fraction))
        bucketed.append(WorkMetrics(
            vector_reads=len(chunk),
            colptr_reads=len(chunk),
            matrix_nnz_reads=entries,
            bitmap_probes=int(round(pairs * probe_fraction)),
            multiplications=kept_chunk,
            bucket_writes=kept_chunk,
            buffer_writes=kept_chunk,
            cache_line_misses=estimate_column_gather_misses(
                len(chunk), entries, n, input_sorted=True),
        ))
    bucketing_phase = PhaseRecord("bucketing", thread_metrics=bucketed)

    # ------------------------------------------------------------------ #
    # one segmented merge per (vector, bucket)
    # ------------------------------------------------------------------ #
    uind_per_vec: List[np.ndarray] = [np.empty(0, dtype=INDEX_DTYPE)] * k
    uval_per_vec: List[np.ndarray] = [np.empty(0, dtype=out_dtype)] * k
    seg_sizes: List[int] = []
    seg_uniques: List[int] = []
    seg_sorted: List[bool] = []
    for i in range(k):
        lo, hi = int(seg_offsets[i]), int(seg_offsets[i + 1])
        if hi == lo:
            continue
        uind_per_vec[i], uval_per_vec[i], sizes, uniques = merge_rows(
            exp_rows[lo:hi], exp_vals[lo:hi], semiring, m,
            sorted_output=out_sorted[i], num_buckets=nb,
            staging=buffers.sort_keys)
        nonempty = sizes > 0
        seg_sizes.extend(sizes[nonempty].tolist())
        seg_uniques.extend(uniques[nonempty].tolist())
        seg_sorted.extend([out_sorted[i]] * int(nonempty.sum()))
    # the (vector, bucket) segments are independent merges: schedule them
    # onto the threads like the per-vector kernel schedules its buckets
    assignment = schedule(seg_sizes, t, ctx.scheduling)
    merge_phase = PhaseRecord("spa_merge", thread_metrics=merge_work(
        seg_sizes, seg_uniques, assignment.items_per_thread,
        sorted_output=seg_sorted, num_rows=m, num_buckets=nb,
        cache_kb=ctx.platform.l2_kb))
    nnz_out = sum(len(uind) for uind in uind_per_vec)

    # the output writes split evenly over the threads, the prefix sum serial
    written = WorkMetrics(output_writes=nnz_out, cache_line_misses=nnz_out)
    output_phase = PhaseRecord(
        "output", thread_metrics=np.tile(written.scale(1.0 / t).row, (t, 1)),
        serial_metrics=WorkMetrics(additions=nb))

    wall_s = time.perf_counter() - t_start

    # ------------------------------------------------------------------ #
    # wrap per-vector outputs and apportion the block record
    # ------------------------------------------------------------------ #
    results: List[SpMSpVResult] = []
    block_phases = (estimate_phase, bucketing_phase, merge_phase, output_phase)
    # each vector's record carries its proportional share of the block phase
    # totals, split evenly across threads (the true per-thread split belongs
    # to the fused pass as a whole, not to any one vector)
    phase_totals = np.stack([p.counts.sum(axis=0) for p in block_phases])
    table = tuple((p.name, True, p.barriers, t) for p in block_phases)
    for i in range(k):
        early_i = bitmaps is not None and bitmaps[i] is not None
        y = SparseVector(m, uind_per_vec[i], uval_per_vec[i],
                         sorted=out_sorted[i], check=False)
        y = finalize_output(
            y, semiring,
            mask=None if early_i or masks is None else masks[i],
            mask_complement=mask_complement)
        record = ExecutionRecord(
            "spmspv_bucket_block", t, table=table,
            counts=_even_split(phase_totals, t, float(share[i])),
            info={"m": m, "n": n, "nnz_A": matrix.nnz, "f": int(nnz_per_vec[i]),
                  "df": int(kept_per_vec[i]), "nnz_y": y.nnz, "fused": True,
                  "block_k": k, "block_union": u, "block_pairs": total_kept,
                  "early_mask": early_i,
                  "workspace_reused": workspace is not None},
            wall_time_s=wall_s / k)
        results.append(SpMSpVResult(
            vector=y, record=record,
            info={"f": int(nnz_per_vec[i]), "df": int(kept_per_vec[i]),
                  "nnz_y": y.nnz, "fused": True}))
    return results
