"""The SpMSpV-bucket algorithm (the paper's contribution, Algorithms 1 and 2).

The multiplication ``y ← A·x`` proceeds in four phases, each of which is
executed as "one vectorized NumPy call per thread chunk" and instrumented
with per-thread work counts (:mod:`repro.parallel.metrics`):

0. **estimate** (Algorithm 2) — every thread scans its share of the nonzeros
   of ``x`` and counts how many scaled entries it will push into each bucket.
   The exclusive prefix sums of those counts give each thread disjoint write
   regions, which is what makes the next phase lock-free.
1. **bucketing** (Step 1) — the selected columns are gathered, scaled by the
   corresponding ``x`` values with the semiring's MULTIPLY, and scattered
   into ``nb = 4·t`` row-range buckets.
2. **spa_merge** (Step 2) — buckets are dynamically scheduled onto threads;
   each bucket's entries are folded by row into a SPA built per call, in
   stream order (:func:`~repro.core.buckets.merge_rows`, the one row merge
   of every kernel), collecting the bucket's unique row indices (optionally
   sorted), and the SPA work of Algorithm 1 is counted from the bucket sizes
   (:func:`~repro.core.buckets.merge_work`).
3. **output** (Step 3) — a prefix sum over per-bucket unique counts assigns
   each bucket its offset in ``y``; values are fetched from the SPA.

Two implementations are provided:

* :func:`spmspv_bucket` — the production, vectorized implementation.
* :func:`spmspv_bucket_reference` — a line-by-line transcription of the
  pseudocode (including the ``∞``-marker SPA initialization of lines 11-12),
  used by the test-suite to cross-validate the vectorized version.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..machine.cache import estimate_column_gather_misses
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import COL, NUM_FIELDS, ExecutionRecord, PhaseRecord, WorkMetrics
from ..parallel.partitioner import partition_by_weight
from ..parallel.scheduler import schedule
from ..semiring import PLUS_TIMES, Semiring
from .buckets import BucketStore, bucket_of_rows, compute_offsets, merge_rows, merge_work
from .result import SpMSpVResult
from .vector_ops import (
    Mask,
    check_mask,
    check_operands,
    finalize_output,
    mask_bitmap,
    mask_keep,
)
from .workspace import SpMSpVWorkspace


def _masked_gather(matrix: CSCMatrix, cols: np.ndarray,
                   bitmap: Optional[np.ndarray], complement: bool):
    """Gather the selected columns, early-masking rows before any value read.

    Each gathered row id is probed once against the mask map; values are
    read only for survivors, so dead entries never reach the counting pass,
    scatter, multiply or merge.  Returns ``(rows, values, source,
    gathered)``, ``gathered`` counting the entries read before masking.
    """
    positions, src = matrix.gather_positions(cols)
    rows = matrix.indices[positions]
    gathered = len(rows)
    keep = mask_keep(bitmap, rows, complement=complement)
    if keep is not None:
        live = np.flatnonzero(keep)
        rows, positions, src = rows[live], positions[live], src[live]
    return rows, matrix.data[positions], src, gathered


# --------------------------------------------------------------------------- #
# production (vectorized) implementation
# --------------------------------------------------------------------------- #
def spmspv_bucket(matrix: CSCMatrix, x: SparseVector,
                  ctx: Optional[ExecutionContext] = None, *,
                  semiring: Semiring = PLUS_TIMES,
                  sorted_output: Optional[bool] = None,
                  mask: Optional[Mask] = None,
                  mask_complement: bool = False,
                  early_mask: bool = True,
                  workspace: Optional[SpMSpVWorkspace] = None,
                  single_pass: Optional[bool] = None) -> SpMSpVResult:
    """Multiply a CSC matrix by a sparse vector with the SpMSpV-bucket algorithm.

    Parameters
    ----------
    matrix:
        The m-by-n sparse matrix in CSC format.
    x:
        The sparse input vector (list format, sorted or unsorted).
    ctx:
        Execution context (thread count, bucket count, scheduling policy,
        platform).  Defaults to a single-threaded Edison context.
    semiring:
        The semiring used for MULTIPLY/ADD (default: conventional plus-times).
    sorted_output:
        Whether the output must be sorted by index.  Defaults to the
        sortedness of ``x`` (the paper requires output format == input format).
    mask, mask_complement:
        Optional structural mask applied to the output (GraphBLAS-style):
        a :class:`SparseVector` of length ``nrows`` or a dense row map (1-D
        ``bool`` array of length ``nrows``; see
        :func:`~repro.core.vector_ops.check_mask`).  With
        ``mask_complement=True`` entries *in* the mask are dropped — the
        pattern BFS uses to discard already-visited vertices.  A mask that
        does not span the matrix's row space raises
        :class:`~repro.errors.DimensionError`.
    early_mask:
        With the default True the mask is folded into the kernel: the dense
        row map is probed once per gathered entry and dead entries never
        enter the buckets, so masked calls do O(surviving pairs) merge work
        instead of merging everything and discarding at finalize.  Because
        masking drops whole rows, the output is **bit-identical** to the
        finalize-time path (``early_mask=False``, the pre-fold behavior).
    workspace:
        Optional :class:`~repro.core.workspace.SpMSpVWorkspace` whose bucket
        store the multi-threaded path fills instead of allocating one per
        call (the §III-A "Memory allocation" optimization).  The
        single-pass path writes no buffer of its own.
    single_pass:
        With the default None, single-threaded contexts take the fused
        single-pass path: the per-thread partitioning and the lock-free
        bucket-store scatter are skipped (one thread has nothing to
        coordinate) and the whole gathered stream goes through one row
        merge, which sees each row's addends in the order the generic path's
        per-bucket merges do, so outputs — and the reported work metrics —
        are **bit-identical**; only the Python-level call count changes.
        This is what makes per-strip calls of the sharded engine cheap.
        Pass False to force the generic path (the equivalence tests do);
        True on a multi-threaded context raises ``ValueError``.

    Returns
    -------
    :class:`SpMSpVResult` with the output vector and the execution record.
    """
    ctx = ctx if ctx is not None else default_context()
    check_operands(matrix, x)
    check_mask(mask, matrix.nrows)
    if workspace is not None:
        workspace.check_rows(matrix.nrows)
    if sorted_output is None:
        sorted_output = x.sorted and ctx.sorted_vectors
    bitmap = mask_bitmap(mask, matrix.nrows) if early_mask else None
    if single_pass is None:
        single_pass = ctx.num_threads == 1
    elif single_pass and ctx.num_threads != 1:
        raise ValueError("single_pass execution requires a single-threaded context")
    if single_pass:
        return _spmspv_bucket_single(matrix, x, ctx, semiring=semiring,
                                     sorted_output=sorted_output, mask=mask,
                                     mask_complement=mask_complement,
                                     bitmap=bitmap)

    t_start = time.perf_counter()
    m, n = matrix.shape
    t = ctx.num_threads
    nb = ctx.num_buckets
    f = x.nnz
    record = ExecutionRecord(algorithm="spmspv_bucket", num_threads=t,
                             info={"m": m, "n": n, "nnz_A": matrix.nnz, "f": f})

    x_indices = x.indices
    x_values = x.values
    # Work is assigned to threads by matrix nonzeros (the §III-B refinement),
    # keeping chunks contiguous so sorted input vectors stay cache friendly.
    col_weights = (matrix.indptr[x_indices + 1] - matrix.indptr[x_indices]) if f else \
        np.empty(0, dtype=INDEX_DTYPE)
    chunks = partition_by_weight(col_weights, t)

    # ------------------------------------------------------------------ #
    # Phase 0: ESTIMATE-BUCKETS (Algorithm 2)
    # ------------------------------------------------------------------ #
    counts = np.zeros((t, nb), dtype=INDEX_DTYPE)
    gathered = [None] * t  # cache the gather so the bucketing phase reuses it

    def _estimate(tid: int) -> WorkMetrics:
        chunk = chunks[tid]
        if len(chunk) == 0:
            return WorkMetrics()
        rows, vals, src, probes = _masked_gather(
            matrix, x_indices[chunk], bitmap, mask_complement)
        gathered[tid] = (rows, vals, src, chunk)
        bucket_ids = bucket_of_rows(rows, nb, m)
        counts[tid, :] = np.bincount(bucket_ids, minlength=nb)
        return WorkMetrics(vector_reads=len(chunk), colptr_reads=len(chunk),
                           matrix_nnz_reads=probes,
                           bitmap_probes=probes if bitmap is not None else 0,
                           buffer_writes=nb)

    record.add_phase(PhaseRecord(
        "estimate", thread_metrics=[_estimate(tid) for tid in range(t)]))

    offsets = compute_offsets(counts)
    total_entries = offsets.total_entries
    record.info["df"] = total_entries

    out_dtype = np.result_type(matrix.dtype, x.dtype)
    if workspace is not None:
        store = workspace.acquire_buckets(total_entries, dtype=out_dtype)
    else:
        store = BucketStore(max(total_entries, 1), dtype=out_dtype)
    store.attach_offsets(offsets, dtype=out_dtype)
    record.info["workspace_reused"] = workspace is not None

    # ------------------------------------------------------------------ #
    # Phase 1: bucketing (Step 1 of Algorithm 1)
    # ------------------------------------------------------------------ #
    def _bucketing(tid: int) -> WorkMetrics:
        if gathered[tid] is None:
            return WorkMetrics()
        rows, vals, src, chunk = gathered[tid]
        xv = x_values[chunk]
        scaled = semiring.multiply(vals, xv[src])
        bucket_ids = bucket_of_rows(rows, nb, m)
        store.write_thread_entries(tid, bucket_ids, rows, np.asarray(scaled))
        # thread-private staging buffers turn part of the scatter into
        # streaming writes (buffer_writes)
        return WorkMetrics(
            vector_reads=len(chunk), colptr_reads=len(chunk),
            matrix_nnz_reads=len(rows), multiplications=len(rows),
            bucket_writes=len(rows), buffer_writes=len(rows),
            cache_line_misses=estimate_column_gather_misses(
                len(chunk), len(rows), n, input_sorted=x.sorted))

    record.add_phase(PhaseRecord(
        "bucketing", thread_metrics=[_bucketing(tid) for tid in range(t)]))

    # ------------------------------------------------------------------ #
    # Phase 2: per-bucket SPA merge (Step 2 of Algorithm 1)
    # ------------------------------------------------------------------ #
    bucket_sizes = offsets.bucket_sizes()
    assignment = schedule(bucket_sizes.tolist(), t, ctx.scheduling)
    # each bucket is merged on its own, as the thread it is scheduled on would
    per_bucket = [merge_rows(*store.bucket_entries(k), semiring, m,
                             sorted_output=sorted_output)[:2] for k in range(nb)]
    uind_counts = np.array([len(uind) for uind, _ in per_bucket], dtype=INDEX_DTYPE)
    record.add_phase(PhaseRecord("spa_merge", thread_metrics=merge_work(
        bucket_sizes, uind_counts, assignment.items_per_thread,
        sorted_output=sorted_output, num_rows=m, num_buckets=nb,
        cache_kb=ctx.platform.l2_kb)))

    # ------------------------------------------------------------------ #
    # Phase 3: output construction (Step 3 of Algorithm 1)
    # ------------------------------------------------------------------ #
    y_offsets = np.zeros(nb + 1, dtype=INDEX_DTYPE)
    np.cumsum(uind_counts, out=y_offsets[1:])
    nnz_y = int(y_offsets[-1])

    y_indices = np.empty(nnz_y, dtype=INDEX_DTYPE)
    y_values = np.empty(nnz_y, dtype=np.result_type(matrix.dtype, x.dtype))

    def _output(tid: int) -> WorkMetrics:
        written = 0
        for k in assignment.items_per_thread[tid]:
            cnt = int(uind_counts[k])
            if cnt == 0:
                continue
            lo = int(y_offsets[k])
            y_indices[lo:lo + cnt], y_values[lo:lo + cnt] = per_bucket[k]
            written += cnt
        # every write is a non-consecutive SPA read (§IV-F)
        return WorkMetrics(output_writes=written, cache_line_misses=written)

    # the prefix sum runs on the master thread (Algorithm 1, line 20)
    record.add_phase(PhaseRecord(
        "output", thread_metrics=[_output(tid) for tid in range(t)],
        serial_metrics=WorkMetrics(additions=nb)))

    # the output lives in the row space of A, which has length m; an
    # early-applied mask must not be re-applied at finalize (it would be a
    # no-op select costing O(nnz_y log) membership work)
    y = SparseVector(m, y_indices, y_values, sorted=sorted_output, check=False)
    y = finalize_output(y, semiring, mask=None if bitmap is not None else mask,
                        mask_complement=mask_complement)
    record.info["early_mask"] = bitmap is not None

    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": f, "df": total_entries, "nnz_y": y.nnz})


# --------------------------------------------------------------------------- #
# fused single-thread path (one sort instead of per-chunk/per-bucket loops)
# --------------------------------------------------------------------------- #
#: the single pass's phase table: the four phases of one thread, one barrier each
_SINGLE_PASS_PHASES = tuple((name, True, 1, 1) for name in
                            ("estimate", "bucketing", "spa_merge", "output"))


def _spmspv_bucket_single(matrix: CSCMatrix, x: SparseVector,
                          ctx: ExecutionContext, *, semiring: Semiring,
                          sorted_output: bool, mask: Optional[Mask],
                          mask_complement: bool, bitmap
                          ) -> SpMSpVResult:
    """The ``single_pass`` body of :func:`spmspv_bucket` (t == 1, validated).

    The generic path exists to coordinate threads: per-thread chunks, the
    ESTIMATE-BUCKETS counting pass, the lock-free bucket-store scatter, and
    per-bucket merges.  With one thread none of that coordination buys
    anything, but each step still costs a handful of Python-level NumPy
    calls — which is what dominates per-strip calls at realistic frontier
    sizes.  This path produces the identical result from first principles:

    * the gathered stream is already the concatenation of the selected
      columns in ``x``'s storage order — exactly the stream the bucket store
      would hold, bucket-grouped;
    * :func:`~repro.core.buckets.merge_rows` over that whole stream folds
      each row's addends in the order the generic path's per-bucket merges
      fold them (the SPA of Algorithm 1, lines 11-18, built per call), and
      reports the per-bucket segment sizes from which
      :func:`~repro.core.buckets.merge_work` reproduces the per-bucket work
      metrics number for number (:func:`single_pass_record`).

    No workspace buffer is written, and the record says so
    (``workspace_reused`` is False): one thread has nothing to scatter.
    """
    t_start = time.perf_counter()
    m = matrix.nrows
    out_dtype = np.result_type(matrix.dtype, x.dtype)

    # Phase 0: estimate — the single thread scans x and gathers its columns
    if x.nnz:
        rows, vals, src, probes = _masked_gather(matrix, x.indices, bitmap,
                                                 mask_complement)
    else:
        rows = np.empty(0, dtype=INDEX_DTYPE)
        vals = np.empty(0, dtype=matrix.dtype)
        src = np.empty(0, dtype=INDEX_DTYPE)
        probes = 0

    # Phase 1: bucketing — scale the gathered entries (no scatter needed);
    # cast through the output dtype exactly as the bucket store does
    scaled = np.asarray(semiring.multiply(vals, x.values[src])) \
        .astype(out_dtype, copy=False)

    # Phase 2: one row merge over the whole stream, priced bucket by bucket
    uind, merged, sizes, uniques = merge_rows(
        rows, scaled, semiring, m, sorted_output=sorted_output,
        num_buckets=ctx.num_buckets)

    # Phase 3: output — uind/merged already are the concatenated output
    y = SparseVector(m, uind, merged.astype(out_dtype, copy=False),
                     sorted=sorted_output, check=False)
    y = finalize_output(y, semiring, mask=None if bitmap is not None else mask,
                        mask_complement=mask_complement)
    record = single_pass_record(
        ctx, matrix, x, probes=probes, masked=bitmap is not None, df=len(rows),
        sizes=sizes, uniques=uniques, sorted_output=sorted_output,
        nnz_y=len(uind))
    record.info["early_mask"] = bitmap is not None
    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": x.nnz, "df": len(rows), "nnz_y": y.nnz})


def single_pass_record(ctx: ExecutionContext, matrix: CSCMatrix, x: SparseVector, *,
                       probes: int, masked: bool, df: int, sizes: np.ndarray,
                       uniques: np.ndarray, sorted_output: bool,
                       nnz_y: int) -> ExecutionRecord:
    """The execution record of one single pass, written straight into its matrix.

    The pass gathered ``probes`` entries of the columns ``x`` selects
    (``masked``: each probed against the mask row map), of which ``df``
    survived to be scaled; its merge's ``ctx.num_buckets`` buckets held
    ``sizes`` entries over ``uniques`` rows, and its output ``nnz_y`` rows.
    Each of the four phases is one thread row and a serial row; no workspace
    buffer is written (one thread has nothing to scatter).
    """
    m, n = matrix.shape
    nb = ctx.num_buckets
    f = x.nnz
    counts = np.zeros((2 * len(_SINGLE_PASS_PHASES), NUM_FIELDS), dtype=np.int64)
    est, buck, out, out_serial = counts[0], counts[2], counts[6], counts[7]
    if f:
        est[COL.vector_reads] = f
        est[COL.colptr_reads] = f
        est[COL.matrix_nnz_reads] = probes
        est[COL.bitmap_probes] = probes if masked else 0
        est[COL.buffer_writes] = nb
        buck[COL.vector_reads] = f
        buck[COL.colptr_reads] = f
        buck[COL.matrix_nnz_reads] = df
        buck[COL.multiplications] = df
        buck[COL.bucket_writes] = df
        buck[COL.buffer_writes] = df
        buck[COL.cache_line_misses] = estimate_column_gather_misses(
            f, df, n, input_sorted=x.sorted)
    counts[4:5] = merge_work(
        sizes, uniques, [range(nb)], sorted_output=sorted_output,
        num_rows=m, num_buckets=nb, cache_kb=ctx.platform.l2_kb)
    out[COL.output_writes] = nnz_y
    out[COL.cache_line_misses] = nnz_y
    # the prefix sum runs on the master thread (Algorithm 1, line 20)
    out_serial[COL.additions] = nb
    return ExecutionRecord(
        "spmspv_bucket", 1, table=_SINGLE_PASS_PHASES, counts=counts,
        info={"m": m, "n": n, "nnz_A": matrix.nnz, "f": f, "df": df,
              "workspace_reused": False})


# --------------------------------------------------------------------------- #
# literal reference implementation (pseudocode transcription)
# --------------------------------------------------------------------------- #
def spmspv_bucket_reference(matrix: CSCMatrix, x: SparseVector,
                            num_buckets: int = 4, *,
                            semiring: Semiring = PLUS_TIMES,
                            sorted_output: bool = True) -> SparseVector:
    """Line-by-line transcription of Algorithms 1 and 2 (sequential, loop-based).

    This exists to validate :func:`spmspv_bucket` — it follows the pseudocode
    literally, including the ``∞`` SPA markers, and is therefore only suitable
    for small inputs.
    """
    check_operands(matrix, x)
    m, _n = matrix.shape
    nb = max(1, num_buckets)

    # Algorithm 2: ESTIMATE-BUCKETS with a single thread.
    boffset = [0] * nb
    for j, xj in zip(x.indices, x.values):
        rows, _vals = matrix.column(int(j))
        for i in rows:
            boffset[int(i) * nb // m] += 1

    buckets_rows: List[List[int]] = [[] for _ in range(nb)]
    buckets_vals: List[List[float]] = [[] for _ in range(nb)]

    # Step 1: gather necessary columns of A into buckets.
    for j, xj in zip(x.indices, x.values):
        rows, vals = matrix.column(int(j))
        for i, aij in zip(rows, vals):
            k = int(i) * nb // m
            buckets_rows[k].append(int(i))
            buckets_vals[k].append(semiring.mul(np.asarray(aij), np.asarray(xj)).item())

    assert sum(len(b) for b in buckets_rows) == sum(boffset), \
        "ESTIMATE-BUCKETS disagrees with the bucketing pass"

    # Step 2: merge entries in each bucket via the SPA (with the ∞ marker trick).
    spa_values = np.zeros(m, dtype=np.float64)
    uind: List[List[int]] = [[] for _ in range(nb)]
    marker = np.full(m, False)
    for k in range(nb):
        for ind in buckets_rows[k]:
            marker[ind] = True  # SPA[ind] <- 'uninitialized' marker (∞ in the paper)
        for ind, val in zip(buckets_rows[k], buckets_vals[k]):
            if marker[ind]:
                uind[k].append(ind)
                spa_values[ind] = val
                marker[ind] = False
            else:
                spa_values[ind] = semiring.add(np.asarray(spa_values[ind]),
                                               np.asarray(val)).item()
        if sorted_output:
            uind[k].sort()

    # Step 3: construct y by concatenating buckets using the SPA.
    y_indices: List[int] = []
    y_values: List[float] = []
    for k in range(nb):
        for ind in uind[k]:
            y_indices.append(ind)
            y_values.append(spa_values[ind])

    y = SparseVector(m, np.array(y_indices, dtype=INDEX_DTYPE),
                     np.array(y_values, dtype=np.float64),
                     sorted=sorted_output, check=False)
    return finalize_output(y, semiring)
