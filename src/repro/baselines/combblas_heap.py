"""CombBLAS-heap baseline: vector-driven, row-split matrix, heap (priority-queue) merge.

Table I row "CombBLAS-heap": instead of a SPA, each thread merges the scaled
columns that intersect its row strip with a k-way heap merge (k = number of
selected columns), which costs ``O(d·f·lg f)`` sequentially — the extra
logarithmic factor is what makes this algorithm ~3.5x slower than the others
once the input vector is dense (§IV-C).  Like CombBLAS-SPA it scans the whole
input vector per thread, so it is not work-efficient either, but it needs no
O(m/t) SPA initialization, which is why it beats CombBLAS-SPA on very sparse
inputs.
"""

from __future__ import annotations

import heapq
import time
from typing import Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.buckets import merge_rows
from ..core.result import SpMSpVResult
from ..core.vector_ops import Mask, finalize_output
from ..core.workspace import SpMSpVWorkspace
from ..errors import DimensionMismatchError
from ..formats.csc import CSCMatrix
from ..formats.partition import row_split
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..semiring import PLUS_TIMES, Semiring
from .common import (
    check_operands,
    gather_selected,
    per_strip_counts,
    strip_boundaries,
    strip_nonempty_columns,
)


def spmspv_combblas_heap(matrix: CSCMatrix, x: SparseVector,
                         ctx: Optional[ExecutionContext] = None, *,
                         semiring: Semiring = PLUS_TIMES,
                         sorted_output: Optional[bool] = None,
                         mask: Optional[Mask] = None,
                         mask_complement: bool = False,
                         workspace: Optional[SpMSpVWorkspace] = None) -> SpMSpVResult:
    """Row-split, heap-merge SpMSpV (CombBLAS style)."""
    ctx = ctx if ctx is not None else default_context()
    check_operands(matrix, x)
    if workspace is not None:
        workspace.check_rows(matrix.nrows)
    if sorted_output is None:
        sorted_output = x.sorted and ctx.sorted_vectors

    t_start = time.perf_counter()
    t = ctx.num_threads
    m = matrix.nrows
    f = x.nnz
    record = ExecutionRecord(algorithm="combblas_heap", num_threads=t,
                             info={"m": m, "n": matrix.ncols, "f": f})

    rows, scaled = gather_selected(matrix, x, semiring)
    # the heap merge produces row-sorted output naturally
    uind, values = merge_rows(rows, scaled, semiring, m,
                              sorted_output=True)[:2]
    record.info["workspace_reused"] = False  # writes no workspace buffer

    boundaries = strip_boundaries(m, t)
    entries_per_strip = per_strip_counts(rows, boundaries, t)
    outputs_per_strip = per_strip_counts(uind, boundaries, t)
    nzc_per_strip = strip_nonempty_columns(matrix, t)
    heap_log = max(1.0, np.log2(max(f, 2)))

    threads = []
    for tid in range(t):
        entries = int(entries_per_strip[tid])
        outputs = int(outputs_per_strip[tid])
        # DCSC column lookup by binary search, as in the SPA variant
        lookup_cost = int(f * max(1.0, np.log2(max(int(nzc_per_strip[tid]), 2))))
        metrics = WorkMetrics(
            vector_reads=f,                 # whole-vector scan per thread
            search_probes=lookup_cost,
            matrix_nnz_reads=entries,
            multiplications=entries,
            heap_ops=int(entries * heap_log),   # every entry moves through a lg f deep heap
            additions=max(entries - outputs, 0),
            output_writes=outputs,
        )
        threads.append(metrics)
    record.add_phase(PhaseRecord("row_split_heap", thread_metrics=threads))

    y = SparseVector(m, uind, values, sorted=True, check=False)
    y = finalize_output(y, semiring, mask=mask, mask_complement=mask_complement)

    record.info["df"] = len(rows)
    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": f, "df": len(rows), "nnz_y": y.nnz})


def spmspv_combblas_heap_reference(matrix: CSCMatrix, x: SparseVector,
                                   num_threads: int = 2, *,
                                   semiring: Semiring = PLUS_TIMES) -> SparseVector:
    """Literal strip-by-strip heap-merge implementation (k-way merge with ``heapq``)."""
    if matrix.ncols != x.n:
        raise DimensionMismatchError("dimension mismatch")
    split = row_split(matrix, num_threads)
    pieces_idx = []
    pieces_val = []
    for (row_lo, _row_hi), strip in zip(split.row_ranges, split.strips):
        # build one sorted (by row) iterator per selected column, then k-way merge
        streams = []
        for j, xj in zip(x.indices.tolist(), x.values.tolist()):
            rows, vals = strip.column(j)
            if len(rows) == 0:
                continue
            order = np.argsort(rows, kind="stable")
            scaled = semiring.multiply(vals[order], np.full(len(vals), xj))
            streams.append(list(zip(rows[order].tolist(), np.asarray(scaled).tolist())))
        heap = [(stream[0][0], si, 0) for si, stream in enumerate(streams)]
        heapq.heapify(heap)
        out_idx = []
        out_val = []
        while heap:
            row, si, pos = heapq.heappop(heap)
            val = streams[si][pos][1]
            if out_idx and out_idx[-1] == row:
                out_val[-1] = semiring.add(np.asarray(out_val[-1]), np.asarray(val)).item()
            else:
                out_idx.append(row)
                out_val.append(val)
            if pos + 1 < len(streams[si]):
                heapq.heappush(heap, (streams[si][pos + 1][0], si, pos + 1))
        pieces_idx.append(np.array(out_idx, dtype=INDEX_DTYPE) + row_lo)
        pieces_val.append(np.array(out_val))
    if not pieces_idx:
        return SparseVector.empty(matrix.nrows)
    indices = np.concatenate(pieces_idx)
    values = np.concatenate(pieces_val)
    y = SparseVector(matrix.nrows, indices, values, sorted=True, check=False)
    return finalize_output(y, semiring)
