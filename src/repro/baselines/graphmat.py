"""GraphMat baseline: matrix-driven SpMSpV (DCSC matrix, bitvector input).

Table I row "GraphMat" (Sundaram et al., VLDB'15): the computation is driven
by the nonzero structure of the *matrix*, not the vector.  Each thread owns a
row strip of the matrix stored in DCSC and iterates over **all** of its
non-empty columns; for every such column it probes the input bitvector, and
only when ``x(j)`` is present does it scale and accumulate the column.

Consequently the per-thread cost carries an ``O(nzc_strip)`` term that is
independent of ``nnz(x)`` — this is why GraphMat's runtime stays flat as the
input vector gets sparser (Fig. 3) and why it loses by orders of magnitude to
the vector-driven algorithms on the very sparse frontiers that dominate
high-diameter BFS runs (Fig. 4, bottom row).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.buckets import merge_rows
from ..core.result import SpMSpVResult
from ..core.spa import SparseAccumulator
from ..core.vector_ops import Mask, finalize_output
from ..core.workspace import SpMSpVWorkspace
from ..errors import DimensionMismatchError
from ..formats.bitvector import BitVector
from ..formats.csc import CSCMatrix
from ..formats.dcsc import DCSCMatrix
from ..formats.partition import row_split
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext, default_context
from ..machine.cache import estimate_scatter_misses
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..semiring import PLUS_TIMES, Semiring
from .common import (
    check_operands,
    gather_selected,
    per_strip_counts,
    strip_boundaries,
    strip_nonempty_columns,
)


def spmspv_graphmat(matrix: CSCMatrix, x: SparseVector,
                    ctx: Optional[ExecutionContext] = None, *,
                    semiring: Semiring = PLUS_TIMES,
                    sorted_output: Optional[bool] = None,
                    mask: Optional[Mask] = None,
                    mask_complement: bool = False,
                    workspace: Optional[SpMSpVWorkspace] = None) -> SpMSpVResult:
    """Matrix-driven (GraphMat-style) SpMSpV."""
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
    record = ExecutionRecord(algorithm="graphmat", num_threads=t,
                             info={"m": m, "n": matrix.ncols, "f": f})

    # The numerical result is the same as any vector-driven computation; the
    # *work* differs: every thread walks all non-empty columns of its strip.
    rows, scaled = gather_selected(matrix, x, semiring)
    uind, values = merge_rows(rows, scaled, semiring, m,
                              sorted_output=sorted_output)[:2]
    record.info["workspace_reused"] = False  # writes no workspace buffer

    boundaries = strip_boundaries(m, t)
    entries_per_strip = per_strip_counts(rows, boundaries, t)
    outputs_per_strip = per_strip_counts(uind, boundaries, t)
    nzc_per_strip = strip_nonempty_columns(matrix, t)

    boundaries_sizes = np.diff(boundaries)
    threads = []
    for tid in range(t):
        entries = int(entries_per_strip[tid])
        outputs = int(outputs_per_strip[tid])
        nzc_strip = int(nzc_per_strip[tid])
        metrics = WorkMetrics(
            colptr_reads=nzc_strip,          # iterate over every non-empty column
            bitmap_probes=nzc_strip,         # probe the input bitvector per column
            vector_reads=min(f, nzc_strip),  # read x(j) for the columns that hit
            matrix_nnz_reads=entries,
            multiplications=entries,
            spa_inits=outputs,               # bitvector output: only touched slots
            spa_updates=entries,
            additions=max(entries - outputs, 0),
            output_writes=outputs,
            # accumulation target spans the whole m/t-row strip (random access)
            cache_line_misses=estimate_scatter_misses(
                entries, int(boundaries_sizes[tid]), ctx.platform.l2_kb),
        )
        threads.append(metrics)
    record.add_phase(PhaseRecord("matrix_driven", thread_metrics=threads))

    y = SparseVector(m, uind, values, sorted=sorted_output, check=False)
    y = finalize_output(y, semiring, mask=mask, mask_complement=mask_complement)

    record.info["df"] = len(rows)
    record.info["nzc"] = int(nzc_per_strip.sum())
    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": f, "df": len(rows), "nnz_y": y.nnz})


def spmspv_graphmat_reference(matrix: CSCMatrix, x: SparseVector,
                              num_threads: int = 2, *,
                              semiring: Semiring = PLUS_TIMES) -> SparseVector:
    """Literal matrix-driven implementation: DCSC strips + bitvector probes, loop-based."""
    if matrix.ncols != x.n:
        raise DimensionMismatchError("dimension mismatch")
    xbit = BitVector.from_sparse_vector(x)
    x_dense = x.to_dense()
    split = row_split(matrix, num_threads)
    pieces_idx = []
    pieces_val = []
    for (row_lo, _row_hi), strip in zip(split.row_ranges, split.strips):
        dcsc = DCSCMatrix.from_csc(strip)
        spa = SparseAccumulator(strip.nrows, semiring=semiring)
        spa.reset(semiring)
        for pos in range(dcsc.nzc):
            j = int(dcsc.jc[pos])
            if not xbit.is_set(j):
                continue
            lo, hi = dcsc.cp[pos], dcsc.cp[pos + 1]
            rows = dcsc.ir[lo:hi]
            vals = dcsc.num[lo:hi]
            scaled = semiring.multiply(vals, np.full(len(vals), x_dense[j]))
            spa.accumulate(rows, np.asarray(scaled))
        uind, values = spa.extract(sort=True)
        pieces_idx.append(uind + row_lo)
        pieces_val.append(values)
    if not pieces_idx:
        return SparseVector.empty(matrix.nrows)
    indices = np.concatenate(pieces_idx)
    values = np.concatenate(pieces_val)
    y = SparseVector(matrix.nrows, indices, values, sorted=True, check=False)
    return finalize_output(y, semiring)
