"""CombBLAS-SPA baseline: vector-driven, row-split matrix, private full-init SPA.

This reproduces the shared-memory SpMSpV used in CombBLAS (Buluç & Madduri,
SC'11; Table I row "CombBLAS-SPA"):

* the matrix is split row-wise into ``t`` strips, stored per thread in DCSC;
* every thread scans the *entire* input vector and, for each nonzero ``x(j)``,
  pulls the part of column ``A(:, j)`` that falls in its strip;
* contributions are merged in a thread-private SPA covering the strip's rows.
  CombBLAS initializes that whole SPA (the strategy §IV-C calls out), which
  adds an O(m/t) term per multiplication;
* each thread writes its slice of the output, so no synchronization is
  needed — but the algorithm is **not work-efficient**: the ``O(f)`` vector
  scan is repeated by every thread, so total work grows as ``O(t·f + d·f + m)``.

The production entry point (:func:`spmspv_combblas_spa`) computes the product
vectorized and derives the exact per-strip work counts; the literal strip-by-
strip reference (:func:`spmspv_combblas_spa_reference`) is used to validate it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.buckets import merge_rows
from ..core.result import SpMSpVResult
from ..core.spa import SparseAccumulator
from ..core.vector_ops import Mask, finalize_output
from ..core.workspace import SpMSpVWorkspace
from ..errors import DimensionMismatchError
from ..formats.csc import CSCMatrix
from ..formats.partition import row_split
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..machine.cache import estimate_scatter_misses
from ..semiring import PLUS_TIMES, Semiring
from .common import (
    check_operands,
    gather_selected,
    per_strip_counts,
    strip_boundaries,
    strip_nonempty_columns,
)


def spmspv_combblas_spa(matrix: CSCMatrix, x: SparseVector,
                        ctx: Optional[ExecutionContext] = None, *,
                        semiring: Semiring = PLUS_TIMES,
                        sorted_output: Optional[bool] = None,
                        mask: Optional[Mask] = None,
                        mask_complement: bool = False,
                        workspace: Optional[SpMSpVWorkspace] = None) -> SpMSpVResult:
    """Row-split, private-SPA SpMSpV (CombBLAS style)."""
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
    record = ExecutionRecord(algorithm="combblas_spa", num_threads=t,
                             info={"m": m, "n": matrix.ncols, "f": f})

    rows, scaled = gather_selected(matrix, x, semiring)
    uind, values = merge_rows(rows, scaled, semiring, m,
                              sorted_output=sorted_output)[:2]
    record.info["workspace_reused"] = False  # writes no workspace buffer

    boundaries = strip_boundaries(m, t)
    entries_per_strip = per_strip_counts(rows, boundaries, t)
    outputs_per_strip = per_strip_counts(uind, boundaries, t)
    strip_sizes = np.diff(boundaries)
    nzc_per_strip = strip_nonempty_columns(matrix, t)

    threads = []
    for tid in range(t):
        entries = int(entries_per_strip[tid])
        outputs = int(outputs_per_strip[tid])
        # each of the f probed columns is located in the strip's DCSC by binary
        # search over its nzc_strip non-empty columns
        lookup_cost = int(f * max(1.0, np.log2(max(int(nzc_per_strip[tid]), 2))))
        metrics = WorkMetrics(
            # every thread scans the whole input vector (work inefficiency!)
            vector_reads=f,
            search_probes=lookup_cost,
            matrix_nnz_reads=entries,
            multiplications=entries,
            # CombBLAS initializes the entire strip-private SPA
            spa_inits=int(strip_sizes[tid]),
            spa_updates=entries,
            additions=max(entries - outputs, 0),
            output_writes=outputs,
            # the strip-private SPA spans m/t rows and is hit in row order of
            # the gathered columns, i.e. effectively at random -> cache misses
            # once the strip no longer fits in the private cache (unlike the
            # bucket algorithm, whose merge working set is only m/(4t) rows)
            cache_line_misses=estimate_scatter_misses(
                entries, int(strip_sizes[tid]), ctx.platform.l2_kb),
        )
        threads.append(metrics)
    record.add_phase(PhaseRecord("row_split_spa", thread_metrics=threads))

    y = SparseVector(m, uind, values, sorted=sorted_output, check=False)
    y = finalize_output(y, semiring, mask=mask, mask_complement=mask_complement)

    record.info["df"] = len(rows)
    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": f, "df": len(rows), "nnz_y": y.nnz})


def spmspv_combblas_spa_reference(matrix: CSCMatrix, x: SparseVector,
                                  num_threads: int = 2, *,
                                  semiring: Semiring = PLUS_TIMES) -> SparseVector:
    """Literal strip-by-strip implementation (builds the row strips, loops per strip).

    Used by the test-suite to confirm that the vectorized implementation and
    the physically row-split computation agree.
    """
    if matrix.ncols != x.n:
        raise DimensionMismatchError("dimension mismatch")
    split = row_split(matrix, num_threads)
    pieces_idx = []
    pieces_val = []
    for (row_lo, _row_hi), strip in zip(split.row_ranges, split.strips):
        spa = SparseAccumulator(strip.nrows, semiring=semiring)
        spa.reset(semiring)
        # full SPA initialization, as CombBLAS does
        spa.values[:] = 0
        for j, xj in zip(x.indices.tolist(), x.values.tolist()):
            rows, vals = strip.column(j)
            if len(rows) == 0:
                continue
            scaled = semiring.multiply(vals, np.full(len(vals), xj))
            spa.accumulate(rows, np.asarray(scaled))
        uind, values = spa.extract(sort=True)
        pieces_idx.append(uind + row_lo)
        pieces_val.append(values)
    if not pieces_idx:
        return SparseVector.empty(matrix.nrows)
    indices = np.concatenate(pieces_idx) if pieces_idx else np.empty(0, dtype=INDEX_DTYPE)
    values = np.concatenate(pieces_val) if pieces_val else np.empty(0)
    y = SparseVector(matrix.nrows, indices, values, sorted=True, check=False)
    return finalize_output(y, semiring)
