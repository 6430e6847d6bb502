"""Sort-based SpMSpV baseline (Yang, Wang & Owens, IPDPSW'15).

Table I row "SpMSpV-sort": a vector-driven algorithm designed for GPUs that
merges contributions by *sorting*: the scaled entries of all selected columns
are concatenated into one list, sorted by row index, and duplicate rows are
reduced ("pruned").  Sequential complexity ``O(d·f·lg(d·f))`` — the sort is
over the full gathered list, unlike SpMSpV-bucket which only sorts the short
per-bucket unique-index lists.

The parallelization mirrors a GPU-style sample sort: every thread gathers and
locally sorts its share, then the sorted runs are merged; we charge each
thread ``(d·f/t)·lg(d·f)`` elementary sort operations.
"""

from __future__ import annotations

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
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..semiring import PLUS_TIMES, Semiring
from .common import (
    check_operands,
    gather_cost_chunks,
    gather_selected,
    priced_gather_phase,
)


def spmspv_sort(matrix: CSCMatrix, x: SparseVector,
                ctx: Optional[ExecutionContext] = None, *,
                semiring: Semiring = PLUS_TIMES,
                sorted_output: Optional[bool] = None,
                mask: Optional[Mask] = None,
                mask_complement: bool = False,
                workspace: Optional[SpMSpVWorkspace] = None) -> SpMSpVResult:
    """Concatenate-sort-prune SpMSpV (GPU-style baseline)."""
    ctx = ctx if ctx is not None else default_context()
    check_operands(matrix, x)
    if workspace is not None:
        workspace.check_rows(matrix.nrows)
    if sorted_output is None:
        sorted_output = True  # the sort-based algorithm always produces sorted output

    t_start = time.perf_counter()
    t = ctx.num_threads
    m = matrix.nrows
    f = x.nnz
    record = ExecutionRecord(algorithm="spmspv_sort", num_threads=t,
                             info={"m": m, "n": matrix.ncols, "f": f})

    # gather phase (parallel over the nonzeros of x, balanced by column weight),
    # priced through the shared gather helpers like every other kernel
    col_weights, chunks = gather_cost_chunks(matrix, x.indices, t)
    record.add_phase(priced_gather_phase(col_weights, chunks))

    rows, scaled = gather_selected(matrix, x, semiring)
    total = len(rows)

    # sort + prune phase
    uind, values = merge_rows(rows, scaled, semiring, m,
                              sorted_output=True)[:2]
    record.info["workspace_reused"] = False  # writes no workspace buffer
    log_total = max(1.0, np.log2(max(total, 2)))
    outputs_total = len(uind)
    threads = []
    for tid in range(t):
        share = total // t + (1 if tid < total % t else 0)
        out_share = outputs_total // t + (1 if tid < outputs_total % t else 0)
        threads.append(WorkMetrics(
            sort_elements=int(share * log_total),
            additions=max(share - out_share, 0),
            output_writes=out_share,
        ))
    record.add_phase(PhaseRecord("sort_prune", thread_metrics=threads))

    y = SparseVector(m, uind, values, sorted=True, check=False)
    y = finalize_output(y, semiring, mask=mask, mask_complement=mask_complement)

    record.info["df"] = total
    record.info["nnz_y"] = y.nnz
    record.wall_time_s = time.perf_counter() - t_start
    return SpMSpVResult(vector=y, record=record,
                        info={"f": f, "df": total, "nnz_y": y.nnz})


def spmspv_sort_reference(matrix: CSCMatrix, x: SparseVector, *,
                          semiring: Semiring = PLUS_TIMES) -> SparseVector:
    """Literal concatenate/sort/prune implementation with Python lists."""
    if matrix.ncols != x.n:
        raise DimensionMismatchError("dimension mismatch")
    pairs = []
    for j, xj in zip(x.indices.tolist(), x.values.tolist()):
        rows, vals = matrix.column(j)
        for i, aij in zip(rows.tolist(), vals.tolist()):
            pairs.append((i, semiring.mul(np.asarray(aij), np.asarray(xj)).item()))
    pairs.sort(key=lambda p: p[0])
    out_idx = []
    out_val = []
    for i, v in pairs:
        if out_idx and out_idx[-1] == i:
            out_val[-1] = semiring.add(np.asarray(out_val[-1]), np.asarray(v)).item()
        else:
            out_idx.append(i)
            out_val.append(v)
    y = SparseVector(matrix.nrows, np.array(out_idx, dtype=INDEX_DTYPE),
                     np.array(out_val), sorted=True, check=False)
    return finalize_output(y, semiring)
