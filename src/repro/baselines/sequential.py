"""Sequential SpMSpV references and oracles.

Three implementations with different purposes:

* :func:`spmspv_dict` — a pure-Python dictionary accumulator.  Slow, obviously
  correct, supports any semiring: the primary oracle of the test-suite.
* :func:`spmspv_scipy` — ``scipy.sparse`` matrix times densified vector
  (plus-times only): an *independent* second oracle.
* :func:`spmspv_sequential_spa` — the work-optimal sequential algorithm of
  Table II (vector-driven, partially-initialized SPA).  This is the
  "state-of-the-art serial algorithm" against which work efficiency is
  defined, and its instrumented record provides the sequential-complexity
  rows of Table I.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.result import SpMSpVResult
from ..core.spa import SparseAccumulator
from ..core.vector_ops import check_operands, finalize_output
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..semiring import PLUS_TIMES, Semiring
from .common import gather_selected


def spmspv_dict(matrix: CSCMatrix, x: SparseVector, *,
                semiring: Semiring = PLUS_TIMES) -> SparseVector:
    """Dictionary-accumulator oracle (pure Python loops; use only on small inputs)."""
    check_operands(matrix, x)
    acc = {}
    for j, xj in zip(x.indices.tolist(), x.values.tolist()):
        rows, vals = matrix.column(j)
        for i, aij in zip(rows.tolist(), vals.tolist()):
            contribution = semiring.mul(np.asarray(aij), np.asarray(xj)).item()
            if i in acc:
                acc[i] = semiring.add(np.asarray(acc[i]), np.asarray(contribution)).item()
            else:
                acc[i] = contribution
    if not acc:
        return SparseVector.empty(matrix.nrows)
    indices = np.array(sorted(acc), dtype=INDEX_DTYPE)
    values = np.array([acc[i] for i in indices.tolist()])
    return SparseVector(matrix.nrows, indices, values, sorted=True, check=False)


def spmspv_scipy(matrix: CSCMatrix, x: SparseVector) -> SparseVector:
    """scipy-based oracle for the conventional plus-times semiring."""
    check_operands(matrix, x)
    dense = matrix.to_scipy() @ x.to_dense()
    return SparseVector.from_dense(np.asarray(dense).ravel())


def spmspv_sequential_spa(matrix: CSCMatrix, x: SparseVector, *,
                          semiring: Semiring = PLUS_TIMES,
                          sorted_output: Optional[bool] = None) -> SpMSpVResult:
    """Work-optimal sequential SpMSpV: vector-driven with a partially initialized SPA.

    Complexity O(d·f): touches only the nonzeros of the selected columns and
    only the SPA slots that receive a contribution.
    """
    check_operands(matrix, x)
    if sorted_output is None:
        sorted_output = x.sorted
    t_start = time.perf_counter()
    m = matrix.nrows
    record = ExecutionRecord(algorithm="sequential_spa", num_threads=1,
                             info={"m": m, "n": matrix.ncols, "f": x.nnz})

    rows, scaled = gather_selected(matrix, x, semiring)
    spa = SparseAccumulator(m, semiring=semiring,
                            dtype=np.result_type(matrix.dtype, x.dtype))
    spa.reset(semiring)
    fresh, combines = spa.accumulate(rows, scaled)
    uind, values = spa.extract(sort=sorted_output)

    metrics = WorkMetrics(
        vector_reads=x.nnz,
        colptr_reads=x.nnz,
        matrix_nnz_reads=len(rows),
        multiplications=len(rows),
        spa_inits=fresh,
        spa_updates=len(rows),
        additions=combines,
        output_writes=len(uind),
        sort_elements=(int(len(uind) * max(1.0, np.log2(len(uind))))
                       if sorted_output and len(uind) > 1 else 0),
    )
    record.add_phase(PhaseRecord(name="sequential", parallel=False,
                                 serial_metrics=metrics, barriers=0))
    record.info["df"] = len(rows)
    record.info["nnz_y"] = len(uind)
    record.wall_time_s = time.perf_counter() - t_start

    y = SparseVector(m, uind, values, sorted=sorted_output, check=False)
    y = finalize_output(y, semiring)
    return SpMSpVResult(vector=y, record=record,
                        info={"f": x.nnz, "df": len(rows), "nnz_y": y.nnz})
