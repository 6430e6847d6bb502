"""Shared helpers for the baseline SpMSpV implementations.

The baselines (CombBLAS-SPA, CombBLAS-heap, GraphMat) all parallelize by
splitting the matrix row-wise into ``t`` strips.  Mathematically the result
does not depend on the split, so the production implementations compute the
product with one vectorized pass and derive the *per-strip* work counts
exactly — the counts are identical to what physically extracting the strips
would produce, but we avoid rebuilding submatrices on every call.  (Each
baseline module also contains a literal, loop-based reference version that
does build the strips; the test-suite checks the two agree.)

Two quantities depend only on ``(matrix, t)`` and are therefore cached:

* the row-strip boundaries, and
* the number of non-empty columns per strip (``nzc_strip``), which drives the
  O(nzc) term of the matrix-driven GraphMat baseline.

Every baseline combines its gathered entries with the row merge the bucket
kernel uses (:func:`~repro.core.buckets.merge_rows`, a per-call SPA that
folds each row's addends in stream order), so they differ only in the work
they are charged (their SPA, heap and sort costs are counted analytically)
and accept ``workspace=`` without writing to it (their records report
``workspace_reused`` False).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.vector_ops import check_operands  # noqa: F401  (shared re-export)
from ..formats.csc import CSCMatrix
from ..formats.partition import split_ranges
from ..formats.sparse_vector import SparseVector
from ..parallel.metrics import PhaseRecord, WorkMetrics
from ..parallel.partitioner import partition_by_weight
from ..semiring import Semiring

# cache: id(matrix.indices) -> (strong ref to the indices array, {threads: counts}).
# The strong reference pins the array so its id cannot be recycled for a
# different matrix while the entry lives in the cache.
_STRIP_NZC_CACHE: Dict[int, Tuple[np.ndarray, Dict[int, np.ndarray]]] = {}
_STRIP_NZC_CACHE_LIMIT = 64


def strip_boundaries(num_rows: int, num_threads: int) -> np.ndarray:
    """Return the row-strip boundaries as an array of length ``t + 1``."""
    ranges = split_ranges(num_rows, num_threads)
    return np.array([r[0] for r in ranges] + [num_rows], dtype=INDEX_DTYPE)


def strip_of_rows(rows: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Map row ids to their strip id given strip boundaries."""
    return np.clip(np.searchsorted(boundaries, rows, side="right") - 1,
                   0, len(boundaries) - 2)


def strip_nonempty_columns(matrix: CSCMatrix, num_threads: int) -> np.ndarray:
    """Number of non-empty columns of each of the ``t`` row strips of ``matrix``.

    This is ``nzc`` of the per-strip DCSC structures that CombBLAS/GraphMat
    build once per matrix; it is cached per ``(matrix, t)`` because the BFS
    benchmarks call the baselines hundreds of times on the same matrix.
    """
    key = id(matrix.indices)
    cached = _STRIP_NZC_CACHE.get(key)
    if cached is not None and cached[0] is matrix.indices and num_threads in cached[1]:
        return cached[1][num_threads]
    boundaries = strip_boundaries(matrix.nrows, num_threads)
    col_of = np.repeat(np.arange(matrix.ncols, dtype=INDEX_DTYPE),
                       np.diff(matrix.indptr))
    strip_of = strip_of_rows(matrix.indices, boundaries)
    # count distinct (strip, column) pairs per strip
    keys = strip_of * matrix.ncols + col_of
    distinct = np.unique(keys)
    counts = np.bincount((distinct // matrix.ncols).astype(np.int64),
                         minlength=num_threads).astype(INDEX_DTYPE)
    if cached is None or cached[0] is not matrix.indices:
        if len(_STRIP_NZC_CACHE) >= _STRIP_NZC_CACHE_LIMIT:
            _STRIP_NZC_CACHE.clear()
        cached = (matrix.indices, {})
        _STRIP_NZC_CACHE[key] = cached
    cached[1][num_threads] = counts
    return counts


def gather_cost_chunks(matrix: CSCMatrix, indices: np.ndarray, num_threads: int):
    """Column weights and contiguous per-thread chunks of a multi-column gather.

    ``weights[p]`` is ``nnz(A(:, indices[p]))`` — the matrix nonzeros the p-th
    selected column contributes — and the chunks balance those weights across
    threads (the §III-B nonzero-balanced split).  This is the one place the
    gather phase of every vector-driven kernel derives its work split from.
    """
    indices = np.asarray(indices, dtype=INDEX_DTYPE)
    if len(indices):
        weights = matrix.indptr[indices + 1] - matrix.indptr[indices]
    else:
        weights = np.empty(0, dtype=INDEX_DTYPE)
    return weights, partition_by_weight(weights, num_threads)


def priced_gather_phase(col_weights: np.ndarray, chunks, *,
                        name: str = "gather") -> PhaseRecord:
    """Price a vectorized column gather as a per-thread :class:`PhaseRecord`.

    Each thread reads its chunk of selected columns (vector entry + column
    pointer per column, every matrix nonzero of the column) and scales each
    nonzero into a buffer.  ``spmspv_sort`` prices its gather through here.
    """
    threads = []
    for chunk in chunks:
        entries = int(col_weights[chunk].sum()) if len(chunk) else 0
        threads.append(WorkMetrics(
            vector_reads=len(chunk),
            colptr_reads=len(chunk),
            matrix_nnz_reads=entries,
            multiplications=entries,
            buffer_writes=entries,
        ))
    return PhaseRecord(name, thread_metrics=threads)


def gather_selected(matrix: CSCMatrix, x: SparseVector, semiring: Semiring):
    """Gather and scale the matrix entries of the columns selected by ``x``.

    Returns ``(rows, scaled_values)`` for every nonzero of every selected
    column — the raw material every vector-driven algorithm works from.
    """
    rows, vals, src = matrix.gather_columns(x.indices)
    if len(rows) == 0:
        return rows, np.empty(0, dtype=np.result_type(matrix.dtype, x.dtype))
    scaled = semiring.multiply(vals, x.values[src])
    return rows, np.asarray(scaled)


def per_strip_counts(rows: np.ndarray, boundaries: np.ndarray,
                     num_threads: int) -> np.ndarray:
    """Count how many of the given row ids fall in each row strip."""
    if len(rows) == 0:
        return np.zeros(num_threads, dtype=INDEX_DTYPE)
    strips = strip_of_rows(rows, boundaries)
    return np.bincount(strips, minlength=num_threads).astype(INDEX_DTYPE)


