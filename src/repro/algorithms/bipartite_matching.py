"""Maximal bipartite matching via SpMSpV (the application of reference [6]).

The matrix ``A`` is the biadjacency of a bipartite graph: rows are the left
vertex set, columns the right vertex set, ``A(i, j) != 0`` an edge between
right vertex ``j`` and left vertex ``i``.

The greedy maximal-matching rounds mirror the distributed-memory algorithm of
Azad & Buluç (IPDPS'16): in every round the still-unmatched right vertices
*propose* to their neighbours (one SpMSpV with ``MIN_SELECT2ND``, frontier
values = the proposer's id), every unmatched left vertex *accepts* the
smallest proposal it received, and matched pairs leave the game.  The loop
ends when a round produces no new matches, at which point the matching is
maximal (every remaining edge has a matched endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.engine import SpMSpVEngine
from ..core.result import DetachableResult
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import MIN_SELECT2ND


@dataclass
class MatchingResult(DetachableResult):
    """Outcome of the maximal bipartite matching."""

    #: for every left vertex (row), the matched right vertex (column) or -1
    row_match: np.ndarray
    #: for every right vertex (column), the matched left vertex (row) or -1
    col_match: np.ndarray
    num_iterations: int
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.row_match >= 0))

    def edges(self) -> List[tuple]:
        """Matched (row, column) pairs."""
        rows = np.flatnonzero(self.row_match >= 0)
        return [(int(r), int(self.row_match[r])) for r in rows]


def maximal_bipartite_matching(matrix: CSCMatrix,
                               ctx: Optional[ExecutionContext] = None, *,
                               algorithm: str = "bucket",
                               max_iterations: Optional[int] = None) -> MatchingResult:
    """Compute a maximal matching of the bipartite graph described by ``matrix``."""
    m, n = matrix.shape
    max_iterations = max_iterations if max_iterations is not None else n + 1
    engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)

    row_match = np.full(m, -1, dtype=INDEX_DTYPE)
    col_match = np.full(n, -1, dtype=INDEX_DTYPE)
    unmatched_cols = np.arange(n, dtype=INDEX_DTYPE)
    records: List[ExecutionRecord] = []
    iterations = 0

    while len(unmatched_cols) and iterations < max_iterations:
        iterations += 1
        # unmatched right vertices propose to all their neighbours
        frontier = SparseVector(n, unmatched_cols, unmatched_cols.astype(np.float64),
                                sorted=True, check=False)
        result = engine.multiply(frontier, semiring=MIN_SELECT2ND)
        records.append(result.record)
        proposals = result.vector
        if proposals.nnz == 0:
            break
        # unmatched left vertices accept the smallest proposing column
        rows = proposals.indices
        cols = proposals.values.astype(INDEX_DTYPE)
        free_rows_mask = row_match[rows] < 0
        rows, cols = rows[free_rows_mask], cols[free_rows_mask]
        if len(rows) == 0:
            break
        # a column may win several rows in the same round; keep its first (smallest row)
        order = np.lexsort((rows, cols))
        cols_sorted, rows_sorted = cols[order], rows[order]
        first_of_col = np.concatenate(([True], np.diff(cols_sorted) != 0))
        new_rows = rows_sorted[first_of_col]
        new_cols = cols_sorted[first_of_col]
        row_match[new_rows] = new_cols
        col_match[new_cols] = new_rows
        unmatched_cols = np.setdiff1d(unmatched_cols, new_cols, assume_unique=True)
        # columns whose every neighbour is now matched can never be matched; drop them
        if len(unmatched_cols):
            still_useful = []
            for c in unmatched_cols.tolist():
                rows_c, _ = matrix.column(c)
                if len(rows_c) and np.any(row_match[rows_c] < 0):
                    still_useful.append(c)
            unmatched_cols = np.array(still_useful, dtype=INDEX_DTYPE)

    return MatchingResult(row_match=row_match, col_match=col_match,
                          num_iterations=iterations, records=records, engine=engine)


def is_valid_matching(matrix: CSCMatrix, result: MatchingResult) -> bool:
    """Check that every matched pair is an edge and no vertex is matched twice."""
    seen_rows = set()
    for r, c in result.edges():
        if r in seen_rows:
            return False
        seen_rows.add(r)
        if result.col_match[c] != r:
            return False
        rows, _ = matrix.column(c)
        if r not in rows:
            return False
    return True


def is_maximal_matching(matrix: CSCMatrix, result: MatchingResult) -> bool:
    """Check maximality: there is no edge whose both endpoints are unmatched."""
    if not is_valid_matching(matrix, result):
        return False
    for c in range(matrix.ncols):
        if result.col_match[c] >= 0:
            continue
        rows, _ = matrix.column(c)
        if np.any(result.row_match[rows] < 0):
            return False
    return True
