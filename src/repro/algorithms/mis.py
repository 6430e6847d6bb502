"""Maximal independent set via Luby's algorithm on SpMSpV.

Luby's algorithm, expressed with matrix primitives exactly as in the
filtered-semantic-graphs work the paper cites [4]: every active vertex draws
a random priority; a vertex joins the independent set when its priority
beats the maximum priority among its active neighbours (computed with a
``MAX_SELECT2ND`` SpMSpV); selected vertices and their neighbours then leave
the active set.  Expected O(log n) rounds.
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
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import MAX_SELECT2ND
from ._engine import adjacency


@dataclass
class MISResult(DetachableResult):
    """Outcome of the maximal-independent-set computation."""

    #: boolean membership flag per vertex
    in_set: np.ndarray
    num_iterations: int
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def set_size(self) -> int:
        return int(np.count_nonzero(self.in_set))

    def vertices(self) -> np.ndarray:
        """The selected vertices as an index array."""
        return np.flatnonzero(self.in_set).astype(INDEX_DTYPE)


def maximal_independent_set(graph: Graph | CSCMatrix,
                            ctx: Optional[ExecutionContext] = None, *,
                            algorithm: str = "bucket",
                            seed: int = 0,
                            max_iterations: Optional[int] = None) -> MISResult:
    """Compute a maximal independent set of an undirected graph (Luby's algorithm)."""
    matrix = adjacency(graph, "MIS")
    n = matrix.ncols
    rng = np.random.default_rng(seed)
    max_iterations = max_iterations if max_iterations is not None else 4 * int(np.log2(n + 2)) + 8
    engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)

    in_set = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    records: List[ExecutionRecord] = []
    iterations = 0

    while active.any() and iterations < max_iterations:
        iterations += 1
        active_idx = np.flatnonzero(active).astype(INDEX_DTYPE)
        # strictly positive priorities so that "no active neighbour" is distinguishable
        priorities = rng.random(len(active_idx)) + 1e-9
        frontier = SparseVector(n, active_idx, priorities, sorted=True, check=False)
        result = engine.multiply(frontier, semiring=MAX_SELECT2ND)
        records.append(result.record)
        neighbour_max = np.zeros(n)
        if result.vector.nnz:
            neighbour_max[result.vector.indices] = result.vector.values
        my_priority = np.zeros(n)
        my_priority[active_idx] = priorities
        winners = active & (my_priority > neighbour_max[np.arange(n)])
        winner_idx = np.flatnonzero(winners)
        if len(winner_idx) == 0:
            # extremely unlikely tie situation: pick the lowest-id active vertex
            winner_idx = active_idx[:1]
            winners = np.zeros(n, dtype=bool)
            winners[winner_idx] = True
        in_set[winner_idx] = True
        # winners and their neighbours leave the active set
        winner_frontier = SparseVector.full_like_indices(n, winner_idx, 1.0)
        neigh = engine.multiply(winner_frontier, semiring=MAX_SELECT2ND)
        records.append(neigh.record)
        active[winner_idx] = False
        if neigh.vector.nnz:
            active[neigh.vector.indices] = False

    return MISResult(in_set=in_set, num_iterations=iterations, records=records,
                     engine=engine)


def is_independent_set(graph: Graph | CSCMatrix, vertices: np.ndarray) -> bool:
    """Check that no two of the given vertices are adjacent."""
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    selected = set(int(v) for v in np.asarray(vertices).ravel())
    for v in selected:
        rows, _ = matrix.column(v)
        if any(int(r) in selected and int(r) != v for r in rows):
            return False
    return True


def is_maximal_independent_set(graph: Graph | CSCMatrix, vertices: np.ndarray) -> bool:
    """Check independence plus maximality (every other vertex has a neighbour in the set)."""
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if not is_independent_set(matrix, vertices):
        return False
    n = matrix.ncols
    selected = set(int(v) for v in np.asarray(vertices).ravel())
    for v in range(n):
        if v in selected:
            continue
        rows, _ = matrix.column(v)
        if not any(int(r) in selected for r in rows):
            # an isolated vertex outside the set violates maximality as well
            return False
    return True
