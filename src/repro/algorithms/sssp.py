"""Single-source shortest paths: data-driven Bellman-Ford over the min-plus semiring.

Classic SpMSpV application: the frontier holds the vertices whose tentative
distance improved in the previous round, and one ``MIN_PLUS`` SpMSpV relaxes
all their outgoing edges at once (``candidate(i) = min_j (A(i,j) + dist(j))``).
Only improved vertices enter the next frontier, so the work per round tracks
the actual amount of relaxation — the same "active set" idea as the paper's
data-driven framing of PageRank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.engine import SpMSpVEngine
from ..core.result import DetachableResult
from ..errors import ReproError
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import MIN_PLUS
from ._engine import adjacency


@dataclass
class SSSPResult(DetachableResult):
    """Outcome of the single-source shortest path computation."""

    source: int
    #: tentative distance per vertex (inf for unreachable vertices)
    distances: np.ndarray
    num_iterations: int
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def num_reached(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.distances)))


def sssp(graph: Graph | CSCMatrix, source: int,
         ctx: Optional[ExecutionContext] = None, *,
         algorithm: str = "bucket",
         max_iterations: Optional[int] = None) -> SSSPResult:
    """Compute shortest path distances from ``source`` over non-negative edge weights.

    Edge weights are the stored matrix values (``A(i, j)`` = weight of the
    edge ``j -> i``); they must be non-negative for Bellman-Ford convergence
    within ``n - 1`` rounds (a negative weight raises :class:`ReproError`).
    """
    matrix = adjacency(graph, "SSSP", [source])
    if matrix.nnz and matrix.data.min() < 0:
        raise ReproError("sssp requires non-negative edge weights")
    n = matrix.ncols
    max_iterations = max_iterations if max_iterations is not None else n
    engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)

    distances = np.full(n, np.inf)
    distances[source] = 0.0
    frontier = SparseVector(n, np.array([source], dtype=INDEX_DTYPE),
                            np.array([0.0]), sorted=True, check=False)
    records: List[ExecutionRecord] = []
    iterations = 0

    while frontier.nnz and iterations < max_iterations:
        iterations += 1
        result = engine.multiply(frontier, semiring=MIN_PLUS)
        records.append(result.record)
        candidates = result.vector
        if candidates.nnz == 0:
            break
        improved_mask = candidates.values < distances[candidates.indices]
        improved_idx = candidates.indices[improved_mask]
        if len(improved_idx) == 0:
            break
        distances[improved_idx] = candidates.values[improved_mask]
        frontier = SparseVector(n, improved_idx, distances[improved_idx],
                                sorted=candidates.sorted, check=False)

    return SSSPResult(source=source, distances=distances,
                      num_iterations=iterations, records=records, engine=engine)
