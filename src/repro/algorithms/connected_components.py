"""Connected components via min-label propagation over SpMSpV.

Every vertex starts with its own id as its label; at each round the *active*
vertices (those whose label changed in the previous round) push their label
to their neighbours with a ``MIN_SELECT2ND`` SpMSpV, and a vertex adopts the
smallest label it hears.  The algorithm converges after at most
``diameter + 1`` rounds — this is the data-driven pattern the paper's
introduction describes (label propagation with a shrinking active set).
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
from ..semiring import MIN_SELECT2ND
from ._engine import adjacency


@dataclass
class ConnectedComponentsResult(DetachableResult):
    """Outcome of the connected-components computation."""

    #: component label per vertex (the smallest vertex id in the component)
    labels: np.ndarray
    num_iterations: int
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def num_components(self) -> int:
        return int(len(np.unique(self.labels)))

    def component_sizes(self) -> np.ndarray:
        """Sizes of all components, largest first."""
        _, counts = np.unique(self.labels, return_counts=True)
        return np.sort(counts)[::-1]


def connected_components(graph: Graph | CSCMatrix,
                         ctx: Optional[ExecutionContext] = None, *,
                         algorithm: str = "bucket",
                         max_iterations: Optional[int] = None
                         ) -> ConnectedComponentsResult:
    """Label the connected components of an undirected graph.

    The adjacency matrix is expected to be symmetric; for a directed graph
    this computes weakly connected components only if the matrix has been
    symmetrized by the caller.
    """
    matrix = adjacency(graph, "connected components")
    n = matrix.ncols
    max_iterations = max_iterations if max_iterations is not None else n + 1
    engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)

    labels = np.arange(n, dtype=np.float64)
    active = SparseVector(n, np.arange(n, dtype=INDEX_DTYPE), labels.copy(),
                          sorted=True, check=False)
    records: List[ExecutionRecord] = []
    iterations = 0

    while active.nnz and iterations < max_iterations:
        iterations += 1
        result = engine.multiply(active, semiring=MIN_SELECT2ND)
        records.append(result.record)
        proposals = result.vector
        if proposals.nnz == 0:
            break
        improved_mask = proposals.values < labels[proposals.indices]
        improved_idx = proposals.indices[improved_mask]
        if len(improved_idx) == 0:
            break
        labels[improved_idx] = proposals.values[improved_mask]
        active = SparseVector(n, improved_idx, labels[improved_idx],
                              sorted=proposals.sorted, check=False)

    return ConnectedComponentsResult(labels=labels.astype(INDEX_DTYPE),
                                     num_iterations=iterations, records=records,
                                     engine=engine)
