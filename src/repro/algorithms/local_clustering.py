"""Local graph clustering: ACL approximate personalized PageRank + sweep cut.

The paper cites local clustering (Spielman-Teng [8], Andersen-Chung-Lang [9])
as methods that "essentially perform one SpMSpV at each step".  We implement
the batched ACL push procedure:

* maintain an approximate PPR vector ``p`` and a residual ``r`` (both sparse);
* in every round, the vertices whose residual exceeds ``eps * degree`` push:
  ``p(u) += α·r(u)``, half of the remaining residual stays at ``u`` and the
  other half is spread to the neighbours — the spread is exactly one SpMSpV
  with the column-normalized adjacency matrix;
* once no vertex exceeds the threshold, a sweep cut over ``p(v)/deg(v)``
  returns the prefix with the best conductance.
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
from ..semiring import PLUS_TIMES
from ._engine import adjacency
from .pagerank import column_stochastic


@dataclass
class LocalClusterResult(DetachableResult):
    """Outcome of the ACL local clustering around a seed vertex."""

    seed: int
    #: approximate personalized PageRank values (dense array, mostly zero)
    ppr: np.ndarray
    #: vertices of the best sweep cluster found
    cluster: np.ndarray
    #: conductance of that cluster
    conductance: float
    num_push_rounds: int
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def cluster_size(self) -> int:
        return int(len(self.cluster))


def conductance(matrix: CSCMatrix, cluster: np.ndarray) -> float:
    """Conductance of a vertex set: cut(S) / min(vol(S), vol(V \\ S))."""
    cluster = np.asarray(cluster, dtype=INDEX_DTYPE)
    if len(cluster) == 0:
        return 1.0
    degrees = matrix.column_counts().astype(np.float64)
    total_volume = float(degrees.sum())
    vol_s = float(degrees[cluster].sum())
    if vol_s == 0 or vol_s == total_volume:
        return 1.0
    in_cluster = np.zeros(matrix.ncols, dtype=bool)
    in_cluster[cluster] = True
    rows, _vals, src = matrix.gather_columns(cluster)
    cut = int(np.count_nonzero(~in_cluster[rows]))
    return cut / min(vol_s, total_volume - vol_s)


def local_cluster(graph: Graph | CSCMatrix, seed: int,
                  ctx: Optional[ExecutionContext] = None, *,
                  algorithm: str = "bucket",
                  alpha: float = 0.15,
                  eps: float = 1e-4,
                  max_rounds: int = 200,
                  max_cluster_size: Optional[int] = None) -> LocalClusterResult:
    """Find a low-conductance cluster around ``seed`` with ACL push + sweep cut."""
    matrix = adjacency(graph, "local clustering")
    n = matrix.ncols
    if not (0 <= seed < n):
        raise IndexError(f"seed {seed} out of range for {n} vertices")
    engine = SpMSpVEngine(column_stochastic(matrix), ctx, algorithm=algorithm)
    degrees = np.maximum(matrix.column_counts().astype(np.float64), 1.0)

    ppr = np.zeros(n)
    residual = np.zeros(n)
    residual[seed] = 1.0
    records: List[ExecutionRecord] = []
    rounds = 0

    while rounds < max_rounds:
        active = np.flatnonzero(residual >= eps * degrees)
        if len(active) == 0:
            break
        rounds += 1
        r_active = residual[active]
        ppr[active] += alpha * r_active
        residual[active] = (1.0 - alpha) * r_active / 2.0
        # the other half of the residual is spread to the neighbours
        push = SparseVector(n, active.astype(INDEX_DTYPE),
                            (1.0 - alpha) * r_active / 2.0, sorted=True, check=False)
        result = engine.multiply(push, semiring=PLUS_TIMES)
        records.append(result.record)
        spread = result.vector
        if spread.nnz:
            residual[spread.indices] += spread.values

    # sweep cut over p(v) / deg(v)
    support = np.flatnonzero(ppr > 0)
    if len(support) == 0:
        support = np.array([seed], dtype=INDEX_DTYPE)
    order = support[np.argsort(ppr[support] / degrees[support])[::-1]]
    if max_cluster_size is not None:
        order = order[:max_cluster_size]
    best_cluster = order[:1]
    best_phi = conductance(matrix, best_cluster)
    for k in range(2, len(order) + 1):
        phi = conductance(matrix, order[:k])
        if phi < best_phi:
            best_phi = phi
            best_cluster = order[:k]

    return LocalClusterResult(seed=seed, ppr=ppr, cluster=np.sort(best_cluster),
                              conductance=best_phi, num_push_rounds=rounds,
                              records=records, engine=engine)
