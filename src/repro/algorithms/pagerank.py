"""Data-driven (incremental) PageRank on SpMSpV.

The paper argues (§I) that even PageRank "is better implemented in a
data-driven way using the SpMSpV primitive as opposed to using sparse
matrix-dense vector multiplication", because the sparsity of the input vector
lets converged vertices drop out of the computation.

We implement exactly that: the power iteration is run in *delta form*.  The
vector multiplied at every step is the sparse vector of rank *changes* above
the convergence tolerance; once a vertex's change falls below the tolerance
it becomes inactive and stops contributing work.  A conventional dense power
iteration is provided as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.column_sharded import ColumnShardedEngine, make_sharded_engine
from ..core.engine import SpMSpVEngine, check_block_mode
from ..core.result import DetachableResult
from ..core.sharded import ShardedEngine

#: any engine the iterations can run on
AnyEngine = SpMSpVEngine | ShardedEngine | ColumnShardedEngine
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord
from ..semiring import PLUS_TIMES


def column_stochastic(matrix: CSCMatrix) -> CSCMatrix:
    """Normalize each column of the adjacency matrix to sum to one.

    With the package's adjacency convention (``A(i, j)`` = edge ``j -> i``)
    the normalized matrix is exactly the PageRank transition operator:
    column ``j`` spreads vertex ``j``'s rank equally over its out-neighbours.
    Empty columns (dangling vertices) are left empty; their rank mass is
    redistributed uniformly by the iteration itself.
    """
    sums = np.zeros(matrix.ncols)
    col_of = np.repeat(np.arange(matrix.ncols, dtype=INDEX_DTYPE),
                       np.diff(matrix.indptr))
    np.add.at(sums, col_of, matrix.data)
    scale = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    new_data = matrix.data * scale[col_of]
    return CSCMatrix(matrix.shape, matrix.indptr.copy(), matrix.indices.copy(), new_data,
                     sorted_within_columns=matrix.sorted_within_columns, check=False)


@dataclass
class PageRankResult(DetachableResult):
    """Outcome of the data-driven PageRank computation."""

    scores: np.ndarray
    num_iterations: int
    #: number of active (still-changing) vertices per iteration
    active_sizes: List[int] = field(default_factory=list)
    records: List[ExecutionRecord] = field(default_factory=list)
    engine: Optional[AnyEngine] = None

    def top(self, k: int = 10) -> List[tuple]:
        """The k highest-ranked vertices as (vertex, score) pairs."""
        order = np.argsort(self.scores)[::-1][:k]
        return [(int(v), float(self.scores[v])) for v in order]


def _restrict_mask(n: int, restrict: Optional[np.ndarray]) -> Optional[SparseVector]:
    """The structural mask confining rank spreading to a vertex subset.

    Returns None for no restriction.  The mask is applied to every SpMSpV of
    the iteration — with the engine's early-masking fold, spread headed for
    vertices outside the subset is dropped at scatter time instead of being
    merged and discarded.
    """
    if restrict is None:
        return None
    vertices = np.unique(np.asarray(restrict, dtype=INDEX_DTYPE))
    if len(vertices) == 0:
        raise ValueError("restrict needs at least one vertex")
    return SparseVector.full_like_indices(n, vertices, 1.0)


def pagerank(graph: Graph | CSCMatrix,
             ctx: Optional[ExecutionContext] = None, *,
             algorithm: str = "bucket",
             damping: float = 0.85,
             tol: float = 1e-8,
             max_iterations: int = 200,
             personalization: Optional[np.ndarray] = None,
             restrict: Optional[np.ndarray] = None,
             shards: Optional[int] = None,
             backend: Optional[str] = None,
             shard_scheme: Optional[str] = None) -> PageRankResult:
    """Compute PageRank scores with the sparse delta (data-driven) iteration.

    The returned scores sum to 1.  ``personalization`` restricts the teleport
    distribution to the given vertices (personalized PageRank), which also
    makes the active set — and therefore every SpMSpV — much sparser.
    ``restrict`` confines rank *spreading* to the given vertex subset (a
    subgraph walk): every SpMSpV is masked with the subset, so mass headed
    outside it is dropped — pair the restriction with a personalization
    inside the subset for a fully confined walk.  ``shards`` routes the
    iteration through a :class:`~repro.core.sharded.ShardedEngine` over that
    many row strips (bit-identical scores); ``backend`` overrides the
    context's sharded execution backend (``"emulated"`` | ``"process"``) and
    ``shard_scheme`` the partitioning scheme (``"row"`` | ``"column"``,
    defaulting to ``ctx.shard_scheme``).
    """
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if matrix.nrows != matrix.ncols:
        raise ValueError("PageRank requires a square adjacency matrix")
    n = matrix.ncols
    ctx = ctx if ctx is not None else default_context()
    if backend is not None:
        ctx = ctx.with_backend(backend)
    transition = column_stochastic(matrix)
    engine = (make_sharded_engine(transition, shards, ctx, algorithm=algorithm,
                                  scheme=shard_scheme)
              if shards is not None
              else SpMSpVEngine(transition, ctx, algorithm=algorithm))
    dangling = np.flatnonzero(np.diff(transition.indptr) == 0)
    mask = _restrict_mask(n, restrict)

    if personalization is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.zeros(n)
        teleport[np.asarray(personalization, dtype=INDEX_DTYPE)] = 1.0
        teleport /= teleport.sum()

    # rank starts at the teleport distribution; the initial "delta" is the whole vector
    scores = teleport.copy()
    delta = SparseVector.from_dense(teleport)
    records: List[ExecutionRecord] = []
    active_sizes: List[int] = []
    iterations = 0

    while delta.nnz and iterations < max_iterations:
        iterations += 1
        active_sizes.append(delta.nnz)
        result = engine.multiply(delta, semiring=PLUS_TIMES, mask=mask)
        records.append(result.record)
        spread = result.vector
        new_delta_dense = np.zeros(n)
        if spread.nnz:
            new_delta_dense[spread.indices] = damping * spread.values
        # dangling vertices spread their delta uniformly through the teleport
        # vector; O(nnz) membership sum — densifying the delta would cost O(n)
        dangling_mass = float(delta.values[np.isin(
            delta.indices, dangling, assume_unique=True)].sum()) \
            if len(dangling) and delta.nnz else 0.0
        if dangling_mass:
            new_delta_dense += damping * dangling_mass * teleport
        scores += new_delta_dense
        active = np.flatnonzero(np.abs(new_delta_dense) > tol)
        delta = SparseVector(n, active.astype(INDEX_DTYPE), new_delta_dense[active],
                             sorted=True, check=False)

    scores /= scores.sum()
    return PageRankResult(scores=scores, num_iterations=iterations,
                          active_sizes=active_sizes, records=records, engine=engine)


@dataclass
class BlockedPageRankResult(DetachableResult):
    """Outcome of a blocked (multi-personalization) PageRank computation."""

    #: scores[i] is the score vector of the i-th personalization
    scores: np.ndarray
    #: iterations until every personalization converged (or hit the cap)
    num_iterations: int
    #: per-personalization iteration counts (match standalone ``pagerank`` runs)
    iterations_per_source: List[int] = field(default_factory=list)
    #: total active (still-changing) vertices per iteration, over the block
    active_sizes: List[int] = field(default_factory=list)
    engine: Optional[AnyEngine] = None

    @property
    def num_sources(self) -> int:
        return int(self.scores.shape[0])

    def top(self, i: int, k: int = 10) -> List[tuple]:
        """The k highest-ranked vertices of personalization ``i``."""
        order = np.argsort(self.scores[i])[::-1][:k]
        return [(int(v), float(self.scores[i, v])) for v in order]


def pagerank_block(graph: Graph | CSCMatrix,
                   personalizations: List[np.ndarray],
                   ctx: Optional[ExecutionContext] = None, *,
                   algorithm: str = "bucket",
                   damping: float = 0.85,
                   tol: float = 1e-8,
                   max_iterations: int = 200,
                   block_mode: str = "looped",
                   restrict: Optional[np.ndarray] = None,
                   shards: Optional[int] = None,
                   backend: Optional[str] = None,
                   shard_scheme: Optional[str] = None,
                   engine: Optional[AnyEngine] = None
                   ) -> BlockedPageRankResult:
    """Run k personalized PageRank computations as one blocked job.

    Every iteration multiplies the transition matrix by the **block** of the
    still-active delta vectors through one
    :meth:`~repro.core.engine.SpMSpVEngine.multiply_many` — one workspace and
    one kernel for all k personalizations.  Each personalization follows
    exactly the iteration of :func:`pagerank`, so ``scores[i]`` equals a
    standalone ``pagerank(..., personalization=personalizations[i])`` run
    bit for bit.  ``block_mode`` picks the per-vector loop (``"looped"``,
    the default and the faster path at ``num_threads=1``) or one fused
    gather/scatter per iteration (``"fused"``); both are bit-identical, and
    any other value raises ``ValueError``.  ``restrict`` confines
    rank spreading to a vertex subset exactly as in :func:`pagerank`; the
    per-vector masks it induces are folded into the fused kernel's scatter,
    so the batched restricted walk never merges dead (row, vector-id) pairs.
    ``shards`` routes every blocked iteration through a
    :class:`~repro.core.sharded.ShardedEngine` over that many row strips —
    the fused block packs once and executes per strip, bit-identically.
    ``backend`` overrides the context's sharded execution backend
    (``"emulated"`` | ``"process"``) and ``shard_scheme`` the partitioning
    scheme (``"row"`` | ``"column"``; the column scheme has only the looped
    block path).  ``engine`` supplies a *persistent*
    engine already holding the column-stochastic transition operator
    (``column_stochastic(adjacency)``) — the serving layer's reuse path: no
    per-call normalization or engine construction, and ``ctx``/``shards``/
    ``backend``/``shard_scheme`` are ignored in favour of the engine's own
    (``algorithm`` still selects the kernel of every iteration).
    """
    check_block_mode(block_mode)
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if matrix.nrows != matrix.ncols:
        raise ValueError("PageRank requires a square adjacency matrix")
    n = matrix.ncols
    if engine is not None:
        transition = engine.matrix
        if transition.shape != matrix.shape:
            raise ValueError(
                f"engine holds a {transition.shape} matrix; graph is {matrix.shape}")
    else:
        ctx = ctx if ctx is not None else default_context()
        if backend is not None:
            ctx = ctx.with_backend(backend)
        transition = column_stochastic(matrix)
        engine = (make_sharded_engine(transition, shards, ctx,
                                      algorithm=algorithm, scheme=shard_scheme)
                  if shards is not None
                  else SpMSpVEngine(transition, ctx, algorithm=algorithm))
    dangling = np.flatnonzero(np.diff(transition.indptr) == 0)
    mask = _restrict_mask(n, restrict)

    k = len(personalizations)
    teleports = []
    for personalization in personalizations:
        teleport = np.zeros(n)
        teleport[np.asarray(personalization, dtype=INDEX_DTYPE)] = 1.0
        teleport /= teleport.sum()
        teleports.append(teleport)

    scores = np.stack(teleports) if k else np.zeros((0, n))
    deltas: List[SparseVector] = [SparseVector.from_dense(t) for t in teleports]
    iterations_per_source = [0] * k
    active_sizes: List[int] = []
    level = 0

    while any(d.nnz for d in deltas) and level < max_iterations:
        level += 1
        active = [i for i in range(k) if deltas[i].nnz]
        active_sizes.append(sum(deltas[i].nnz for i in active))
        results = engine.multiply_many(
            [deltas[i] for i in active], semiring=PLUS_TIMES,
            masks=[mask] * len(active) if mask is not None else None,
            algorithm=algorithm, block_mode=block_mode)
        for i, result in zip(active, results):
            iterations_per_source[i] += 1
            spread = result.vector
            new_delta_dense = np.zeros(n)
            if spread.nnz:
                new_delta_dense[spread.indices] = damping * spread.values
            # same O(nnz) membership sum as `pagerank` (bit-identical paths)
            dangling_mass = float(deltas[i].values[np.isin(
                deltas[i].indices, dangling, assume_unique=True)].sum()) \
                if len(dangling) and deltas[i].nnz else 0.0
            if dangling_mass:
                new_delta_dense += damping * dangling_mass * teleports[i]
            scores[i] += new_delta_dense
            active_idx = np.flatnonzero(np.abs(new_delta_dense) > tol)
            deltas[i] = SparseVector(n, active_idx.astype(INDEX_DTYPE),
                                     new_delta_dense[active_idx],
                                     sorted=True, check=False)

    for i in range(k):
        scores[i] /= scores[i].sum()
    return BlockedPageRankResult(scores=scores, num_iterations=level,
                                 iterations_per_source=iterations_per_source,
                                 active_sizes=active_sizes, engine=engine)


def pagerank_dense_reference(graph: Graph | CSCMatrix, *, damping: float = 0.85,
                             tol: float = 1e-10, max_iterations: int = 500,
                             personalization: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense power-iteration reference (used by tests to validate the sparse version)."""
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    n = matrix.ncols
    transition = column_stochastic(matrix).to_dense()
    dangling = np.flatnonzero(transition.sum(axis=0) == 0)
    if personalization is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.zeros(n)
        teleport[np.asarray(personalization, dtype=INDEX_DTYPE)] = 1.0
        teleport /= teleport.sum()
    scores = teleport.copy()
    for _ in range(max_iterations):
        new_scores = damping * (transition @ scores) + (1 - damping) * teleport
        if len(dangling):
            new_scores += damping * scores[dangling].sum() * teleport
        if np.abs(new_scores - scores).sum() < tol:
            scores = new_scores
            break
        scores = new_scores
    return scores / scores.sum()
