"""Data-driven (incremental) PageRank on SpMSpV.

The paper argues (§I) that even PageRank "is better implemented in a
data-driven way using the SpMSpV primitive as opposed to using sparse
matrix-dense vector multiplication", because the sparsity of the input vector
lets converged vertices drop out of the computation.

We implement exactly that: the power iteration is run in *delta form*.  The
vector multiplied at every step is the sparse vector of rank *changes* above
the convergence tolerance; once a vertex's change falls below the tolerance
it becomes inactive and stops contributing work.  :func:`pagerank`,
:func:`pagerank_block` and
:func:`~repro.algorithms.incremental.incremental_pagerank` share one delta
iteration, which runs every step as one ``multiply_many`` batch (a single
walk is a batch of one); a sharded run takes its scheme and backend from the
context.  A conventional dense power iteration, with its own teleport
vector, is provided as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.engine import SpMSpVEngine, check_block_mode
from ..core.result import DetachableResult, SpMSpVResult
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import PLUS_TIMES
from ._engine import adjacency, algorithm_engine


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
    engine: Optional[SpMSpVEngine] = None

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
    engine: Optional[SpMSpVEngine] = None

    @property
    def num_sources(self) -> int:
        return int(self.scores.shape[0])

    def top(self, i: int, k: int = 10) -> List[tuple]:
        """The k highest-ranked vertices of personalization ``i``."""
        order = np.argsort(self.scores[i])[::-1][:k]
        return [(int(v), float(self.scores[i, v])) for v in order]


def pagerank(graph: Graph | CSCMatrix,
             ctx: Optional[ExecutionContext] = None, *,
             algorithm: str = "bucket",
             damping: float = 0.85,
             tol: float = 1e-8,
             max_iterations: int = 200,
             personalization: Optional[np.ndarray] = None,
             restrict: Optional[np.ndarray] = None,
             shards: Optional[int] = None) -> PageRankResult:
    """Compute PageRank scores with the sparse delta (data-driven) iteration.

    The returned scores sum to 1.  ``personalization`` restricts the teleport
    distribution to the given vertices (personalized PageRank), which also
    makes the active set — and therefore every SpMSpV — much sparser.
    ``restrict`` confines rank *spreading* to the given vertex subset (a
    subgraph walk): every SpMSpV is masked with the subset, so mass headed
    outside it is dropped — pair the restriction with a personalization
    inside the subset for a fully confined walk.  ``shards`` routes the
    iteration through a sharded engine over that many strips, on
    ``ctx.shard_scheme`` (``"row"`` | ``"column"``) and ``ctx.backend``
    (bit-identical scores).
    """
    matrix = adjacency(graph, "PageRank")
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, shards=shards,
                              operator=column_stochastic)
    blocked, records = _iterate(
        engine, [_teleport(matrix.ncols, personalization)], damping=damping,
        tol=tol, max_iterations=max_iterations,
        mask=_restrict_mask(matrix.ncols, restrict))
    return PageRankResult(scores=blocked.scores[0], num_iterations=blocked.num_iterations,
                          active_sizes=blocked.active_sizes, records=records[0],
                          engine=engine)


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
                   engine: Optional[SpMSpVEngine] = None
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
    ``shards`` routes every blocked iteration through a sharded engine over
    that many strips, on ``ctx.shard_scheme`` (``"row"`` | ``"column"``; the
    column scheme has only the looped block path) and ``ctx.backend`` — the
    fused block packs once and executes per strip, bit-identically.
    ``engine`` supplies a *persistent* engine already holding the
    column-stochastic transition operator (``column_stochastic(adjacency)``)
    — the serving layer's reuse path: no per-call normalization or engine
    construction, and ``ctx`` and ``shards`` are ignored in favour of the
    engine's own (``algorithm`` still selects the kernel of every
    iteration).
    """
    check_block_mode(block_mode)
    matrix = adjacency(graph, "PageRank")
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, shards=shards,
                              engine=engine, operator=column_stochastic)
    n = matrix.ncols
    return _iterate(engine, [_teleport(n, p) for p in personalizations],
                    damping=damping, tol=tol, max_iterations=max_iterations,
                    mask=_restrict_mask(n, restrict), algorithm=algorithm,
                    block_mode=block_mode)[0]


def _teleport(n: int, personalization: Optional[np.ndarray]) -> np.ndarray:
    """The teleport distribution: uniform, or uniform over the
    ``personalization`` vertices."""
    if personalization is None:
        return np.full(n, 1.0 / n)
    teleport = np.zeros(n)
    teleport[np.asarray(personalization, dtype=INDEX_DTYPE)] = 1.0
    return teleport / teleport.sum()


def _spread(result: SpMSpVResult, x: SparseVector, transition: CSCMatrix,
           teleport: np.ndarray, damping: float) -> np.ndarray:
    """``damping`` times one step of the walk from ``x``, dense: ``result``
    is ``transition @ x``, and the share of ``x`` on dangling vertices (the
    empty columns) goes through the teleport vector."""
    out = np.zeros(x.n)
    if result.vector.nnz:
        out[result.vector.indices] = damping * result.vector.values
    # O(nnz(x)) probe of the column pointers; densifying x would cost O(n)
    indptr = transition.indptr
    mass = float(x.values[indptr[x.indices + 1] == indptr[x.indices]].sum())
    if mass:
        out += damping * mass * teleport
    return out


def _iterate(engine: SpMSpVEngine, teleports: List[np.ndarray], *,
             damping: float, tol: float, max_iterations: int,
             mask: Optional[SparseVector] = None,
             algorithm: Optional[str] = None,
             block_mode: str = "looped",
             scores: Optional[np.ndarray] = None,
             deltas: Optional[List[SparseVector]] = None
             ) -> Tuple[BlockedPageRankResult, List[List[ExecutionRecord]]]:
    """The delta iteration of every PageRank: one walk per teleport vector.

    Walk ``i`` accumulates ``scores[i]`` from its first delta ``deltas[i]``;
    both start at the teleport vector unless given (a warm restart).  Each
    iteration runs the still-active deltas through one
    :meth:`~repro.core.engine.SpMSpVEngine.multiply_many` (``algorithm=None``
    is the engine's own kernel); a walk stops once no entry of its delta
    exceeds ``tol``.  The dangling vertices are the empty columns of
    ``engine.matrix``.  Returns the result, scores normalized to sum to 1,
    and each walk's execution records, one per SpMSpV, in order.
    """
    n, transition = engine.ncols, engine.matrix
    k = len(teleports)
    if scores is None:
        scores = np.stack(teleports) if k else np.zeros((0, n))
        deltas = [SparseVector.from_dense(t) for t in teleports]
    records: List[List[ExecutionRecord]] = [[] for _ in range(k)]
    active_sizes: List[int] = []
    iterations = 0

    while iterations < max_iterations:
        active = [i for i in range(k) if deltas[i].nnz]
        if not active:
            break
        iterations += 1
        active_sizes.append(sum(deltas[i].nnz for i in active))
        results = engine.multiply_many(
            [deltas[i] for i in active], semiring=PLUS_TIMES,
            masks=[mask] * len(active) if mask is not None else None,
            algorithm=algorithm, block_mode=block_mode)
        for i, result in zip(active, results):
            records[i].append(result.record)
            new_delta = _spread(result, deltas[i], transition, teleports[i], damping)
            scores[i] += new_delta
            idx = np.flatnonzero(np.abs(new_delta) > tol)
            deltas[i] = SparseVector(n, idx.astype(INDEX_DTYPE), new_delta[idx],
                                     sorted=True, check=False)

    for i in range(k):
        scores[i] /= scores[i].sum()
    result = BlockedPageRankResult(scores=scores, num_iterations=iterations,
                                   iterations_per_source=[len(r) for r in records],
                                   active_sizes=active_sizes, engine=engine)
    return result, records


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
