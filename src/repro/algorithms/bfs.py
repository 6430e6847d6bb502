"""Breadth-first search via repeated SpMSpV (the paper's flagship application, §IV-D).

Each BFS level multiplies the adjacency matrix by the sparse *frontier*
vector; the product, masked by the set of already-visited vertices, is the
next frontier.  Using the ``MIN_SELECT2ND`` semiring with frontier values set
to the frontier vertices' own ids makes the multiplication simultaneously
compute a valid parent for every newly discovered vertex.

Each search keeps one dense boolean *visited map* for the whole traversal:
allocated once, marked with the vertices each level reaches, and passed as
the complemented output mask.  The kernels probe it once per gathered entry,
so a level costs O(frontier + gathered entries) rather than O(visited).

:func:`bfs`, :func:`bfs_multi_source` and the cold path of
:func:`~repro.algorithms.incremental.incremental_bfs` share one level loop,
which runs every level as one ``multiply_many`` batch (a single search is a
batch of one).  A sharded run takes its scheme and backend from the
context: ``bfs(A, s, ctx.with_shard_scheme("column"), shards=P)``.

A single search's result carries the :class:`~repro.parallel.metrics.ExecutionRecord`
of every SpMSpV performed, because the paper's Figures 4 and 5 report exactly
"the runtime of SpMSpVs in all iterations omitting other costs of the BFS".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.engine import SpMSpVEngine, check_block_mode
from ..core.result import DetachableResult
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import MIN_SELECT2ND
from ._engine import adjacency, algorithm_engine


@dataclass
class BFSResult(DetachableResult):
    """Outcome of a breadth-first search."""

    source: int
    #: BFS level per vertex; -1 for unreachable vertices
    levels: np.ndarray
    #: BFS parent per vertex; -1 for unreachable vertices, ``source`` for the source
    parents: np.ndarray
    #: number of frontier-expansion iterations performed
    num_iterations: int
    #: nnz of the frontier at every level (the sparsity trajectory of Fig. 3)
    frontier_sizes: List[int] = field(default_factory=list)
    #: execution record of every SpMSpV call, in order
    records: List[ExecutionRecord] = field(default_factory=list)
    #: the engine that ran the traversal (workspace stats, per-call choices)
    engine: Optional[SpMSpVEngine] = None
    #: True when this result was produced by a full recomputation that an
    #: incremental entry point fell back to (deletions invalidate reuse)
    recomputed: bool = False

    @property
    def num_reached(self) -> int:
        """Number of vertices reached from the source (including the source)."""
        return int(np.count_nonzero(self.levels >= 0))

    def max_level(self) -> int:
        """Eccentricity of the source within its component."""
        reached = self.levels[self.levels >= 0]
        return int(reached.max()) if len(reached) else 0


@dataclass
class MultiSourceBFSResult(DetachableResult):
    """Outcome of a batched multi-source breadth-first search."""

    sources: List[int]
    #: levels[k] is the BFS level array of sources[k] (-1 for unreachable)
    levels: np.ndarray
    #: parents[k] is the BFS parent array of sources[k]
    parents: np.ndarray
    #: iterations until every search exhausted its frontier
    num_iterations: int
    #: SpMSpV calls performed for each source (matches the per-source ``bfs``)
    iterations_per_source: List[int] = field(default_factory=list)
    #: total frontier nnz over the searches still running: the sources, then
    #: after every level that leaves one running
    frontier_sizes: List[int] = field(default_factory=list)
    engine: Optional[SpMSpVEngine] = None

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def result_for(self, source: int) -> BFSResult:
        """Extract one search's outcome as a standalone :class:`BFSResult`."""
        k = self.sources.index(source)
        return BFSResult(source=source, levels=self.levels[k], parents=self.parents[k],
                         num_iterations=self.iterations_per_source[k],
                         frontier_sizes=[], records=[])


def bfs(graph: Graph | CSCMatrix, source: int,
        ctx: Optional[ExecutionContext] = None, *,
        algorithm: str = "bucket",
        max_levels: Optional[int] = None,
        shards: Optional[int] = None) -> BFSResult:
    """Run a frontier-expansion BFS from ``source``.

    Parameters
    ----------
    graph:
        A :class:`Graph` or a square adjacency matrix (``A(i, j) != 0`` means
        an edge ``j -> i``).
    source:
        Start vertex.
    ctx:
        Execution context forwarded to every SpMSpV.
    algorithm:
        Which SpMSpV implementation expands the frontiers
        (``'bucket' | 'combblas_spa' | 'combblas_heap' | 'graphmat' | 'sort'``).
    max_levels:
        Optional cap on the number of levels (useful for tests / truncated runs).
    shards:
        When given, the traversal runs through a sharded engine over that
        many strips instead of the monolithic engine — bit-identical levels
        and parents, sharded execution.  ``ctx.shard_scheme`` picks the
        layout (``"row"`` | ``"column"``) and ``ctx.backend`` its strip
        executor.
    """
    matrix = adjacency(graph, "BFS", [source])
    # one engine per traversal: buckets/SPA are allocated once, reused per level
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, shards=shards)
    return _single_source(engine, source, max_levels=max_levels)


def bfs_multi_source(graph: Graph | CSCMatrix, sources: List[int],
                     ctx: Optional[ExecutionContext] = None, *,
                     algorithm: str = "bucket",
                     max_levels: Optional[int] = None,
                     block_mode: str = "looped",
                     shards: Optional[int] = None,
                     engine: Optional[SpMSpVEngine] = None
                     ) -> MultiSourceBFSResult:
    """Run independent BFS traversals from several sources as one batched job.

    Every level performs one :meth:`~repro.core.engine.SpMSpVEngine.multiply_many`
    over the block of still-active frontiers, so all searches share a single
    persistent workspace and the ``algorithm`` kernel.  Each search keeps one
    dense visited map (a row of a ``(k, n)`` bool array, updated in place)
    as its mask, probed once per gathered entry: edges leading back into a
    search's visited set are dropped before any merge sees them, which is
    what keeps mid-traversal levels — where most of the frontier's
    neighbourhood is already visited — at O(surviving pairs) merge work.
    ``block_mode`` picks the per-vector loop (``"looped"``, the default and
    the faster path at ``num_threads=1``) or the fused block kernel
    (``"fused"``: one gather/scatter per level for all frontiers, the masks
    folded into its scatter); both are bit-identical, so this is a
    performance knob only.  Any other value raises ``ValueError``.
    ``shards`` routes every level through a sharded engine over that many
    strips, on ``ctx.shard_scheme`` (``"row"`` | ``"column"``; the column
    scheme has only the looped block path) and ``ctx.backend`` — fused
    blocks shard too (the column-union pack is shared, the scatter is
    strip-local) and results stay bit-identical.
    ``engine`` supplies a *persistent* engine already holding this adjacency
    matrix (the serving layer's reuse path: one warm workspace across many
    traversals); when given, ``ctx`` and ``shards`` are ignored in favour of
    the engine's own configuration, and ``algorithm`` still selects the
    kernel of every level.
    """
    check_block_mode(block_mode)
    sources = [int(s) for s in sources]
    matrix = adjacency(graph, "BFS", sources)
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, shards=shards,
                              engine=engine)
    return _search(engine, sources, algorithm=algorithm, max_levels=max_levels,
                   block_mode=block_mode)[0]


def _single_source(engine: SpMSpVEngine, source: int, *,
                   max_levels: Optional[int] = None) -> BFSResult:
    """One search on the engine's own kernel (which may hold pending edge
    updates), with its records."""
    multi, records = _search(engine, [source], max_levels=max_levels)
    return BFSResult(source=source, levels=multi.levels[0], parents=multi.parents[0],
                     num_iterations=multi.num_iterations,
                     frontier_sizes=multi.frontier_sizes, records=records[0],
                     engine=engine)


def _search(engine: SpMSpVEngine, sources: List[int], *,
            algorithm: Optional[str] = None,
            max_levels: Optional[int] = None,
            block_mode: str = "looped"
            ) -> Tuple[MultiSourceBFSResult, List[List[ExecutionRecord]]]:
    """The level loop of every traversal: one search per source.

    Each level runs the still-active frontiers through one
    :meth:`~repro.core.engine.SpMSpVEngine.multiply_many` (``algorithm=None``
    is the engine's own kernel), each masked by its search's row of one
    ``(k, n)`` visited map.  A search ends at the first level that reaches
    no new vertex.  Returns the result and each search's execution records,
    one per SpMSpV, in order.
    """
    n = engine.ncols
    k = len(sources)
    levels = np.full((k, n), -1, dtype=INDEX_DTYPE)
    parents = np.full((k, n), -1, dtype=INDEX_DTYPE)
    visited = np.zeros((k, n), dtype=bool)
    live: Dict[int, SparseVector] = {}  # running search -> its frontier
    for i, s in enumerate(sources):
        levels[i, s] = 0
        parents[i, s] = s
        visited[i, s] = True
        live[i] = SparseVector(n, np.array([s], dtype=INDEX_DTYPE),
                               np.array([float(s)]), sorted=True, check=False)
    records: List[List[ExecutionRecord]] = [[] for _ in range(k)]
    frontier_sizes = [k]

    level = 0
    while live and (max_levels is None or level < max_levels):
        level += 1
        active = list(live)
        results = engine.multiply_many(list(live.values()), semiring=MIN_SELECT2ND,
                                       masks=[visited[i] for i in active],
                                       mask_complement=True, algorithm=algorithm,
                                       block_mode=block_mode)
        for i, result in zip(active, results):
            records[i].append(result.record)
            reached = result.vector
            if reached.nnz == 0:
                del live[i]
                continue
            levels[i, reached.indices] = level
            parents[i, reached.indices] = reached.values.astype(INDEX_DTYPE)
            visited[i, reached.indices] = True
            # next frontier: the newly reached vertices carrying their own ids
            live[i] = SparseVector(n, reached.indices.copy(),
                                   reached.indices.astype(np.float64),
                                   sorted=reached.sorted, check=False)
        if live:
            frontier_sizes.append(sum(f.nnz for f in live.values()))

    result = MultiSourceBFSResult(sources=sources, levels=levels, parents=parents,
                                  num_iterations=level,
                                  iterations_per_source=[len(r) for r in records],
                                  frontier_sizes=frontier_sizes, engine=engine)
    return result, records


def validate_bfs_tree(graph: Graph | CSCMatrix, result: BFSResult) -> bool:
    """Check internal consistency of a BFS result (parents one level up, edges exist)."""
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    levels, parents = result.levels, result.parents
    reached = np.flatnonzero(levels >= 0)
    for v in reached.tolist():
        if v == result.source:
            if levels[v] != 0 or parents[v] != v:
                return False
            continue
        p = int(parents[v])
        if p < 0 or levels[p] != levels[v] - 1:
            return False
        rows, _vals = matrix.column(p)
        if v not in rows:
            return False
    return True
