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

The result carries the :class:`~repro.parallel.metrics.ExecutionRecord` of
every SpMSpV performed, because the paper's Figures 4 and 5 report exactly
"the runtime of SpMSpVs in all iterations omitting other costs of the BFS".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE
from ..core.column_sharded import ColumnShardedEngine, make_sharded_engine
from ..core.engine import SpMSpVEngine, check_block_mode
from ..core.result import DetachableResult, SpMSpVResult
from ..core.sharded import ShardedEngine

#: any engine the traversals can run on
AnyEngine = SpMSpVEngine | ShardedEngine | ColumnShardedEngine
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord
from ..semiring import MIN_SELECT2ND


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
    engine: Optional[AnyEngine] = None
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


def bfs(graph: Graph | CSCMatrix, source: int,
        ctx: Optional[ExecutionContext] = None, *,
        algorithm: str = "bucket",
        max_levels: Optional[int] = None,
        collect_frontiers: bool = False,
        shards: Optional[int] = None,
        backend: Optional[str] = None,
        shard_scheme: Optional[str] = None) -> BFSResult:
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
    collect_frontiers:
        When true, the returned result also keeps each frontier vector
        (memory-heavy; used by the Fig. 3 benchmark to harvest realistic
        frontiers of different sparsity).
    shards:
        When given, the traversal runs through a
        :class:`~repro.core.sharded.ShardedEngine` over that many row
        strips instead of the monolithic engine — bit-identical levels and
        parents, sharded execution.
    backend:
        Overrides the context's sharded execution backend (``"emulated"`` |
        ``"process"``); only meaningful together with ``shards``.
    shard_scheme:
        Partitioning scheme for the sharded engine: ``"row"`` |
        ``"column"``.  ``None`` defers to ``ctx.shard_scheme``; only
        meaningful together with ``shards``.
    """
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if matrix.nrows != matrix.ncols:
        raise ValueError("BFS requires a square adjacency matrix")
    n = matrix.ncols
    if not (0 <= source < n):
        raise IndexError(f"source {source} out of range for {n} vertices")
    ctx = ctx if ctx is not None else default_context()
    if backend is not None:
        ctx = ctx.with_backend(backend)
    # one engine per traversal: buckets/SPA are allocated once, reused per level
    engine = (make_sharded_engine(matrix, shards, ctx, algorithm=algorithm,
                                  scheme=shard_scheme)
              if shards is not None
              else SpMSpVEngine(matrix, ctx, algorithm=algorithm))
    return _traverse(engine, source, max_levels=max_levels,
                     collect_frontiers=collect_frontiers)


def _traverse(engine: AnyEngine, source: int, *,
              max_levels: Optional[int] = None,
              collect_frontiers: bool = False) -> BFSResult:
    """The single-source level loop over an existing engine.

    Shared by :func:`bfs` and the cold path of
    :func:`~repro.algorithms.incremental.incremental_bfs`, whose engine may
    hold pending edge updates.
    """
    n = engine.matrix.ncols
    levels = np.full(n, -1, dtype=INDEX_DTYPE)
    parents = np.full(n, -1, dtype=INDEX_DTYPE)
    levels[source] = 0
    parents[source] = source
    visited = np.zeros(n, dtype=bool)
    visited[source] = True

    frontier = SparseVector(n, np.array([source], dtype=INDEX_DTYPE),
                            np.array([float(source)]), sorted=True, check=False)
    records: List[ExecutionRecord] = []
    frontier_sizes: List[int] = [frontier.nnz]
    frontiers: List[SparseVector] = [frontier.copy()] if collect_frontiers else []

    level = 0
    while frontier.nnz:
        if max_levels is not None and level >= max_levels:
            break
        level += 1
        result: SpMSpVResult = engine.multiply(frontier, semiring=MIN_SELECT2ND,
                                               mask=visited, mask_complement=True)
        records.append(result.record)
        reached = result.vector
        if reached.nnz == 0:
            break
        levels[reached.indices] = level
        parents[reached.indices] = reached.values.astype(INDEX_DTYPE)
        visited[reached.indices] = True
        # next frontier: the newly reached vertices carrying their own ids
        frontier = SparseVector(n, reached.indices.copy(),
                                reached.indices.astype(np.float64),
                                sorted=reached.sorted, check=False)
        frontier_sizes.append(frontier.nnz)
        if collect_frontiers:
            frontiers.append(frontier.copy())

    result = BFSResult(source=source, levels=levels, parents=parents,
                       num_iterations=level, frontier_sizes=frontier_sizes,
                       records=records, engine=engine)
    if collect_frontiers:
        result.frontiers = frontiers  # type: ignore[attr-defined]
    return result


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
    #: per-level total frontier nnz summed over the still-active searches
    frontier_sizes: List[int] = field(default_factory=list)
    engine: Optional[AnyEngine] = None

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def result_for(self, source: int) -> BFSResult:
        """Extract one search's outcome as a standalone :class:`BFSResult`."""
        k = self.sources.index(source)
        return BFSResult(source=source, levels=self.levels[k], parents=self.parents[k],
                         num_iterations=self.iterations_per_source[k],
                         frontier_sizes=[], records=[])


def bfs_multi_source(graph: Graph | CSCMatrix, sources: List[int],
                     ctx: Optional[ExecutionContext] = None, *,
                     algorithm: str = "bucket",
                     max_levels: Optional[int] = None,
                     block_mode: str = "looped",
                     shards: Optional[int] = None,
                     backend: Optional[str] = None,
                     shard_scheme: Optional[str] = None,
                     engine: Optional[AnyEngine] = None
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
    ``shards`` routes every level through a
    :class:`~repro.core.sharded.ShardedEngine` over that many row strips —
    fused blocks shard too (the column-union pack is shared, the scatter is
    strip-local) and results stay bit-identical.  ``backend`` overrides the
    context's sharded execution backend (``"emulated"`` | ``"process"``) and
    ``shard_scheme`` the partitioning scheme (``"row"`` | ``"column"``; the
    column scheme has only the looped block path).
    ``engine`` supplies a *persistent* engine already holding this adjacency
    matrix (the serving layer's reuse path: one warm workspace across many
    traversals); when given, ``ctx``/``shards``/``backend``/``shard_scheme``
    are ignored in favour of the engine's own configuration, and
    ``algorithm`` still selects the kernel of every level.
    """
    check_block_mode(block_mode)
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if matrix.nrows != matrix.ncols:
        raise ValueError("BFS requires a square adjacency matrix")
    n = matrix.ncols
    sources = [int(s) for s in sources]
    for s in sources:
        if not (0 <= s < n):
            raise IndexError(f"source {s} out of range for {n} vertices")
    if engine is not None:
        if engine.matrix.shape != matrix.shape:
            raise ValueError(
                f"engine holds a {engine.matrix.shape} matrix; graph is {matrix.shape}")
    else:
        ctx = ctx if ctx is not None else default_context()
        if backend is not None:
            ctx = ctx.with_backend(backend)
        engine = (make_sharded_engine(matrix, shards, ctx, algorithm=algorithm,
                                      scheme=shard_scheme)
                  if shards is not None
                  else SpMSpVEngine(matrix, ctx, algorithm=algorithm))

    k = len(sources)
    levels = np.full((k, n), -1, dtype=INDEX_DTYPE)
    parents = np.full((k, n), -1, dtype=INDEX_DTYPE)
    frontiers: List[Optional[SparseVector]] = []
    visited = np.zeros((k, n), dtype=bool)
    for i, s in enumerate(sources):
        levels[i, s] = 0
        parents[i, s] = s
        visited[i, s] = True
        frontiers.append(SparseVector(n, np.array([s], dtype=INDEX_DTYPE),
                                      np.array([float(s)]), sorted=True, check=False))
    frontier_sizes: List[int] = [sum(f.nnz for f in frontiers if f is not None)]
    iterations_per_source = [0] * k

    level = 0
    while any(f is not None and f.nnz for f in frontiers):
        if max_levels is not None and level >= max_levels:
            break
        level += 1
        active = [i for i, f in enumerate(frontiers) if f is not None and f.nnz]
        for i in active:
            iterations_per_source[i] += 1
        xs = [frontiers[i] for i in active]
        masks = [visited[i] for i in active]
        results = engine.multiply_many(xs, semiring=MIN_SELECT2ND, masks=masks,
                                       mask_complement=True, algorithm=algorithm,
                                       block_mode=block_mode)
        for i, result in zip(active, results):
            reached = result.vector
            if reached.nnz == 0:
                frontiers[i] = None
                continue
            levels[i, reached.indices] = level
            parents[i, reached.indices] = reached.values.astype(INDEX_DTYPE)
            visited[i, reached.indices] = True
            frontiers[i] = SparseVector(n, reached.indices.copy(),
                                        reached.indices.astype(np.float64),
                                        sorted=reached.sorted, check=False)
        frontier_sizes.append(sum(f.nnz for f in frontiers if f is not None))

    return MultiSourceBFSResult(sources=sources, levels=levels, parents=parents,
                                num_iterations=level,
                                iterations_per_source=iterations_per_source,
                                frontier_sizes=frontier_sizes, engine=engine)


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
