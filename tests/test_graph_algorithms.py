"""Tests for the SpMSpV-based graph algorithms, validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    bfs,
    bfs_multi_source,
    connected_components,
    conductance,
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_matching,
    local_cluster,
    maximal_bipartite_matching,
    maximal_independent_set,
    pagerank,
    pagerank_block,
    pagerank_dense_reference,
    sssp,
    validate_bfs_tree,
)
from repro.algorithms.pagerank import column_stochastic
from repro.core import SpMSpVEngine
from repro.core.column_sharded import make_sharded_engine
from repro.errors import ReproError
from repro.formats import CSCMatrix, SparseVector
from repro.graphs import Graph, bipartite_random, erdos_renyi, grid_2d, path_graph, rmat
from repro.parallel import default_context
from repro.semiring import MIN_SELECT2ND

CTX = default_context(num_threads=3)


@pytest.fixture(scope="module")
def scale_free_graph():
    return Graph(rmat(scale=8, edge_factor=6, seed=1), name="rmat8")


@pytest.fixture(scope="module")
def mesh_graph():
    return Graph(grid_2d(9, 9, seed=2), name="grid9")


# --------------------------------------------------------------------------- #
# BFS
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["bucket", "combblas_spa", "graphmat"])
def test_bfs_levels_match_networkx(scale_free_graph, algorithm):
    result = bfs(scale_free_graph, 0, CTX, algorithm=algorithm)
    expected = nx.single_source_shortest_path_length(scale_free_graph.to_networkx(), 0)
    mine = {int(v): int(result.levels[v]) for v in np.flatnonzero(result.levels >= 0)}
    assert mine == {k: int(v) for k, v in expected.items()}


def test_bfs_parent_tree_is_valid(scale_free_graph):
    result = bfs(scale_free_graph, 3, CTX)
    assert validate_bfs_tree(scale_free_graph, result)
    assert result.parents[3] == 3 and result.levels[3] == 0


def test_bfs_on_path_graph_has_long_tail():
    g = Graph(path_graph(40))
    result = bfs(g, 0, CTX)
    assert result.max_level() == 39
    # 39 productive expansions plus the final one that finds nothing new
    assert result.num_iterations == 40
    assert result.frontier_sizes == [1] * 40


def test_bfs_unreachable_vertices_stay_unvisited():
    # two disconnected triangles
    dense = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        dense[a, b] = dense[b, a] = 1.0
    g = Graph(CSCMatrix.from_dense(dense))
    result = bfs(g, 0, CTX)
    assert result.num_reached == 3
    assert np.all(result.levels[3:] == -1)


def test_bfs_max_levels_cap(mesh_graph):
    result = bfs(mesh_graph, 0, CTX, max_levels=3)
    assert result.max_level() <= 3


def test_bfs_records_one_per_level(scale_free_graph):
    result = bfs(scale_free_graph, 0, CTX)
    assert len(result.records) >= result.max_level()
    assert all(r.algorithm == "spmspv_bucket" for r in result.records)


def test_bfs_source_validation(scale_free_graph):
    with pytest.raises(IndexError):
        bfs(scale_free_graph, 10**7, CTX)


def _reference_bfs(engine, source):
    """BFS levels and per-level work of a reference loop that passes the
    visited set as a SparseVector mask rebuilt every level."""
    n = engine.matrix.ncols
    levels = np.full(n, -1)
    levels[source] = 0
    frontier = SparseVector(n, [source], [float(source)])
    visited = [np.array([source])]
    work = []
    level = 0
    while frontier.nnz:
        level += 1
        mask = SparseVector.full_like_indices(n, np.concatenate(visited), 1.0)
        result = engine.multiply(frontier, semiring=MIN_SELECT2ND, mask=mask,
                                 mask_complement=True)
        work.append(result.record.total_work().as_dict())
        reached = result.vector
        if reached.nnz == 0:
            break
        levels[reached.indices] = level
        visited.append(reached.indices.copy())
        frontier = SparseVector(n, reached.indices.copy(),
                                reached.indices.astype(np.float64),
                                sorted=reached.sorted, check=False)
    return levels, work


@pytest.mark.parametrize("layout", ["whole", "row", "column"])
def test_bfs_visited_map_does_the_reference_work_per_level(scale_free_graph, layout):
    """The visited map changes how the mask is held, not the work: every
    level's work counts equal the SparseVector-mask reference loop's."""
    matrix = scale_free_graph.matrix
    source = int(np.argmax(scale_free_graph.out_degrees()))
    if layout == "whole":
        result = bfs(matrix, source, CTX)
        engine = SpMSpVEngine(matrix, CTX, algorithm="bucket")
    else:
        result = bfs(matrix, source, CTX.with_shard_scheme(layout), shards=3)
        engine = make_sharded_engine(matrix, 3, CTX, algorithm="bucket",
                                     scheme=layout)
    with engine:
        levels, work = _reference_bfs(engine, source)
    assert np.array_equal(result.levels, levels)
    assert [r.total_work().as_dict() for r in result.records] == work


def test_bfs_multi_source_with_engine_ignores_env_knobs(scale_free_graph, monkeypatch):
    """An explicit engine carries its own context: a malformed REPRO_* knob
    must not break the call (the serving layer's warm path)."""
    matrix = scale_free_graph.matrix
    engine = SpMSpVEngine(matrix, CTX, algorithm="bucket")
    expected = bfs_multi_source(matrix, [0, 7], engine=engine)
    monkeypatch.setenv("REPRO_SHARD_SCHEME", "bogus")
    with pytest.raises(ValueError):
        default_context()  # the knob really is malformed
    got = bfs_multi_source(matrix, [0, 7], engine=engine)
    assert np.array_equal(got.levels, expected.levels)
    assert np.array_equal(got.parents, expected.parents)


# --------------------------------------------------------------------------- #
# connected components
# --------------------------------------------------------------------------- #
def test_connected_components_match_networkx():
    g = Graph(erdos_renyi(300, 1.5, symmetric=True, seed=3))
    result = connected_components(g, CTX)
    expected = list(nx.connected_components(g.to_networkx()))
    assert result.num_components == len(expected)
    # vertices in the same networkx component share a label
    for comp in expected:
        labels = {int(result.labels[v]) for v in comp}
        assert len(labels) == 1
    assert result.component_sizes().sum() == g.num_vertices


def test_connected_components_single_component(mesh_graph):
    result = connected_components(mesh_graph, CTX)
    assert result.num_components == 1
    assert np.all(result.labels == 0)


# --------------------------------------------------------------------------- #
# maximal independent set
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mis_is_independent_and_maximal(scale_free_graph, seed):
    result = maximal_independent_set(scale_free_graph, CTX, seed=seed)
    assert is_maximal_independent_set(scale_free_graph, result.vertices())
    assert 0 < result.set_size < scale_free_graph.num_vertices


def test_mis_on_mesh(mesh_graph):
    result = maximal_independent_set(mesh_graph, CTX, seed=5)
    assert is_maximal_independent_set(mesh_graph, result.vertices())
    # an MIS of a grid contains at least ~1/5 of the vertices
    assert result.set_size >= mesh_graph.num_vertices // 5


# --------------------------------------------------------------------------- #
# bipartite matching
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1])
def test_matching_is_valid_and_maximal(seed):
    matrix = bipartite_random(60, 50, 3.0, seed=seed)
    result = maximal_bipartite_matching(matrix, CTX)
    assert is_valid_matching(matrix, result)
    assert is_maximal_matching(matrix, result)
    assert result.cardinality == len(result.edges())


def test_matching_cardinality_close_to_optimum():
    matrix = bipartite_random(80, 70, 4.0, seed=7)
    result = maximal_bipartite_matching(matrix, CTX)
    # maximum matching via networkx for comparison; a maximal matching is
    # guaranteed to reach at least half the optimum
    g = nx.Graph()
    coo = matrix.to_coo()
    g.add_nodes_from((f"r{i}" for i in range(80)))
    g.add_nodes_from((f"c{j}" for j in range(70)))
    g.add_edges_from((f"r{r}", f"c{c}") for r, c in zip(coo.rows, coo.cols))
    optimum = len(nx.bipartite.maximum_matching(
        g, top_nodes=[f"r{i}" for i in range(80)])) // 2
    assert result.cardinality >= optimum / 2
    assert result.cardinality <= optimum


# --------------------------------------------------------------------------- #
# PageRank
# --------------------------------------------------------------------------- #
def test_pagerank_matches_dense_reference(scale_free_graph):
    result = pagerank(scale_free_graph, CTX, tol=1e-10)
    reference = pagerank_dense_reference(scale_free_graph)
    assert np.abs(result.scores - reference).max() < 1e-6
    assert result.scores.sum() == pytest.approx(1.0)


def test_pagerank_matches_networkx(scale_free_graph):
    result = pagerank(scale_free_graph, CTX, tol=1e-12)
    nx_scores = nx.pagerank(scale_free_graph.to_networkx(), alpha=0.85, tol=1e-12,
                            max_iter=500)
    mine = result.scores
    theirs = np.array([nx_scores[v] for v in range(scale_free_graph.num_vertices)])
    assert np.abs(mine - theirs).max() < 1e-4


def test_pagerank_active_set_shrinks(scale_free_graph):
    result = pagerank(scale_free_graph, CTX, tol=1e-8)
    # the data-driven formulation must deactivate vertices as they converge
    assert result.active_sizes[-1] < result.active_sizes[0]
    assert result.num_iterations == len(result.active_sizes)


def test_personalized_pagerank_concentrates_mass(scale_free_graph):
    result = pagerank(scale_free_graph, CTX, personalization=np.array([0]), tol=1e-10)
    assert result.scores[0] > np.median(result.scores)
    top = [v for v, _ in result.top(5)]
    assert len(top) == 5


def test_pagerank_block_with_engine_ignores_env_knobs(scale_free_graph, monkeypatch):
    matrix = scale_free_graph.matrix
    engine = SpMSpVEngine(column_stochastic(matrix), CTX, algorithm="bucket")
    sources = [np.array([0]), np.array([3, 9])]
    expected = pagerank_block(matrix, sources, engine=engine)
    monkeypatch.setenv("REPRO_SHARD_SCHEME", "bogus")
    got = pagerank_block(matrix, sources, engine=engine)
    assert got.scores.tobytes() == expected.scores.tobytes()


def test_column_stochastic_columns_sum_to_one(scale_free_graph):
    transition = column_stochastic(scale_free_graph.matrix)
    sums = transition.to_dense().sum(axis=0)
    nonzero_cols = np.flatnonzero(scale_free_graph.matrix.column_counts())
    np.testing.assert_allclose(sums[nonzero_cols], 1.0)


# --------------------------------------------------------------------------- #
# SSSP
# --------------------------------------------------------------------------- #
def test_sssp_matches_networkx_dijkstra(mesh_graph):
    result = sssp(mesh_graph, 0, CTX)
    expected = nx.single_source_dijkstra_path_length(mesh_graph.to_networkx(), 0)
    for v, dist in expected.items():
        assert result.distances[v] == pytest.approx(dist)
    assert result.num_reached == len(expected)


def test_sssp_unreachable_is_inf():
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 2.0
    g = Graph(CSCMatrix.from_dense(dense))
    result = sssp(g, 0, CTX)
    assert result.distances[0] == 0.0
    assert np.isinf(result.distances[2]) and np.isinf(result.distances[3])


def test_sssp_rejects_negative_weights():
    dense = np.zeros((3, 3))
    dense[0, 1] = -1.0
    with pytest.raises(ReproError):
        sssp(Graph(CSCMatrix.from_dense(dense + dense.T)), 0, CTX)


# --------------------------------------------------------------------------- #
# local clustering
# --------------------------------------------------------------------------- #
def test_local_cluster_finds_planted_community():
    # two dense communities joined by a single edge
    rng = np.random.default_rng(11)
    n = 40
    dense = np.zeros((n, n))
    for block in (range(0, 20), range(20, 40)):
        for i in block:
            for j in block:
                if i < j and rng.random() < 0.4:
                    dense[i, j] = dense[j, i] = 1.0
    dense[0, 20] = dense[20, 0] = 1.0
    g = Graph(CSCMatrix.from_dense(dense))
    result = local_cluster(g, seed=5, ctx=CTX, alpha=0.15, eps=1e-5)
    # the cluster around vertex 5 should be (mostly) the first community
    assert result.conductance < 0.2
    assert np.mean(result.cluster < 20) > 0.9
    assert result.num_push_rounds > 0


def test_conductance_bounds(mesh_graph):
    full = np.arange(mesh_graph.num_vertices)
    assert conductance(mesh_graph.matrix, full) == 1.0
    assert conductance(mesh_graph.matrix, np.array([], dtype=np.int64)) == 1.0
    half = np.arange(mesh_graph.num_vertices // 2)
    assert 0.0 < conductance(mesh_graph.matrix, half) < 1.0
