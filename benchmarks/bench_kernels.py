"""Micro-benchmarks of the real (wall-clock) NumPy kernels and substrates.

These are not paper figures; they track the performance of this Python
implementation itself (format conversions, gathers, SPA accumulation, the
row merge of Step 2, execution records, the four SpMSpV kernels, and one
BFS) so regressions in the library are visible.
"""

import functools

import numpy as np
import pytest

from repro.algorithms import bfs
from repro.core import ShardedEngine, SparseAccumulator, spmspv, spmspv_bucket
from repro.core.buckets import SPA_ROWS_PER_ENTRY, merge_rows
from repro.core.spmspv_bucket import single_pass_record
from repro.formats import CSCMatrix, DCSCMatrix, SparseVector
from repro.machine.cache import estimate_column_gather_misses, estimate_scatter_misses
from repro.parallel import WorkMetrics, default_context
from repro.semiring import MIN_SELECT2ND, PLUS_TIMES

from bench_common import (
    ALGORITHMS,
    good_source,
    high_diameter_graph,
    random_frontier,
    scale_free_graph,
)


@pytest.mark.benchmark(group="substrate")
def test_gather_columns_kernel(benchmark):
    graph = scale_free_graph()
    x = random_frontier(graph, 8192, seed=71)
    benchmark(lambda: graph.matrix.gather_columns(x.indices))


@pytest.mark.benchmark(group="substrate")
def test_csc_from_coo_conversion(benchmark):
    coo = scale_free_graph().matrix.to_coo()
    benchmark(lambda: CSCMatrix.from_coo(coo, sum_duplicates=False))


@pytest.mark.benchmark(group="substrate")
def test_dcsc_construction(benchmark):
    matrix = scale_free_graph().matrix
    benchmark(lambda: DCSCMatrix.from_csc(matrix))


@pytest.mark.benchmark(group="substrate")
def test_spa_accumulate_kernel(benchmark):
    graph = scale_free_graph()
    rows, vals, _ = graph.matrix.gather_columns(random_frontier(graph, 4096, seed=72).indices)
    spa = SparseAccumulator(graph.num_vertices)

    def run():
        spa.reset()
        spa.accumulate(rows, vals)

    benchmark(run)


@functools.lru_cache(maxsize=None)
def bfs_level_stream(scale: int = 15):
    """The largest level of a BFS from the best-connected vertex, as the
    bucket kernel's merge receives it: every gathered edge into an unvisited
    row, in gather order, carrying its parent id (the MIN_SELECT2ND stream)."""
    graph = scale_free_graph(scale)
    matrix = graph.matrix
    visited = np.zeros(matrix.nrows, dtype=bool)
    frontier = np.array([good_source(graph)])
    visited[frontier] = True
    largest = (np.empty(0, dtype=np.int64), np.empty(0))
    while len(frontier):
        rows, _vals, src = matrix.gather_columns(frontier)
        live = ~visited[rows]
        rows, parents = rows[live], frontier[src[live]].astype(np.float64)
        if len(rows) > len(largest[0]):
            largest = (rows, parents)
        frontier = np.unique(rows)
        visited[frontier] = True
    return matrix.nrows, largest[0], largest[1]


def check_against_left_fold(rows, values, semiring, uind, merged, sample=200):
    """A sample of merged rows equals its addends folded left to right in
    stream order, bit for bit (a pure-Python SPA)."""
    picked = np.random.default_rng(0).choice(len(uind), size=min(sample, len(uind)),
                                             replace=False)
    for r in picked:
        addends = values[rows == uind[r]].tolist()
        folded = functools.reduce(lambda a, b: semiring.add(a, b), addends)
        assert np.float64(folded).tobytes() == merged[r].tobytes()


@pytest.mark.benchmark(group="merge")
def test_merge_rows_dense(benchmark):
    """Step 2 of a BFS-shaped level over 32,768 rows: the SPA spans the row space."""
    num_rows, rows, parents = bfs_level_stream()
    assert num_rows == 32_768 and num_rows <= SPA_ROWS_PER_ENTRY * len(rows)
    uind, merged, _sizes, _uniques = benchmark(
        lambda: merge_rows(rows, parents, MIN_SELECT2ND, num_rows, num_buckets=4))
    check_against_left_fold(rows, parents, MIN_SELECT2ND, uind, merged)


@pytest.mark.benchmark(group="merge")
def test_merge_rows_hypersparse(benchmark):
    """Step 2 of a served 64-column plus-times read on ljournal-like@14: the
    row space dwarfs the stream, so its rows are renumbered first."""
    graph = scale_free_graph(14)
    x = random_frontier(graph, 64, seed=74)
    rows, vals, src = graph.matrix.gather_columns(x.indices)
    scaled = PLUS_TIMES.multiply(vals, x.values[src])
    num_rows = graph.num_vertices
    assert num_rows > SPA_ROWS_PER_ENTRY * len(rows)
    uind, merged, _sizes, _uniques = benchmark(
        lambda: merge_rows(rows, scaled, PLUS_TIMES, num_rows, num_buckets=4))
    check_against_left_fold(rows, scaled, PLUS_TIMES, uind, merged)


@functools.lru_cache(maxsize=None)
def mesh_level(level: int = 20):
    """A mid-level BFS frontier of the 40 x 40 triangulated mesh (``perfbench``'s
    ``mesh`` workload): a few dozen vertices, each with its parent id."""
    graph = high_diameter_graph(40)
    levels = bfs(graph, 0).levels
    frontier = np.flatnonzero(levels == level)
    return graph.matrix, SparseVector(graph.num_vertices, frontier,
                                      frontier.astype(np.float64))


def phase_counts(record):
    """Each phase as ``(name, [thread counts...], serial counts)``."""
    return [(p.name, [t.as_dict() for t in p.thread_metrics], p.serial_metrics.as_dict())
            for p in record.phases]


@pytest.mark.benchmark(group="record")
def test_record_build(benchmark):
    """The single pass's record of a mesh-sized BFS call, against the same
    counts built from one WorkMetrics object per thread and phase."""
    matrix, x = mesh_level()
    ctx = default_context(num_threads=1)
    rows = matrix.gather_columns(x.indices)[0]
    uind, _merged, sizes, uniques = merge_rows(
        rows, rows.astype(np.float64), MIN_SELECT2ND, matrix.nrows,
        num_buckets=ctx.num_buckets)
    f, df, nb = x.nnz, len(rows), ctx.num_buckets
    record = benchmark(lambda: single_pass_record(
        ctx, matrix, x, probes=df, masked=True, df=df, sizes=sizes,
        uniques=uniques, sorted_output=True, nnz_y=len(uind)))
    span = -(-matrix.nrows // nb)
    merged = WorkMetrics.sum(
        WorkMetrics(spa_inits=s, spa_updates=s, additions=s - u, buffer_writes=u,
                    sort_elements=2 * u, cache_line_misses=estimate_scatter_misses(
                        2 * s, span, ctx.platform.l2_kb))
        for s, u in zip(sizes.tolist(), uniques.tolist()))
    expected = [
        ("estimate", [WorkMetrics(vector_reads=f, colptr_reads=f, matrix_nnz_reads=df,
                                  bitmap_probes=df, buffer_writes=nb)], WorkMetrics()),
        ("bucketing", [WorkMetrics(
            vector_reads=f, colptr_reads=f, matrix_nnz_reads=df, multiplications=df,
            bucket_writes=df, buffer_writes=df,
            cache_line_misses=estimate_column_gather_misses(
                f, df, matrix.ncols, input_sorted=True))], WorkMetrics()),
        ("spa_merge", [merged], WorkMetrics()),
        ("output", [WorkMetrics(output_writes=len(uind), cache_line_misses=len(uind))],
         WorkMetrics(additions=nb)),
    ]
    assert phase_counts(record) == [(name, [t.as_dict() for t in threads], s.as_dict())
                                    for name, threads, s in expected]


@pytest.mark.benchmark(group="record")
def test_record_merge(benchmark):
    """Two strips' records of a mesh-sized row-layout call merged into one,
    against the fold of their WorkMetrics objects thread by thread."""
    matrix, x = mesh_level()
    engine = ShardedEngine(matrix, 2, default_context(num_threads=2))
    strips = [spmspv_bucket(strip, x, engine.shard_ctx).record for strip in engine.strips]
    assignment = engine._schedule_shards([r.info["df"] + 1.0 for r in strips])
    record = benchmark(lambda: engine._merge_records(
        strips, assignment, "sharded[2]:spmspv_bucket", {}))
    engine.close()
    expected = []
    for phase in strips[0].phases:
        threads = [WorkMetrics.sum(m for s in items
                                   for p in [strips[s].phase(phase.name)]
                                   for m in p.thread_metrics + [p.serial_metrics])
                   for items in assignment.items_per_thread if items]
        expected.append((phase.name, [t.as_dict() for t in threads],
                         WorkMetrics().as_dict()))
    assert phase_counts(record) == expected


@pytest.mark.benchmark(group="spmspv-wall")
@pytest.mark.parametrize("algorithm", ALGORITHMS + ["sort"])
def test_spmspv_wall_time(benchmark, algorithm):
    graph = scale_free_graph()
    x = random_frontier(graph, 2048, seed=73)
    ctx = default_context(num_threads=4)
    result = benchmark(lambda: spmspv(graph.matrix, x, ctx, algorithm=algorithm))
    assert result.vector.nnz > 0


@pytest.mark.benchmark(group="applications")
def test_bfs_wall_time(benchmark):
    graph = scale_free_graph()
    source = good_source(graph)
    result = benchmark.pedantic(
        lambda: bfs(graph, source, default_context(num_threads=2), algorithm="bucket"),
        rounds=3, iterations=1)
    assert result.num_reached > 1
