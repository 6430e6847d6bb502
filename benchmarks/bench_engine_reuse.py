"""Engine study: workspace-reuse gains on the Fig. 3 sweep.

**Allocation reuse** (§III-A) on the ljournal-like graph of Figs. 2/3/6 —
a BFS-like sequence of multiplications executed with fresh per-call
allocations versus one persistent engine workspace; reports buffer
constructions and Python wall time.
"""

import time

import pytest

from repro.core import SpMSpVEngine, get_algorithm
from repro.core.buckets import BucketStore
from repro.core.spa import SparseAccumulator
from repro.parallel import default_context

from bench_common import emit, random_frontier, scale_free_graph
from repro.analysis import format_table, ratio

NNZ_VALUES = [1, 16, 50, 256, 1100, 4096, 16384, 65536]
REUSE_ROUNDS = 3


def _count_constructions(fn):
    """Run ``fn`` counting BucketStore/SparseAccumulator constructions.

    The function runs twice: the first pass warms caches (first-touch of the
    matrix, lazy registries), the second is timed.  Construction counts come
    from the timed pass only.
    """
    counts = {"buffers": 0}
    orig_store, orig_spa = BucketStore.__init__, SparseAccumulator.__init__

    def store_init(self, *a, **k):
        counts["buffers"] += 1
        orig_store(self, *a, **k)

    def spa_init(self, *a, **k):
        counts["buffers"] += 1
        orig_spa(self, *a, **k)

    fn()  # warm-up
    BucketStore.__init__ = store_init
    SparseAccumulator.__init__ = spa_init
    try:
        t0 = time.perf_counter()
        fn()
        wall_ms = (time.perf_counter() - t0) * 1e3
    finally:
        BucketStore.__init__ = orig_store
        SparseAccumulator.__init__ = orig_spa
    return counts["buffers"], wall_ms


def _reuse_block(graph, ctx) -> str:
    matrix = graph.matrix
    frontiers = [random_frontier(graph, nnz, seed=33)
                 for nnz in NNZ_VALUES for _ in range(REUSE_ROUNDS)]
    bucket = get_algorithm("bucket")

    def fresh():
        for x in frontiers:
            bucket(matrix, x, ctx)

    def reused():
        engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
        for x in frontiers:
            engine.multiply(x)

    fresh_allocs, fresh_ms = _count_constructions(fresh)
    reused_allocs, reused_ms = _count_constructions(reused)
    rows = [
        ["fresh per-call buffers", len(frontiers), fresh_allocs, round(fresh_ms, 1)],
        ["persistent engine workspace", len(frontiers), reused_allocs,
         round(reused_ms, 1)],
        ["saving", "", fresh_allocs - reused_allocs,
         f"{ratio(fresh_ms, reused_ms):.2f}x wall"],
    ]
    return format_table(
        ["execution mode", "SpMSpV calls", "buffer constructions", "wall (ms)"],
        rows,
        title="Workspace reuse over a BFS-like call sequence "
              "(the §III-A memory-allocation optimization)")


def _engine_report() -> str:
    return _reuse_block(scale_free_graph(), default_context(num_threads=12))


@pytest.mark.benchmark(group="engine")
def test_engine_reuse_report(benchmark):
    report = benchmark.pedantic(_engine_report, rounds=1, iterations=1)
    emit("engine_reuse", report)


@pytest.mark.benchmark(group="engine-kernel")
def test_engine_call_wall_time(benchmark):
    """Wall-clock of one engine-served call at a mid-range frontier size."""
    graph = scale_free_graph()
    engine = SpMSpVEngine(graph.matrix, default_context(num_threads=4),
                          algorithm="bucket")
    x = random_frontier(graph, 4096, seed=32)
    engine.multiply(x)  # warm the workspace
    benchmark(lambda: engine.multiply(x))
