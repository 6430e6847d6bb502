"""Tests for the unified SpMSpV execution engine.

Covers the contract of :class:`repro.core.engine.SpMSpVEngine`:

* persistent workspaces — iterative runs perform zero per-iteration
  ``BucketStore`` allocations and reuse the *same* workspace objects, with
  results bit-identical to fresh-allocation runs; a one-thread bucket run
  acquires no workspace buffer at all;
* kernel choice — every engine runs the kernel it is given (``"bucket"``
  by default, also as a frontier densifies), ``"auto"`` is an unknown
  kernel name, and the per-call history carries measured wall time;
* batched execution — ``multiply_many`` agrees with per-vector ``spmspv``
  for every registered algorithm, and multi-source BFS matches per-source
  single BFS runs;
* the identity-based output pruning that replaced the fragile
  ``semiring is PLUS_TIMES`` check.
"""

import numpy as np
import pytest

from repro.algorithms import bfs, bfs_multi_source, pagerank, pagerank_dense_reference
from repro.analysis import format_engine_history, format_workspace_stats, summarize_engine
from repro.core import (
    ColumnShardedEngine,
    EngineGroup,
    ShardedEngine,
    SpMSpVEngine,
    SpMSpVWorkspace,
    clear_engine_cache,
    engine_for,
    get_algorithm,
    make_sharded_engine,
    spmspv,
)
from repro.core.buckets import BucketStore
from repro.core.dispatch import available_algorithms
from repro.core.spa import SparseAccumulator
from repro.errors import DimensionMismatchError, NotSupportedError
from repro.formats import SparseVector
from repro.graphs import erdos_renyi, grid_2d
from repro.parallel import default_context
from repro.semiring import MIN_PLUS, MIN_SELECT2ND, PLUS_TIMES, Semiring

from conftest import random_csc, random_sparse_vector

ALGORITHMS = ["bucket", "combblas_spa", "combblas_heap", "graphmat", "sort"]


def densifying_frontiers(n, sizes, seed=0):
    rng = np.random.default_rng(seed)
    frontiers = []
    for nnz in sizes:
        idx = np.sort(rng.choice(n, size=min(nnz, n), replace=False))
        frontiers.append(SparseVector(n, idx, rng.random(len(idx)) + 0.1))
    return frontiers


# --------------------------------------------------------------------------- #
# persistent workspaces
# --------------------------------------------------------------------------- #
def test_engine_reuses_the_same_workspace_objects():
    matrix = random_csc(60, 60, 0.1, seed=1)
    engine = SpMSpVEngine(matrix, default_context(num_threads=3), algorithm="bucket")
    store = engine.workspace.bucket_store
    for seed in range(6):
        engine.multiply(random_sparse_vector(60, 12, seed=seed))
    assert engine.workspace.bucket_store is store
    assert engine.workspace.stats()["acquisitions"] >= 6  # bucket store per call


def test_iterative_bfs_performs_no_per_iteration_allocations(monkeypatch):
    matrix = erdos_renyi(400, 5.0, seed=2)
    counts = {"bucket_store": 0, "spa": 0}
    orig_store_init = BucketStore.__init__
    orig_spa_init = SparseAccumulator.__init__

    def counting_store(self, *args, **kwargs):
        counts["bucket_store"] += 1
        orig_store_init(self, *args, **kwargs)

    def counting_spa(self, *args, **kwargs):
        counts["spa"] += 1
        orig_spa_init(self, *args, **kwargs)

    monkeypatch.setattr(BucketStore, "__init__", counting_store)
    monkeypatch.setattr(SparseAccumulator, "__init__", counting_spa)
    result = bfs(matrix, 0, default_context(num_threads=4), algorithm="bucket")
    assert result.num_iterations >= 3, "graph too easy: BFS must iterate"
    # one BucketStore at engine construction, zero per iteration; no kernel
    # merges through an SPA, so the workspace builds none
    assert counts["bucket_store"] == 1
    assert counts["spa"] == 0
    assert all(r.info.get("workspace_reused") for r in result.records)


def test_workspace_reuse_is_bit_identical_to_fresh_runs():
    matrix = random_csc(50, 45, 0.15, seed=3)
    ctx = default_context(num_threads=4)
    for algorithm in ALGORITHMS:
        engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)
        for semiring in (PLUS_TIMES, MIN_PLUS, MIN_SELECT2ND):
            for seed in range(4):  # repeated calls hit warm, previously-used buffers
                x = random_sparse_vector(45, 10, seed=seed)
                reused = engine.multiply(x, semiring=semiring)
                fresh = get_algorithm(algorithm)(matrix, x, ctx, semiring=semiring)
                assert np.array_equal(reused.vector.indices, fresh.vector.indices)
                assert np.array_equal(reused.vector.values, fresh.vector.values)


def test_bfs_and_pagerank_through_engine_match_fresh_allocation_loops():
    matrix = erdos_renyi(300, 6.0, seed=4)
    ctx = default_context(num_threads=2)
    result = bfs(matrix, 0, ctx, algorithm="bucket")

    # replicate the BFS loop with a fresh kernel call per level (no workspace)
    n = matrix.ncols
    bucket = get_algorithm("bucket")
    levels = np.full(n, -1, dtype=np.int64)
    levels[0] = 0
    frontier = SparseVector(n, np.array([0]), np.array([0.0]))
    visited = [np.array([0], dtype=np.int64)]
    level = 0
    while frontier.nnz:
        level += 1
        mask = SparseVector.full_like_indices(n, np.concatenate(visited), 1.0)
        reached = bucket(matrix, frontier, ctx, semiring=MIN_SELECT2ND,
                         mask=mask, mask_complement=True).vector
        if reached.nnz == 0:
            break
        levels[reached.indices] = level
        visited.append(reached.indices.copy())
        frontier = SparseVector(n, reached.indices.copy(),
                                reached.indices.astype(np.float64),
                                sorted=reached.sorted, check=False)
    assert np.array_equal(result.levels, levels)

    pr = pagerank(matrix, ctx, algorithm="bucket", tol=1e-10)
    dense = pagerank_dense_reference(matrix, tol=1e-12)
    np.testing.assert_allclose(pr.scores, dense, atol=1e-6)
    assert pr.engine is not None and len(pr.engine.history) == pr.num_iterations


@pytest.mark.parametrize("algorithm", ["combblas_spa", "combblas_heap",
                                       "graphmat", "sort"])
def test_baseline_work_metrics_unchanged_by_publish_removal(algorithm):
    """The baselines' SPA accounting is analytic, not instrumented: dropping
    the default publish/gather must leave every recorded work metric (and the
    workspace-vs-fresh parity the engine relies on) exactly as it was."""
    matrix = random_csc(40, 40, 0.15, seed=23)
    x = random_sparse_vector(40, 9, seed=23)
    fn = get_algorithm(algorithm)
    fresh = fn(matrix, x, default_context(num_threads=2))
    reused = fn(matrix, x, default_context(num_threads=2),
                workspace=SpMSpVWorkspace(40))
    assert np.array_equal(fresh.vector.indices, reused.vector.indices)
    assert np.array_equal(fresh.vector.values, reused.vector.values)
    for ref_phase, out_phase in zip(fresh.record.phases, reused.record.phases):
        assert ref_phase.name == out_phase.name
        assert ref_phase.serial_metrics.as_dict() == \
            out_phase.serial_metrics.as_dict()
        assert [t.as_dict() for t in ref_phase.thread_metrics] == \
            [t.as_dict() for t in out_phase.thread_metrics]


def test_one_thread_bfs_acquires_no_workspace_buffer():
    """The single pass merges the gathered stream directly: a one-thread
    BFS fills no bucket store, so its workspace serves no acquisition."""
    result = bfs(grid_2d(100, 100), 0)
    stats = result.engine.workspace_stats()
    assert stats["acquisitions"] == 0
    assert stats["allocations"] == 0


def test_no_record_claims_reuse_of_an_untouched_workspace():
    """``workspace_reused`` means a buffer was acquired: the one-thread bucket
    pass and the baselines write none, so their records must not claim it."""
    result = bfs(grid_2d(100, 100), 0)
    assert result.engine.workspace_stats()["acquisitions"] == 0
    assert result.records and not any(r.info["workspace_reused"]
                                       for r in result.records)
    matrix = random_csc(40, 40, 0.15, seed=9)
    for algorithm in ALGORITHMS:
        engine = SpMSpVEngine(matrix, default_context(num_threads=2),
                              algorithm=algorithm)
        record = engine.multiply(random_sparse_vector(40, 8, seed=9)).record
        assert record.info["workspace_reused"] == (algorithm == "bucket")
        assert engine.workspace_stats()["acquisitions"] == (algorithm == "bucket")


def test_rising_bucket_store_need_reallocates_rarely():
    """The bucket store grows geometrically: a 199-level grid BFS at four
    threads, whose gathered entries rise level after level, reallocates it
    a handful of times (growing to each new maximum would take 99)."""
    result = bfs(grid_2d(100, 100), 0, default_context(num_threads=4))
    stats = result.engine.workspace_stats()
    assert stats["acquisitions"] == result.num_iterations
    assert stats["allocations"] <= 10


def test_workspace_rejects_wrong_matrix_dimension():
    workspace = SpMSpVWorkspace(10)
    matrix = random_csc(20, 20, 0.2, seed=5)
    x = random_sparse_vector(20, 4, seed=5)
    for algorithm in ALGORITHMS:
        with pytest.raises(DimensionMismatchError):
            get_algorithm(algorithm)(matrix, x, workspace=workspace)


# --------------------------------------------------------------------------- #
# kernel choice: the given kernel, bucket by default
# --------------------------------------------------------------------------- #
#: frontier sizes on erdos_renyi(500, 6.0) that densify to 96% of n, far
#: past the point where a density rule would leave the bucket kernel
DENSIFYING_SIZES = [2, 5, 10, 20, 120, 250, 400, 480]


def test_every_engine_defaults_to_bucket_as_the_frontier_densifies():
    matrix = erdos_renyi(500, 6.0, seed=6)
    ctx = default_context(num_threads=2)
    frontiers = densifying_frontiers(500, DENSIFYING_SIZES, seed=6)
    clear_engine_cache()
    with EngineGroup([matrix], ctx) as group, \
            EngineGroup([matrix], ctx, shards=2) as sharded_group:
        engines = [SpMSpVEngine(matrix, ctx), ShardedEngine(matrix, 2, ctx),
                   ColumnShardedEngine(matrix, 2, ctx),
                   make_sharded_engine(matrix, 2, ctx, scheme="row"),
                   make_sharded_engine(matrix, 2, ctx, scheme="column"),
                   engine_for(matrix, ctx), group.engine(0),
                   sharded_group.engine(0)]
        for engine in engines:
            assert engine.algorithm == "bucket"
            for x in frontiers:
                engine.multiply(x)
            engine.multiply_many(frontiers, block_mode="looped")
            assert engine.algorithms_used() == ["bucket"], type(engine).__name__
            engine.close()
    clear_engine_cache()


def test_auto_is_an_unknown_kernel_name_on_every_entry_point():
    matrix = erdos_renyi(100, 4.0, seed=7)
    ctx = default_context()
    x = densifying_frontiers(100, [30], seed=7)[0]
    with pytest.raises(NotSupportedError):
        spmspv(matrix, x, ctx, algorithm="auto")
    for build in (lambda **kw: SpMSpVEngine(matrix, ctx, **kw),
                  lambda **kw: make_sharded_engine(matrix, 2, ctx, scheme="row", **kw),
                  lambda **kw: make_sharded_engine(matrix, 2, ctx, scheme="column",
                                                   **kw)):
        with pytest.raises(NotSupportedError):
            build(algorithm="auto")
        engine = build()
        with pytest.raises(NotSupportedError):
            engine.multiply(x, algorithm="auto")
        with pytest.raises(NotSupportedError):
            engine.multiply_many([x, x], algorithm="auto")
        assert engine.total_calls == 0 and engine.history == []
        assert engine.multiply(x).vector.nnz > 0  # the engine stays usable
        engine.close()


def test_history_wall_ms_is_the_records_measured_wall_time():
    matrix = erdos_renyi(200, 5.0, seed=15)
    ctx = default_context(num_threads=2)
    xs = densifying_frontiers(200, [3, 9, 27, 60], seed=15)
    for engine in (SpMSpVEngine(matrix, ctx), ShardedEngine(matrix, 2, ctx),
                   ColumnShardedEngine(matrix, 2, ctx)):
        fuses = not isinstance(engine, ColumnShardedEngine)
        results = [engine.multiply(x) for x in xs]
        results += engine.multiply_many(xs, block_mode="looped")
        if fuses:
            results += engine.multiply_many(xs, block_mode="fused")
        assert len(engine.history) == len(results)
        assert any(c.fused for c in engine.history) == fuses
        for call, result in zip(engine.history, results):
            assert call.wall_ms == result.record.wall_time_s * 1e3
            assert call.wall_ms > 0
        assert engine.summary()["total_wall_ms"] == \
            sum(c.wall_ms for c in engine.history)


def test_fixed_algorithm_and_per_call_override():
    matrix = random_csc(40, 40, 0.1, seed=10)
    engine = SpMSpVEngine(matrix, algorithm="graphmat")
    x = random_sparse_vector(40, 6, seed=10)
    assert engine.multiply(x).record.algorithm == "graphmat"
    assert engine.multiply(x, algorithm="bucket").record.algorithm == "spmspv_bucket"
    assert [c.algorithm for c in engine.history] == ["graphmat", "bucket"]


# --------------------------------------------------------------------------- #
# batched multi-vector execution
# --------------------------------------------------------------------------- #
def test_algorithm_list_covers_the_registry():
    get_algorithm("bucket")  # force lazy registration
    assert set(ALGORITHMS) == set(available_algorithms())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_multiply_many_agrees_with_per_vector_spmspv(algorithm):
    matrix = random_csc(50, 50, 0.12, seed=11)
    ctx = default_context(num_threads=3)
    xs = [random_sparse_vector(50, nnz, seed=20 + nnz) for nnz in (3, 8, 17, 30)]
    engine = SpMSpVEngine(matrix, ctx, algorithm=algorithm)
    for mode in ("fused", "looped"):
        batch = engine.multiply_many(xs, block_mode=mode)
        assert len(batch) == len(xs)
        for x, result in zip(xs, batch):
            direct = get_algorithm(algorithm)(matrix, x, ctx)
            assert np.array_equal(result.vector.indices, direct.vector.indices)
            assert np.array_equal(result.vector.values, direct.vector.values)
    assert [c.batch for c in engine.history] == [0] * len(xs) + [1] * len(xs)
    # only the bucket kernel has a fused block variant
    assert engine.summary()["fused_batches"] == int(algorithm == "bucket")


def test_multiply_many_applies_per_vector_masks():
    matrix = random_csc(30, 30, 0.2, seed=12)
    engine = SpMSpVEngine(matrix, algorithm="bucket")
    xs = [random_sparse_vector(30, 5, seed=s) for s in (1, 2)]
    masks = [SparseVector.full_like_indices(30, np.arange(15), 1.0),
             SparseVector.full_like_indices(30, np.arange(15, 30), 1.0)]
    out = engine.multiply_many(xs, masks=masks, mask_complement=True)
    assert all(i >= 15 for i in out[0].vector.indices)
    assert all(i < 15 for i in out[1].vector.indices)
    with pytest.raises(ValueError):
        engine.multiply_many(xs, masks=masks[:1])


def test_multi_source_bfs_matches_single_source_runs():
    matrix = erdos_renyi(350, 5.0, seed=13)
    ctx = default_context(num_threads=2)
    sources = [0, 7, 123]
    multi = bfs_multi_source(matrix, sources, ctx, algorithm="bucket",
                             block_mode="fused")
    for k, source in enumerate(sources):
        single = bfs(matrix, source, ctx, algorithm="bucket")
        assert np.array_equal(multi.levels[k], single.levels)
        assert np.array_equal(multi.parents[k], single.parents)
        extracted = multi.result_for(source)
        assert np.array_equal(extracted.levels, single.levels)
        assert extracted.num_iterations == single.num_iterations
    assert multi.engine is not None
    assert multi.engine.summary()["fused_batches"] > 0
    # the whole batched traversal ran on one workspace: every batch acquired
    # its buffers from it (a fused batch serves all k calls in one acquisition)
    assert multi.engine.workspace.stats()["acquisitions"] >= multi.engine._batches


# --------------------------------------------------------------------------- #
# identity-based output pruning (replaces `semiring is PLUS_TIMES`)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_user_defined_plus_times_semiring_drops_zeros_like_builtin(algorithm):
    my_plus_times = Semiring("user_plus_times", np.add, 0.0, lambda a, b: a * b)
    # column 0 and column 1 both hit row 0 with cancelling contributions
    dense = np.array([
        [1.0, -1.0, 0.0],
        [2.0, 0.0, 0.0],
        [0.0, 0.0, 3.0],
    ])
    from repro.formats import CSCMatrix
    matrix = CSCMatrix.from_dense(dense)
    x = SparseVector.from_dense(np.array([1.0, 1.0, 0.0]))
    ctx = default_context()
    builtin = get_algorithm(algorithm)(matrix, x, ctx, semiring=PLUS_TIMES)
    custom = get_algorithm(algorithm)(matrix, x, ctx, semiring=my_plus_times)
    # row 0 cancels to the additive identity and must be pruned for both
    assert 0 not in builtin.vector.indices
    assert 0 not in custom.vector.indices
    assert np.array_equal(builtin.vector.indices, custom.vector.indices)
    assert np.array_equal(builtin.vector.values, custom.vector.values)


# --------------------------------------------------------------------------- #
# reporting layer
# --------------------------------------------------------------------------- #
def test_engine_reporting_renders():
    matrix = erdos_renyi(200, 4.0, seed=14)
    engine = SpMSpVEngine(matrix)
    for x in densifying_frontiers(200, [2, 10, 60, 150], seed=14):
        engine.multiply(x)
    history = format_engine_history(engine, max_rows=3)
    assert "algorithm" in history and "(1 more calls)" in history
    assert "wall (ms)" in history
    stats = format_workspace_stats(engine.workspace)
    assert "allocations_saved" in stats
    summary = summarize_engine(engine)
    assert "SpMSpV calls" in summary and "workspace" in summary
    assert "wall total" in summary


# --------------------------------------------------------------------------- #
# engine cache eviction and workspace release
# --------------------------------------------------------------------------- #
def test_engine_cache_evicts_lru_beyond_pin_limit():
    from repro.core.engine import _ENGINE_CACHE_LIMIT

    clear_engine_cache()
    ctx = default_context()
    matrices = [erdos_renyi(40, 3.0, seed=100 + i)
                for i in range(_ENGINE_CACHE_LIMIT + 2)]
    first_engine = engine_for(matrices[0], ctx)
    assert engine_for(matrices[0], ctx) is first_engine  # cache hit
    # pin the limit's worth of *other* matrices: the first becomes LRU and
    # must be evicted once the limit is exceeded
    engines = [engine_for(m, ctx) for m in matrices[1:]]
    assert all(e.matrix is m for e, m in zip(engines, matrices[1:]))
    replacement = engine_for(matrices[0], ctx)
    assert replacement is not first_engine, "LRU entry was not evicted"
    # the most recent engines are still cached (their state is preserved)
    assert engine_for(matrices[-1], ctx) is engines[-1]
    clear_engine_cache()


def test_engine_cache_hit_refreshes_lru_order():
    from repro.core.engine import _ENGINE_CACHE_LIMIT

    clear_engine_cache()
    ctx = default_context()
    matrices = [erdos_renyi(30, 3.0, seed=200 + i)
                for i in range(_ENGINE_CACHE_LIMIT + 1)]
    engines = [engine_for(m, ctx) for m in matrices[:_ENGINE_CACHE_LIMIT]]
    # touch the oldest entry: it moves to the MRU slot...
    assert engine_for(matrices[0], ctx) is engines[0]
    # ...so inserting one more evicts the *second* oldest instead
    engine_for(matrices[-1], ctx)
    assert engine_for(matrices[0], ctx) is engines[0]
    assert engine_for(matrices[1], ctx) is not engines[1]
    clear_engine_cache()


def _reachable_ndarray_bytes(root, exclude=()):
    """Total bytes of distinct numpy arrays reachable from ``root`` via gc.

    Traversal stops at types, modules and functions: those lead out of the
    object's own data graph (class attributes, module globals) and are not
    retained *by* the object.
    """
    import gc
    import types

    seen, total, stack = set(), 0, [root]
    excluded = {id(a) for a in exclude}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if id(obj) not in excluded:
                total += obj.nbytes
            continue
        stack.extend(gc.get_referents(obj))
    return total


def test_bfs_detach_releases_workspace_buffers():
    import gc
    import weakref

    n = 4000
    result = bfs(erdos_renyi(n, 3.0, seed=42), 0, default_context(num_threads=2))
    workspace_ref = weakref.ref(result.engine.workspace)
    engine_ref = weakref.ref(result.engine)
    # attached: the engine's O(nrows) SPA / scratch buffers are reachable
    before = _reachable_ndarray_bytes(result,
                                      exclude=(result.levels, result.parents))
    assert before >= 2 * n * 8, "expected the workspace buffers to be pinned"
    result.detach()
    gc.collect()
    assert engine_ref() is None, "detach must drop the engine"
    assert workspace_ref() is None, "detach must release the workspace"
    # detached: nothing O(nrows) besides the mathematical result remains
    after = _reachable_ndarray_bytes(result,
                                     exclude=(result.levels, result.parents))
    assert after < n * 8, f"detached result still pins {after} bytes"


def test_spmspv_result_detach_drops_per_thread_buffers():
    import sys

    matrix = erdos_renyi(500, 4.0, seed=43)
    x = SparseVector.full_like_indices(500, np.arange(0, 120), 1.0)
    result = get_algorithm("bucket")(matrix, x, default_context(num_threads=6))
    per_thread_before = sum(len(p.thread_metrics) for p in result.record.phases)
    assert per_thread_before >= 6  # per-thread detail present while attached
    size_before = sys.getsizeof(result.record.phases) + sum(
        sys.getsizeof(p.thread_metrics) for p in result.record.phases)
    work_before = result.record.total_work().as_dict()
    assert result.detach() is result
    assert all(not p.thread_metrics for p in result.record.phases)
    size_after = sys.getsizeof(result.record.phases) + sum(
        sys.getsizeof(p.thread_metrics) for p in result.record.phases)
    assert size_after < size_before
    # compaction preserves the aggregate work totals exactly
    assert result.record.total_work().as_dict() == work_before
