"""Tests for the parallel runtime (context, partitioner, scheduler)
and the machine model (platforms, cost model, cache estimators, simulator)."""

import numpy as np
import pytest

from repro.machine import (
    EDISON,
    KNL,
    LAPTOP,
    CostModel,
    Platform,
    SetAssociativeCache,
    cost_model_for,
    estimate_column_gather_misses,
    estimate_scatter_misses,
    get_platform,
    simulate_record,
    simulate_records,
    speedup_curve,
)
from repro.parallel import (
    ExecutionContext,
    WorkMetrics,
    default_context,
    load_imbalance,
    partition_by_weight,
    partition_vector_nonzeros,
    schedule,
    schedule_dynamic,
    schedule_lpt,
    schedule_static,
)
from repro.parallel.metrics import ExecutionRecord, PhaseRecord


# --------------------------------------------------------------------------- #
# ExecutionContext
# --------------------------------------------------------------------------- #
def test_context_defaults_and_buckets():
    ctx = default_context(num_threads=6)
    assert ctx.num_buckets == 24  # 4 buckets per thread, as in the paper
    assert ctx.platform is EDISON
    assert ctx.with_threads(3).num_threads == 3
    assert ctx.with_platform(KNL).platform is KNL
    assert not ctx.with_sorted_vectors(False).sorted_vectors


def test_context_validation():
    with pytest.raises(ValueError):
        ExecutionContext(num_threads=0)
    with pytest.raises(ValueError):
        ExecutionContext(num_threads=1, buckets_per_thread=0)
    with pytest.raises(ValueError):
        ExecutionContext(num_threads=1, scheduling="magic")
    with pytest.raises(ValueError):
        ExecutionContext(num_threads=100, platform=EDISON)  # exceeds 24 cores


# --------------------------------------------------------------------------- #
# partitioner
# --------------------------------------------------------------------------- #
def test_partition_vector_nonzeros_covers_all():
    chunks = partition_vector_nonzeros(13, 4)
    assert sum(len(c) for c in chunks) == 13
    flat = np.concatenate(chunks)
    np.testing.assert_array_equal(flat, np.arange(13))


def test_partition_more_threads_than_items():
    chunks = partition_vector_nonzeros(2, 5)
    assert len(chunks) == 5
    assert sum(len(c) for c in chunks) == 2


def test_partition_by_weight_balances():
    weights = np.array([100, 1, 1, 1, 1, 100, 1, 1])
    chunks = partition_by_weight(weights, 2)
    loads = [weights[c].sum() for c in chunks]
    assert sum(len(c) for c in chunks) == len(weights)
    assert load_imbalance(loads) < 1.2
    # chunks stay contiguous
    for c in chunks:
        if len(c) > 1:
            assert np.all(np.diff(c) == 1)


def test_partition_by_weight_empty_and_zero():
    assert all(len(c) == 0 for c in partition_by_weight(np.array([]), 3))
    chunks = partition_by_weight(np.zeros(6), 3)
    assert sum(len(c) for c in chunks) == 6


# --------------------------------------------------------------------------- #
# scheduler
# --------------------------------------------------------------------------- #
def test_schedule_static_round_robin():
    a = schedule_static([1, 1, 1, 1], 2)
    assert a.items_per_thread == [[0, 2], [1, 3]]
    assert a.makespan == 2


def test_schedule_dynamic_balances_makespan():
    costs = [10, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    dyn = schedule_dynamic(costs, 2)
    stat = schedule_static(costs, 2)
    assert dyn.makespan <= stat.makespan
    assert dyn.total_cost == pytest.approx(sum(costs))
    assert dyn.imbalance() >= 1.0


def test_schedule_lpt_handles_skew():
    costs = [8, 7, 6, 5, 4]
    lpt = schedule_lpt(costs, 2)
    # optimum makespan is 15; LPT is guaranteed within 4/3 of it
    assert lpt.makespan <= 15 * 4 / 3
    assert sorted(sum(lpt.items_per_thread, [])) == list(range(5))


def test_schedule_dispatch_and_validation():
    assert schedule([1, 2], 2, "static").total_cost == 3
    assert schedule([1, 2], 2, "dynamic").total_cost == 3
    assert schedule([1, 2], 2, "lpt").total_cost == 3
    with pytest.raises(ValueError):
        schedule([1], 1, "fifo")
    with pytest.raises(ValueError):
        schedule([1], 0, "static")


def test_schedule_every_item_assigned_once():
    rng = np.random.default_rng(0)
    costs = rng.random(50).tolist()
    for policy in ("static", "dynamic", "lpt"):
        a = schedule(costs, 7, policy)
        assigned = sorted(sum(a.items_per_thread, []))
        assert assigned == list(range(50))


# --------------------------------------------------------------------------- #
# platforms & cost model
# --------------------------------------------------------------------------- #
def test_platform_presets_match_table3():
    assert EDISON.total_cores == 24 and EDISON.clock_ghz == 2.4
    assert KNL.total_cores == 64 and KNL.clock_ghz == 1.4
    assert KNL.l2_kb == 1024 and EDISON.l2_kb == 256
    assert "Ivy Bridge" in EDISON.describe()
    assert get_platform("knl") is KNL and get_platform("laptop") is LAPTOP
    with pytest.raises(KeyError):
        get_platform("cray-1")


def test_cost_model_weights_and_scaling():
    model = cost_model_for(EDISON)
    knl_model = cost_model_for(KNL)
    # a KNL core is slower, so every per-op cost is higher
    assert knl_model.weight("multiplications") > model.weight("multiplications")
    # cache misses cost more than streamed reads
    assert model.weight("cache_line_misses") > model.weight("matrix_nnz_reads")
    metrics = WorkMetrics(multiplications=1000, additions=500)
    assert model.thread_cost_ns(metrics) == pytest.approx(1500.0)
    custom = model.with_weights(multiplications=2.0)
    assert custom.thread_cost_ns(metrics) == pytest.approx(2500.0)


def test_phase_time_uses_critical_path():
    model = CostModel(platform=EDISON)
    slow = WorkMetrics(multiplications=10_000)
    fast = WorkMetrics(multiplications=10)
    phase = PhaseRecord(name="p", parallel=True, thread_metrics=[slow, fast], barriers=0)
    assert model.phase_time_ns(phase, 2) == pytest.approx(model.thread_cost_ns(slow))


def test_phase_time_bandwidth_bound_for_irregular_traffic():
    model = CostModel(platform=EDISON)
    per_thread = WorkMetrics(bucket_writes=100_000)
    phase = PhaseRecord(name="p", parallel=True,
                        thread_metrics=[per_thread] * 24, barriers=0)
    time_ns = model.phase_time_ns(phase, 24)
    # 24 threads but only `memory_channels` concurrent irregular streams:
    total_irregular = 24 * model.irregular_cost_ns(per_thread)
    assert time_ns >= total_irregular / EDISON.memory_channels


def test_serial_phase_time_adds_all_threads():
    model = CostModel(platform=EDISON)
    phase = PhaseRecord(name="s", parallel=False,
                        serial_metrics=WorkMetrics(additions=100), barriers=0)
    assert model.phase_time_ns(phase, 8) == pytest.approx(100 * model.weight("additions"))


def test_simulate_record_and_records():
    record = ExecutionRecord(algorithm="x", num_threads=2)
    record.add_phase(PhaseRecord(name="a", parallel=True,
                                 thread_metrics=[WorkMetrics(multiplications=100)] * 2))
    run = simulate_record(record, EDISON)
    assert run.time_ms > 0
    combined = simulate_records([record, record], EDISON)
    assert combined.time_ms == pytest.approx(2 * run.time_ms)
    assert combined.phase_times_ms["a"] == pytest.approx(2 * run.phase_times_ms["a"])
    assert simulate_records([], EDISON).time_ms == 0.0


def test_speedup_curve():
    curve = speedup_curve({1: 100.0, 2: 50.0, 4: 30.0})
    assert curve[1] == pytest.approx(1.0)
    assert curve[2] == pytest.approx(2.0)
    assert curve[4] == pytest.approx(100.0 / 30.0)
    assert speedup_curve({}) == {}


# --------------------------------------------------------------------------- #
# cache estimators
# --------------------------------------------------------------------------- #
def test_gather_miss_estimator_prefers_sorted_dense():
    sparse_sorted = estimate_column_gather_misses(10, 100, 10_000, input_sorted=True)
    sparse_unsorted = estimate_column_gather_misses(10, 100, 10_000, input_sorted=False)
    assert sparse_sorted <= sparse_unsorted
    dense_sorted = estimate_column_gather_misses(9_000, 90_000, 10_000, input_sorted=True)
    dense_unsorted = estimate_column_gather_misses(9_000, 90_000, 10_000, input_sorted=False)
    # for dense selections, sorting saves a large fraction of the jump misses
    assert dense_sorted < dense_unsorted
    assert estimate_column_gather_misses(0, 0, 100, input_sorted=True) == 0


def test_scatter_miss_estimator_respects_cache_size():
    assert estimate_scatter_misses(1000, 1000, cache_kb=256) <= 1000 // 8
    big_target = estimate_scatter_misses(1000, 10_000_000, cache_kb=256)
    assert big_target > 900
    assert estimate_scatter_misses(0, 100, 32) == 0


def test_set_associative_cache_simulator():
    cache = SetAssociativeCache(size_kb=1, line_bytes=64, ways=2)
    # repeated access to the same element: 1 miss then hits
    assert cache.access(0) is False
    assert cache.access(1) is True  # same line
    assert cache.access(0) is True
    stats = cache.access_many(np.arange(0, 4096, 8))
    assert stats.misses > 0 and stats.hits > 0
    assert 0.0 < stats.miss_rate <= 1.0
    cache.reset()
    assert cache.stats.accesses == 0
