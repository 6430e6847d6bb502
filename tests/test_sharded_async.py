"""The async front-end and the multi-matrix engine group.

Covers the contracts the sharded equivalence suite does not: submit/gather
ordering and queue semantics, exception propagation out of a failing strip
call, deterministic seeded interleaving across an :class:`EngineGroup`'s
members, and the :func:`engine_for` pinning fix — group members must survive
the 8-entry LRU no matter how many other matrices the process touches, so
previously-built workspaces are never silently rebuilt mid-algorithm.
"""

import numpy as np
import pytest

from repro.core import (
    EngineGroup,
    ShardedEngine,
    clear_engine_cache,
    engine_for,
    pin_engine,
    spmspv,
    unpin_engine,
)
from repro.core.column_sharded import make_sharded_engine
from repro.core.workspace import SpMSpVWorkspace
from repro.errors import DimensionError, DimensionMismatchError
from repro.formats import SparseVector
from repro.parallel import default_context

from conftest import random_csc, random_sparse_vector


@pytest.fixture(autouse=True)
def _fresh_engine_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


# --------------------------------------------------------------------------- #
# ShardedEngine.submit / gather
# --------------------------------------------------------------------------- #
def test_gather_returns_results_in_submit_order_despite_reordered_execution():
    matrix = random_csc(40, 40, 0.2, seed=1)
    engine = ShardedEngine(matrix, 3, default_context(num_threads=2),
                           algorithm="bucket")
    # distinguishable inputs: x_i has exactly i+1 nonzeros
    xs = [random_sparse_vector(40, i + 1, seed=i) for i in range(6)]
    expected = [ShardedEngine(matrix, 3, default_context(num_threads=2),
                              algorithm="bucket").multiply(x) for x in xs]
    tickets = [engine.submit(x) for x in xs]
    results = engine.gather()
    assert tickets == list(range(6))
    assert [r.info["f"] for r in results] == [x.nnz for x in xs]
    for ref, out in zip(expected, results):
        assert np.array_equal(ref.vector.indices, out.vector.indices)
        assert np.array_equal(ref.vector.values, out.vector.values)
    # the seeded scheduler really did execute out of submission order
    assert sorted(engine.execution_log) == list(range(6))
    assert engine.execution_log != list(range(6))


def test_gather_execution_order_is_deterministic_per_seed():
    matrix = random_csc(30, 30, 0.2, seed=2)
    xs = [random_sparse_vector(30, 5, seed=i) for i in range(5)]

    def run(seed):
        ctx = default_context(num_threads=2, seed=seed)
        engine = ShardedEngine(matrix, 2, ctx, algorithm="bucket")
        for x in xs:
            engine.submit(x)
        engine.gather()
        return list(engine.execution_log)

    assert run(7) == run(7)
    assert run(7) == run(7)  # stable across repeated constructions


def test_gather_on_empty_queue_returns_empty():
    matrix = random_csc(10, 10, 0.3, seed=3)
    engine = ShardedEngine(matrix, 2, default_context())
    assert engine.gather() == []
    assert engine.pending == 0


def test_exception_from_failing_strip_call_propagates_and_clears_queue():
    matrix = random_csc(30, 30, 0.2, seed=4)
    engine = ShardedEngine(matrix, 3, default_context(), algorithm="bucket")
    good = random_sparse_vector(30, 6, seed=0)
    engine.submit(good)
    engine.submit(SparseVector.full_like_indices(20, np.arange(3), 1.0))  # wrong n
    engine.submit(good)
    with pytest.raises(DimensionMismatchError):
        engine.gather()
    # the queue is cleared: later batches start fresh and succeed
    assert engine.pending == 0
    engine.submit(good)
    results = engine.gather()
    assert len(results) == 1 and results[0].nnz == engine.multiply(good).nnz


def test_bad_mask_raises_at_gather_not_submit():
    matrix = random_csc(30, 30, 0.2, seed=5)
    engine = ShardedEngine(matrix, 2, default_context())
    bad_mask = SparseVector.full_like_indices(29, np.arange(4), 1.0)
    engine.submit(random_sparse_vector(30, 5, seed=1), mask=bad_mask)
    assert engine.pending == 1  # submission itself does not validate
    with pytest.raises(DimensionError):
        engine.gather()


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_mask_map_updated_after_submit_does_not_change_the_answer(scheme):
    """Queued calls run at gather (strips included, on the emulated backend),
    so submit copies a row map: updating it afterwards — as a BFS updates its
    visited map — must not leak into the queued call."""
    matrix = random_csc(40, 40, 0.2, seed=6)
    x = random_sparse_vector(40, 8, seed=2)
    visited = np.zeros(40, dtype=bool)
    visited[::3] = True
    with make_sharded_engine(matrix, 3, default_context(), algorithm="bucket",
                             scheme=scheme) as engine:
        expected = engine.multiply(x, mask=visited.copy(), mask_complement=True)
        engine.submit(x, mask=visited, mask_complement=True)
        visited[:] = True  # now masks every row out
        engine.submit(x, mask=visited, mask_complement=True)
        first, second = engine.gather()
    assert expected.vector.nnz > 0
    assert np.array_equal(first.vector.indices, expected.vector.indices)
    assert np.array_equal(first.vector.values, expected.vector.values)
    assert second.vector.nnz == 0


# --------------------------------------------------------------------------- #
# EngineGroup: interleaving and determinism
# --------------------------------------------------------------------------- #
def _submit_mixed(group, xs):
    tickets = []
    for i, x in enumerate(xs):
        tickets.append(group.submit(i % len(group), x))
    return tickets


def test_engine_group_interleaves_deterministically_under_a_seed():
    mats = [random_csc(25, 25, 0.2, seed=s) for s in range(3)]
    xs = [random_sparse_vector(25, 4 + i, seed=i) for i in range(9)]

    def run(seed):
        with EngineGroup(mats, default_context(num_threads=2), seed=seed) as g:
            _submit_mixed(g, xs)
            results = g.gather()
            return list(g.execution_log), [
                (r.vector.indices.copy(), r.vector.values.copy()) for r in results]

    log_a, res_a = run(11)
    log_b, res_b = run(11)
    assert log_a == log_b  # same seed: identical interleaving
    # executions genuinely interleave across members (not grouped per engine)
    keys_in_order = [key for _t, key in log_a]
    assert len(set(keys_in_order)) == 3
    assert keys_in_order != sorted(keys_in_order)
    # results are in submit order and bit-identical across runs
    for (ia, va), (ib, vb) in zip(res_a, res_b):
        assert np.array_equal(ia, ib) and np.array_equal(va, vb)

    log_c, res_c = run(12)
    assert sorted(log_c) == sorted(log_a)  # same work, any order
    for (ia, va), (ic, vc) in zip(res_a, res_c):
        assert np.array_equal(ia, ic) and np.array_equal(va, vc)


def test_engine_group_results_match_direct_calls():
    mats = {"a": random_csc(30, 30, 0.25, seed=7), "b": random_csc(30, 30, 0.15, seed=8)}
    ctx = default_context(num_threads=2)
    x = random_sparse_vector(30, 8, seed=3)
    with EngineGroup(mats, ctx) as group:
        t_a = group.submit("a", x)
        t_b = group.submit("b", x, sorted_output=True)
        results = group.gather()
    ref_a = spmspv(mats["a"], x, ctx)
    ref_b = spmspv(mats["b"], x, ctx, sorted_output=True)
    assert np.array_equal(results[t_a].vector.indices, ref_a.vector.indices)
    assert np.array_equal(results[t_a].vector.values, ref_a.vector.values)
    assert np.array_equal(results[t_b].vector.indices, ref_b.vector.indices)
    assert np.array_equal(results[t_b].vector.values, ref_b.vector.values)


def test_engine_group_with_sharded_members():
    mats = [random_csc(40, 40, 0.2, seed=s) for s in (20, 21)]
    ctx = default_context(num_threads=2)
    x = random_sparse_vector(40, 9, seed=5)
    with EngineGroup(mats, ctx, shards=3) as group:
        assert all(isinstance(group.engine(k), ShardedEngine) for k in group.keys())
        group.submit(0, x)
        group.submit(1, x)
        results = group.gather()
    ref = spmspv(mats[0], x, ctx)
    assert np.array_equal(results[0].vector.indices, ref.vector.indices)
    assert np.array_equal(results[0].vector.values, ref.vector.values)
    assert group.summary()[0]["shards"] == 3


def test_engine_group_rejects_unknown_key_and_empty_membership():
    with pytest.raises(ValueError):
        EngineGroup([])
    with EngineGroup([random_csc(10, 10, 0.3, seed=9)]) as group:
        with pytest.raises(KeyError):
            group.submit("nope", random_sparse_vector(10, 2, seed=0))


# --------------------------------------------------------------------------- #
# engine_for pinning: members survive the LRU mid-algorithm
# --------------------------------------------------------------------------- #
def test_group_members_survive_lru_with_more_than_eight_live_matrices():
    """Regression: >8 live matrices used to evict engines mid-algorithm.

    Iterating spmspv over 12 matrices rebuilt every engine (and its O(nrows)
    workspace) on every round; with the group pinning its members, each
    matrix keeps one engine and one workspace for the whole run.
    """
    ctx = default_context(num_threads=1)
    mats = [random_csc(30, 30, 0.2, seed=100 + s) for s in range(12)]
    x = random_sparse_vector(30, 6, seed=1)
    with EngineGroup(mats, ctx):
        engines = [engine_for(m, ctx) for m in mats]
        workspaces = [e.workspace for e in engines]
        for _round in range(3):  # the iterative-algorithm shape
            for i, m in enumerate(mats):
                spmspv(m, x, ctx)
                assert engine_for(m, ctx) is engines[i], \
                    f"engine for matrix {i} was evicted mid-algorithm"
        assert [engine_for(m, ctx).workspace for m in mats] == workspaces


def test_group_members_are_not_rebuilt(monkeypatch):
    """No SpMSpVWorkspace is constructed after the group warms up."""
    ctx = default_context(num_threads=1)
    mats = [random_csc(25, 25, 0.2, seed=200 + s) for s in range(10)]
    x = random_sparse_vector(25, 5, seed=2)
    with EngineGroup(mats, ctx):
        for m in mats:  # warm every member once
            spmspv(m, x, ctx)
        built = {"count": 0}
        orig = SpMSpVWorkspace.__init__

        def counting(self, *args, **kwargs):
            built["count"] += 1
            orig(self, *args, **kwargs)

        monkeypatch.setattr(SpMSpVWorkspace, "__init__", counting)
        for _round in range(3):
            for m in mats:
                spmspv(m, x, ctx)
        assert built["count"] == 0, "pinned engines must not rebuild workspaces"


def test_unpinned_engines_still_evict_beyond_the_limit():
    ctx = default_context(num_threads=1)
    keep = random_csc(20, 20, 0.3, seed=300)
    first = engine_for(keep, ctx)
    churn = [random_csc(20, 20, 0.3, seed=301 + s) for s in range(9)]
    for m in churn:
        engine_for(m, ctx)
    assert engine_for(keep, ctx) is not first  # LRU evicted the oldest entry


def test_close_releases_pins():
    ctx = default_context(num_threads=1)
    mats = [random_csc(20, 20, 0.3, seed=400 + s) for s in range(2)]
    group = EngineGroup(mats, ctx)
    member = engine_for(mats[0], ctx)
    group.close()
    group.close()  # idempotent
    churn = [random_csc(20, 20, 0.3, seed=500 + s) for s in range(10)]
    for m in churn:
        engine_for(m, ctx)
    assert engine_for(mats[0], ctx) is not member  # evictable again
    with pytest.raises(RuntimeError):
        group.submit(0, random_sparse_vector(20, 3, seed=0))


def test_pins_nest():
    ctx = default_context(num_threads=1)
    mat = random_csc(20, 20, 0.3, seed=600)
    engine = pin_engine(mat, ctx)
    assert pin_engine(mat, ctx) is engine  # second pin, same engine
    unpin_engine(mat, ctx)
    churn = [random_csc(20, 20, 0.3, seed=601 + s) for s in range(10)]
    for m in churn:
        engine_for(m, ctx)
    assert engine_for(mat, ctx) is engine  # still pinned by the outer pin
    unpin_engine(mat, ctx)
    unpin_engine(mat, ctx)  # over-unpin is a no-op
    for m in churn:
        engine_for(m, ctx)
    assert engine_for(mat, ctx) is not engine  # fully released


def test_pinned_engines_do_not_count_toward_the_limit():
    ctx = default_context(num_threads=1)
    pinned = [random_csc(20, 20, 0.3, seed=700 + s) for s in range(9)]
    engines = [pin_engine(m, ctx) for m in pinned]
    survivor = random_csc(20, 20, 0.3, seed=800)
    kept = engine_for(survivor, ctx)
    # seven unpinned newcomers fill the limit (with the survivor) without
    # touching the pins: 9 pinned + 8 unpinned entries coexist
    for s in range(7):
        engine_for(random_csc(20, 20, 0.3, seed=801 + s), ctx)
    assert engine_for(survivor, ctx) is kept
    for m, e in zip(pinned, engines):
        assert engine_for(m, ctx) is e
        unpin_engine(m, ctx)
