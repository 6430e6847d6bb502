"""The multi-matrix engine group and the ``spmspv`` shim's engine cache.

An :class:`EngineGroup` builds and owns one engine per matrix, so its
members keep their workspaces for the group's lifetime no matter how many
other matrices the process touches, and stay separate from the 8-entry LRU
behind :func:`engine_for` (the ``spmspv`` shim's cache).
"""

import numpy as np
import pytest

from repro.core import (
    EngineGroup,
    ShardedEngine,
    SpMSpVEngine,
    clear_engine_cache,
    engine_for,
    spmspv,
)
from repro.core.workspace import SpMSpVWorkspace
from repro.parallel import default_context

from conftest import random_csc, random_sparse_vector


@pytest.fixture(autouse=True)
def _fresh_engine_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


def assert_same_vector(a, b):
    assert np.array_equal(a.vector.indices, b.vector.indices)
    assert np.array_equal(a.vector.values, b.vector.values)


# --------------------------------------------------------------------------- #
# EngineGroup: members and their results
# --------------------------------------------------------------------------- #
def test_engine_group_results_match_direct_calls():
    mats = {"a": random_csc(30, 30, 0.25, seed=7), "b": random_csc(30, 30, 0.15, seed=8)}
    ctx = default_context(num_threads=2)
    x = random_sparse_vector(30, 8, seed=3)
    with EngineGroup(mats, ctx) as group:
        assert all(isinstance(group.engine(k), SpMSpVEngine) for k in group.keys())
        out_a = group.multiply("a", x)
        out_b = group.multiply("b", x, sorted_output=True)
        many_b = group.multiply_many("b", [x, x], sorted_output=True)
    assert_same_vector(out_a, spmspv(mats["a"], x, ctx))
    ref_b = spmspv(mats["b"], x, ctx, sorted_output=True)
    for out in [out_b] + many_b:
        assert_same_vector(out, ref_b)


def test_engine_group_with_sharded_members():
    mats = [random_csc(40, 40, 0.2, seed=s) for s in (20, 21)]
    ctx = default_context(num_threads=2)
    x = random_sparse_vector(40, 9, seed=5)
    with EngineGroup(mats, ctx, shards=3) as group:
        assert all(isinstance(group.engine(k), ShardedEngine) for k in group.keys())
        results = [group.multiply(key, x) for key in group.keys()]
        many = group.multiply_many(0, [x, x])
    for matrix, out in zip(mats, results):
        assert_same_vector(out, spmspv(matrix, x, ctx))
    for out in many:
        assert_same_vector(out, results[0])
    assert group.summary()[0]["shards"] == 3


def test_engine_group_rejects_unknown_key_and_empty_membership():
    with pytest.raises(ValueError):
        EngineGroup([])
    with EngineGroup([random_csc(10, 10, 0.3, seed=9)]) as group:
        with pytest.raises(KeyError):
            group.multiply("nope", random_sparse_vector(10, 2, seed=0))
        with pytest.raises(KeyError):
            group.engine("nope")


# --------------------------------------------------------------------------- #
# members outlive the spmspv shim's LRU
# --------------------------------------------------------------------------- #
def test_group_members_survive_lru_with_more_than_eight_live_matrices():
    """Twelve live matrices overflow the shim's 8-entry LRU every round; the
    group's members are not in it, so each matrix keeps one engine and one
    workspace for the whole run."""
    ctx = default_context(num_threads=1)
    mats = [random_csc(30, 30, 0.2, seed=100 + s) for s in range(12)]
    x = random_sparse_vector(30, 6, seed=1)
    with EngineGroup(mats, ctx) as group:
        engines = [group.engine(i) for i in range(len(mats))]
        workspaces = [e.workspace for e in engines]
        for _round in range(3):  # the iterative-algorithm shape
            for i, m in enumerate(mats):
                spmspv(m, x, ctx)  # churns the shim's cache
                group.multiply(i, x)
                assert group.engine(i) is engines[i]
                assert engine_for(m, ctx) is not engines[i]
        assert [group.engine(i).workspace for i in range(len(mats))] == workspaces
        assert [e.total_calls for e in engines] == [3] * len(mats)


def test_group_members_are_not_rebuilt(monkeypatch):
    """No SpMSpVWorkspace is constructed after the group warms up."""
    ctx = default_context(num_threads=1)
    mats = [random_csc(25, 25, 0.2, seed=200 + s) for s in range(10)]
    x = random_sparse_vector(25, 5, seed=2)
    with EngineGroup(mats, ctx) as group:
        for key in group.keys():  # warm every member once
            group.multiply(key, x)
        built = {"count": 0}
        orig = SpMSpVWorkspace.__init__

        def counting(self, *args, **kwargs):
            built["count"] += 1
            orig(self, *args, **kwargs)

        monkeypatch.setattr(SpMSpVWorkspace, "__init__", counting)
        for _round in range(3):
            for key in group.keys():
                group.multiply(key, x)
        assert built["count"] == 0, "member engines must not rebuild workspaces"


def test_group_updates_do_not_reach_the_spmspv_shim():
    """A member's delta overlay is its own: the shim's engine over the same
    matrix and context keeps computing with the original matrix."""
    ctx = default_context(num_threads=1)
    matrix = random_csc(40, 40, 0.2, seed=250)
    x = random_sparse_vector(40, 6, seed=3)
    before = spmspv(matrix, x, ctx, sorted_output=True)
    row = int(np.setdiff1d(np.arange(40), before.vector.indices)[0])
    with EngineGroup([matrix], ctx) as group:
        # one edge into a row the product misses: overlaid, not compacted
        ack = group.apply_updates(0, [row], [int(x.indices[0])], 5.0)
        assert not ack["compacted"]
        updated = group.multiply(0, x, sorted_output=True)
        assert updated.vector.nnz == before.vector.nnz + 1
        assert_same_vector(spmspv(matrix, x, ctx, sorted_output=True), before)


def test_unpinned_engines_still_evict_beyond_the_limit():
    ctx = default_context(num_threads=1)
    keep = random_csc(20, 20, 0.3, seed=300)
    first = engine_for(keep, ctx)
    churn = [random_csc(20, 20, 0.3, seed=301 + s) for s in range(9)]
    for m in churn:
        engine_for(m, ctx)
    assert engine_for(keep, ctx) is not first  # LRU evicted the oldest entry
