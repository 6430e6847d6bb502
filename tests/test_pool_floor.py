"""The process backend's in-parent floor: small calls skip the pool round trip.

A process-backend call gathering fewer than ``POOL_MIN_WORK`` entries (the
nonzeros in the frontier's columns, summed over strips and over a block's
vectors) runs in the parent at gather time, through the same
``run_strip`` the workers call.  Every test here opts back into the production floor (the
``production_floor`` fixture undoes conftest's pin to 0) and checks one
contract of that path:

* the boundary: ``POOL_MIN_WORK - 1`` entries send zero pipe bytes and count
  in ``inline_calls``; exactly ``POOL_MIN_WORK`` entries is one pool call —
  for multiply, column partials and fused blocks;
* a deadline overrun in the parent raises ``DeadlineError``, counted;
* in-parent answers after a compaction through ``update_strip`` match a
  rebuilt-matrix oracle, and the per-column counts follow the new strips;
* a queued in-parent call blocks ``update_strip`` until gathered;
* a worker killed while calls run in the parent surfaces exactly once, at
  the next pool call (absorbed under a retry policy).
"""

import os
import signal
import time
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.core import ShardedEngine, SpMSpVEngine, make_sharded_engine
from repro.errors import BackendError, DeadlineError
from repro.formats import CSCMatrix, SparseVector
from repro.parallel import RetryPolicy, default_context
from repro.semiring import PLUS_TIMES

from conftest import POOL_MIN_WORK, random_csc

#: rows of the boundary matrix; its 64 full columns hold POOL_MIN_WORK entries
M = POOL_MIN_WORK // 64
#: the column holding one entry fewer than a full one
SHORT = 64


@pytest.fixture(autouse=True)
def _production(production_floor):
    """Every test in this file runs at the production floor."""


def boundary_matrix() -> CSCMatrix:
    """M x 65: columns 0-63 hold M entries each, column 64 holds M - 1."""
    counts = np.array([M] * 64 + [M - 1])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.arange(c) for c in counts])
    data = np.random.default_rng(0).random(len(indices)) + 0.1
    return CSCMatrix((M, 65), indptr, indices, data)


def frontier(cols, seed: int = 0) -> SparseVector:
    cols = np.asarray(sorted(cols))
    values = np.random.default_rng(seed).random(len(cols)) + 0.1
    return SparseVector(65, cols, values)


#: exactly POOL_MIN_WORK gathered entries: one pool round trip
X_AT = frontier(range(64))
#: POOL_MIN_WORK - 1 gathered entries: runs in the parent
X_BELOW = frontier([*range(1, 64), SHORT], seed=1)
X_SMALL = frontier([3, 40, SHORT], seed=2)


def process_ctx():
    return default_context(num_threads=2, backend="process",
                           backend_workers=2)


def assert_same(ref, out, label):
    assert np.array_equal(ref.vector.indices, out.vector.indices), label
    assert ref.vector.values.tobytes() == out.vector.values.tobytes(), label


def record_signature(record):
    return (record.algorithm, record.num_threads, dict(record.info),
            [(p.name, p.parallel, p.barriers, p.serial_metrics.as_dict(),
              [t.as_dict() for t in p.thread_metrics]) for p in record.phases])


def oracle(engine, x):
    """The answer of a monolithic engine on the rebuilt matrix."""
    return SpMSpVEngine(engine.effective_matrix(), default_context(),
                        algorithm="bucket").multiply(x, sorted_output=True)


def pool_delta(backend, call):
    """Run ``call``; the change of every comm counter it caused."""
    before = backend.comm_stats()
    out = call()
    after = backend.comm_stats()
    return out, {k: after[k] - before[k] for k in (
        "calls", "inline_calls", "pipe_bytes_out", "pipe_bytes_in",
        "pipe_msgs_out", "slab_bytes_in", "slab_bytes_out")}


# --------------------------------------------------------------------------- #
# the boundary
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", ["row", "column"])
def test_floor_boundary_for_multiply_and_partial(scheme):
    matrix = boundary_matrix()
    emu = make_sharded_engine(matrix, 2, default_context(num_threads=2),
                              scheme=scheme, algorithm="bucket")
    with make_sharded_engine(matrix, 2, process_ctx(), scheme=scheme,
                             algorithm="bucket") as engine:
        backend = engine.backend
        out, delta = pool_delta(
            backend, lambda: engine.multiply(X_BELOW, sorted_output=True))
        assert delta == {"calls": 0, "inline_calls": 1, "pipe_bytes_out": 0,
                         "pipe_bytes_in": 0, "pipe_msgs_out": 0,
                         "slab_bytes_in": 0, "slab_bytes_out": 0}
        ref = emu.multiply(X_BELOW, sorted_output=True)
        assert_same(ref, out, f"{scheme} below the floor")
        assert record_signature(ref.record) == record_signature(out.record)

        out, delta = pool_delta(
            backend, lambda: engine.multiply(X_AT, sorted_output=True))
        assert delta["calls"] == 1 and delta["inline_calls"] == 0
        assert delta["pipe_bytes_out"] > 0 and delta["slab_bytes_in"] > 0
        ref = emu.multiply(X_AT, sorted_output=True)
        assert_same(ref, out, f"{scheme} at the floor")
        assert record_signature(ref.record) == record_signature(out.record)


def test_floor_boundary_for_fused_blocks_counts_every_vector():
    """A block gathers each union column once per vector holding it: two
    copies of a half-floor frontier reach the pool although their union
    holds only half the floor."""
    matrix = boundary_matrix()
    half = frontier(range(32))
    emu = ShardedEngine(matrix, 2, default_context(num_threads=2),
                        algorithm="bucket")
    with ShardedEngine(matrix, 2, process_ctx(), algorithm="bucket") as engine:
        for xs, path in (([half, frontier([*range(1, 32), SHORT], 3)], "inline"),
                         ([half, frontier(range(32), 4)], "pool")):
            outs, delta = pool_delta(engine.backend, lambda: engine.multiply_many(
                xs, block_mode="fused", sorted_output=True))
            assert delta["calls"] == (path == "pool")
            assert delta["inline_calls"] == (path == "inline")
            refs = emu.multiply_many(xs, block_mode="fused", sorted_output=True)
            for i, (ref, out) in enumerate(zip(refs, outs)):
                assert_same(ref, out, f"{path} block vec {i}")
                assert record_signature(ref.record) == \
                    record_signature(out.record)


# --------------------------------------------------------------------------- #
# deadline, compaction, update_strip
# --------------------------------------------------------------------------- #
def _slow_bucket(matrix, x, ctx, **kwargs):
    from repro.core.dispatch import get_algorithm

    time.sleep(0.05)
    return get_algorithm("bucket")(matrix, x, ctx, **kwargs)


def test_in_parent_call_past_its_deadline_raises_deadline_error():
    from repro.core import dispatch
    from repro.core.dispatch import register_algorithm

    register_algorithm("_test_slow_bucket", _slow_bucket, overwrite=True)
    matrix = random_csc(40, 40, 0.2, seed=5)
    x = SparseVector.full_like_indices(40, np.arange(6), 1.0)
    try:
        with ShardedEngine(matrix, 2, process_ctx().with_deadline(0.02),
                           algorithm="bucket") as engine:
            # strip 0 sleeps past the budget, so strip 1 never starts
            with pytest.raises(DeadlineError, match="in the parent"):
                engine.multiply(x, algorithm="_test_slow_bucket")
            assert engine.health_stats()["deadline_hits"] == 1
            stats = engine.backend.comm_stats()
            assert stats["calls"] == 0 and stats["inline_calls"] == 1
            assert stats["inflight"] == 0  # the failed call was released
            ref = ShardedEngine(matrix, 2, default_context()).multiply(
                x, sorted_output=True)
            assert_same(ref, engine.multiply(x, sorted_output=True),
                        "in budget")
    finally:
        dispatch._REGISTRY.pop("_test_slow_bucket", None)


def test_row_overlay_compaction_keeps_in_parent_answers_and_counts_current():
    """Filling the short column moves X_BELOW onto the pool; deleting from a
    full one moves X_AT into the parent.  Answers match the rebuilt matrix."""
    with ShardedEngine(boundary_matrix(), 2, process_ctx(),
                       algorithm="bucket") as engine:
        engine.apply_updates([M - 1], [SHORT], [5.0])
        # the overlay is pending: workers and counts still see the base strip
        out, delta = pool_delta(
            engine.backend, lambda: engine.multiply(X_SMALL, sorted_output=True))
        assert delta["inline_calls"] == 1
        assert_same(oracle(engine, X_SMALL), out, "overlay in the parent")
        assert engine.compact()
        for x, path in ((X_SMALL, "inline"), (X_BELOW, "pool")):
            out, delta = pool_delta(
                engine.backend, lambda: engine.multiply(x, sorted_output=True))
            assert delta["calls"] == (path == "pool"), path
            assert_same(oracle(engine, x), out, f"compacted, {path}")
        engine.apply_updates([0], [0])  # delete: column 0 drops to M - 1
        assert engine.compact()
        out, delta = pool_delta(
            engine.backend, lambda: engine.multiply(X_AT, sorted_output=True))
        assert delta["inline_calls"] == 1
        assert_same(oracle(engine, X_AT), out, "after delete, in the parent")


def test_column_eager_rebuild_keeps_in_parent_answers_and_counts_current():
    matrix = boundary_matrix()
    with make_sharded_engine(matrix, 2, process_ctx(), scheme="column",
                             algorithm="bucket") as engine:
        engine.apply_updates([M - 1], [SHORT], [5.0])  # rebuilds its strip now
        for x, path in ((X_SMALL, "inline"), (X_BELOW, "pool")):
            out, delta = pool_delta(engine.backend, lambda: engine.multiply(x))
            assert delta["calls"] == (path == "pool"), path
            assert_same(oracle(engine, x), out, f"rebuilt, {path}")
        engine.apply_updates([0, 7], [0, 40])  # two deletes, both strips
        out, delta = pool_delta(engine.backend, lambda: engine.multiply(X_AT))
        assert delta["inline_calls"] == 1
        assert_same(oracle(engine, X_AT), out, "after deletes, in the parent")


def test_queued_in_parent_call_blocks_update_strip():
    matrix = boundary_matrix()
    with ShardedEngine(matrix, 2, process_ctx(), algorithm="bucket") as engine:
        backend = engine.backend
        token = backend.submit(
            "multiply", algorithm="bucket", x=X_SMALL, semiring=PLUS_TIMES,
            sorted_output=True, mask_slices=[None, None],
            mask_complement=False, kwargs={})
        strip = engine.split.strips[0]
        with pytest.raises(BackendError, match="in flight"):
            backend.update_strip(0, strip)
        assert len(backend.gather(token)) == 2
        backend.update_strip(0, strip)  # nothing queued any more


# --------------------------------------------------------------------------- #
# worker deaths
# --------------------------------------------------------------------------- #
def _kill_worker(backend, w: int) -> None:
    """SIGKILL worker ``w`` and wait until its death is observable."""
    proc = backend._workers[w]
    os.kill(proc.pid, signal.SIGKILL)
    # a zombie still answers os.kill(pid, 0); the sentinel fires on exit
    assert wait([proc.sentinel], timeout=10.0)


@pytest.mark.parametrize("resilient", [False, True])
def test_worker_killed_during_in_parent_calls_surfaces_at_next_pool_call(
        resilient, monkeypatch):
    # this test's own kill must be the only fault: no chaos plan on top
    monkeypatch.delenv("REPRO_BACKEND_FAULTS", raising=False)
    matrix = boundary_matrix()
    ctx = process_ctx()
    if resilient:
        ctx = ctx.with_retry(RetryPolicy(max_attempts=3))
    emu = ShardedEngine(matrix, 2, default_context(num_threads=2),
                        algorithm="bucket")
    with ShardedEngine(matrix, 2, ctx, algorithm="bucket") as engine:
        engine.multiply(X_AT)  # the pool has served a call
        healthy = engine.health_stats()
        _kill_worker(engine.backend, 0)
        for x in (X_SMALL, X_BELOW, X_SMALL):
            assert_same(emu.multiply(x, sorted_output=True),
                        engine.multiply(x, sorted_output=True), "in parent")
        assert engine.health_stats() == healthy  # nothing noticed the death
        if not resilient:
            with pytest.raises(BackendError, match="died since the last call"):
                engine.multiply(X_AT)
        out = engine.multiply(X_AT, sorted_output=True)
        assert_same(emu.multiply(X_AT, sorted_output=True), out, "pool")
        health = engine.health_stats()
        assert sum(health["worker_deaths"]) == 1 and health["respawns"] == 1
