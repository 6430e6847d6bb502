"""Resilience layer under deterministic fault injection (PR 7).

The contract under test, from the issue: under every seeded
:class:`~repro.parallel.faults.FaultPlan` — worker kills, slow strips,
overflow storms, poisoned exception dumps — each call either returns
results **bit-identical** to the emulated backend or raises **exactly one
typed error** (``DeadlineError``/``BackendError``); never a wrong answer,
a hang past the deadline, or a leaked shared-memory segment.

Chaos is injected through the registered ``"chaos"`` backend (the
``REPRO_BACKEND_FAULTS`` env knob reroutes ``backend="process"`` there), so
these tests drive the *real* process pool through its public engine API
while the plan kills it in seeded, reproducible ways.
"""

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.core import ShardedEngine
from repro.core.engine import SpMSpVEngine
from repro.errors import BackendError, DeadlineError
from repro.formats import SparseVector
from repro.parallel import RetryPolicy, default_context
from repro.parallel.context import ExecutionContext
from repro.parallel.faults import ChaosBackend, FaultPlan, plan_from_env

from conftest import random_csc, random_sparse_vector

SHARDS = 4
WORKERS = 2


def problem(seed=3):
    matrix = random_csc(60, 55, 0.2, seed=seed)
    x = random_sparse_vector(55, 14, seed=seed)
    return matrix, x


def reference(matrix, x):
    emu = ShardedEngine(matrix, SHARDS, default_context(backend="emulated"),
                        algorithm="bucket")
    return emu.multiply(x)


def chaos_engine(monkeypatch, matrix, spec, **ctx_kwargs):
    """A process-backed engine rerouted through the chaos backend."""
    monkeypatch.setenv("REPRO_BACKEND_FAULTS", spec)
    ctx = default_context(backend="process", backend_workers=WORKERS,
                          **ctx_kwargs)
    engine = ShardedEngine(matrix, SHARDS, ctx, algorithm="bucket")
    assert isinstance(engine.backend, ChaosBackend)
    return engine


def assert_identical(ref, out, label=""):
    assert np.array_equal(ref.vector.indices, out.vector.indices), label
    assert np.array_equal(ref.vector.values, out.vector.values), label


# --------------------------------------------------------------------------- #
# FaultPlan: determinism and the env spec
# --------------------------------------------------------------------------- #
def test_fault_plan_events_are_seeded_and_order_independent():
    plan = FaultPlan(seed=42, kill=0.3, delay=0.5, overflow=0.2)
    first = [plan.events(i) for i in range(50)]
    # same plan, any evaluation order: identical schedule
    again = [FaultPlan(seed=42, kill=0.3, delay=0.5, overflow=0.2).events(i)
             for i in reversed(range(50))]
    assert first == list(reversed(again))
    # a different seed reshuffles which calls fault
    other = [FaultPlan(seed=43, kill=0.3, delay=0.5, overflow=0.2).events(i)
             for i in range(50)]
    assert other != first
    # probabilities actually bite: ~30% kills over 50 draws, none at 0.0
    assert 0 < sum(e["kill"] for e in first) < 50
    assert not any(e["poison"] for e in first)
    assert plan.victim(7, 4) == plan.victim(7, 4)


def test_fault_plan_spec_round_trip_and_validation(monkeypatch):
    plan = FaultPlan(seed=1302, kill=0.05, kill_mid=0.05, overflow=0.1,
                     delay_s=0.02)
    assert FaultPlan.from_spec(plan.to_spec()) == plan
    assert FaultPlan.from_spec("seed=7") == FaultPlan(seed=7)
    with pytest.raises(ValueError, match="unknown fault-plan key"):
        FaultPlan.from_spec("seed=1,explode=0.5")
    with pytest.raises(ValueError, match="expected key=value"):
        FaultPlan.from_spec("kaboom")
    with pytest.raises(ValueError, match="must be in"):
        FaultPlan(kill=1.5)
    monkeypatch.setenv("REPRO_BACKEND_FAULTS", "seed=9,kill=0.25")
    assert plan_from_env() == FaultPlan(seed=9, kill=0.25)
    monkeypatch.delenv("REPRO_BACKEND_FAULTS")
    assert plan_from_env() is None


def test_retry_policy_and_context_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="backoff_s"):
        RetryPolicy(backoff_s=-1)
    with pytest.raises(ValueError, match="deadline"):
        default_context(deadline=0.0)
    with pytest.raises(ValueError, match="shutdown_timeouts"):
        default_context(shutdown_timeouts=(1.0, 1.0))
    ctx = default_context(shutdown_timeouts=[0.5, 0.5, 0.5])  # list coerced
    assert ctx.shutdown_timeouts == (0.5, 0.5, 0.5)
    hash(ctx)  # stays hashable (the engine cache keys on the context)
    ctx2 = ctx.with_deadline(2.0).with_retry(RetryPolicy(max_attempts=3),
                                             degraded_fallback=True)
    assert ctx2.deadline == 2.0 and ctx2.retry.max_attempts == 3
    assert ctx2.degraded_fallback


@pytest.mark.parametrize("base,request_deadline,expected", [
    # tighter per-request deadline wins over a looser context default
    (5.0, 2.0, 2.0),
    # looser per-request deadline cannot widen a stricter context default
    (2.0, 5.0, 2.0),
    (3.0, 3.0, 3.0),
    # None composes as "unbounded": never loosens, never tightens
    (2.0, None, 2.0),
    (None, 3.0, 3.0),
    (None, None, None),
])
def test_with_deadline_tighten_composition(base, request_deadline, expected):
    """`with_deadline(..., tighten=True)` keeps the tighter of the two
    budgets in both directions (the serving layer's per-request mapping)."""
    ctx = default_context(deadline=base) if base is not None else default_context()
    composed = ctx.with_deadline(request_deadline, tighten=True)
    assert composed.deadline == expected
    # the base context is immutable; composition returned a copy
    assert ctx.deadline == base


def test_with_deadline_replace_still_overwrites():
    """Without tighten, with_deadline keeps its historical replace
    semantics — including widening and clearing."""
    ctx = default_context(deadline=1.0)
    assert ctx.with_deadline(5.0).deadline == 5.0
    assert ctx.with_deadline(None).deadline is None


# --------------------------------------------------------------------------- #
# retry: kills absorbed, results bit-identical
# --------------------------------------------------------------------------- #
def test_mid_call_kills_are_retried_bit_identically(monkeypatch):
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=9,kill_mid=1.0")
    try:
        # env resilience defaults: retry max_attempts=3 + degraded fallback
        assert engine.ctx.retry.max_attempts == 3
        for i in range(6):
            assert_identical(ref, engine.multiply(x), f"call {i}")
        health = engine.health_stats()
        assert sum(health["worker_deaths"]) > 0
        assert health["retries"] > 0          # strips genuinely re-dispatched
        assert health["respawns"] > 0
        assert engine.backend.injected_stats()["kill_mid"] == 6
        assert engine.summary()["health"] == health
    finally:
        engine.close()


def test_retry_exhausted_without_fallback_raises_exactly_one_error(monkeypatch):
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=9,kill_mid=1.0",
                          retry=RetryPolicy(max_attempts=1),
                          degraded_fallback=False)
    try:
        # Each call either raises exactly one typed error or returns the
        # exact answer — never a wrong result.  A kill can land *after* the
        # victim already replied (the call succeeds and the corpse surfaces
        # as a BackendError on the next call instead), so the per-call
        # outcome is either/or; what is guaranteed is that the deaths do
        # surface and are never silently absorbed with retries off.
        raised = 0
        for i in range(4):
            try:
                out = engine.multiply(x)
            except BackendError as exc:
                raised += 1
                assert ("lost to worker death" in str(exc)
                        or "died since the last call" in str(exc))
            else:
                assert_identical(ref, out, f"call {i}")
        assert raised >= 1
        # faults off: the (respawned) pool serves perfect answers again
        engine.backend.plan = FaultPlan()
        try:
            result = engine.multiply(x)
        except BackendError:
            # the final chaos call's corpse may surface here, exactly once
            result = engine.multiply(x)
        assert_identical(ref, result, "after chaos")
    finally:
        engine.close()


def test_degraded_fallback_keeps_a_sick_pool_serving(monkeypatch):
    """Past the retry budget the strip is recomputed in-process — correct
    answers at reduced speed instead of an error."""
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=5,kill_mid=1.0",
                          retry=RetryPolicy(max_attempts=1),
                          degraded_fallback=True)
    try:
        for i in range(5):
            assert_identical(ref, engine.multiply(x), f"degraded call {i}")
        health = engine.health_stats()
        assert health["fallback_calls"] > 0
        assert health["fallback_strips"] >= health["fallback_calls"]
        assert health["retries"] == 0        # budget said no retries
    finally:
        engine.close()


def test_retry_budget_bounds_redispatches(monkeypatch):
    """Even with generous max_attempts, the per-call budget caps total
    re-dispatches, so a pool dying faster than it respawns still terminates
    in bounded work (here: straight to one typed error)."""
    matrix, x = problem()
    engine = chaos_engine(monkeypatch, matrix, "seed=5,kill_mid=1.0",
                          retry=RetryPolicy(max_attempts=100, budget=0),
                          degraded_fallback=False)
    try:
        with pytest.raises(BackendError):
            engine.multiply(x)
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #
def test_slow_call_raises_deadline_error_and_pool_survives(monkeypatch):
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=11,delay=1.0,delay_s=0.5",
                          deadline=0.15)
    segments = list(engine.backend.segment_names())
    try:
        t0 = time.monotonic()
        with pytest.raises(DeadlineError) as ei:
            engine.multiply(x)
        # typed: DeadlineError is both a ReproError and a TimeoutError
        assert isinstance(ei.value, TimeoutError)
        # never a hang: the gather returned promptly after the budget
        assert time.monotonic() - t0 < 5.0
        assert engine.health_stats()["deadline_hits"] >= 1
        # abandoned call's regions drain; the pool serves the next call
        engine.backend.plan = FaultPlan()
        assert_identical(ref, engine.multiply(x), "after deadline")
        engine.backend._drain_ready()
        assert all(a.outstanding == 0 for a in engine.backend._arenas)
    finally:
        engine.close()
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)


def test_emulated_backend_honours_deadline_between_strips():
    matrix, x = problem()
    engine = ShardedEngine(matrix, SHARDS,
                           default_context(backend="emulated", deadline=1e-9),
                           algorithm="bucket")
    with pytest.raises(DeadlineError):
        engine.multiply(x)


# --------------------------------------------------------------------------- #
# overflow storms and poisoned dumps
# --------------------------------------------------------------------------- #
def test_overflow_storm_stays_bit_identical(monkeypatch):
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=2,overflow=1.0")
    try:
        for i in range(3):
            assert_identical(ref, engine.multiply(x), f"storm call {i}")
        stats = engine.backend.comm_stats()
        assert stats["output_overflows"] >= 3 * SHARDS  # every strip, every call
        assert engine.backend.injected_stats()["overflow"] == 3
    finally:
        engine.close()


def test_poisoned_dump_degrades_to_backend_error_with_strip_id(monkeypatch):
    from multiprocessing import get_all_start_methods

    if os.environ.get("REPRO_BACKEND_START",
                      "fork" if "fork" in get_all_start_methods()
                      else "spawn") != "fork":
        pytest.skip("the poison kernel reaches the workers by fork inheritance")
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=4,poison=1.0")
    try:
        with pytest.raises(BackendError, match="unpicklable") as ei:
            engine.multiply(x)
        assert ei.value.strip_id == 0
        assert "_PoisonError" in "".join(getattr(ei.value, "__notes__", []))
        engine.backend.plan = FaultPlan()
        assert_identical(ref, engine.multiply(x), "after poison")
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# the soak: N=100 calls under seeded kills (satellite)
# --------------------------------------------------------------------------- #
def test_soak_100_multiplies_under_seeded_kills(monkeypatch):
    """Every call bit-identical or exactly one typed error; the pool never
    grows unbounded; no shared-memory leak at the end."""
    import multiprocessing

    matrix, x = problem(seed=13)
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix,
                          "seed=1302,kill=0.1,kill_mid=0.1,overflow=0.1",
                          retry=RetryPolicy(max_attempts=2, budget=4),
                          degraded_fallback=False)
    segments = list(engine.backend.segment_names())
    ok = errors = 0
    try:
        for i in range(100):
            try:
                out = engine.multiply(x)
            except BackendError:
                errors += 1  # exactly one typed error for that call
            else:
                assert_identical(ref, out, f"soak call {i}")
                ok += 1
            # bounded pool: worker slots are fixed; respawns replace, never add
            children = multiprocessing.active_children()
            assert len(children) <= WORKERS + 1  # +1: a just-killed zombie slot
        health = engine.health_stats()
        assert ok + errors == 100 and ok > 0
        assert sum(health["worker_deaths"]) > 0   # the plan genuinely fired
        assert health["respawns"] <= sum(health["worker_deaths"]) + WORKERS
    finally:
        engine.close()
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)
    assert not multiprocessing.active_children()


def test_zero_fault_plan_reports_all_zero_health(monkeypatch):
    matrix, x = problem()
    ref = reference(matrix, x)
    engine = chaos_engine(monkeypatch, matrix, "seed=1")  # all probabilities 0
    try:
        for _ in range(3):
            assert_identical(ref, engine.multiply(x), "clean")
        health = engine.health_stats()
        assert sum(health["worker_deaths"]) == 0
        assert health["respawns"] == health["retries"] == 0
        assert health["fallback_calls"] == health["deadline_hits"] == 0
        assert all(v == 0 for v in engine.backend.injected_stats().values())
    finally:
        engine.close()


def test_monolithic_engine_health_stats_parity():
    matrix, _x = problem()
    engine = SpMSpVEngine(matrix, default_context())
    health = engine.health_stats()
    assert health["worker_deaths"] == [] and health["fallback_calls"] == 0
    sharded = ShardedEngine(matrix, 2, default_context(backend="emulated"))
    assert sharded.health_stats()["retries"] == 0


# --------------------------------------------------------------------------- #
# shutdown escalation (satellite): SIGSTOPped workers, configurable ladder
# --------------------------------------------------------------------------- #
def _stopped_engine(timeouts):
    matrix, x = problem(seed=17)
    ctx = default_context(backend="process", backend_workers=WORKERS,
                          shutdown_timeouts=timeouts)
    engine = ShardedEngine(matrix, SHARDS, ctx, algorithm="bucket")
    engine.multiply(x)  # warm: workers are live and attached
    victim = engine.backend.worker_pids()[0]
    # a stopped process ignores the "stop" record AND never delivers its
    # pending SIGTERM — only the SIGKILL rung of the ladder can end it
    os.kill(victim, signal.SIGSTOP)
    return engine, victim


def test_shutdown_escalates_stop_terminate_kill_within_budget():
    engine, victim = _stopped_engine((0.2, 0.2, 0.5))
    segments = list(engine.backend.segment_names())
    t0 = time.monotonic()
    engine.close()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0  # 2.0/1.0/1.0 defaults would block ~3s per rung
    with pytest.raises(OSError):
        os.kill(victim, 0)  # the stopped worker is genuinely gone
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)


def test_gc_of_engine_with_stopped_worker_leaks_no_segment():
    """The weakref finalizer runs the same escalation ladder: dropping the
    last reference with a wedged worker still unlinks every segment."""
    engine, victim = _stopped_engine((0.1, 0.1, 0.5))
    segments = list(engine.backend.segment_names())
    del engine
    gc.collect()
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)
    with pytest.raises(OSError):
        os.kill(victim, 0)
