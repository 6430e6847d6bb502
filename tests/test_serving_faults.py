"""Serving layer under seeded fault injection (the ``"chaos"`` backend).

The contract: faults stay *scoped*.  A worker death or deadline hit fails
exactly the requests of the batch that hit it — typed errors, never wrong
answers — while the server keeps serving, ``serve_stats()`` accounts for
every injected event, and shutdown drains the queue without leaking a
``/dev/shm`` segment (same gc-checked pattern as ``test_faults.py``).
"""

import gc
import os

import numpy as np
import pytest

from repro.errors import BackendError, DeadlineError, ReproError
from repro.parallel import RetryPolicy, default_context
from repro.parallel.faults import ChaosBackend, FaultPlan
from repro.serve import (MultiplyQuery, PageRankQuery, QueryServer,
                         VirtualClock, random_query)

from conftest import random_csc, random_sparse_vector

N = 64
SHARDS = 4
WORKERS = 2


@pytest.fixture(scope="module")
def graphs():
    return {"g": random_csc(N, N, density=0.08, seed=5)}


def chaos_server(monkeypatch, graphs, spec, *, server_kwargs=None, **ctx_kwargs):
    """A sharded process-backed server rerouted through the chaos backend."""
    monkeypatch.setenv("REPRO_BACKEND_FAULTS", spec)
    ctx_kwargs.setdefault("retry", RetryPolicy())  # default: no retries
    ctx_kwargs.setdefault("degraded_fallback", False)
    ctx = default_context(backend="process", backend_workers=WORKERS,
                          **ctx_kwargs)
    kwargs = {"max_wait_s": 0.002, "max_batch": 8, **(server_kwargs or {})}
    server = QueryServer(graphs, ctx, shards=SHARDS, clock=VirtualClock(),
                         **kwargs)
    for key in server.group.keys():
        assert isinstance(server.group.engine(key).backend, ChaosBackend)
    return server


def reference_results(graphs, queries):
    from repro.core.engine import SpMSpVEngine
    ctx = default_context(backend="emulated")
    engines = {name: SpMSpVEngine(matrix, ctx, algorithm="bucket")
               for name, matrix in graphs.items()}
    return [engines[q.graph].multiply(q.x) for q in queries]


def drain(server, queries, timeout_s=None):
    futures = [server.submit(q, timeout_s=timeout_s) for q in queries]
    server.advance(0.002)
    assert all(f.done() for f in futures)
    return futures


# --------------------------------------------------------------------------- #
# per-request isolation
# --------------------------------------------------------------------------- #

def test_worker_deaths_fail_only_their_batch(monkeypatch, graphs):
    queries = [random_query(np.random.default_rng(i), graphs, ("multiply",))
               for i in range(4)]
    refs = reference_results(graphs, queries)
    server = chaos_server(monkeypatch, graphs, "seed=5,kill=1.0")
    try:
        doomed = drain(server, queries)
        for future in doomed:
            assert isinstance(future.exception(), BackendError)
        stats = server.serve_stats()
        assert stats["failed"] == 4
        assert stats["served"] == 0
        # the server itself survived: heal the plan, serve correctly
        for key in server.group.keys():
            server.group.engine(key).backend.plan = FaultPlan()
        healed = drain(server, queries)
        for future, ref in zip(healed, refs):
            out = future.result()
            assert np.array_equal(out.vector.indices, ref.vector.indices)
            assert np.array_equal(out.vector.values, ref.vector.values)
        stats = server.serve_stats()
        assert stats["served"] == 4 and stats["failed"] == 4
        assert sum(stats["health"]["g"]["worker_deaths"]) > 0
    finally:
        server.close()


def test_engine_deadline_hit_fails_batch_members_only(monkeypatch, graphs):
    queries = [random_query(np.random.default_rng(10 + i), graphs,
                            ("multiply",)) for i in range(3)]
    server = chaos_server(monkeypatch, graphs, "seed=11,delay=1.0,delay_s=0.5",
                          deadline=0.15)
    try:
        futures = drain(server, queries)
        for future in futures:
            exc = future.exception()
            assert isinstance(exc, DeadlineError)
            assert isinstance(exc, TimeoutError)
        stats = server.serve_stats()
        assert stats["failed"] == len(queries)
        assert stats["health"]["g"]["deadline_hits"] >= 1
        # batches after the hit are unaffected
        for key in server.group.keys():
            server.group.engine(key).backend.plan = FaultPlan()
        healed = drain(server, queries)
        assert all(f.exception() is None for f in healed)
    finally:
        server.close()


def test_retries_absorb_kills_bit_identically(monkeypatch, graphs):
    queries = [random_query(np.random.default_rng(20 + i), graphs,
                            ("multiply",)) for i in range(4)]
    refs = reference_results(graphs, queries)
    server = chaos_server(monkeypatch, graphs, "seed=1302,kill=0.2",
                          retry=RetryPolicy(max_attempts=3, budget=8),
                          degraded_fallback=True)
    try:
        for round_ in range(5):
            futures = drain(server, queries)
            for future, ref in zip(futures, refs):
                out = future.result()  # absorbed: never an error
                assert np.array_equal(out.vector.indices, ref.vector.indices)
                assert np.array_equal(out.vector.values, ref.vector.values)
        stats = server.serve_stats()
        assert stats["served"] == 20 and stats["failed"] == 0
    finally:
        server.close()


# --------------------------------------------------------------------------- #
# stats account for injected events
# --------------------------------------------------------------------------- #

def test_serve_stats_health_matches_injected_events(monkeypatch, graphs):
    queries = [random_query(np.random.default_rng(30 + i), graphs,
                            ("multiply",)) for i in range(4)]
    refs = reference_results(graphs, queries)
    server = chaos_server(monkeypatch, graphs, "seed=2,overflow=1.0")
    try:
        futures = drain(server, queries)
        for future, ref in zip(futures, refs):
            out = future.result()  # overflow storms never corrupt results
            assert np.array_equal(out.vector.values, ref.vector.values)
        backend = server.group.engine("g").backend
        injected = backend.injected_stats()
        assert injected["overflow"] == backend._call_index  # every call stormed
        stats = server.serve_stats()
        assert stats["served"] == 4 and stats["failed"] == 0
        assert stats["health"]["g"]["respawns"] == 0
    finally:
        server.close()


def test_failed_counter_matches_killed_batches(monkeypatch, graphs):
    """Seeded kill probability: every submitted request is accounted for as
    exactly one of served / failed, and failures equal the members of the
    batches whose call died (fused, so each batch is one backend call)."""
    server = chaos_server(monkeypatch, graphs, "seed=7,kill=0.3",
                          server_kwargs={"block_mode": "fused"})
    rng = np.random.default_rng(0)
    total = 20
    try:
        futures = []
        for i in range(total):
            futures.append(server.submit(
                random_query(rng, graphs, ("multiply",))))
            if (i + 1) % 4 == 0:
                server.advance(0.002)
        server.advance(0.002)
        outcomes = [f.exception() for f in futures]
        failed = sum(1 for e in outcomes if e is not None)
        assert all(e is None or isinstance(e, BackendError) for e in outcomes)
        stats = server.serve_stats()
        assert stats["submitted"] == total
        assert stats["served"] + stats["failed"] == total
        assert stats["failed"] == failed
        assert 0 < failed < total  # the plan genuinely fired, and not on all
    finally:
        server.close()


# --------------------------------------------------------------------------- #
# shutdown: drain without leaks
# --------------------------------------------------------------------------- #

def test_shutdown_drains_queue_without_shm_leak(monkeypatch, graphs):
    import multiprocessing

    queries = [random_query(np.random.default_rng(40 + i), graphs,
                            ("multiply",)) for i in range(3)]
    queries.append(PageRankQuery(graph="g", personalization=(1, 2)))
    server = chaos_server(monkeypatch, graphs, "seed=9",  # zero-probability plan
                          server_kwargs={"max_wait_s": 10.0, "max_batch": 64})
    futures = [server.submit(q) for q in queries]
    # force the lazy pagerank engine into existence before snapshotting
    assert not all(f.done() for f in futures)
    segments = []
    for key in server.group.keys():
        segments.extend(server.group.engine(key).backend.segment_names())
    server.close(drain=True)  # executes the still-queued window
    for q, f in zip(queries, futures):
        assert f.done() and f.exception() is None
    gc.collect()
    assert segments  # the snapshot actually covered the pool
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)
    assert not multiprocessing.active_children()


def test_close_without_drain_fails_queued_cleanly(monkeypatch, graphs):
    from repro.errors import ServerClosedError

    server = chaos_server(monkeypatch, graphs, "seed=3",
                          server_kwargs={"max_wait_s": 10.0, "max_batch": 64})
    future = server.submit(random_query(np.random.default_rng(1), graphs,
                                        ("multiply",)))
    segments = []
    for key in server.group.keys():
        segments.extend(server.group.engine(key).backend.segment_names())
    server.close(drain=False)
    assert isinstance(future.exception(), ServerClosedError)
    gc.collect()
    assert not any(os.path.exists("/dev/shm/" + n) for n in segments)
