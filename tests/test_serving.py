"""Serving-layer suite: coalescing properties, determinism, backpressure,
deadlines, and demux correctness.

The load-bearing properties (ISSUE 8):

* **bit-identity** — every coalesced response equals running the same query
  alone through ``SpMSpVEngine.multiply`` (or solo ``pagerank``/``bfs``),
* **determinism** — batch composition is a pure function of
  ``(seed, arrival schedule, max_wait_s, max_batch)``; two same-seed runs
  produce identical ``batch_log`` and ``serve_stats()``,
* **deadline semantics** — queued expiry never touches the engine; mid-batch
  expiry fails alone without poisoning batchmates,
* **backpressure** — bounded queue rejects or blocks, configurably.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from conftest import random_csc, random_sparse_vector
from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core.engine import SpMSpVEngine
from repro.errors import (DeadlineError, NotSupportedError, ServerClosedError,
                          ServerOverloadedError)
from repro.formats.sparse_vector import SparseVector
from repro.formats.vector_block import SparseVectorBlock
from repro.graphs import rmat
from repro.parallel.context import default_context
from repro.semiring import get_semiring
from repro.serve import (BFSQuery, MultiplyQuery, PageRankQuery, QueryServer,
                         VirtualClock, generate_schedule, random_query, replay)

N = 150


@pytest.fixture(scope="module")
def graphs():
    return {"a": random_csc(N, N, density=0.05, seed=11),
            "b": random_csc(N, N, density=0.03, seed=12)}


@pytest.fixture(scope="module")
def solo_engines(graphs):
    ctx = default_context()
    return {name: SpMSpVEngine(matrix, ctx, algorithm="bucket")
            for name, matrix in graphs.items()}


def make_server(graphs, **kwargs):
    kwargs.setdefault("clock", VirtualClock())
    kwargs.setdefault("max_wait_s", 0.002)
    kwargs.setdefault("max_batch", 8)
    return QueryServer(graphs, default_context(), **kwargs)


def _stats_fingerprint(stats):
    """The deterministic slice of serve_stats (drops engine-health timings)."""
    return {k: stats[k] for k in
            ("submitted", "served", "rejected", "failed", "expired_queued",
             "expired_mid_batch", "batches", "queue_depth", "peak_queue_depth",
             "batch_size_histogram", "coalesce_ratio",
             "latency_p50_s", "latency_p99_s")}


# --------------------------------------------------------------------------- #
# property: coalesced responses are bit-identical to solo engine calls
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("max_batch", [1, 4, 16])
def test_multiply_responses_bit_identical_to_solo(graphs, solo_engines, seed,
                                                  max_batch):
    schedule = generate_schedule(
        graphs, seed=seed, num_requests=30, mean_gap_s=0.0004,
        kinds=("multiply",), semirings=("plus_times", "min_plus"))
    with make_server(graphs, max_batch=max_batch) as server:
        outcomes = replay(server, schedule)
        for outcome in outcomes:
            query = outcome.item.query
            served = outcome.future.result()
            ref = solo_engines[query.graph].multiply(
                query.x, semiring=get_semiring(query.semiring))
            assert np.array_equal(served.vector.indices, ref.vector.indices)
            assert np.array_equal(served.vector.values, ref.vector.values)
            assert served.vector.values.dtype == ref.vector.values.dtype


@pytest.mark.parametrize("seed", [5, 6])
def test_mixed_kind_responses_bit_identical(graphs, solo_engines, seed):
    ctx = default_context()
    schedule = generate_schedule(
        graphs, seed=seed, num_requests=24, mean_gap_s=0.0004,
        kinds=("multiply", "pagerank", "bfs"))
    with make_server(graphs) as server:
        outcomes = replay(server, schedule)
        for outcome in outcomes:
            query = outcome.item.query
            served = outcome.future.result()
            if isinstance(query, MultiplyQuery):
                ref = solo_engines[query.graph].multiply(query.x)
                assert np.array_equal(served.vector.indices, ref.vector.indices)
                assert np.array_equal(served.vector.values, ref.vector.values)
            elif isinstance(query, PageRankQuery):
                ref = pagerank(graphs[query.graph], ctx,
                               personalization=np.array(query.personalization))
                assert np.array_equal(served, ref.scores)
            else:
                ref = bfs(graphs[query.graph], query.source, ctx)
                assert np.array_equal(served.levels, ref.levels)
                assert np.array_equal(served.parents, ref.parents)


def test_masked_multiply_batch_bit_identical(graphs, solo_engines):
    rng = np.random.default_rng(42)
    queries = []
    for i in range(6):
        x = random_sparse_vector(N, 10, seed=100 + i)
        mask_idx = np.sort(rng.choice(N, size=30, replace=False))
        mask = SparseVector.full_like_indices(N, mask_idx.astype(np.int64), 1.0)
        queries.append(MultiplyQuery(graph="a", x=x, mask=mask,
                                     mask_complement=True))
    with make_server(graphs, max_batch=6) as server:
        futures = [server.submit(q) for q in queries]
        assert all(f.done() for f in futures)  # size cap flushed inline
        for query, future in zip(queries, futures):
            ref = solo_engines["a"].multiply(query.x, mask=query.mask,
                                             mask_complement=True)
            served = future.result()
            assert np.array_equal(served.vector.indices, ref.vector.indices)
            assert np.array_equal(served.vector.values, ref.vector.values)


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_server_bit_identical(graphs, solo_engines, shards):
    schedule = generate_schedule(graphs, seed=9, num_requests=16,
                                 mean_gap_s=0.0004, kinds=("multiply",))
    with make_server(graphs, shards=shards) as server:
        outcomes = replay(server, schedule)
        for outcome in outcomes:
            query = outcome.item.query
            served = outcome.future.result()
            ref = solo_engines[query.graph].multiply(query.x)
            assert np.array_equal(served.vector.indices, ref.vector.indices)
            assert np.array_equal(served.vector.values, ref.vector.values)


@pytest.mark.parametrize("algorithm,kernels", [
    ("bucket", {"bucket", "bucket_block"}), ("sort", {"sort"})])
def test_served_bfs_runs_the_server_kernel(algorithm, kernels):
    """Served BFS levels run ``QueryServer(algorithm=)`` on the group's
    engines — never another kernel, even as a scale-free frontier densifies."""
    matrix = rmat(9, 8, seed=3)
    sources = [0, 5, 17, 101]
    with make_server({"g": matrix}, max_batch=len(sources),
                     algorithm=algorithm) as server:
        futures = [server.submit(BFSQuery(graph="g", source=s))
                   for s in sources]
        for source, future in zip(sources, futures):
            assert np.array_equal(future.result().levels,
                                  bfs(matrix, source).levels)
        history = server.group.engine("g").history
        assert history and {c.algorithm for c in history} <= kernels


# --------------------------------------------------------------------------- #
# property: batch composition is a pure function of (seed, schedule, knobs)
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("max_wait_s,max_batch", [(0.002, 8), (0.0005, 4)])
def test_batch_composition_deterministic(graphs, seed, max_wait_s, max_batch):
    schedule = generate_schedule(
        graphs, seed=seed, num_requests=40, mean_gap_s=0.0005,
        kinds=("multiply", "pagerank", "bfs"))
    logs, stats = [], []
    for _ in range(2):
        with make_server(graphs, max_wait_s=max_wait_s,
                         max_batch=max_batch) as server:
            outcomes = replay(server, schedule)
            assert all(o.future is not None and o.future.done()
                       for o in outcomes)
            logs.append(list(server.batch_log))
            stats.append(_stats_fingerprint(server.serve_stats()))
    assert logs[0] == logs[1]
    assert stats[0] == stats[1]
    assert stats[0]["served"] == 40


def test_knobs_change_composition(graphs):
    """Sanity check that the knobs actually matter: no coalescing with
    max_batch=1, full coalescing with a huge window."""
    schedule = generate_schedule(graphs, seed=3, num_requests=20,
                                 mean_gap_s=0.0002, kinds=("multiply",),
                                 semirings=("plus_times",))
    with make_server(graphs, max_batch=1) as server:
        replay(server, schedule)
        assert all(len(ids) == 1 for _, ids in server.batch_log)
        solo_batches = server.serve_stats()["batches"]
    with make_server(graphs, max_wait_s=1.0, max_batch=64) as server:
        replay(server, schedule)
        coalesced_stats = server.serve_stats()
    assert coalesced_stats["batches"] < solo_batches
    assert coalesced_stats["coalesce_ratio"] > 1.0


def test_batches_group_by_coalesce_key(graphs):
    """A batch never mixes graphs, semirings, or kinds."""
    schedule = generate_schedule(
        graphs, seed=13, num_requests=40, mean_gap_s=0.0001,
        kinds=("multiply", "bfs"), semirings=("plus_times", "min_plus"))
    with make_server(graphs, max_wait_s=0.01, max_batch=64) as server:
        outcomes = replay(server, schedule)
        # request ids are assigned in submission order, i.e. schedule order
        id_to_query = {rid: o.item.query for rid, o in enumerate(outcomes)}
        for key, ids in server.batch_log:
            keys = {id_to_query[i].coalesce_key() for i in ids}
            assert keys == {key}


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #

class TickingClock(VirtualClock):
    """A virtual clock that self-advances on every ``now()`` — lets a test
    make wall time pass *during* batch execution, deterministically."""

    def __init__(self, tick: float):
        super().__init__()
        self.tick = tick

    def now(self) -> float:
        current = super().now()
        self.advance(self.tick)
        return current


def test_queued_expiry_rejected_before_engine(graphs):
    query = random_query(np.random.default_rng(0), graphs, ("multiply",))
    with make_server(graphs, max_wait_s=0.010, max_batch=64) as server:
        engine = server.group.engine("a")
        calls_before = len(engine.history)
        doomed = server.submit(query, timeout_s=0.004)
        healthy = server.submit(query, timeout_s=1.0)
        server.advance(0.010)  # window flush lands past doomed's deadline
        assert isinstance(doomed.exception(), DeadlineError)
        assert healthy.exception() is None
        stats = server.serve_stats()
        assert stats["expired_queued"] == 1
        assert stats["served"] == 1
        # the doomed request never touched the engine: exactly one batch
        # (the healthy singleton) executed
        assert stats["batches"] == 1


def test_mid_batch_expiry_fails_alone(graphs):
    clock = TickingClock(tick=0.001)
    query = random_query(np.random.default_rng(1), graphs, ("multiply",))
    with make_server(graphs, max_wait_s=0.0001, max_batch=64,
                     clock=clock) as server:
        # arrival at t=0.000; batch-start check sees ~0.003, the post-
        # execution check ~0.004 — a 0.0035 deadline passes the first
        # check and fails the second: mid-batch expiry
        doomed = server.submit(query, timeout_s=0.0035)
        healthy = server.submit(query, timeout_s=10.0)
        server.pump()
        assert isinstance(doomed.exception(), DeadlineError)
        assert "during batch execution" in str(doomed.exception())
        assert healthy.exception() is None  # batchmate unpoisoned
        stats = server.serve_stats()
        assert stats["expired_mid_batch"] == 1
        assert stats["served"] == 1


def test_default_timeout_composes_onto_engine_context(graphs):
    server = make_server(graphs, default_timeout_s=0.5)
    try:
        assert server.ctx.deadline == 0.5
    finally:
        server.close()
    # a stricter context default must survive a looser serving timeout
    ctx = default_context().with_deadline(0.1)
    server = QueryServer(graphs, ctx, default_timeout_s=0.5,
                         clock=VirtualClock())
    try:
        assert server.ctx.deadline == 0.1
    finally:
        server.close()


# --------------------------------------------------------------------------- #
# backpressure and lifecycle
# --------------------------------------------------------------------------- #

def test_overload_reject(graphs):
    query = random_query(np.random.default_rng(2), graphs, ("multiply",))
    with make_server(graphs, max_wait_s=1.0, max_batch=64, max_queue=4,
                     overload="reject") as server:
        for _ in range(4):
            server.submit(query)
        with pytest.raises(ServerOverloadedError):
            server.submit(query)
        stats = server.serve_stats()
        assert stats["rejected"] == 1
        assert stats["queue_depth"] == 4


def test_overload_block_virtual_force_flushes_oldest(graphs):
    query = random_query(np.random.default_rng(2), graphs, ("multiply",))
    with make_server(graphs, max_wait_s=1.0, max_batch=64, max_queue=4,
                     overload="block") as server:
        futures = [server.submit(query) for _ in range(6)]
        # submitting the 5th forced the oldest window out — deterministically
        assert all(f.done() for f in futures[:4])
        assert server.serve_stats()["rejected"] == 0
    assert all(f.done() for f in futures)


def test_submit_after_close_raises(graphs):
    server = make_server(graphs)
    server.close()
    query = random_query(np.random.default_rng(0), graphs, ("multiply",))
    with pytest.raises(ServerClosedError):
        server.submit(query)
    server.close()  # idempotent


def test_close_drain_executes_pending(graphs, solo_engines):
    query = random_query(np.random.default_rng(4), graphs, ("multiply",))
    server = make_server(graphs, max_wait_s=10.0, max_batch=64)
    future = server.submit(query)
    server.close(drain=True)
    ref = solo_engines[query.graph].multiply(query.x)
    assert np.array_equal(future.result().vector.values, ref.vector.values)


def test_close_without_drain_fails_pending(graphs):
    query = random_query(np.random.default_rng(4), graphs, ("multiply",))
    server = make_server(graphs, max_wait_s=10.0, max_batch=64)
    future = server.submit(query)
    server.close(drain=False)
    assert isinstance(future.exception(), ServerClosedError)


def test_unknown_graph_and_bad_query_rejected(graphs):
    with make_server(graphs) as server:
        with pytest.raises(KeyError):
            server.submit(MultiplyQuery(graph="nope",
                                        x=random_sparse_vector(N, 4, seed=0)))
        with pytest.raises(TypeError):
            server.submit("not a query")


# --------------------------------------------------------------------------- #
# bad settings and failing batches never take the pump down
# --------------------------------------------------------------------------- #

def _pump_threads():
    return {t for t in threading.enumerate() if t.name == "repro-serve-pump"}


def test_bad_settings_rejected_before_the_pump_starts(graphs):
    pumps = _pump_threads()
    with pytest.raises(ValueError):
        QueryServer(graphs, default_context(), block_mode="auto")
    with pytest.raises(NotSupportedError):
        QueryServer(graphs, default_context(), algorithm="auto")
    assert _pump_threads() <= pumps


def test_failed_batch_fails_alone_and_the_pump_keeps_serving(
        graphs, solo_engines, monkeypatch):
    x = random_sparse_vector(N, 6, seed=7)
    with QueryServer(graphs, default_context(), max_wait_s=0.001,
                     max_batch=8) as server:
        run_batch = server._run_batch
        calls = []

        def fail_first(key, queries):
            calls.append(key)
            if len(calls) == 1:
                raise RuntimeError("injected batch failure")
            return run_batch(key, queries)

        monkeypatch.setattr(server, "_run_batch", fail_first)
        first = server.submit(MultiplyQuery(graph="a", x=x))
        with pytest.raises(RuntimeError, match="injected"):
            first.result(timeout=10.0)
        served = server.submit(MultiplyQuery(graph="a", x=x)).result(timeout=10.0)
        assert server.serve_stats()["failed"] == 1
    ref = solo_engines["a"].multiply(x)
    assert np.array_equal(served.vector.indices, ref.vector.indices)
    assert np.array_equal(served.vector.values, ref.vector.values)


def test_looped_server_packs_no_block(graphs, solo_engines, monkeypatch):
    packs = []
    pack = SparseVectorBlock.from_vectors.__func__

    def counting_pack(cls, xs):
        packs.append(len(xs))
        return pack(cls, xs)

    monkeypatch.setattr(SparseVectorBlock, "from_vectors",
                        classmethod(counting_pack))
    xs = [random_sparse_vector(N, 10, seed=300 + i) for i in range(6)]
    for mode, expected_packs in (("looped", []), ("fused", [6])):
        packs.clear()
        with make_server(graphs, max_batch=6, block_mode=mode) as server:
            futures = [server.submit(MultiplyQuery(graph="a", x=x)) for x in xs]
            for x, future in zip(xs, futures):
                ref = solo_engines["a"].multiply(x)
                served = future.result()
                assert np.array_equal(served.vector.indices, ref.vector.indices)
                assert np.array_equal(served.vector.values, ref.vector.values)
        assert packs == expected_packs, mode


# --------------------------------------------------------------------------- #
# wall-clock mode (thread-backed): end-to-end sanity
# --------------------------------------------------------------------------- #

def test_wall_clock_serves_concurrent_clients(graphs, solo_engines):
    from repro.serve import run_closed_loop
    queries = [[random_query(np.random.default_rng(1000 + 31 * c + j), graphs,
                             ("multiply",)) for j in range(6)]
               for c in range(8)]
    with QueryServer(graphs, default_context(), max_wait_s=0.002, max_batch=8,
                     max_queue=512, overload="block") as server:
        outcome = run_closed_loop(server, queries)
        stats = server.serve_stats()
    assert outcome["ok"] == 48 and outcome["errors"] == 0
    assert stats["served"] == 48
    assert stats["latency_p50_s"] is not None


def test_serve_stats_shape(graphs):
    schedule = generate_schedule(graphs, seed=21, num_requests=10,
                                 mean_gap_s=0.0005, kinds=("multiply",))
    with make_server(graphs) as server:
        replay(server, schedule)
        stats = server.serve_stats()
    assert stats["submitted"] == 10
    assert stats["served"] == 10
    assert sum(size * count for size, count
               in stats["batch_size_histogram"].items()) == 10
    assert stats["coalesce_ratio"] == pytest.approx(
        stats["served"] / stats["batches"])
    assert set(stats["health"]) == {"a", "b"}
    for health in stats["health"].values():
        assert health["retries"] == 0
