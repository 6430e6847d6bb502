"""The query server: bounded queue -> coalescer -> batch execution.

Request lifecycle::

    submit(query)                       [caller thread]
      |  bounded-queue admission: reject (ServerOverloadedError) or block
      v
    coalescer group (same coalesce_key)
      |  flush: size cap hit, or window `max_wait_s` expired
      v
    batch execution                     [pump thread / inline under VirtualClock]
      |  queued-expired members rejected with DeadlineError (never touch
      |  the engine); the rest run as ONE batch (looped, or a fused block)
      v
    demux: per-request futures resolve with their slice of the batch

The server holds one persistent engine per named graph in an
:class:`~repro.core.sharded.EngineGroup` (monolithic, or sharded when
``shards`` is given — the process backend's zero-copy plane included), plus
a lazily-built column-stochastic engine per graph for PageRank queries.
All execution happens on one pump so batches run serially — the throughput
win comes from coalescing (one engine entry per batch, and with
``block_mode="fused"`` one union gather / scatter / merge per batch, the
paper's block-kernel economics), not from racing engines.

Under a :class:`~repro.serve.clock.VirtualClock` there is no pump thread:
``submit`` flushes size-capped groups inline and :meth:`advance` moves time
and flushes expired windows, making every batching decision replayable.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.bfs import bfs_multi_source
from ..algorithms.pagerank import column_stochastic, pagerank_block
from ..core.dispatch import get_algorithm
from ..core.engine import SpMSpVEngine, check_block_mode
from ..core.sharded import EngineGroup, ShardedEngine
from ..errors import DeadlineError, ServerClosedError, ServerOverloadedError
from ..formats.csc import CSCMatrix
from ..formats.vector_block import SparseVectorBlock
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext, default_context
from ..semiring import get_semiring
from .clock import WallClock
from .coalescer import Batch, Coalescer
from .requests import (BFSAnswer, BFSQuery, MultiplyQuery, PageRankQuery,
                       Request, ServeFuture, UpdateAck, UpdateQuery)


class QueryServer:
    """Serve multiply / PageRank / BFS queries against named graphs.

    Parameters
    ----------
    graphs:
        ``name -> Graph | CSCMatrix``; each becomes a member engine the
        server owns for its lifetime.
    ctx:
        Execution context for every engine.  ``default_timeout_s`` is
        composed onto it with ``with_deadline(..., tighten=True)`` — the
        engine-level backstop under the request-level deadline checks.
    max_wait_s / max_batch:
        Coalescing window and size cap.  ``max_batch=1`` disables
        coalescing (the benchmark's baseline).
    max_queue:
        Bound on requests queued in the coalescer.  At capacity,
        ``overload="reject"`` raises :class:`ServerOverloadedError` from
        ``submit`` and ``overload="block"`` waits for space (under a
        virtual clock, blocking force-flushes the oldest group instead —
        deterministically — since there is no second thread to drain).
    default_timeout_s:
        Deadline given to requests that don't carry their own.
    block_mode:
        Forwarded to the engines' blocked entry points; the default
        ``"looped"`` runs one kernel call per request without packing a
        block (the faster path at ``num_threads=1``), and ``"fused"`` runs
        every eligible batch through the fused block kernel (ineligible
        ones quietly loop, bit-identically).  Any other value raises
        ``ValueError`` here.
    algorithm:
        Kernel forced on multiply, PageRank and BFS batches; the default
        ``"bucket"`` is the fused kernel's host algorithm.  An unknown name
        raises :class:`~repro.errors.NotSupportedError` here.
    shards:
        When given, members are :class:`~repro.core.sharded.ShardedEngine`
        instances over that many row strips (backend from ``ctx``).
    clock:
        A :class:`WallClock` (default; spawns the pump thread) or a
        :class:`VirtualClock` (single-threaded deterministic mode).
    latency_samples:
        Size of the bounded latency reservoir behind the percentile stats.
        A server targeting millions of requests must not grow per-request
        state, so latencies are reservoir-sampled (Algorithm R, seeded):
        every served request is equally likely to be in the sample, which
        keeps p50/p99 statistically honest at O(latency_samples) memory.
    batch_log_cap:
        Bound on the executed-batch composition log (a ring: the oldest
        entries fall off).  The determinism suite replays short schedules,
        so a few thousand retained batches is plenty.
    """

    def __init__(self, graphs: Mapping[str, Union[Graph, CSCMatrix]],
                 ctx: Optional[ExecutionContext] = None, *,
                 max_wait_s: float = 0.002,
                 max_batch: int = 8,
                 max_queue: int = 64,
                 overload: str = "reject",
                 default_timeout_s: Optional[float] = None,
                 block_mode: str = "looped",
                 algorithm: str = "bucket",
                 shards: Optional[int] = None,
                 clock=None,
                 latency_samples: int = 65536,
                 batch_log_cap: int = 65536):
        if overload not in ("reject", "block"):
            raise ValueError(f"overload must be 'reject' or 'block', got {overload!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if not graphs:
            raise ValueError("QueryServer needs at least one graph")
        # bad settings fail here, before any engine or the pump thread exists
        check_block_mode(block_mode)
        get_algorithm(algorithm)
        self.clock = clock if clock is not None else WallClock()
        base_ctx = ctx if ctx is not None else default_context()
        self.ctx = (base_ctx.with_deadline(default_timeout_s, tighten=True)
                    if default_timeout_s is not None else base_ctx)
        self.max_queue = int(max_queue)
        self.overload = overload
        self.default_timeout_s = default_timeout_s
        self.block_mode = block_mode
        self.algorithm = algorithm
        self._shards = shards

        self._matrices: Dict[str, CSCMatrix] = {
            name: (g.matrix if isinstance(g, Graph) else g)
            for name, g in graphs.items()}
        self.group = EngineGroup(self._matrices, self.ctx, shards=shards)
        #: column-stochastic engines for PageRank, built on first use per graph
        self._pagerank_engines: Dict[str, Union[SpMSpVEngine, ShardedEngine]] = {}

        self._coalescer = Coalescer(max_wait_s, max_batch)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._next_id = 0
        if int(latency_samples) < 1:
            raise ValueError(f"latency_samples must be >= 1, got {latency_samples}")
        if int(batch_log_cap) < 1:
            raise ValueError(f"batch_log_cap must be >= 1, got {batch_log_cap}")
        #: executed batch compositions, ``(key, (request ids...))`` — the
        #: determinism suite replays schedules and compares these logs; a
        #: bounded ring, so a long-lived server never grows it past the cap
        self.batch_log: Deque[Tuple[Tuple, Tuple[int, ...]]] = \
            deque(maxlen=int(batch_log_cap))
        self._stats = {
            "submitted": 0, "served": 0, "rejected": 0, "failed": 0,
            "expired_queued": 0, "expired_mid_batch": 0, "batches": 0,
        }
        self._batch_sizes: Dict[int, int] = {}
        #: bounded latency reservoir (Algorithm R): ``_latencies[:k]`` is a
        #: uniform sample of all ``_latency_count`` observations, where
        #: ``k = min(_latency_count, latency_samples)``
        self._latency_cap = int(latency_samples)
        self._latencies = np.empty(self._latency_cap, dtype=np.float64)
        self._latency_count = 0
        self._latency_rng = np.random.default_rng(0x5EED)
        self._peak_depth = 0

        self._pump: Optional[threading.Thread] = None
        if not getattr(self.clock, "virtual", False):
            self._pump = threading.Thread(target=self._pump_loop,
                                          name="repro-serve-pump", daemon=True)
            self._pump.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, query, *, timeout_s: Optional[float] = None) -> ServeFuture:
        """Accept one query; returns the future its response resolves on.

        Raises :class:`ServerOverloadedError` when the queue is full in
        ``"reject"`` mode and :class:`ServerClosedError` after :meth:`close`.
        """
        if not isinstance(query, (MultiplyQuery, PageRankQuery, BFSQuery,
                                  UpdateQuery)):
            raise TypeError(f"not a query: {query!r}")
        if query.graph not in self._matrices:
            raise KeyError(f"unknown graph {query.graph!r}; "
                           f"serving {sorted(self._matrices)}")
        inline: List[Batch] = []
        with self._cond:
            if self._closed:
                raise ServerClosedError("server is closed")
            while self._coalescer.depth >= self.max_queue:
                if self.overload == "reject":
                    self._stats["rejected"] += 1
                    raise ServerOverloadedError(
                        f"queue at capacity ({self.max_queue})")
                if getattr(self.clock, "virtual", False):
                    # no pump thread to wait on: relieve pressure by
                    # force-flushing the oldest window, deterministically
                    batch = self._coalescer.flush_oldest()
                    if batch is not None:
                        inline.append(batch)
                else:
                    self._cond.wait()
                    if self._closed:
                        raise ServerClosedError("server closed while blocked")
            now = self.clock.now()
            timeout = timeout_s if timeout_s is not None else self.default_timeout_s
            request = Request(id=self._next_id, query=query, arrival=now,
                              deadline=(now + timeout) if timeout is not None
                              else None)
            self._next_id += 1
            self._stats["submitted"] += 1
            full = self._coalescer.add(request, now)
            self._peak_depth = max(self._peak_depth, self._coalescer.depth)
            if full is not None:
                # size-capped batches run on the submitting thread, off the
                # lock — the pump only handles window expiries
                inline.append(full)
            self._cond.notify_all()
        for batch in inline:
            self._execute(batch)
        return request.future

    def advance(self, seconds: float) -> None:
        """Move a virtual clock forward and flush every window that expired.

        Only meaningful with a :class:`VirtualClock`; the wall-clock pump
        does this continuously on its own thread.
        """
        if not getattr(self.clock, "virtual", False):
            raise RuntimeError("advance() requires a VirtualClock")
        self.clock.advance(seconds)
        self.pump()

    def pump(self) -> int:
        """Flush due windows now; returns the number of batches executed."""
        with self._cond:
            batches = self._coalescer.due(self.clock.now())
        for batch in batches:
            self._execute(batch)
        return len(batches)

    # ------------------------------------------------------------------ #
    # stats / lifecycle
    # ------------------------------------------------------------------ #
    def serve_stats(self) -> Dict[str, object]:
        """Serving-level health: queue, batching, latency, engine health.

        Lock discipline: only an O(latency_samples) snapshot happens under
        ``self._lock`` — the percentile sort and the per-engine
        ``health_stats()`` calls (which reach into backend state) run
        *outside* it, so stats polling never stalls concurrent ``submit``
        callers for more than the copy.  The member engines live as long
        as the server, so reading their health without the serving lock is
        safe.
        """
        with self._lock:
            count = min(self._latency_count, self._latency_cap)
            latencies = self._latencies[:count].copy()
            stats: Dict[str, object] = dict(self._stats)
            stats["queue_depth"] = self._coalescer.depth
            stats["peak_queue_depth"] = self._peak_depth
            stats["batch_size_histogram"] = dict(sorted(self._batch_sizes.items()))
            stats["latency_observed"] = self._latency_count
            served = self._stats["served"]
            batches = self._stats["batches"]
            engines = [(str(key), self.group.engine(key))
                       for key in self.group.keys()]
        latencies.sort()
        stats["coalesce_ratio"] = served / batches if batches else 0.0
        stats["latency_samples"] = int(len(latencies))
        stats["latency_p50_s"] = _percentile(latencies, 0.50)
        stats["latency_p99_s"] = _percentile(latencies, 0.99)
        stats["health"] = {name: engine.health_stats()
                           for name, engine in engines}
        return stats

    def close(self, *, drain: bool = True) -> None:
        """Stop serving.  ``drain=True`` executes every queued request
        first; ``drain=False`` fails them with :class:`ServerClosedError`.
        Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            remaining = self._coalescer.flush_all()
            self._cond.notify_all()
        if drain:
            for batch in remaining:
                self._execute(batch)
        else:
            for batch in remaining:
                for request in batch.requests:
                    request.future.set_exception(
                        ServerClosedError("server closed before execution"))
        if self._pump is not None:
            self._pump.join(timeout=5.0)
        for engine in self._pagerank_engines.values():
            engine.close()
        self._pagerank_engines.clear()
        self.group.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _pump_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = self.clock.now()
                batches = self._coalescer.due(now)
                if not batches:
                    next_due = self._coalescer.next_due()
                    self._cond.wait(None if next_due is None
                                    else max(next_due - now, 0.0))
                    continue
            for batch in batches:
                self._execute(batch)
            with self._cond:
                self._cond.notify_all()  # wake blocked submitters

    def _execute(self, batch: Batch) -> None:
        now = self.clock.now()
        live: List[Request] = []
        with self._lock:
            self.batch_log.append(
                (batch.key, tuple(r.id for r in batch.requests)))
        for request in batch.requests:
            if request.expired(now):
                with self._lock:
                    self._stats["expired_queued"] += 1
                request.future.set_exception(DeadlineError(
                    f"request {request.id} expired while queued "
                    f"(deadline {request.deadline:.6f}, now {now:.6f})"))
            else:
                live.append(request)
        if not live:
            return
        with self._lock:
            self._stats["batches"] += 1
            self._batch_sizes[len(live)] = self._batch_sizes.get(len(live), 0) + 1
        try:
            results = self._run_batch(batch.key, [r.query for r in live])
        except Exception as exc:
            # a failed batch (worker death past retries, backend deadline,
            # a kernel error, ...) fails its own members — never the server
            # or its pump
            with self._lock:
                self._stats["failed"] += len(live)
            for request in live:
                request.future.set_exception(exc)
            return
        done = self.clock.now()
        for request, result in zip(live, results):
            if request.expired(done):
                with self._lock:
                    self._stats["expired_mid_batch"] += 1
                request.future.set_exception(DeadlineError(
                    f"request {request.id} expired during batch execution "
                    f"(deadline {request.deadline:.6f}, now {done:.6f})"))
            else:
                with self._lock:
                    self._stats["served"] += 1
                    self._record_latency_locked(done - request.arrival)
                request.future.set_result(result)

    def _record_latency_locked(self, latency: float) -> None:
        """Reservoir-sample one latency (Algorithm R; caller holds the lock)."""
        i = self._latency_count
        self._latency_count += 1
        if i < self._latency_cap:
            self._latencies[i] = latency
        else:
            j = int(self._latency_rng.integers(0, i + 1))
            if j < self._latency_cap:
                self._latencies[j] = latency

    def _run_batch(self, key: Tuple, queries: Sequence) -> List[object]:
        kind = key[0]
        if kind == "multiply":
            return self._run_multiply(key, queries)
        if kind == "pagerank":
            return self._run_pagerank(key, queries)
        if kind == "bfs":
            return self._run_bfs(key, queries)
        if kind == "update":
            return self._run_update(key, queries)
        raise ValueError(f"unknown batch kind {kind!r}")  # pragma: no cover

    def _run_multiply(self, key: Tuple, queries: Sequence[MultiplyQuery]
                      ) -> List[object]:
        _, graph, semiring_name, mask_complement = key
        xs = [q.x for q in queries]
        masks = [q.mask for q in queries]
        if all(m is None for m in masks):
            masks = None
        semiring = get_semiring(semiring_name)
        if self.block_mode == "fused" and len(xs) >= 2 \
                and len({x.dtype for x in xs}) == 1:
            block = SparseVectorBlock.from_vectors(xs)
            return self.group.multiply_block(
                graph, block, semiring=semiring, masks=masks,
                mask_complement=mask_complement, algorithm=self.algorithm,
                block_mode=self.block_mode)
        return self.group.multiply_many(
            graph, xs, semiring=semiring, masks=masks,
            mask_complement=mask_complement, algorithm=self.algorithm,
            block_mode=self.block_mode)

    def _run_pagerank(self, key: Tuple, queries: Sequence[PageRankQuery]
                      ) -> List[np.ndarray]:
        _, graph, damping, tol, max_iterations = key
        engine = self._pagerank_engine(graph)
        result = pagerank_block(
            self._matrices[graph],
            [np.asarray(q.personalization, dtype=np.int64) for q in queries],
            engine=engine, algorithm=self.algorithm, damping=damping, tol=tol,
            max_iterations=max_iterations, block_mode=self.block_mode)
        return [result.scores[i] for i in range(len(queries))]

    def _run_bfs(self, key: Tuple, queries: Sequence[BFSQuery]
                 ) -> List[BFSAnswer]:
        _, graph, max_levels = key
        engine = self.group.engine(graph)
        result = bfs_multi_source(
            self._matrices[graph], [q.source for q in queries],
            engine=engine, algorithm=self.algorithm, max_levels=max_levels,
            block_mode=self.block_mode)
        return [BFSAnswer(source=q.source, levels=result.levels[i],
                          parents=result.parents[i])
                for i, q in enumerate(queries)]

    def _run_update(self, key: Tuple, queries: Sequence[UpdateQuery]
                    ) -> List[UpdateAck]:
        """Apply a batch of edge updates in arrival order.

        Mutations route through the graph's delta layer
        (:meth:`~repro.core.sharded.EngineGroup.apply_updates`), so reads
        keep their warm workspaces and shared-memory strips; the derived
        column-stochastic PageRank engine cannot be patched (normalization
        is global per column) and is invalidated instead — the next
        PageRank batch lazily rebuilds it from the effective matrix.
        """
        _, graph = key
        acks = []
        for q in queries:
            values = None if q.values is None else np.asarray(q.values)
            info = self.group.apply_updates(
                graph, np.asarray(q.rows, dtype=np.int64),
                np.asarray(q.cols, dtype=np.int64), values)
            acks.append(UpdateAck(applied=int(info["applied"]),
                                  delta_entries=int(info["delta_entries"]),
                                  compacted=bool(info["compacted"])))
        with self._lock:
            stale = self._pagerank_engines.pop(graph, None)
        if stale is not None:
            stale.close()
        return acks

    def _pagerank_engine(self, graph: str) -> Union[SpMSpVEngine, ShardedEngine]:
        with self._lock:
            engine = self._pagerank_engines.get(graph)
            if engine is None:
                transition = column_stochastic(
                    self.group.engine(graph).effective_matrix())
                engine = (ShardedEngine(transition, self._shards, self.ctx,
                                        algorithm=self.algorithm)
                          if self._shards is not None
                          else SpMSpVEngine(transition, self.ctx,
                                            algorithm=self.algorithm))
                self._pagerank_engines[graph] = engine
            return engine


def _percentile(sorted_values, q: float) -> Optional[float]:
    """Nearest-rank percentile of an already-sorted sequence (None when empty)."""
    if len(sorted_values) == 0:
        return None
    rank = max(0, min(len(sorted_values) - 1,
                      int(np.ceil(q * len(sorted_values))) - 1))
    return float(sorted_values[rank])
