"""Open-loop read/write serving through ``QueryServer``.

One load-generator thread sends a seeded Poisson schedule (about 95%
``MultiplyQuery`` reads, 5% ``UpdateQuery`` writes) at a fixed offered
rate, whether or not earlier requests have finished.  A request's latency
runs from the time it was *due* to the moment its future resolved; the
resolution time is stamped by wrapping ``ServeFuture.set_result`` and
``set_exception`` for the duration of a rung.  Every rung gets a fresh
server over fresh matrix objects, so rungs never inherit each other's
updates.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.engine import SpMSpVEngine
from repro.errors import ReproError
from repro.formats.csc import CSCMatrix
from repro.formats.delta import DeltaLog, apply_delta
from repro.serve.requests import ServeFuture, UpdateQuery
from repro.serve.server import QueryServer

from .inputs import Schedule, fresh_copy
from .tracing import Tracer

MAX_BATCH = 16
WINDOW_S = 0.002
#: large enough that no request is ever refused: overload shows as latency
MAX_QUEUE = 1 << 16
#: longest a rung waits for its last responses after sending stops
DRAIN_TIMEOUT_S = 60.0


def make_server(graphs: Dict[str, CSCMatrix], ctx) -> QueryServer:
    return QueryServer({name: fresh_copy(m) for name, m in graphs.items()}, ctx,
                       max_batch=MAX_BATCH, max_wait_s=WINDOW_S,
                       max_queue=MAX_QUEUE, overload="reject",
                       block_mode="fused", algorithm="bucket")


def warm_up(server: QueryServer, warm_reads: List[object]) -> None:
    for future in [server.submit(q) for q in warm_reads]:
        future.result(timeout=DRAIN_TIMEOUT_S)


@contextmanager
def stamp_resolutions():
    """Map each future to the perf_counter time it was resolved at.

    The client keeps a read's output vector and drops its execution record:
    holding thousands of records alive would make the interpreter's garbage
    collector, not the server, set the tail latency.
    """
    stamps: Dict[ServeFuture, float] = {}
    set_result, set_exception = ServeFuture.set_result, ServeFuture.set_exception

    def stamped_result(self, result):
        stamps[self] = time.perf_counter()
        set_result(self, getattr(result, "vector", result))

    def stamped_exception(self, exc):
        stamps[self] = time.perf_counter()
        set_exception(self, exc)

    ServeFuture.set_result = stamped_result
    ServeFuture.set_exception = stamped_exception
    try:
        yield stamps
    finally:
        ServeFuture.set_result = set_result
        ServeFuture.set_exception = set_exception


@dataclass
class Rung:
    """Everything measured while one schedule ran."""

    rate: int
    start: float
    due: np.ndarray          # absolute perf_counter due times
    submitted: np.ndarray    # when the generator called submit
    resolved: np.ndarray     # when the future resolved (nan: never)
    failed: np.ndarray       # refused, raised, or never resolved
    writes: np.ndarray       # bool mask
    futures: List[Optional[ServeFuture]]
    stats: Dict[str, object] = field(default_factory=dict)
    delta: Dict[str, Dict[str, object]] = field(default_factory=dict)
    wrong: int = 0
    checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> np.ndarray:
        ok = ~self.failed
        return (self.resolved[ok] - self.due[ok]) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.submitted - self.due) * 1e3

    @property
    def served_rps(self) -> float:
        ok = ~self.failed
        return float(ok.sum() / (np.nanmax(self.resolved) - self.start))


def run_rung(graphs: Dict[str, CSCMatrix], ctx, schedule: Schedule,
             warm_reads: List[object], tracer: Optional[Tracer] = None) -> Rung:
    """Send one schedule open-loop against a fresh server; nothing is checked here."""
    server = make_server(graphs, ctx)
    try:
        warm_up(server, warm_reads)
        gc.collect()
        gc.freeze()  # the warm server and the inputs are long-lived
        n = len(schedule.queries)
        submitted = np.full(n, np.nan)
        futures: List[Optional[ServeFuture]] = [None] * n
        refused: List[int] = []
        with stamp_resolutions() as stamps:
            if tracer:
                tracer.reinstall()
            try:
                start = time.perf_counter() + 0.005
                due = start + schedule.due

                def generate():
                    for i, query in enumerate(schedule.queries):
                        wait = due[i] - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                        submitted[i] = time.perf_counter()
                        try:
                            futures[i] = server.submit(query)
                        except ReproError:
                            refused.append(i)

                thread = threading.Thread(target=generate, name="perfbench-loadgen")
                thread.start()
                thread.join(timeout=schedule.due[-1] + DRAIN_TIMEOUT_S)
                deadline = time.perf_counter() + DRAIN_TIMEOUT_S
                for future in futures:
                    if future is not None:
                        try:
                            future.exception(timeout=max(deadline - time.perf_counter(), 0.0))
                        except TimeoutError:
                            pass  # never resolved: counted as failed below
            finally:
                if tracer:
                    tracer.uninstall()
            resolved = np.array([stamps.get(f, np.nan) if f is not None else np.nan
                                 for f in futures])
        failed = np.isnan(resolved)
        failed[refused] = True
        for i, future in enumerate(futures):
            if future is not None and future.done() and future.exception() is not None:
                failed[i] = True
        stats = server.serve_stats()
        delta = {name: server.group.engine(name).delta_stats()
                 for name in server.group.keys()}
    finally:
        server.close()
    return Rung(rate=schedule.rate, start=start, due=due, submitted=submitted,
                resolved=resolved, failed=failed, writes=schedule.is_write,
                futures=futures, stats=stats, delta=delta)


# --------------------------------------------------------------------------- #
# linearizability check of sampled reads
# --------------------------------------------------------------------------- #
class Versions:
    """Solo engines over the rebuilt matrix after the first ``v`` writes of a graph."""

    def __init__(self, graphs: Dict[str, CSCMatrix], ctx, schedule: Schedule):
        self.graphs = graphs
        self.ctx = ctx
        self.queries = schedule.queries
        #: schedule positions of each graph's writes, in submission order
        self.writes = {name: np.array([i for i, q in enumerate(schedule.queries)
                                       if isinstance(q, UpdateQuery) and q.graph == name],
                                      dtype=np.int64)
                       for name in graphs}
        self._engines: Dict[tuple, SpMSpVEngine] = {}

    def engine(self, graph: str, version: int) -> SpMSpVEngine:
        key = (graph, version)
        if key not in self._engines:
            base = self.graphs[graph]
            delta = DeltaLog(base.shape)
            for i in self.writes[graph][:version].tolist():
                q = self.queries[i]
                if q.values is None:
                    delta.delete_edges(q.rows, q.cols)
                else:
                    delta.set_edges(q.rows, q.cols, q.values)
            matrix = apply_delta(base, delta) if len(delta) else base
            self._engines[key] = SpMSpVEngine(matrix, self.ctx, algorithm="bucket")
        return self._engines[key]


def check_reads(rung: Rung, schedule: Schedule, graphs: Dict[str, CSCMatrix], ctx,
                rng: np.random.Generator, sample: int) -> None:
    """Each sampled read must equal, bit for bit, a solo engine's answer at some
    graph version inside its window.

    The window starts at the writes to its graph acknowledged before the read
    was submitted and ends at the writes submitted before it resolved.
    """
    versions = Versions(graphs, ctx, schedule)
    reads = np.flatnonzero(~rung.writes & ~rung.failed)
    picks = np.sort(rng.choice(reads, size=min(sample, len(reads)), replace=False))
    for i in picks.tolist():
        query = schedule.queries[i]
        writes = versions.writes[query.graph]
        acked = rung.resolved[writes]
        lo = int(np.count_nonzero(acked < rung.submitted[i]))
        hi = int(np.count_nonzero(rung.submitted[writes] < rung.resolved[i]))
        got = rung.futures[i].result()
        rung.checked += 1
        for version in range(hi, lo - 1, -1):
            want = versions.engine(query.graph, version).multiply(query.x).vector
            if np.array_equal(got.indices, want.indices) and \
                    np.array_equal(got.values, want.values):
                break
        else:
            rung.wrong += 1
            rung.errors.append(f"read {i} on {query.graph}: no version in "
                               f"[{lo}, {hi}] gives its answer")
