"""Per-layer metrics and the sum-to-whole check of a traced run.

Sum-to-whole: for every traversal and every served request, the per-layer
self times plus ``unattributed`` equal its wall time.  The benchmark holds
itself to two tolerances: the attributed time of one operation may exceed
its wall time by at most ``OVERSHOOT_MS`` (clock reads straddle the span
boundaries), and ``unattributed`` may be at most ``MAX_UNATTRIBUTED`` of the
total wall time of the run.  Each violation counts as a failure.

A request's wall time (due -> resolved) splits into ``loadgen`` (due ->
submit), ``queue`` (submit -> its batch starts executing) and the self times
of the batch's spans, clipped to [batch start, this request resolved]: every
member of a batch waits for the part of the batch that runs before it
resolves.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.parallel.metrics import WorkMetrics

from .bfs_phase import BFSOutcome
from .common import percentile, supported_percentile
from .serve_phase import Rung
from .tracing import ATTRS, END, LAYER, LAYERS, NAME, PARENT, START, Tracer

OVERSHOOT_MS = 0.05
MAX_UNATTRIBUTED = 0.02

#: WorkMetrics fields counted as memory accesses in work per flop
ACCESS_FIELDS = ("matrix_nnz_reads", "colptr_reads", "vector_reads", "bitmap_probes",
                 "spa_inits", "spa_updates", "bucket_writes", "buffer_writes",
                 "heap_ops", "sort_elements", "search_probes", "output_writes")

Metrics = Dict[str, Tuple[float, str]]


class SumToWhole:
    def __init__(self):
        self.wall_ms = 0.0
        self.unattributed_ms = 0.0
        self.ops = 0
        self.violations: List[str] = []

    def add(self, label: str, wall_ms: float, parts_ms: float) -> None:
        unattributed = wall_ms - parts_ms
        self.ops += 1
        self.wall_ms += wall_ms
        self.unattributed_ms += unattributed
        if unattributed < -OVERSHOOT_MS:
            self.violations.append(
                f"{label}: layers sum to {parts_ms:.4f} ms > wall {wall_ms:.4f} ms")

    def finish(self) -> None:
        share = self.unattributed_ms / self.wall_ms if self.wall_ms else 0.0
        if share > MAX_UNATTRIBUTED:
            self.violations.append(
                f"unattributed {share:.2%} of wall time exceeds {MAX_UNATTRIBUTED:.0%}")

    @property
    def share(self) -> float:
        return self.unattributed_ms / self.wall_ms if self.wall_ms else 0.0


def _named(tracer: Tracer, suffix: str, keep=None) -> List[int]:
    return [i for i, s in enumerate(tracer.spans)
            if s[NAME].endswith(suffix) and (keep is None or keep(i))]


def _duration(tracer: Tracer, index: Sequence[int]) -> np.ndarray:
    return np.array([tracer.spans[i][END] - tracer.spans[i][START] for i in index])


def bfs_metrics(tracer: Tracer, outcome: BFSOutcome, check: SumToWhole) -> Metrics:
    self_s = tracer.self_times()
    root = tracer.roots()
    by_root = {t.span: t for t in outcome.traversals if t.ok and t.span >= 0}
    acc = {r: dict.fromkeys(LAYERS, 0.0) for r in by_root}
    for i, span in enumerate(tracer.spans):
        if root[i] in acc:
            acc[root[i]][span[LAYER]] += self_s[i]
    for r, t in by_root.items():
        check.add(f"{t.layout} bfs from {t.source}", t.wall_s * 1e3,
                  sum(acc[r].values()) * 1e3)

    def of(layouts):
        return [r for r, t in by_root.items() if t.layout in layouts]

    whole, sharded, column = of({"whole"}), of({"row", "column"}), of({"column"})
    in_whole, in_sharded = set(whole), set(sharded)
    wall_whole = sum(by_root[r].wall_s for r in whole)
    levels = sum(t.levels for t in by_root.values())

    def total(roots, layer):
        return sum(acc[r][layer] for r in roots)

    m: Metrics = {}
    m["bfs.self_ms_per_level"] = (total(by_root, "bfs") * 1e3 / levels, "ms")
    m["bfs.levels_mean"] = (levels / len(by_root), "count")

    calls = _named(tracer, "SpMSpVEngine.multiply", lambda i: root[i] in in_whole)
    m["engine.calls_per_bfs"] = (len(calls) / len(whole), "count")
    m["engine.self_us_per_call"] = (total(whole, "engine") * 1e6 / len(calls), "us")
    m["kernel.busy_ms_per_bfs"] = (total(whole, "kernel") * 1e3 / len(whole), "ms")
    m["kernel.busy_share"] = (total(whole, "kernel") / wall_whole, "ratio")
    work = WorkMetrics.sum(rec.total_work() for i in calls
                           for rec in tracer.spans[i][ATTRS]["records"])
    nnz_y = sum(tracer.spans[i][ATTRS]["nnz_y"] for i in calls)
    flops = max(work.multiplications, 1)
    m["kernel.multiplications"] = (work.multiplications / len(whole), "count")
    m["kernel.colptr_reads"] = (work.colptr_reads / len(whole), "count")
    m["kernel.sort_elements"] = (work.sort_elements / len(whole), "count")
    m["kernel.work_per_flop"] = (sum(getattr(work, f) for f in ACCESS_FIELDS) / flops,
                                 "ratio")
    m["kernel.mask_keep_ratio"] = (nnz_y / flops, "ratio")

    layout_calls = [i for i, s in enumerate(tracer.spans)
                    if root[i] in in_sharded and s[NAME] in
                    ("ShardedEngine.multiply", "ColumnShardedEngine.multiply")]
    m["layout.self_us_per_call"] = (total(sharded, "layout") * 1e6 / len(layout_calls),
                                    "us")
    slices = _named(tracer, ".slice_frontier", lambda i: root[i] in in_sharded)
    reduces = _named(tracer, ".reduce_partials", lambda i: root[i] in in_sharded)
    m["layout.slice_ms"] = (_duration(tracer, slices).sum() * 1e3 / len(column), "ms")
    m["layout.reduce_ms"] = (_duration(tracer, reduces).sum() * 1e3 / len(column), "ms")
    entries = sum(tracer.spans[i][ATTRS]["entries"] for i in reduces)
    m["layout.reduce_ratio"] = (
        sum(tracer.spans[i][ATTRS]["nnz_out"] for i in reduces) / max(entries, 1), "ratio")
    worst = mean = 0.0
    for i in _named(tracer, "._finish_call", lambda i: root[i] in in_sharded):
        mults = [r.total_work().multiplications
                 for r in tracer.spans[i][ATTRS]["strip_records"]]
        if sum(mults):
            worst += max(mults)
            mean += sum(mults) / len(mults)
    m["layout.strip_imbalance"] = (worst / mean if mean else 1.0, "ratio")

    trips = [i for i, s in enumerate(tracer.spans) if s[NAME] in (
        "ProcessBackend.run_multiply", "ProcessBackend.run_partial",
        "ProcessBackend.run_block")]
    m["backend.roundtrip_us_per_call"] = (_duration(tracer, trips).mean() * 1e6, "us")
    m["backend.pool_setup_ms"] = (
        _duration(tracer, _named(tracer, "ProcessBackend.__init__")).mean() * 1e3, "ms")
    comm = {k: sum(c.get(k, 0) for c in outcome.comm.values())
            for k in ("calls", "pipe_bytes_out", "pipe_bytes_in", "slab_bytes_in",
                      "slab_bytes_out", "output_overflows", "input_grows",
                      "output_grows")}
    ncalls = max(comm["calls"], 1)
    m["backend.pipe_bytes_per_call"] = (
        (comm["pipe_bytes_out"] + comm["pipe_bytes_in"]) / ncalls, "B")
    m["backend.slab_bytes_per_call"] = (
        (comm["slab_bytes_in"] + comm["slab_bytes_out"]) / ncalls, "B")
    m["backend.overflow_ratio"] = (comm["output_overflows"] / ncalls, "ratio")
    m["backend.arena_grows"] = (comm["input_grows"] + comm["output_grows"], "count")
    m["backend.retries"] = (sum(h["retries"] for h in outcome.health.values()), "count")
    m["backend.worker_deaths"] = (
        sum(sum(h["worker_deaths"]) for h in outcome.health.values()), "count")
    return m


def serve_metrics(tracer: Tracer, rungs: Sequence[Rung], check: SumToWhole) -> Metrics:
    spans = tracer.spans
    self_s = tracer.self_times()
    executes = _named(tracer, "QueryServer._execute")
    exec_of = np.full(len(spans), -1, dtype=np.int64)
    is_exec = np.zeros(len(spans), dtype=bool)
    is_exec[executes] = True
    for i, s in enumerate(spans):
        exec_of[i] = i if is_exec[i] else (exec_of[s[PARENT]] if s[PARENT] >= 0 else -1)
    subtree: Dict[int, List[int]] = {e: [] for e in executes}
    for i in np.flatnonzero(exec_of >= 0).tolist():
        subtree[int(exec_of[i])].append(i)
    batch_of = {id(f): e for e in executes for f in spans[e][ATTRS]["futures"]}

    queue_ms: List[float] = []
    for rung in rungs:
        for i in np.flatnonzero(~rung.failed).tolist():
            e = batch_of.get(id(rung.futures[i]))
            wall = rung.resolved[i] - rung.due[i]
            if e is None:
                check.add(f"request {i} at {rung.rate} rps", wall * 1e3, 0.0)
                continue
            lo, hi = spans[e][START], rung.resolved[i]
            parts = dict.fromkeys(LAYERS, 0.0)
            for j in subtree[e]:
                inside = max(0.0, min(spans[j][END], hi) - max(spans[j][START], lo))
                parts[spans[j][LAYER]] += inside
                if j != e:
                    parts[spans[spans[j][PARENT]][LAYER]] -= inside
            lag = rung.submitted[i] - rung.due[i]
            queue = lo - rung.submitted[i]
            queue_ms.append(queue * 1e3)
            check.add(f"request {i} at {rung.rate} rps", wall * 1e3,
                      (lag + queue + sum(parts.values())) * 1e3)

    m: Metrics = {}
    m["serve.queue_wait_ms_p50"] = (percentile(queue_ms, 50), "ms")
    m["serve.queue_wait_ms_p99"] = (supported_percentile(queue_ms, 99, "queue wait"), "ms")
    m["serve.exec_ms_p50"] = (percentile(_duration(tracer, executes) * 1e3, 50), "ms")
    m["serve.batch_size_mean"] = (
        float(np.mean([len(spans[e][ATTRS]["futures"]) for e in executes])), "count")
    m["serve.batches"] = (len(executes), "count")
    m["serve.rejected"] = (sum(r.stats["rejected"] for r in rungs), "count")
    m["serve.expired"] = (sum(r.stats["expired_queued"] + r.stats["expired_mid_batch"]
                              for r in rungs), "count")
    m["loadgen.lag_ms_p99"] = (
        supported_percentile(np.concatenate([r.lag_ms for r in rungs]), 99, "lag"), "ms")
    packs = _named(tracer, "SparseVectorBlock.from_vectors")
    m["block.pack_ms_per_batch"] = (_duration(tracer, packs).mean() * 1e3, "ms")
    m["block.union_share"] = (
        sum(spans[i][ATTRS]["union"] for i in packs)
        / max(sum(spans[i][ATTRS]["total"] for i in packs), 1), "ratio")
    applies = _named(tracer, "SpMSpVEngine.apply_updates")
    m["delta.apply_ms_per_update"] = (_duration(tracer, applies).mean() * 1e3, "ms")
    patch = [p for s in spans if s[ATTRS] and "patch_nnz" in s[ATTRS]
             for p in s[ATTRS]["patch_nnz"]]
    m["delta.patch_nnz_mean"] = (float(np.mean(patch)) if patch else 0.0, "count")
    m["delta.compactions"] = (sum(d["compactions"] for r in rungs
                                  for d in r.delta.values()), "count")
    m["delta.entries_end"] = (sum(d["entries"] for d in rungs[-1].delta.values()), "count")
    return m
