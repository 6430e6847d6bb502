"""Cost model: converts :class:`~repro.parallel.metrics.WorkMetrics` into time.

The model assigns a nanosecond cost to every elementary operation counted by
the kernels.  The weights are split into two groups:

* **compute / regular traffic** — operations whose data is streamed or
  cache-resident (reading matrix nonzeros column by column, scanning the
  input vector, updating the bucket-local part of the SPA, ...).  These scale
  with the thread count because every thread works on private data.
* **irregular memory traffic** — scattered writes into buckets, cache-missing
  SPA / output accesses.  Their aggregate throughput is capped by the memory
  system (``Platform.memory_channels``), which is what limits the bucketing
  step to a 6-10x speedup on 24 Edison cores in Fig. 6 of the paper.

The absolute numbers are calibrated only loosely (we reproduce shapes, not
the authors' milliseconds); what matters is that the *ratios* between weight
classes reflect a real machine: an L1 hit costs ~1 ns, a streamed element a
few ns, a cache miss tens of ns, a barrier a few µs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict

from ..parallel.metrics import METRIC_FIELDS, ExecutionRecord, PhaseRecord, WorkMetrics
from .platforms import EDISON, Platform


#: nanosecond cost per counted operation on a reference (Edison-class) core.
DEFAULT_WEIGHTS_NS: Dict[str, float] = {
    "matrix_nnz_reads": 2.2,     # streamed read of (rowid, value) pairs
    "colptr_reads": 1.8,         # indptr / jc lookups
    "vector_reads": 1.6,         # scanning the sparse input vector
    "bitmap_probes": 2.2,        # GraphMat bitmap membership test + branch per column
    "spa_inits": 1.4,            # writing an "uninitialized" stamp / zero
    "spa_updates": 2.4,          # read-modify-write of a SPA slot
    "bucket_writes": 3.0,        # scattered append into a bucket
    "buffer_writes": 1.2,        # append into a thread-private streaming buffer
    "heap_ops": 6.0,             # one heap element move (already includes lg factor)
    "sort_elements": 3.0,        # one comparison/move inside a sort (includes lg factor)
    "search_probes": 5.0,        # one binary-search probe
    "multiplications": 1.0,
    "additions": 1.0,
    "output_writes": 2.0,
    "cache_line_misses": 0.0,    # costed separately via Platform.memory_latency_ns
    "sync_events": 60.0,         # one atomic/lock acquisition
}

#: counters whose traffic is limited by the memory system rather than the core.
IRREGULAR_FIELDS = ("bucket_writes", "cache_line_misses")


@dataclass(frozen=True)
class CostModel:
    """Per-platform cost model with overridable weights."""

    platform: Platform = field(default_factory=lambda: EDISON)
    weights_ns: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS_NS))

    # ------------------------------------------------------------------ #
    def weight(self, counter: str) -> float:
        """Nanosecond cost of one operation of the given counter on this platform."""
        base = self.weights_ns.get(counter, 0.0)
        if counter == "cache_line_misses":
            base = self.platform.memory_latency_ns * 0.35  # latency partially overlapped
        # per-core speed scales every core-side cost
        return base / self.platform.core_speed

    @cached_property
    def _weight_table(self) -> Dict[str, float]:
        """Per-counter effective weights, resolved once per model instance."""
        return {name: self.weight(name) for name in METRIC_FIELDS}

    def thread_cost_ns(self, metrics: WorkMetrics) -> float:
        """Total cost (ns) of one thread's work, ignoring memory-system contention."""
        table = self._weight_table
        total = 0.0
        for name in METRIC_FIELDS:
            count = getattr(metrics, name)
            if count:
                total += count * table[name]
        return total

    def irregular_cost_ns(self, metrics: WorkMetrics) -> float:
        """Cost (ns) of the irregular-memory portion of one thread's work."""
        table = self._weight_table
        total = 0.0
        for name in IRREGULAR_FIELDS:
            count = getattr(metrics, name)
            if count:
                total += count * table[name]
        return total

    # ------------------------------------------------------------------ #
    def phase_time_ns(self, phase: PhaseRecord, num_threads: int) -> float:
        """Simulated completion time of one phase.

        ``max`` over per-thread costs (the critical path), with the aggregate
        irregular-memory traffic additionally bounded by the platform's
        memory parallelism, plus the parallel-region / barrier overhead.
        """
        overhead = phase.barriers * self.platform.parallel_region_overhead_ns
        if not phase.parallel:
            return self.thread_cost_ns(phase.serial_metrics) + \
                self.thread_cost_ns(WorkMetrics.sum(phase.thread_metrics)) + overhead

        if not phase.thread_metrics:
            return self.thread_cost_ns(phase.serial_metrics) + overhead

        # replicated thread metrics (e.g. the block kernel's evenly-apportioned
        # shares are one object repeated t times) are priced once
        costs: Dict[int, float] = {}
        irregulars: Dict[int, float] = {}
        for m in phase.thread_metrics:
            if id(m) not in costs:
                costs[id(m)] = self.thread_cost_ns(m)
                irregulars[id(m)] = self.irregular_cost_ns(m)
        per_thread = [costs[id(m)] for m in phase.thread_metrics]
        critical_path = max(per_thread)
        total_irregular = sum(irregulars[id(m)] for m in phase.thread_metrics)
        channels = max(1, self.platform.memory_channels)
        bandwidth_bound = total_irregular / channels
        serial_part = self.thread_cost_ns(phase.serial_metrics)
        return max(critical_path, bandwidth_bound) + serial_part + overhead

    def record_time_ms(self, record: ExecutionRecord) -> float:
        """Simulated completion time (milliseconds) of a full SpMSpV invocation."""
        total_ns = sum(self.phase_time_ns(p, record.num_threads) for p in record.phases)
        return total_ns / 1e6

    def phase_times_ms(self, record: ExecutionRecord) -> Dict[str, float]:
        """Per-phase simulated times in milliseconds (for the Fig. 6 breakdown)."""
        return {p.name: self.phase_time_ns(p, record.num_threads) / 1e6 for p in record.phases}

    # ------------------------------------------------------------------ #
    def with_weights(self, **overrides: float) -> "CostModel":
        """Return a copy with some per-operation weights overridden."""
        weights = dict(self.weights_ns)
        weights.update(overrides)
        return CostModel(self.platform, weights)


def cost_model_for(platform: Platform) -> CostModel:
    """Build the default cost model for a platform preset."""
    return CostModel(platform=platform)
