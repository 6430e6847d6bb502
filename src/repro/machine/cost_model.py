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

import numpy as np

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
    def _weights(self) -> np.ndarray:
        """Per-counter effective weights in column order, resolved once per
        model instance; the irregular counters' weights are zero in row 1."""
        weights = np.array([[self.weight(name) for name in METRIC_FIELDS]] * 2)
        weights[1, [i for i, name in enumerate(METRIC_FIELDS)
                    if name not in IRREGULAR_FIELDS]] = 0.0
        return weights

    def _costs(self, rows: np.ndarray) -> np.ndarray:
        """``(total, irregular)`` cost (ns) of each row of a record matrix.

        Each cost adds the row's weighted counters one after another in
        counter order (a cumulative sum, never a pairwise one), so it is
        the same float however many rows are priced at once.
        """
        terms = rows[:, None, :] * self._weights
        return np.cumsum(terms, axis=2)[:, :, -1]

    def thread_cost_ns(self, metrics: WorkMetrics) -> float:
        """Total cost (ns) of one thread's work, ignoring memory-system contention."""
        return float(self._costs(metrics.row[None])[0, 0])

    def irregular_cost_ns(self, metrics: WorkMetrics) -> float:
        """Cost (ns) of the irregular-memory portion of one thread's work."""
        return float(self._costs(metrics.row[None])[0, 1])

    # ------------------------------------------------------------------ #
    def phase_time_ns(self, phase: PhaseRecord, num_threads: int) -> float:
        """Simulated completion time of one phase.

        ``max`` over per-thread costs (the critical path), with the aggregate
        irregular-memory traffic additionally bounded by the platform's
        memory parallelism, plus the parallel-region / barrier overhead.
        """
        overhead = phase.barriers * self.platform.parallel_region_overhead_ns
        threads, serial = phase.counts[:-1], phase.counts[-1:]
        serial_part = float(self._costs(serial)[0, 0])
        if not phase.parallel:
            summed = threads.sum(axis=0, keepdims=True)
            return serial_part + float(self._costs(summed)[0, 0]) + overhead

        if not len(threads):
            return serial_part + overhead

        per_thread, irregular = self._costs(threads).T.tolist()
        critical_path = max(per_thread)
        channels = max(1, self.platform.memory_channels)
        bandwidth_bound = sum(irregular) / channels
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
