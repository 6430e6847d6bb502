"""Execution context: how a kernel should be parallelized.

The :class:`ExecutionContext` carries everything a kernel needs to know about
its parallel environment:

* ``num_threads`` — the thread count ``t`` of the paper's analysis,
* ``buckets_per_thread`` — the paper uses ``nb = 4·t`` buckets (§III-A,
  "Load balancing"),
* ``scheduling`` — ``'dynamic'`` (greedy longest-processing-time assignment of
  buckets to threads, emulating OpenMP ``schedule(dynamic)``) or ``'static'``
  (round-robin),
* ``platform`` — the machine preset used by the cost model to turn per-thread
  work into simulated time,
* ``backend`` — how a :class:`~repro.core.sharded.ShardedEngine` executes its
  per-strip kernel calls: ``'emulated'`` (deterministic in-process execution,
  the default) or ``'process'`` (a persistent ``multiprocessing`` worker pool
  holding the strips in shared memory — the first genuinely parallel
  execution path in the package).  Backends are pluggable: a backend
  implements one call method,
  :meth:`~repro.parallel.backends.ExecutionBackend.run`; see
  :mod:`repro.parallel.backends`.  ``backend_workers`` caps the process
  pool's size (0 = one worker per strip, up to the machine's core count),
* ``shard_scheme`` — ``'row'`` or ``'column'`` strips; the algorithm entry
  points (``bfs``, ``pagerank``, ...) take a ``shards=`` run's scheme and
  backend from the context alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..machine.platforms import EDISON, Platform


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend retries *retryable* failures (worker deaths).

    A strip call that fails because its worker died is transparently
    re-executed — respawn the worker, re-grant an output region, resend the
    same inputs — up to ``max_attempts`` total attempts per strip and
    ``budget`` re-dispatches per call, never changing the answer (a kernel
    is a pure function of its inputs, so a retried strip is bit-identical
    to a fault-free run).  Kernel exceptions are *not* retryable: they are
    deterministic and re-raise identically.  The default policy
    (``max_attempts=1``) disables retries, preserving the historical
    one-``BackendError``-per-death contract.
    """

    #: total attempts per strip, including the first (1 = no retries)
    max_attempts: int = 1
    #: sleep before the i-th re-dispatch: ``backoff_s * 2**(i-1)`` seconds
    backoff_s: float = 0.0
    #: total re-dispatches allowed within one call, across all strips
    budget: int = 8

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class ExecutionContext:
    """Parameters of one (emulated or real) parallel execution."""

    num_threads: int = 1
    buckets_per_thread: int = 4
    scheduling: str = "dynamic"
    platform: Platform = field(default_factory=lambda: EDISON)
    sorted_vectors: bool = True
    #: execution backend for sharded engines ('emulated' | 'process' | any
    #: name registered with :func:`repro.parallel.backends.register_backend`)
    backend: str = "emulated"
    #: worker-process cap for the process backend; 0 = min(shards, cpu_count)
    backend_workers: int = 0
    #: matrix-partitioning scheme of the sharded engines built through the
    #: algorithm entry points (``bfs``/``pagerank``/...): ``'row'`` (1-D
    #: horizontal strips, no reduction, every strip scans the whole frontier),
    #: ``'column'`` (1-D vertical DCSC strips, each reading only its private
    #: frontier slice, merged in a reduction phase — the paper's
    #: work-efficient scheme, §II-F).
    shard_scheme: str = "row"
    #: pin each process-backend worker to one CPU core
    #: (``os.sched_setaffinity``; silently a no-op on platforms without it).
    #: Off by default: pinning helps dedicated bench boxes and hurts shared
    #: ones, so it is an explicit opt-in.
    pin_workers: bool = False
    #: per-call wall-clock budget (seconds) for backend execution, measured
    #: from dispatch; a call that exceeds it raises
    #: :class:`~repro.errors.DeadlineError` after cleanly abandoning its
    #: in-flight slab regions.  ``None`` (the default) disables it.
    deadline: Optional[float] = None
    #: retry policy for retryable backend failures (worker deaths); the
    #: default policy performs no retries
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: when a strip's worker dies past the retry budget, recompute that
    #: strip in-process via the emulated path (bit-identical, slower)
    #: instead of raising — a sick pool keeps serving correct results
    degraded_fallback: bool = False
    #: process-backend shutdown escalation: seconds to wait after ``stop``,
    #: after ``terminate()``, and after ``kill()`` before giving up on a join
    shutdown_timeouts: Tuple[float, float, float] = (2.0, 1.0, 1.0)

    def __post_init__(self):
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.buckets_per_thread < 1:
            raise ValueError("buckets_per_thread must be >= 1")
        if self.scheduling not in ("dynamic", "static"):
            raise ValueError(f"scheduling must be 'dynamic' or 'static', got {self.scheduling!r}")
        if self.num_threads > self.platform.max_threads:
            raise ValueError(
                f"num_threads={self.num_threads} exceeds platform "
                f"'{self.platform.name}' max_threads={self.platform.max_threads}")
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError(f"backend must be a non-empty name, got {self.backend!r}")
        if self.backend_workers < 0:
            raise ValueError(f"backend_workers must be >= 0, got {self.backend_workers}")
        if self.shard_scheme not in ("row", "column"):
            raise ValueError(
                f"shard_scheme must be 'row' or 'column', got {self.shard_scheme!r}")
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError(f"deadline must be > 0 or None, got {self.deadline}")
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(f"retry must be a RetryPolicy, got {self.retry!r}")
        object.__setattr__(self, "shutdown_timeouts",
                           tuple(self.shutdown_timeouts))
        if len(self.shutdown_timeouts) != 3 or \
                any(t < 0 for t in self.shutdown_timeouts):
            raise ValueError(
                f"shutdown_timeouts must be three non-negative seconds "
                f"(stop, terminate, kill), got {self.shutdown_timeouts!r}")

    @property
    def num_buckets(self) -> int:
        """Number of buckets ``nb = buckets_per_thread * num_threads``."""
        return self.buckets_per_thread * self.num_threads

    def with_threads(self, num_threads: int) -> "ExecutionContext":
        """Return a copy with a different thread count (used by scaling studies)."""
        return replace(self, num_threads=num_threads)

    def with_platform(self, platform: Platform) -> "ExecutionContext":
        """Return a copy targeting a different machine preset."""
        return replace(self, platform=platform)

    def with_sorted_vectors(self, sorted_vectors: bool) -> "ExecutionContext":
        """Return a copy with the sorted/unsorted vector policy changed."""
        return replace(self, sorted_vectors=sorted_vectors)

    def with_backend(self, backend: str, *, workers: Optional[int] = None
                     ) -> "ExecutionContext":
        """Return a copy executing sharded calls on a different backend."""
        if workers is None:
            return replace(self, backend=backend)
        return replace(self, backend=backend, backend_workers=workers)

    def with_shard_scheme(self, shard_scheme: str) -> "ExecutionContext":
        """Return a copy with a different default sharding scheme."""
        return replace(self, shard_scheme=shard_scheme)

    def with_deadline(self, deadline: Optional[float], *,
                      tighten: bool = False) -> "ExecutionContext":
        """Return a copy with a per-call wall-clock budget (``None`` disables).

        With ``tighten=True`` the new budget *composes* with the existing one
        instead of replacing it: the effective deadline is the tighter of the
        two (``None`` counts as unbounded), so a looser per-request budget can
        never widen a stricter context default and vice versa.  This is how
        serving layers map per-request deadlines onto the context: the
        request's budget only ever shrinks the window the engine already had.
        """
        if tighten:
            if deadline is None:
                return self
            if self.deadline is not None:
                deadline = min(self.deadline, deadline)
        return replace(self, deadline=deadline)

    def with_retry(self, retry: RetryPolicy, *,
                   degraded_fallback: Optional[bool] = None
                   ) -> "ExecutionContext":
        """Return a copy with a different retry policy (and optionally the
        degraded-fallback mode)."""
        if degraded_fallback is None:
            return replace(self, retry=retry)
        return replace(self, retry=retry, degraded_fallback=degraded_fallback)


def default_context(num_threads: int = 1, platform: Optional[Platform] = None,
                    **kwargs) -> ExecutionContext:
    """Convenience constructor used throughout examples and benchmarks.

    The sharded-execution backend defaults to the ``REPRO_BACKEND``
    environment variable when set (``emulated`` otherwise), which is how CI
    runs the whole sharded suite against the process backend without touching
    any call site.  When ``REPRO_BACKEND_FAULTS`` is set (the chaos job's
    seeded fault plan; see :mod:`repro.parallel.faults`), resilience defaults
    flip on — strip retries plus degraded fallback — so every injected
    worker death is absorbed and the full suite still demands bit-identical
    results under fire.
    """
    if platform is None:
        platform = EDISON
    kwargs.setdefault("backend", os.environ.get("REPRO_BACKEND") or "emulated")
    kwargs.setdefault("shard_scheme",
                      os.environ.get("REPRO_SHARD_SCHEME") or "row")
    if os.environ.get("REPRO_BACKEND_FAULTS"):
        kwargs.setdefault("retry", RetryPolicy(max_attempts=3))
        kwargs.setdefault("degraded_fallback", True)
    return ExecutionContext(num_threads=num_threads, platform=platform, **kwargs)
