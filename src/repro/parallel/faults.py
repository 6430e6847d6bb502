"""Deterministic fault injection for the sharded execution backends.

Testing the resilience layer (retries, degraded fallback, deadlines — see
:mod:`repro.parallel.backends`) by ad-hoc ``os.kill`` calls in tests is
racy and covers one failure shape at a time.  This module makes failure a
*first-class, seeded input*:

* :class:`FaultPlan` — a frozen schedule of fault probabilities.  For call
  index ``i`` the plan derives its events from
  ``numpy.random.default_rng([seed, i])``, so the i-th call of a run sees
  the same faults regardless of how many calls preceded it or in what
  order tokens were gathered — reruns and bisects are exact.
* :class:`ChaosBackend` — a wrapper around the real
  :class:`~repro.parallel.backends.ProcessBackend` that injects the
  planned faults at the comm-plane seams: worker kills (SIGKILL before
  dispatch), mid-call kills (after dispatch, before gather), slow strips
  (a parent-side stall between submit and gather, exercising deadlines),
  output-slab overflow storms (grant hints clamped so every strip takes
  the grow→flush path), and poisoned exception dumps (a kernel raising an
  unpicklable exception).  It is registered as the ``"chaos"`` backend;
  :func:`~repro.parallel.backends.make_backend` reroutes ``"process"``
  requests here whenever the ``REPRO_BACKEND_FAULTS`` environment variable
  carries a plan spec, so entire existing suites run under fire unchanged.

The injected faults are *faults*, not semantics changes: under a plan, a
call must still return results bit-identical to the emulated backend or
raise exactly one typed error — the chaos suite and the CI ``chaos`` job
hold the resilience layer to that contract.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

import numpy as np

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    _FAULTS_ENV,
    register_backend,
)

__all__ = ["FaultPlan", "ChaosBackend", "plan_from_env"]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent schedule of injected faults.

    Each probability field is evaluated independently per call index from
    its own deterministic stream, so e.g. ``kill=0.1`` means roughly every
    tenth call is preceded by a worker SIGKILL — but *which* calls is a
    pure function of ``seed``, reproducible forever.
    """

    seed: int = 0
    #: P(SIGKILL a random worker just before a call is dispatched)
    kill: float = 0.0
    #: P(SIGKILL a random worker after dispatch, before the gather)
    kill_mid: float = 0.0
    #: P(stall the parent between submit and gather — a "slow strip")
    delay: float = 0.0
    #: stall duration in seconds (when a delay event fires)
    delay_s: float = 0.05
    #: P(clamp every output grant to a few bytes: an overflow storm where
    #: each strip takes the retain→grow→flush path)
    overflow: float = 0.0
    #: P(rewrite a multiply's kernel to one raising an unpicklable
    #: exception — exercises the poisoned-dump transport path)
    poison: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "seed":
                if int(v) != v:
                    raise ValueError(f"seed must be an int, got {v!r}")
            elif not 0.0 <= float(v) <= 1.0 and f.name != "delay_s":
                raise ValueError(f"{f.name} must be in [0, 1], got {v!r}")
            elif f.name == "delay_s" and float(v) < 0:
                raise ValueError(f"delay_s must be >= 0, got {v!r}")

    def events(self, call_index: int) -> Dict[str, bool]:
        """The fault events for one call, independent of all other calls."""
        rng = np.random.default_rng([int(self.seed), int(call_index)])
        draws = rng.random(5)
        return {
            "kill": draws[0] < self.kill,
            "kill_mid": draws[1] < self.kill_mid,
            "delay": draws[2] < self.delay,
            "overflow": draws[3] < self.overflow,
            "poison": draws[4] < self.poison,
        }

    def victim(self, call_index: int, num_workers: int) -> int:
        """The worker a kill event targets (same stream family, own leaf)."""
        rng = np.random.default_rng([int(self.seed), int(call_index), 1])
        return int(rng.integers(num_workers))

    def to_spec(self) -> str:
        """Encode as the ``REPRO_BACKEND_FAULTS`` spec string."""
        parts = [f"seed={int(self.seed)}"]
        for f in fields(self):
            if f.name == "seed":
                continue
            v = getattr(self, f.name)
            if v != f.default:
                parts.append(f"{f.name}={v:g}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"seed=42,kill=0.1,delay=0.05,delay_s=0.02"``."""
        plan = cls()
        known = {f.name for f in fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad fault-plan entry {part!r} in {spec!r}; expected "
                    f"key=value pairs like 'seed=42,kill=0.1'")
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(
                    f"unknown fault-plan key {key!r} in {spec!r}; known: "
                    f"{sorted(known)}")
            plan = replace(plan, **{
                key: int(value) if key == "seed" else float(value)})
        return plan


def plan_from_env() -> Optional[FaultPlan]:
    """The plan carried by ``REPRO_BACKEND_FAULTS``, if any."""
    spec = os.environ.get(_FAULTS_ENV)
    return FaultPlan.from_spec(spec) if spec else None


class _PoisonError(Exception):
    """An exception that pickles but cannot be reconstructed parent-side."""

    def __reduce__(self):
        raise TypeError("poisoned: this exception refuses serialization")


def _poison_kernel(matrix, x, ctx, *, semiring, sorted_output=True,
                   mask=None, mask_complement=False, **kwargs):
    """A registered kernel that always raises an unpicklable exception."""
    raise _PoisonError("injected poisoned kernel failure")


#: tiny grant that no real result fits, forcing the grow→flush path
_CLAMPED_GRANT = 64


class ChaosBackend(ExecutionBackend):
    """The real process backend with a :class:`FaultPlan` strapped to it.

    Every public operation delegates to an inner
    :class:`~repro.parallel.backends.ProcessBackend`; faults are injected
    around the delegation, never inside it — the inner backend's recovery
    machinery must cope with them exactly as it would with organic
    failures.  ``injected_stats()`` reports what was actually injected so
    tests can assert the plan fired.
    """

    name = "chaos"

    def __init__(self, inner: ProcessBackend, plan: FaultPlan):
        self._inner = inner
        self._plan = plan
        self._call_index = 0
        #: id(token) -> seconds to stall before gathering that token
        self._pending_delay: Dict[int, float] = {}
        self._injected: Dict[str, int] = {
            "kill": 0, "kill_mid": 0, "delay": 0, "overflow": 0, "poison": 0}

    # ------------------------------------------------------------------ #
    # fault primitives
    # ------------------------------------------------------------------ #
    def _kill_worker(self, call_index: int, kind: str) -> None:
        """SIGKILL the planned victim and wait until it is observably dead.

        The injected counter records the *event firing* (a pure function of
        the plan, so ``injected_stats()`` is deterministic); the kill itself
        is best-effort — the victim may already be a not-yet-respawned
        corpse from the previous call's kill, in which case the pool is
        still carrying a death this call and there is nothing left to do.
        """
        from multiprocessing.connection import wait as _wait

        inner = self._inner
        self._injected[kind] += 1
        w = self._plan.victim(call_index, inner.num_workers)
        proc = inner._workers[w]
        if proc is None or not proc.is_alive():
            return  # already dead (e.g. killed by the previous event)
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            return
        # wait on the process sentinel, not os.kill(pid, 0): a zombie still
        # "exists" but its pipe is torn down, which is the observable death
        _wait([proc.sentinel], timeout=10.0)

    def _clamp_grants(self, op: str) -> None:
        """Shrink every grant hint so each strip overflows its region."""
        hints = self._inner._grant_hint[op]
        for s in range(len(hints)):
            hints[s] = _CLAMPED_GRANT
        self._injected["overflow"] += 1

    def _before_submit(self, op: str, algorithm: Optional[str]):
        """Run the call's pre-dispatch events; returns (events, algorithm)."""
        i = self._call_index
        self._call_index += 1
        ev = self._plan.events(i)
        if ev["kill"]:
            self._kill_worker(i, "kill")
        if ev["overflow"]:
            self._clamp_grants(op)
        if ev["poison"] and algorithm is not None:
            self._injected["poison"] += 1
            algorithm = "_chaos_poison"
        return i, ev, algorithm

    def _after_submit(self, i: int, ev: Dict[str, bool], token) -> None:
        if ev["kill_mid"]:
            self._kill_worker(i, "kill_mid")
        if ev["delay"]:
            self._pending_delay[id(token)] = self._plan.delay_s
            self._injected["delay"] += 1

    def _before_gather(self, token) -> None:
        delay = self._pending_delay.pop(id(token), None)
        if delay:
            time.sleep(delay)

    # ------------------------------------------------------------------ #
    # ExecutionBackend interface (delegate + inject)
    # ------------------------------------------------------------------ #
    def submit_multiply(self, algorithm, x, *, semiring, sorted_output,
                        mask_slices, mask_complement, kwargs):
        i, ev, algorithm = self._before_submit("multiply", algorithm)
        token = self._inner.submit_multiply(
            algorithm, x, semiring=semiring, sorted_output=sorted_output,
            mask_slices=mask_slices, mask_complement=mask_complement,
            kwargs=kwargs)
        self._after_submit(i, ev, token)
        return token

    def gather_multiply(self, token) -> List:
        self._before_gather(token)
        return self._inner.gather_multiply(token)

    def submit_partial(self, algorithm, slices, *, semiring, mask,
                       mask_complement, out_dtype):
        # poison targets the multiply op's kernel table; a column partial
        # has no swappable kernel, so only kill/overflow/delay events apply
        i, ev, _ = self._before_submit("partial", None)
        token = self._inner.submit_partial(
            algorithm, slices, semiring=semiring, mask=mask,
            mask_complement=mask_complement, out_dtype=out_dtype)
        self._after_submit(i, ev, token)
        return token

    def gather_partial(self, token) -> List:
        self._before_gather(token)
        return self._inner.gather_partial(token)

    def run_partial(self, algorithm, slices, *, semiring, mask,
                    mask_complement, out_dtype):
        return self.gather_partial(self.submit_partial(
            algorithm, slices, semiring=semiring, mask=mask,
            mask_complement=mask_complement, out_dtype=out_dtype))

    def submit_block(self, block, *, semiring, sorted_output, strip_masks,
                     mask_complement):
        i, ev, _ = self._before_submit("block", None)
        token = self._inner.submit_block(
            block, semiring=semiring, sorted_output=sorted_output,
            strip_masks=strip_masks, mask_complement=mask_complement)
        self._after_submit(i, ev, token)
        return token

    def gather_block(self, token) -> List[List]:
        self._before_gather(token)
        return self._inner.gather_block(token)

    def run_multiply(self, algorithm, x, *, semiring, sorted_output,
                     mask_slices, mask_complement, kwargs):
        return self.gather_multiply(self.submit_multiply(
            algorithm, x, semiring=semiring, sorted_output=sorted_output,
            mask_slices=mask_slices, mask_complement=mask_complement,
            kwargs=kwargs))

    def run_block(self, block, *, semiring, sorted_output, strip_masks,
                  mask_complement):
        return self.gather_block(self.submit_block(
            block, semiring=semiring, sorted_output=sorted_output,
            strip_masks=strip_masks, mask_complement=mask_complement))

    def update_strip(self, strip, matrix) -> None:
        # no faults on the (rare) compaction path: the versioned
        # ack-before-unlink protocol is exercised by the inner backend's
        # own suite; chaos targets the per-call hot path
        self._inner.update_strip(strip, matrix)

    def workspace_stats(self):
        return self._inner.workspace_stats()

    def comm_stats(self) -> Dict[str, float]:
        return self._inner.comm_stats()

    def health_stats(self) -> Dict[str, object]:
        return self._inner.health_stats()

    def injected_stats(self) -> Dict[str, int]:
        """How many of each fault kind actually fired so far."""
        return dict(self._injected)

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @plan.setter
    def plan(self, plan: FaultPlan) -> None:
        # tests swap plans mid-run to aim specific faults at specific calls
        if plan.poison:
            _register_poison()
        self._plan = plan

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def close(self) -> None:
        self._pending_delay.clear()
        self._inner.close()

    def __getattr__(self, name):
        # everything else (worker_pids, segment_names, num_strips, ...) is
        # the inner backend's business
        if name == "_inner":  # guard: never recurse before __init__ ran
            raise AttributeError(name)
        return getattr(self._inner, name)


def _chaos_factory(*, strips, shard_ctx, dtype, use_thread_pool=False,
                   workers=0, scheme="row") -> ChaosBackend:
    """Backend factory: plan from the environment, real pool underneath."""
    plan = plan_from_env() or FaultPlan()
    if plan.poison:
        # fork-started workers inherit this registration; spawn-started
        # ones re-import the package without it, so poison under spawn
        # surfaces as an unknown-algorithm kernel error instead
        _register_poison()
    inner = ProcessBackend(strips=strips, shard_ctx=shard_ctx, dtype=dtype,
                           use_thread_pool=use_thread_pool, workers=workers,
                           scheme=scheme)
    return ChaosBackend(inner, plan)


def _register_poison() -> None:
    from ..core.dispatch import _ensure_registered, register_algorithm

    _ensure_registered()  # the lazy builtin fill only runs on an empty registry
    register_algorithm("_chaos_poison", _poison_kernel, overwrite=True)


register_backend("chaos", _chaos_factory)
