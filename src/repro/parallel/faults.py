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
* :class:`ChaosBackend` — the real
  :class:`~repro.parallel.backends.ProcessBackend`, subclassed to inject
  the planned faults at the seam between a call's ``submit`` and
  ``gather`` halves: worker kills (SIGKILL before dispatch), mid-call kills
  (after dispatch, before gather), slow strips (a parent-side stall
  between submit and gather, exercising deadlines), output-slab overflow
  storms (grant hints clamped so every strip takes the grow→flush path),
  and poisoned exception dumps (a kernel raising an unpicklable
  exception).  It is registered as the ``"chaos"`` backend;
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
from typing import Dict, Optional

import numpy as np

from .backends import ProcessBackend, _FAULTS_ENV, register_backend

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


class ChaosBackend(ProcessBackend):
    """The real process backend with a :class:`FaultPlan` strapped to it.

    It overrides only the two halves of a call: :meth:`submit` injects the
    plan's pre-dispatch faults (kill, overflow storm, poison) before the
    pool's own ``submit`` and the mid-call ones (kill_mid, delay) after it,
    and :meth:`gather` serves a planned stall before the pool's own
    ``gather``.  Faults are injected around the pool's machinery, never
    inside it, so its recovery paths must cope with them exactly as with
    organic failures.  ``injected_stats()`` reports what was actually
    injected so tests can assert the plan fired.
    """

    name = "chaos"

    def __init__(self, **kwargs):
        """Build the pool (keywords as :class:`ProcessBackend`) under the
        plan carried by ``REPRO_BACKEND_FAULTS`` (no faults without one)."""
        # set before the pool forks, so a poisoning plan's kernel is
        # registered in the workers too
        self.plan = plan_from_env() or FaultPlan()
        self._call_index = 0
        #: id(token) -> seconds to stall before gathering that token
        self._pending_delay: Dict[int, float] = {}
        self._injected: Dict[str, int] = {
            "kill": 0, "kill_mid": 0, "delay": 0, "overflow": 0, "poison": 0}
        super().__init__(**kwargs)

    def _kill_worker(self, call_index: int, kind: str) -> None:
        """SIGKILL the planned victim and wait until it is observably dead.

        The injected counter records the *event firing* (a pure function of
        the plan, so ``injected_stats()`` is deterministic); the kill itself
        is best-effort — the victim may already be a not-yet-respawned
        corpse from the previous call's kill, in which case the pool is
        still carrying a death this call and there is nothing left to do.
        """
        from multiprocessing.connection import wait as _wait

        self._injected[kind] += 1
        proc = self._workers[self._plan.victim(call_index, self.num_workers)]
        if proc is None or not proc.is_alive():
            return  # already dead (e.g. killed by the previous event)
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            return
        # wait on the process sentinel, not os.kill(pid, 0): a zombie still
        # "exists" but its pipe is torn down, which is the observable death
        _wait([proc.sentinel], timeout=10.0)

    def submit(self, op, **args):
        i = self._call_index
        self._call_index += 1
        ev = self._plan.events(i)
        if ev["kill"]:
            self._kill_worker(i, "kill")
        if ev["overflow"]:
            # clamp every grant hint so each strip overflows its region
            hints = self._grant_hint[op]
            hints[:] = [_CLAMPED_GRANT] * len(hints)
            self._injected["overflow"] += 1
        if ev["poison"] and op == "multiply":
            # only a multiply names a swappable registry kernel
            self._injected["poison"] += 1
            args["algorithm"] = "_chaos_poison"
        token = super().submit(op, **args)
        if ev["kill_mid"]:
            self._kill_worker(i, "kill_mid")
        if ev["delay"]:
            self._pending_delay[id(token)] = self._plan.delay_s
            self._injected["delay"] += 1
        return token

    def gather(self, token):
        delay = self._pending_delay.pop(id(token), None)
        if delay:
            time.sleep(delay)
        return super().gather(token)

    def injected_stats(self) -> Dict[str, int]:
        """How many of each fault kind actually fired so far."""
        return dict(self._injected)

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @plan.setter
    def plan(self, plan: FaultPlan) -> None:
        # tests swap plans mid-run to aim specific faults at specific calls.
        # Fork-started workers inherit the poison registration; spawn-started
        # ones re-import the package without it, so poison under spawn
        # surfaces as an unknown-algorithm kernel error instead
        if plan.poison:
            _register_poison()
        self._plan = plan


def _register_poison() -> None:
    from ..core.dispatch import _ensure_registered, register_algorithm

    _ensure_registered()  # the lazy builtin fill only runs on an empty registry
    register_algorithm("_chaos_poison", _poison_kernel, overwrite=True)


register_backend("chaos", ChaosBackend)
