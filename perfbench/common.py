"""Shared helpers: percentiles, pinned contexts, provenance and resource hygiene."""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10

#: environment knobs that change how the library executes behind an explicit
#: context (``default_context`` and ``make_backend`` read them); the benchmark
#: refuses to run under any of them rather than measure a different system
REFUSED_ENV = (
    "REPRO_BACKEND", "REPRO_BACKEND_FAULTS", "REPRO_SHARD_SCHEME",
    "REPRO_BACKEND_WORKERS", "REPRO_BACKEND_START",
    "REPRO_BACKEND_INPUT_SLAB", "REPRO_BACKEND_OUTPUT_SLAB",
    "REPRO_BACKEND_COMM_AUDIT",
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def refuse_tuning_env() -> None:
    set_vars = [name for name in REFUSED_ENV if os.environ.get(name)]
    if set_vars:
        raise BenchmarkError(
            f"refusing to run with {', '.join(set_vars)} set: these override "
            f"the benchmark's pinned execution contexts")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def supported_percentile(values: Sequence[float], q: float, what: str) -> float:
    """The ``q`` percentile, refusing one with fewer than MIN_TAIL samples beyond it."""
    beyond = len(values) - int(np.ceil(q / 100.0 * len(values)))
    if beyond < MIN_TAIL:
        raise BenchmarkError(
            f"{what}: p{q:g} of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL}); give the run more --seconds")
    return percentile(values, q)


def contexts():
    """The pinned execution contexts: in-process, and the 2-worker process pool.

    Built field by field rather than through ``default_context`` so no
    environment variable can change the backend, scheme, retry policy or
    fault plan.  ``num_threads=1``: the emulated t-way chunking runs its
    chunks one after another, so wall-clock runs use one chunk.
    """
    from repro.parallel.context import ExecutionContext, RetryPolicy

    base = ExecutionContext(num_threads=1, backend="emulated", backend_workers=0,
                            shard_scheme="row", retry=RetryPolicy(max_attempts=1),
                            degraded_fallback=False, deadline=None,
                            pin_workers=False)
    pool = ExecutionContext(num_threads=1, backend="process", backend_workers=2,
                            shard_scheme="row", retry=RetryPolicy(max_attempts=1),
                            degraded_fallback=False, deadline=None,
                            pin_workers=False)
    return base, pool


def csc_bytes(matrix) -> int:
    return int(matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    sizes: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def provenance(seed: int, workload, graphs: Dict[str, object]) -> Dict[str, object]:
    import scipy

    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(), "caches": _cache_sizes(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "graphs": {name: {"shape": list(m.shape), "nnz": int(m.nnz),
                          "csc_bytes": csc_bytes(m)}
                   for name, m in graphs.items()},
    }


# --------------------------------------------------------------------------- #
# resource hygiene
# --------------------------------------------------------------------------- #
SHM_DIR = Path("/dev/shm")


def shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class Hygiene:
    """Tracks worker pids and shared-memory segments of every pool built.

    After a pool is closed, none of its workers may still run and none of
    its ``/dev/shm`` segments may still exist; each violation is a failure.
    """

    def __init__(self):
        self.pids: set = set()
        self.segments: set = set()
        self.shm_at_start = shm_entries()
        self.violations: List[str] = []

    def watch(self, engines: Iterable) -> None:
        """Note the workers and segments of each engine's pool (again after
        use: arenas grow into new segments)."""
        for engine in engines:
            backend = getattr(engine, "backend", None)
            if backend is not None and hasattr(backend, "segment_names"):
                self.pids.update(pid for pid in backend.worker_pids() if pid)
                self.segments.update(backend.segment_names())

    def check(self, label: str) -> int:
        """Record leftovers after a close; returns the number found."""
        found = 0
        for pid in sorted(self.pids):
            if _alive(pid):
                self.violations.append(f"{label}: worker {pid} still alive")
                found += 1
        for name in sorted(self.segments):
            if (SHM_DIR / name.lstrip("/")).exists():
                self.violations.append(f"{label}: segment {name} not unlinked")
                found += 1
        children = multiprocessing.active_children()
        if children:
            self.violations.append(f"{label}: {len(children)} live child processes")
            found += len(children)
        self.pids.clear()
        self.segments.clear()
        return found

    def check_end(self) -> int:
        leaked = sorted(shm_entries() - self.shm_at_start)
        for name in leaked:
            self.violations.append(f"end: new /dev/shm entry {name} left behind")
        return len(leaked)


def stop_processes(timeout: float = 5.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers are joined by their engine's ``close()``; one still alive
    here (an error path) is terminated, then killed.  The multiprocessing
    resource tracker, started with the first shared-memory segment, would
    otherwise outlive the run: closing its pipe ends it (it first unlinks any
    segment still registered) and ``_stop`` waits for it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> None:
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}

