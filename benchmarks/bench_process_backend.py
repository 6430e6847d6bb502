"""Process-vs-emulated backend perf-regression harness.

Measures the wall-clock effect of running the sharded engine's per-strip
kernel calls on the real ``multiprocessing`` worker pool
(:class:`~repro.parallel.backends.ProcessBackend` — strips in shared memory,
one persistent worker per strip slot) instead of the deterministic
in-process emulation (:class:`~repro.parallel.backends.EmulatedBackend`),
across the RMAT suite graphs.  Four timed workloads per graph, all at P=4
strips and 4 workers:

* ``multiply`` — a dense BFS-shaped frontier through the sharded engine on
  each backend (the primitive itself; gated at >= 1.3x process-vs-emulated);
* ``multiply_many`` — k=8 fused frontiers: the monolithic fused engine vs
  the process-backed sharded fused path.  This is the ROADMAP's single-core
  caveat — sharded fusion pays P x block-expansion overhead that only real
  cores can win back — so the gate is that the process backend is **no
  longer slower than monolithic** (>= 1.0x);
* ``column_scheme`` — the row-split vs the work-efficient column-split
  sharded engine, both process-backed, at a sparse frontier (n/64
  nonzeros).  Gated at column >= 1.0x row: the paper's §II-F regime where
  column-split's per-strip frontier slicing must pay for its reduction
  phase;
* ``resilience`` — the happy-path price of the resilience layer: the same
  process-backed engine run plain vs. with retries, degraded fallback and a
  generous deadline enabled, under **zero injected faults**
  (``REPRO_BACKEND_FAULTS`` is stripped for the phase, and the resilient
  engine's ``health_stats()`` are recorded to prove nothing fired).  Gated
  at the resilient engine keeping >= 0.95x the plain throughput, i.e. the
  bookkeeping costs at most ~5% when nothing fails.

A fifth, untimed phase measures the **comm plane**: pipe and shared-memory
bytes per pool call, from the backend's comm counters.  The comm gate (at
most ``GATE_PIPE_BYTES_PER_CALL`` pipe bytes per pool call: arrays ride the
shared-memory slabs, only fixed-shape control records cross the pipes) is
machine-independent and always evaluated; a phase that reached no pool call
fails it, since nothing was measured.

Every gate measures the pool itself, so the run pins the backend's
in-parent floor (``POOL_MIN_WORK``) to 0 and records that in the report.
At the production floor (64K gathered entries) every n/64 frontier here
would run in the parent, and so would the n/2 frontier on webgoogle-like
at scale 13 (39K entries): the gates would compare the parent with itself.

Wall-clock parallelism needs hardware: on machines with fewer than
``GATE_MIN_CORES`` physical cores the speedup numbers are still measured
and reported honestly, but those gates are recorded as skipped
(``"passed": null`` — a 1-core machine cannot exhibit a multi-process
speedup, only IPC overhead) and ``--check`` exits 0 unless
``--require-cores N`` says the machine was *supposed* to have cores, in
which case a core shortfall is a hard failure instead of a skip.
``check_passed`` is ``true``/``false`` only over gates that actually
evaluated, and ``null`` when every gate was skipped — a skip can no longer
be misread as a pass.

Results are printed as a table and written to ``BENCH_process_backend.json``.
Exit status is the regression gate used by CI:

    python benchmarks/bench_process_backend.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ColumnShardedEngine, ShardedEngine, SpMSpVEngine
from repro.formats import SparseVector
from repro.graphs import build_problem
from repro.parallel import RetryPolicy, backends, default_context

REPO_ROOT = Path(__file__).resolve().parent.parent

#: RMAT suite problems (low-diameter scale-free class) and their bench scales
FULL_GRAPHS = [("ljournal-like", 14), ("webgoogle-like", 14)]
QUICK_GRAPHS = [("ljournal-like", 13), ("webgoogle-like", 13)]

SHARDS = 4
WORKERS = 4
BLOCK_K = 8
#: multiplies per graph in the (untimed) comm phase
COMM_CALLS = 4

#: speedup gates need real cores: P=4 workers cannot beat one in-process
#: loop on fewer than 4 of them, so below this those gates report skipped
GATE_MIN_CORES = 4
#: sharded multiply on the process backend vs the emulated backend
GATE_MULTIPLY_SPEEDUP = 1.3
#: sharded fused multiply_many on the process backend vs the monolithic
#: fused engine (the ROADMAP caveat: "no longer slower than monolithic")
GATE_MANY_SPEEDUP = 1.0
#: pipe bytes per pool call (machine-independent, never skipped): control
#: records only, since arrays and execution records ride the shared-memory
#: slabs.  The quick graphs measure ~4.2 KB; the budget is as strict as the
#: earlier 60x-reduction floor against the smallest recorded pickle-over-pipe
#: figure (739,030 B / 60 = 12,317 B)
GATE_PIPE_BYTES_PER_CALL = 12_288
#: row-split vs column-split sharded engines, both on the process backend,
#: at a sparse frontier (n/64): the work-efficient scheme must at least
#: match row-split where the paper says it wins (core-gated like the other
#: speedup gates — on one core the strips serialise either way)
GATE_COLUMN_SCHEME = 1.0
#: frontier divisor for the column-scheme phase (nnz(x) = n/64, sparse)
COLUMN_SCHEME_DIVISOR = 64
#: off-the-fault-path cost of the resilience machinery (deadline stamping,
#: retry bookkeeping, fallback plumbing) with ZERO injected faults: the
#: resilient engine must stay within 5% of the plain one
GATE_RESILIENCE_MIN = 0.95
#: multiplies per engine in the resilience-overhead phase
RESILIENCE_CALLS = 20


def dense_frontier(n: int, divisor: int, seed: int) -> SparseVector:
    rng = np.random.default_rng(seed)
    nnz = max(64, n // divisor)
    idx = np.sort(rng.choice(n, size=min(nnz, n), replace=False))
    return SparseVector(n, idx, rng.random(len(idx)) + 0.1)


def time_best_interleaved(fns: dict, rounds: int) -> dict:
    """Best-of-N for several competitors, rounds interleaved (stable ratios)."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], (time.perf_counter() - t0) * 1e3)
    return best


def bench_multiply(matrix, ctx, rounds: int) -> dict:
    x = dense_frontier(matrix.ncols, 2, seed=31)
    emulated = ShardedEngine(matrix, SHARDS, ctx, algorithm="bucket")
    t0 = time.perf_counter()
    process = ShardedEngine(
        matrix, SHARDS, ctx.with_backend("process", workers=WORKERS),
        algorithm="bucket")
    setup_ms = (time.perf_counter() - t0) * 1e3
    try:
        runs = {
            "emulated": lambda: emulated.multiply(x),
            "process": lambda: process.multiply(x),
        }
        for fn in runs.values():
            fn()  # warm workspaces and the pool
        best = time_best_interleaved(runs, rounds)
    finally:
        process.close()
    best["setup_ms"] = setup_ms
    return best


def bench_multiply_many(matrix, ctx, rounds: int) -> dict:
    frontiers = [dense_frontier(matrix.ncols, 8, seed=41 + i)
                 for i in range(BLOCK_K)]
    monolithic = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    process = ShardedEngine(
        matrix, SHARDS, ctx.with_backend("process", workers=WORKERS),
        algorithm="bucket")
    try:
        runs = {
            "monolithic": lambda: monolithic.multiply_many(
                frontiers, block_mode="fused"),
            "process": lambda: process.multiply_many(
                frontiers, block_mode="fused"),
        }
        for fn in runs.values():
            fn()
        return time_best_interleaved(runs, rounds)
    finally:
        process.close()

def bench_column_scheme(matrix, ctx, rounds: int) -> dict:
    """Row-split vs column-split sharded engine, both process-backed.

    The frontier is sparse (``n / COLUMN_SCHEME_DIVISOR`` nonzeros) — the
    regime where §II-F says column-split's per-strip frontier slicing beats
    row-split's whole-frontier broadcast.  The column engine's strips live
    in shared memory as DCSC (jc/cp/ir/num slabs) and its per-strip partial
    streams are merged parent-side in the reduction phase.
    """
    x = dense_frontier(matrix.ncols, COLUMN_SCHEME_DIVISOR, seed=53)
    base = ctx.with_backend("process", workers=WORKERS)
    row_eng = ShardedEngine(matrix, SHARDS, base, algorithm="bucket")
    col_eng = ColumnShardedEngine(matrix, SHARDS, base, algorithm="bucket")
    try:
        runs = {
            "row": lambda: row_eng.multiply(x),
            "column": lambda: col_eng.multiply(x),
        }
        for fn in runs.values():
            fn()  # warm workspaces and both pools
        return time_best_interleaved(runs, rounds)
    finally:
        row_eng.close()
        col_eng.close()


def bench_resilience(matrix, ctx, rounds: int) -> dict:
    """Happy-path cost of the resilience layer: plain vs. hardened engine.

    Both competitors run on the real process backend; the hardened one adds
    retries (``max_attempts=3``), degraded fallback and a 30 s deadline —
    exactly the bookkeeping a production caller would enable — while zero
    faults are injected (``REPRO_BACKEND_FAULTS`` is stripped so the chaos
    wrapper never engages).  Each timed sample is a batch of
    ``RESILIENCE_CALLS`` multiplies to keep the ratio out of timer noise.
    The resilient engine's ``health_stats()`` ride along as proof that no
    retry/fallback/deadline machinery actually fired during the phase.
    """
    x = dense_frontier(matrix.ncols, 2, seed=31)
    faults = os.environ.pop("REPRO_BACKEND_FAULTS", None)
    try:
        base = ctx.with_backend("process", workers=WORKERS)
        plain = ShardedEngine(matrix, SHARDS, base, algorithm="bucket")
        resilient = ShardedEngine(
            matrix, SHARDS,
            base.with_retry(RetryPolicy(max_attempts=3, backoff_s=0.01),
                            degraded_fallback=True).with_deadline(30.0),
            algorithm="bucket")
        try:
            runs = {
                "plain": lambda: [plain.multiply(x)
                                  for _ in range(RESILIENCE_CALLS)],
                "resilient": lambda: [resilient.multiply(x)
                                      for _ in range(RESILIENCE_CALLS)],
            }
            for fn in runs.values():
                fn()  # warm workspaces and both pools
            best = time_best_interleaved(runs, rounds)
            best["health"] = resilient.health_stats()
        finally:
            plain.close()
            resilient.close()
    finally:
        if faults is not None:
            os.environ["REPRO_BACKEND_FAULTS"] = faults
    return best


def measure_comm(matrix, ctx) -> dict:
    """Untimed comm-plane phase: pipe and slab bytes per pool call.

    Runs a few dense-frontier multiplies and one fused ``multiply_many``
    batch on a fresh process-backed engine, then reads the backend's comm
    counters.
    """
    x = dense_frontier(matrix.ncols, 2, seed=31)
    frontiers = [dense_frontier(matrix.ncols, 8, seed=41 + i)
                 for i in range(BLOCK_K)]
    engine = ShardedEngine(
        matrix, SHARDS, ctx.with_backend("process", workers=WORKERS),
        algorithm="bucket")
    try:
        for _ in range(COMM_CALLS):
            engine.multiply(x)
        engine.multiply_many(frontiers, block_mode="fused")
        comm = engine.backend.comm_stats()
    finally:
        engine.close()
    calls = max(comm["calls"], 1)
    return {
        "calls": comm["calls"],
        "pipe_bytes_per_call": round(
            (comm["pipe_bytes_out"] + comm["pipe_bytes_in"]) / calls, 1),
        "pipe_bytes_out_per_call": round(comm["pipe_bytes_out"] / calls, 1),
        "pipe_bytes_in_per_call": round(comm["pipe_bytes_in"] / calls, 1),
        "slab_bytes_in_per_call": round(comm["slab_bytes_in"] / calls, 1),
        "slab_bytes_out_per_call": round(comm["slab_bytes_out"] / calls, 1),
        "output_overflows": comm["output_overflows"],
        "input_grows": comm["input_grows"],
        "output_grows": comm["output_grows"],
    }


def run(quick: bool, threads: int, rounds: int,
        require_cores: int = 0) -> dict:
    floor, backends.POOL_MIN_WORK = backends.POOL_MIN_WORK, 0
    try:
        return _run(quick, threads, rounds, require_cores)
    finally:
        backends.POOL_MIN_WORK = floor


def _run(quick: bool, threads: int, rounds: int, require_cores: int) -> dict:
    graphs = QUICK_GRAPHS if quick else FULL_GRAPHS
    ctx = default_context(num_threads=threads, backend="emulated")
    cores = os.cpu_count() or 1
    report = {
        "benchmark": "process_backend",
        "quick": quick,
        "num_threads": threads,
        "rounds": rounds,
        "shards": SHARDS,
        "workers": WORKERS,
        "cpu_cores": cores,
        "require_cores": require_cores or None,
        # every call reaches the pool: the gates measure the pool itself
        "pool_min_work": backends.POOL_MIN_WORK,
        "gate": {"multiply_min_speedup": GATE_MULTIPLY_SPEEDUP,
                 "multiply_many_min_speedup": GATE_MANY_SPEEDUP,
                 "column_scheme_min_speedup": GATE_COLUMN_SCHEME,
                 "resilience_min_speedup": GATE_RESILIENCE_MIN,
                 "comm_max_pipe_bytes_per_call": GATE_PIPE_BYTES_PER_CALL,
                 "min_cores": GATE_MIN_CORES},
        "graphs": [],
        "results": [],
        "comm": [],
    }
    for name, scale in graphs:
        graph = build_problem(name, scale)
        matrix = graph.matrix
        report["graphs"].append({"name": name, "scale": scale,
                                 "vertices": matrix.ncols, "edges": matrix.nnz})
        mm = bench_multiply(matrix, ctx, rounds)
        report["results"].append({
            "graph": name, "workload": "multiply", "shards": SHARDS,
            "frontier_nnz": max(64, matrix.ncols // 2),
            "emulated_ms": round(mm["emulated"], 4),
            "process_ms": round(mm["process"], 4),
            "pool_setup_ms": round(mm["setup_ms"], 4),
            "speedup": round(mm["emulated"] / mm["process"], 4)
            if mm["process"] > 0 else float("inf"),
        })
        many = bench_multiply_many(matrix, ctx, max(1, rounds // 2))
        report["results"].append({
            "graph": name, "workload": "multiply_many", "shards": SHARDS,
            "k": BLOCK_K, "frontier_nnz": max(64, matrix.ncols // 8),
            "monolithic_ms": round(many["monolithic"], 4),
            "process_ms": round(many["process"], 4),
            "speedup": round(many["monolithic"] / many["process"], 4)
            if many["process"] > 0 else float("inf"),
        })
        col = bench_column_scheme(matrix, ctx, max(1, rounds // 2))
        report["results"].append({
            "graph": name, "workload": "column_scheme", "shards": SHARDS,
            "frontier_nnz": max(64, matrix.ncols // COLUMN_SCHEME_DIVISOR),
            "row_ms": round(col["row"], 4),
            "column_ms": round(col["column"], 4),
            "speedup": round(col["row"] / col["column"], 4)
            if col["column"] > 0 else float("inf"),
        })
        res = bench_resilience(matrix, ctx, max(1, rounds // 2))
        health = res["health"]
        report["results"].append({
            "graph": name, "workload": "resilience", "shards": SHARDS,
            "calls_per_sample": RESILIENCE_CALLS,
            "plain_ms": round(res["plain"], 4),
            "resilient_ms": round(res["resilient"], 4),
            "overhead_pct": round((res["resilient"] / res["plain"] - 1.0)
                                  * 100.0, 2) if res["plain"] > 0 else None,
            # the phase is honest only if nothing actually failed
            "zero_faults": (not any(health["worker_deaths"])
                            and health["retries"] == 0
                            and health["fallback_calls"] == 0
                            and health["deadline_hits"] == 0),
            "speedup": round(res["plain"] / res["resilient"], 4)
            if res["resilient"] > 0 else float("inf"),
        })
        report["comm"].append(dict(graph=name, **measure_comm(matrix, ctx)))

    gates = {}
    core_gated_ok = cores >= GATE_MIN_CORES or (
        require_cores and cores < require_cores)  # shortfall fails below
    for workload, floor in (("multiply", GATE_MULTIPLY_SPEEDUP),
                            ("multiply_many", GATE_MANY_SPEEDUP),
                            ("column_scheme", GATE_COLUMN_SCHEME),
                            ("resilience", GATE_RESILIENCE_MIN)):
        speedups = [r["speedup"] for r in report["results"]
                    if r["workload"] == workload]
        gates[workload] = {
            "min_speedup": min(speedups) if speedups else None,
            "floor": floor,
        }
        if cores >= GATE_MIN_CORES:
            gates[workload]["passed"] = bool(speedups and
                                             min(speedups) >= floor)
        elif require_cores and cores < require_cores:
            # the runner was supposed to have cores: hard-fail, don't skip
            gates[workload]["passed"] = False
            gates[workload]["failed_reason"] = (
                f"--require-cores {require_cores} but machine has {cores}")
        else:
            gates[workload]["skipped"] = (
                f"machine has {cores} core(s); P={WORKERS} workers need "
                f">= {GATE_MIN_CORES} for wall-clock parallelism")
            gates[workload]["passed"] = None
    measured = [c["pipe_bytes_per_call"] for c in report["comm"] if c["calls"]]
    no_pool = [c["graph"] for c in report["comm"] if not c["calls"]]
    gates["comm"] = {
        "max_pipe_bytes_per_call": max(measured) if measured else None,
        "budget": GATE_PIPE_BYTES_PER_CALL,
        "passed": bool(measured and not no_pool
                       and max(measured) <= GATE_PIPE_BYTES_PER_CALL),
    }
    if no_pool:
        gates["comm"]["failed_reason"] = (
            f"no pool call ran on {no_pool}: nothing crossed a pipe, so "
            f"there is no per-call figure to check")
    evaluated = [g["passed"] for g in gates.values() if g["passed"] is not None]
    report["summary"] = {
        "gates": gates,
        # null (not true!) when every gate was skipped: a skip is not a pass
        "check_passed": all(evaluated) if evaluated else None,
    }
    return report


def print_table(report: dict) -> None:
    header = f"{'graph':<16} {'workload':<14} {'baseline':<11} " \
             f"{'baseline ms':>12} {'process ms':>11} {'speedup':>8}"
    columns = {"multiply": ("emulated", "process_ms"),
               "multiply_many": ("monolithic", "process_ms"),
               "column_scheme": ("row", "column_ms"),
               "resilience": ("plain", "resilient_ms")}
    print(header)
    print("-" * len(header))
    for r in report["results"]:
        baseline, process_key = columns[r["workload"]]
        print(f"{r['graph']:<16} {r['workload']:<14} {baseline:<11} "
              f"{r[baseline + '_ms']:>12.3f} {r[process_key]:>11.3f} "
              f"{r['speedup']:>7.2f}x")
    print()
    for c in report["comm"]:
        if not c["calls"]:
            print(f"{c['graph']:<16} comm: no pool call")
            continue
        print(f"{c['graph']:<16} comm: {c['pipe_bytes_per_call']:>9,.0f} "
              f"pipe B/call, "
              f"{c['slab_bytes_in_per_call'] + c['slab_bytes_out_per_call']:,.0f} "
              f"B/call via /dev/shm, {c['output_overflows']} overflow retries")
    for workload, gate in report["summary"]["gates"].items():
        if gate.get("skipped"):
            measured = gate.get("min_speedup")
            print(f"{workload} gate SKIPPED: {gate['skipped']} "
                  f"(measured min {measured}x)")
        elif "budget" in gate:
            print(f"max comm pipe bytes per call: "
                  f"{gate['max_pipe_bytes_per_call']} "
                  f"(budget {gate['budget']} B, passed: {gate['passed']}"
                  + (f", {gate['failed_reason']}" if gate.get("failed_reason")
                     else "") + ")")
        else:
            print(f"min {workload} speedup: {gate['min_speedup']} "
                  f"(floor {gate['floor']}x, passed: {gate['passed']}"
                  + (f", {gate['failed_reason']}" if gate.get("failed_reason")
                     else "") + ")")
    print(f"regression check passed: {report['summary']['check_passed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: the RMAT suite at scale 13")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every evaluated gate passed "
                             "(speedup gates skip below "
                             f"{GATE_MIN_CORES} cores unless --require-cores; "
                             "the comm budget always evaluates)")
    parser.add_argument("--require-cores", type=int, default=0, metavar="N",
                        help="hard-fail (instead of skipping the speedup "
                             "gates) when the machine has fewer than N "
                             "cores — for runners that are supposed to "
                             "have them")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread budget of the shared context (the "
                             "emulated backend schedules strips onto them "
                             "in-process; the process backend maps them to "
                             "real workers)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing repetitions (best-of); default 5 quick / 7 full")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_process_backend.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds is not None else (5 if args.quick else 7)
    report = run(args.quick, args.threads, rounds,
                 require_cores=args.require_cores)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print_table(report)
    print(f"\nwrote {args.out}")
    if args.check and report["summary"]["check_passed"] is False:
        print(f"FAIL: process-backend regression gate not met "
              f"(multiply >= {GATE_MULTIPLY_SPEEDUP}x emulated, fused "
              f"multiply_many >= {GATE_MANY_SPEEDUP}x monolithic at "
              f"P={SHARDS}, column scheme >= {GATE_COLUMN_SCHEME}x row at "
              f"a sparse frontier, resilience-on >= {GATE_RESILIENCE_MIN}x "
              f"plain with zero faults, comm pipe bytes <= "
              f"{GATE_PIPE_BYTES_PER_CALL} B per pool call)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
