"""Streaming-update perf harness: delta overlay vs. full rebuild.

The dynamic-graph layer's reason to exist is that serving an update batch as
a delta overlay (:meth:`~repro.core.engine.SpMSpVEngine.apply_updates` — log
the edges, patch-correct the next multiply) is much cheaper than what a
static system must do: rebuild the CSC matrix and a fresh engine, then
multiply.  Two phases measure that claim on the RMAT suite graphs:

* ``overlay`` — per update-batch fraction (0.1% and 1% of the graph's
  nonzeros), time ``apply_updates + multiply`` on a warm delta engine
  against ``rebuild matrix + new engine + multiply``.  Both strategies start
  from the same pristine base every round and produce bit-identical
  results.  **Gate** (machine-independent, always evaluated): the overlay
  is >= 2x the rebuild path at every batch size <= 1% nnz.
* ``sustained`` — an update-rate x query-rate sweep on a *sharded* engine
  with the default compaction policy: each tick applies ``u`` updates and
  serves ``q`` multiplies, letting deltas accumulate until per-strip
  compaction fires.  Reported (not gated): ticks/s, compactions triggered,
  and the delta backlog left at the end — the numbers that size a serving
  deployment.

Results are printed as a table and written to ``BENCH_streaming.json``.
Exit status is the regression gate used by CI:

    python benchmarks/bench_streaming.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ShardedEngine, SpMSpVEngine
from repro.formats import DeltaLog, SparseVector, apply_delta
from repro.graphs import build_problem
from repro.parallel import default_context

REPO_ROOT = Path(__file__).resolve().parent.parent

#: RMAT suite problems (low-diameter scale-free class) and their bench scales
FULL_GRAPHS = [("ljournal-like", 14), ("webgoogle-like", 14)]
QUICK_GRAPHS = [("ljournal-like", 13), ("webgoogle-like", 13)]

SHARDS = 4
#: update batch sizes, as fractions of the base graph's nnz
BATCH_FRACTIONS = [0.001, 0.01]
#: the overlay must beat the full-rebuild path by this factor at every
#: batch fraction <= 1% nnz (machine-independent: both strategies run
#: in-process on the same core)
GATE_OVERLAY_SPEEDUP = 2.0
#: sustained-phase shape: (updates per tick, queries per tick) pairs
SUSTAINED_MIX = [(8, 32), (64, 8), (256, 2)]
SUSTAINED_TICKS = 30


def update_batch(matrix, fraction: float, seed: int):
    """A mixed insert/reweight batch sized to ``fraction`` of base nnz."""
    rng = np.random.default_rng(seed)
    count = max(8, int(matrix.nnz * fraction))
    rows = rng.integers(0, matrix.nrows, size=count)
    cols = rng.integers(0, matrix.ncols, size=count)
    vals = rng.random(count) + 0.5
    return rows, cols, vals


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


def bench_overlay(matrix, ctx, fraction: float, rounds: int) -> dict:
    """apply_updates + multiply on a warm delta engine vs. full rebuild."""
    rows, cols, vals = update_batch(matrix, fraction, seed=61)
    x = dense_frontier(matrix.ncols, 2, seed=31)

    overlay_engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    overlay_engine.compact_fraction = float("inf")   # measure the pure overlay
    overlay_engine.multiply(x)                       # warm the workspace

    def overlay():
        # every round starts from the pristine base: clear the previous
        # round's delta, then pay the real per-batch serving cost
        overlay_engine.deltas[0].clear()
        overlay_engine.apply_updates(rows, cols, vals)
        return overlay_engine.multiply(x)

    def rebuild():
        # what a static system pays for the same batch: rebuild the CSC
        # matrix, build a fresh engine (cold workspace), then multiply
        delta = DeltaLog(matrix.shape)
        delta.set_edges(rows, cols, vals)
        rebuilt = apply_delta(matrix, delta)
        return SpMSpVEngine(rebuilt, ctx, algorithm="bucket").multiply(x)

    # the two strategies must agree before their timings mean anything
    got, want = overlay().vector, rebuild().vector
    go, wo = np.argsort(got.indices, kind="stable"), np.argsort(want.indices,
                                                                kind="stable")
    if not (np.array_equal(got.indices[go], want.indices[wo])
            and np.array_equal(got.values[go], want.values[wo])):
        raise AssertionError(
            f"overlay result diverged from rebuild at fraction {fraction}")

    best = time_best_interleaved({"overlay": overlay, "rebuild": rebuild},
                                 rounds)
    best["batch_edges"] = len(rows)
    return best


def bench_sustained(matrix, ctx, updates_per_tick: int, queries_per_tick: int,
                    ticks: int) -> dict:
    """Sustained update x query mix on a sharded engine, default compaction."""
    rng = np.random.default_rng(71)
    engine = ShardedEngine(matrix, SHARDS, ctx, algorithm="bucket")
    xs = [dense_frontier(matrix.ncols, 4, seed=81 + i) for i in range(4)]
    engine.multiply(xs[0])                           # warm the workspaces
    t0 = time.perf_counter()
    for tick in range(ticks):
        rows = rng.integers(0, matrix.nrows, size=updates_per_tick)
        cols = rng.integers(0, matrix.ncols, size=updates_per_tick)
        engine.apply_updates(rows, cols, rng.random(updates_per_tick) + 0.5)
        for q in range(queries_per_tick):
            engine.multiply(xs[(tick + q) % len(xs)])
    elapsed = time.perf_counter() - t0
    stats = engine.delta_stats()
    return {
        "elapsed_ms": elapsed * 1e3,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "compactions": stats["compactions"],
        "delta_backlog_entries": stats["entries"],
    }


def run(quick: bool, threads: int, rounds: int,
        require_cores: int = 0) -> dict:
    graphs = QUICK_GRAPHS if quick else FULL_GRAPHS
    ctx = default_context(num_threads=threads, backend="emulated")
    cores = os.cpu_count() or 1
    report = {
        "benchmark": "streaming",
        "quick": quick,
        "num_threads": threads,
        "rounds": rounds,
        "shards": SHARDS,
        "cpu_cores": cores,
        "require_cores": require_cores or None,
        "gate": {"overlay_min_speedup": GATE_OVERLAY_SPEEDUP,
                 "batch_fractions": BATCH_FRACTIONS},
        "graphs": [],
        "results": [],
        "sustained": [],
    }
    for name, scale in graphs:
        graph = build_problem(name, scale)
        matrix = graph.matrix
        report["graphs"].append({"name": name, "scale": scale,
                                 "vertices": matrix.ncols, "edges": matrix.nnz})
        for fraction in BATCH_FRACTIONS:
            res = bench_overlay(matrix, ctx, fraction, rounds)
            report["results"].append({
                "graph": name, "workload": "overlay",
                "batch_fraction": fraction,
                "batch_edges": res["batch_edges"],
                "overlay_ms": round(res["overlay"], 4),
                "rebuild_ms": round(res["rebuild"], 4),
                "speedup": round(res["rebuild"] / res["overlay"], 4)
                if res["overlay"] > 0 else float("inf"),
            })
        for updates, queries in SUSTAINED_MIX:
            sus = bench_sustained(matrix, ctx, updates, queries,
                                  SUSTAINED_TICKS)
            report["sustained"].append({
                "graph": name, "updates_per_tick": updates,
                "queries_per_tick": queries, "ticks": SUSTAINED_TICKS,
                "elapsed_ms": round(sus["elapsed_ms"], 2),
                "ticks_per_s": round(sus["ticks_per_s"], 2),
                "compactions": sus["compactions"],
                "delta_backlog_entries": sus["delta_backlog_entries"],
            })

    gates = {}
    speedups = [r["speedup"] for r in report["results"]
                if r["workload"] == "overlay"]
    gates["overlay"] = {
        "min_speedup": min(speedups) if speedups else None,
        "floor": GATE_OVERLAY_SPEEDUP,
        # both competitors run in-process on one core: no skip path
        "passed": bool(speedups and min(speedups) >= GATE_OVERLAY_SPEEDUP),
    }
    if require_cores and cores < require_cores:
        gates["cores"] = {
            "passed": False,
            "failed_reason": (f"--require-cores {require_cores} but machine "
                              f"has {cores}"),
        }
    evaluated = [g["passed"] for g in gates.values() if g["passed"] is not None]
    report["summary"] = {
        "gates": gates,
        "check_passed": all(evaluated) if evaluated else None,
    }
    return report


def print_table(report: dict) -> None:
    header = f"{'graph':<16} {'batch':>8} {'edges':>7} {'overlay ms':>11} " \
             f"{'rebuild ms':>11} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for r in report["results"]:
        print(f"{r['graph']:<16} {r['batch_fraction']:>7.2%} "
              f"{r['batch_edges']:>7} {r['overlay_ms']:>11.3f} "
              f"{r['rebuild_ms']:>11.3f} {r['speedup']:>7.2f}x")
    print()
    header = f"{'graph':<16} {'upd/tick':>8} {'qry/tick':>8} " \
             f"{'ticks/s':>9} {'compactions':>12} {'backlog':>8}"
    print(header)
    print("-" * len(header))
    for s in report["sustained"]:
        print(f"{s['graph']:<16} {s['updates_per_tick']:>8} "
              f"{s['queries_per_tick']:>8} {s['ticks_per_s']:>9.1f} "
              f"{s['compactions']:>12} {s['delta_backlog_entries']:>8}")
    gate = report["summary"]["gates"]["overlay"]
    print(f"\nmin overlay speedup: {gate['min_speedup']}x "
          f"(floor {gate['floor']}x, passed: {gate['passed']})")
    cores_gate = report["summary"]["gates"].get("cores")
    if cores_gate:
        print(f"core check failed: {cores_gate['failed_reason']}")
    print(f"regression check passed: {report['summary']['check_passed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: the RMAT suite at scale 13")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the overlay gate passed "
                             f"(overlay >= {GATE_OVERLAY_SPEEDUP}x rebuild "
                             "at every batch <= 1% nnz; machine-independent)")
    parser.add_argument("--require-cores", type=int, default=0, metavar="N",
                        help="hard-fail when the machine has fewer than N "
                             "cores — for runners that are supposed to "
                             "have them")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread budget of the shared context (the "
                             "overlay ratio is single-core by design)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing repetitions (best-of); default 5 quick / 7 full")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_streaming.json",
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
        print(f"FAIL: streaming regression gate not met (delta-overlay "
              f"apply+multiply >= {GATE_OVERLAY_SPEEDUP}x the full "
              f"rebuild+multiply path at update batches <= 1% of nnz)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
