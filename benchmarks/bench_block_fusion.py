"""Block-fusion perf-regression harness: fused vs looped ``multiply_many``.

Measures the wall-clock speedup of the fused vector-block kernel
(:func:`repro.core.spmspv_block.spmspv_bucket_block`, one gather/scatter per
batch) over the per-vector loop, across block widths k, on the RMAT suite
graphs — the multi-source-BFS-shaped workload the fusion exists for.  Three
workloads per (graph, k):

* ``multiply_many`` — k random frontiers through one engine, forced
  ``block_mode="fused"`` vs ``"looped"`` (the primitive itself);
* ``multiply_many_masked`` — the same with per-vector complement masks over
  half the rows (the multi-source-BFS shape), exercising the early-masking
  fold: dead (row, vector-id) pairs dropped at scatter time;
* ``bfs_multi_source`` — a full k-source BFS in each mode (the end-to-end
  algorithm).

Results are printed as a table and written to a machine-readable
``BENCH_block_fusion.json`` so the benchmark trajectory records per-k
speedups over time.  Exit status is the regression gate used by CI:

    python benchmarks/bench_block_fusion.py --quick --check

fails (exit 1) if fused is *slower* than looped at k=16 on the smoke graph
(unmasked or masked).  A full run additionally reports the paper-style
target: >= 2x fused-vs-looped at k >= 8.

The default ``--threads 8`` emulates an 8-thread context, where the looped
path runs each vector's eight chunks one after another and fusion wins.  At
``--threads 1`` (the library default) the loop is the faster path, which is
why ``multiply_many`` loops unless asked to fuse.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import bfs_multi_source
from repro.core import SpMSpVEngine
from repro.formats import SparseVector
from repro.graphs import build_problem
from repro.parallel import default_context

REPO_ROOT = Path(__file__).resolve().parent.parent

#: RMAT suite problems (low-diameter scale-free class) and their bench scales
FULL_GRAPHS = [("ljournal-like", 14), ("webgoogle-like", 14)]
QUICK_GRAPHS = [("ljournal-like", 12)]

FULL_KS = [1, 2, 4, 8, 16, 32]
QUICK_KS = [4, 16]

#: gate: fused must not be slower than looped at this k (CI smoke check)
CHECK_K = 16
#: full-run target: >= 2x at k >= 8
TARGET_SPEEDUP, TARGET_K = 2.0, 8


def random_frontiers(n: int, k: int, nnz: int, seed: int):
    rng = np.random.default_rng(seed)
    frontiers = []
    for i in range(k):
        idx = np.sort(rng.choice(n, size=min(nnz, n), replace=False))
        frontiers.append(SparseVector(n, idx, rng.random(len(idx)) + 0.1))
    return frontiers


def random_masks(m: int, k: int, seed: int):
    """Per-vector masks over half the rows (the visited-set shape of BFS)."""
    rng = np.random.default_rng(seed)
    return [SparseVector.full_like_indices(
        m, np.sort(rng.choice(m, size=m // 2, replace=False)), 1.0)
        for _ in range(k)]


def time_best(fn, rounds: int) -> float:
    """Best-of-N wall time in milliseconds (minimizes scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def time_best_interleaved(fns: dict, rounds: int) -> dict:
    """Best-of-N for several competitors, rounds interleaved.

    Alternating the competitors inside every round (instead of timing one
    fully before the other) exposes them to the same allocator / frequency /
    cache drift, so their *ratio* — which is what the regression gates
    check — stays stable even when absolute times wander.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], (time.perf_counter() - t0) * 1e3)
    return best


def bench_multiply_many(matrix, ctx, k: int, nnz: int, rounds: int,
                        masked: bool = False):
    """Forced fused vs looped multiply_many over k random frontiers."""
    frontiers = random_frontiers(matrix.ncols, k, nnz, seed=17 * k + 1)
    masks = random_masks(matrix.nrows, k, seed=29 * k + 3) if masked else None
    runs = {}
    for mode in ("looped", "fused"):
        engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
        run = lambda engine=engine, mode=mode: engine.multiply_many(
            frontiers, masks=masks, mask_complement=masked, block_mode=mode)
        run()  # warm workspace
        runs[mode] = run
    return time_best_interleaved(runs, rounds)


def bench_bfs(matrix, ctx, k: int, rounds: int):
    """Full k-source BFS, fused vs looped block path."""
    sources = list(range(k))
    times = {}
    for mode in ("looped", "fused"):
        bfs_multi_source(matrix, sources, ctx, block_mode=mode)  # warm
        times[mode] = time_best(
            lambda: bfs_multi_source(matrix, sources, ctx, block_mode=mode),
            max(1, rounds // 2))
    return times


def run(quick: bool, threads: int, rounds: int) -> dict:
    graphs = QUICK_GRAPHS if quick else FULL_GRAPHS
    ks = QUICK_KS if quick else FULL_KS
    ctx = default_context(num_threads=threads)
    report = {
        "benchmark": "block_fusion",
        "quick": quick,
        "num_threads": threads,
        "rounds": rounds,
        "check_k": CHECK_K,
        "target": {"speedup": TARGET_SPEEDUP, "min_k": TARGET_K},
        "graphs": [],
        "results": [],
    }
    for name, scale in graphs:
        graph = build_problem(name, scale)
        matrix = graph.matrix
        report["graphs"].append({"name": name, "scale": scale,
                                 "vertices": matrix.ncols, "edges": matrix.nnz})
        frontier_nnz = max(64, matrix.ncols // 64)
        for k in ks:
            mm = bench_multiply_many(matrix, ctx, k, frontier_nnz, rounds)
            report["results"].append({
                "graph": name, "workload": "multiply_many", "k": k,
                "frontier_nnz": frontier_nnz,
                "fused_ms": round(mm["fused"], 4),
                "looped_ms": round(mm["looped"], 4),
                "speedup": round(mm["looped"] / mm["fused"], 4)
                if mm["fused"] > 0 else float("inf"),
            })
            if k >= 4:
                masked = bench_multiply_many(matrix, ctx, k, frontier_nnz,
                                             rounds, masked=True)
                report["results"].append({
                    "graph": name, "workload": "multiply_many_masked", "k": k,
                    "frontier_nnz": frontier_nnz,
                    "fused_ms": round(masked["fused"], 4),
                    "looped_ms": round(masked["looped"], 4),
                    "speedup": round(masked["looped"] / masked["fused"], 4)
                    if masked["fused"] > 0 else float("inf"),
                })
            if k >= 4:
                bfs_times = bench_bfs(matrix, ctx, k, rounds)
                report["results"].append({
                    "graph": name, "workload": "bfs_multi_source", "k": k,
                    "fused_ms": round(bfs_times["fused"], 4),
                    "looped_ms": round(bfs_times["looped"], 4),
                    "speedup": round(bfs_times["looped"] / bfs_times["fused"], 4)
                    if bfs_times["fused"] > 0 else float("inf"),
                })

    mm_at_target = [r["speedup"] for r in report["results"]
                    if r["workload"] == "multiply_many" and r["k"] >= TARGET_K]
    mm_at_check = [r["speedup"] for r in report["results"]
                   if r["workload"] in ("multiply_many", "multiply_many_masked")
                   and r["k"] == CHECK_K]
    report["summary"] = {
        "min_speedup_at_target_k": min(mm_at_target) if mm_at_target else None,
        "target_met": bool(mm_at_target and min(mm_at_target) >= TARGET_SPEEDUP),
        "min_speedup_at_check_k": min(mm_at_check) if mm_at_check else None,
        "check_passed": bool(mm_at_check and min(mm_at_check) >= 1.0),
    }
    return report


def print_table(report: dict) -> None:
    header = f"{'graph':<16} {'workload':<20} {'k':>4} {'baseline ms':>12} " \
             f"{'new ms':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for r in report["results"]:
        print(f"{r['graph']:<16} {r['workload']:<20} {r['k']:>4} "
              f"{r['looped_ms']:>12.3f} {r['fused_ms']:>10.3f} "
              f"{r['speedup']:>7.2f}x")
    s = report["summary"]
    print(f"\nmin speedup at k>={TARGET_K} (multiply_many): "
          f"{s['min_speedup_at_target_k']} "
          f"(target {TARGET_SPEEDUP}x met: {s['target_met']})")
    print(f"min fused-vs-looped at k={CHECK_K} (incl. masked): "
          f"{s['min_speedup_at_check_k']}")
    print(f"regression check passed: {s['check_passed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one small graph, k in {4, 16}")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if fused is slower than looped at k=16 "
                             "(unmasked or masked)")
    parser.add_argument("--threads", type=int, default=8,
                        help="emulated thread count of the execution context "
                             "(Edison-style multi-threaded runs, as the other "
                             "bench modules use; the looped path's per-bucket "
                             "work grows with nb = 4t while the fused path is "
                             "insensitive to it)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing repetitions (best-of); default 3 quick / 5 full")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_block_fusion.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds is not None else (3 if args.quick else 5)
    report = run(args.quick, args.threads, rounds)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print_table(report)
    print(f"\nwrote {args.out}")
    if args.check and not report["summary"]["check_passed"]:
        print("FAIL: block-fusion regression gate "
              f"(fused-vs-looped at k={CHECK_K} incl. masked) not met",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
