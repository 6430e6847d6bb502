"""Serving-throughput harness: coalesced vs. uncoalesced query serving.

Drives N closed-loop clients (each waits for its response before sending
the next request) against two :class:`~repro.serve.QueryServer`
configurations over the RMAT suite graphs:

* **uncoalesced** — ``max_batch=1``: every request is its own engine call,
  the one-query-one-kernel baseline;
* **coalesced** — ``max_batch=16`` within a ~2 ms window and
  ``block_mode="fused"`` (the server's default loops): concurrent same-key
  requests execute as one fused
  :class:`~repro.formats.vector_block.SparseVectorBlock` batch (one union
  gather, one scatter, one segmented merge for the whole batch — the
  paper's block-kernel economics turned into serving throughput).

The gate is **coalesced throughput >= 1.5x uncoalesced at >= 16 concurrent
clients**.  Wall-clock throughput ratios need hardware: below
``GATE_MIN_CORES`` cores the numbers are still measured and reported, but
the gate records as skipped (``"passed": null``) — unless
``--require-cores N`` says the runner was *supposed* to have cores, in
which case a shortfall is a hard failure.  A second, machine-independent
gate always evaluates: a sample of coalesced responses must be
bit-identical to solo ``SpMSpVEngine.multiply`` calls.

Results are printed and written to ``BENCH_serving.json``; exit status is
the CI regression gate:

    python benchmarks/bench_serving.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import SpMSpVEngine
from repro.graphs import build_problem
from repro.parallel import default_context
from repro.serve import MultiplyQuery, QueryServer, random_query

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_GRAPHS = [("ljournal-like", 14), ("webgoogle-like", 14)]
QUICK_GRAPHS = [("ljournal-like", 13), ("webgoogle-like", 13)]

#: the gate's concurrency floor: coalescing wins must show at real fan-in
GATE_MIN_CLIENTS = 16
#: coalesced serving throughput vs. the max_batch=1 baseline
GATE_COALESCE_SPEEDUP = 1.5
#: wall-clock throughput ratios need real cores (client threads + pump
#: contend for the GIL on fewer); below this the speedup gate is skipped
GATE_MIN_CORES = 4
#: responses sampled per run for the bit-identity audit
IDENTITY_SAMPLE = 32

MAX_BATCH = 16
MAX_WAIT_S = 0.002


def client_queries(graphs, clients: int, per_client: int, seed: int):
    """Deterministic per-client query streams (multiply-only, mixed nnz)."""
    return [[random_query(np.random.default_rng(seed + 1000 * c + j), graphs,
                          ("multiply",), nnz=(16, 128))
             for j in range(per_client)]
            for c in range(clients)]


def run_closed_loop_collect(server, streams, result_timeout_s=120.0):
    """Closed-loop clients that keep their responses (for the identity
    audit); returns (ok, errors, elapsed_s, responses-by-client)."""
    ok = [0] * len(streams)
    errors = [0] * len(streams)
    responses = [[None] * len(s) for s in streams]

    def client(i):
        for j, query in enumerate(streams[i]):
            try:
                future = server.submit(query)
                responses[i][j] = future.result(timeout=result_timeout_s)
                ok[i] += 1
            except Exception:
                errors[i] += 1

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(len(streams))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return sum(ok), sum(errors), elapsed, responses


def verify_identity(graphs, streams, responses, sample: int, seed: int) -> dict:
    """Bit-compare a deterministic sample of responses to solo engine calls."""
    ctx = default_context()
    engines = {name: SpMSpVEngine(matrix, ctx, algorithm="bucket")
               for name, matrix in graphs.items()}
    flat = [(streams[i][j], responses[i][j])
            for i in range(len(streams)) for j in range(len(streams[i]))
            if responses[i][j] is not None]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(flat), size=min(sample, len(flat)), replace=False)
    mismatches = 0
    for p in picks.tolist():
        query, served = flat[p]
        ref = engines[query.graph].multiply(query.x)
        if not (np.array_equal(served.vector.indices, ref.vector.indices)
                and np.array_equal(served.vector.values, ref.vector.values)):
            mismatches += 1
    return {"sampled": int(len(picks)), "mismatches": mismatches,
            "bit_identical": mismatches == 0}


def bench_graph(name, scale, clients, per_client, threads) -> dict:
    matrix = build_problem(name, scale).matrix
    graphs = {name: matrix}
    ctx = default_context(num_threads=threads)
    row = {"graph": name, "scale": scale, "n": matrix.ncols,
           "nnz": matrix.nnz, "clients": clients,
           "requests": clients * per_client}

    configs = {
        "uncoalesced": dict(max_batch=1, max_wait_s=0.0),
        "coalesced": dict(max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S,
                          block_mode="fused"),
    }
    identity = None
    for label, knobs in configs.items():
        streams = client_queries(graphs, clients, per_client, seed=7)
        server = QueryServer(graphs, ctx, max_queue=4 * clients * MAX_BATCH,
                             overload="block", **knobs)
        try:
            # warm the engine workspace off the clock
            server.submit(streams[0][0]).result(timeout=120.0)
            ok, errors, elapsed, responses = run_closed_loop_collect(
                server, streams)
            stats = server.serve_stats()
        finally:
            server.close()
        row[label] = {
            "ok": ok, "errors": errors, "elapsed_s": round(elapsed, 4),
            "throughput_rps": round(ok / elapsed, 2) if elapsed > 0 else None,
            "batches": stats["batches"],
            "coalesce_ratio": round(stats["coalesce_ratio"], 3),
            "batch_size_histogram": stats["batch_size_histogram"],
            "latency_p50_s": stats["latency_p50_s"],
            "latency_p99_s": stats["latency_p99_s"],
        }
        if label == "coalesced":
            identity = verify_identity(graphs, streams, responses,
                                       IDENTITY_SAMPLE, seed=13)
    un, co = row["uncoalesced"], row["coalesced"]
    row["speedup"] = (round(co["throughput_rps"] / un["throughput_rps"], 3)
                      if un["throughput_rps"] else None)
    row["identity"] = identity
    return row


def run(quick: bool, threads: int, clients: int, per_client: int,
        require_cores: int = 0) -> dict:
    graphs = QUICK_GRAPHS if quick else FULL_GRAPHS
    cores = os.cpu_count() or 1
    report = {
        "benchmark": "serving",
        "quick": quick,
        "cpu_cores": cores,
        "require_cores": require_cores or None,
        "clients": clients,
        "requests_per_client": per_client,
        "config": {"max_batch": MAX_BATCH, "max_wait_s": MAX_WAIT_S,
                   "block_mode": "fused", "algorithm": "bucket"},
        "gate": {"coalesce_min_speedup": GATE_COALESCE_SPEEDUP,
                 "min_clients": GATE_MIN_CLIENTS,
                 "min_cores": GATE_MIN_CORES},
        "results": [],
    }
    for name, scale in graphs:
        report["results"].append(
            bench_graph(name, scale, clients, per_client, threads))

    gates = {}
    speedups = [r["speedup"] for r in report["results"]
                if r["speedup"] is not None]
    gates["coalesce_throughput"] = {
        "min_speedup": min(speedups) if speedups else None,
        "floor": GATE_COALESCE_SPEEDUP,
        "clients": clients,
    }
    if clients < GATE_MIN_CLIENTS:
        gates["coalesce_throughput"]["passed"] = None
        gates["coalesce_throughput"]["skipped"] = (
            f"{clients} clients < the gate's {GATE_MIN_CLIENTS}-client floor")
    elif cores >= GATE_MIN_CORES:
        gates["coalesce_throughput"]["passed"] = bool(
            speedups and min(speedups) >= GATE_COALESCE_SPEEDUP)
    elif require_cores and cores < require_cores:
        gates["coalesce_throughput"]["passed"] = False
        gates["coalesce_throughput"]["failed_reason"] = (
            f"--require-cores {require_cores} but machine has {cores}")
    else:
        gates["coalesce_throughput"]["passed"] = None
        gates["coalesce_throughput"]["skipped"] = (
            f"machine has {cores} core(s); client threads + the serving pump "
            f"need >= {GATE_MIN_CORES} for a wall-clock throughput ratio")
    identities = [r["identity"]["bit_identical"] for r in report["results"]]
    gates["bit_identity"] = {
        "sampled": sum(r["identity"]["sampled"] for r in report["results"]),
        "passed": all(identities),  # machine-independent: always evaluated
    }
    evaluated = [g["passed"] for g in gates.values() if g["passed"] is not None]
    report["summary"] = {
        "gates": gates,
        "check_passed": all(evaluated) if evaluated else None,
    }
    return report


def print_table(report: dict) -> None:
    header = (f"{'graph':<16} {'clients':>7} {'uncoal rps':>11} "
              f"{'coal rps':>9} {'speedup':>8} {'ratio':>6} {'ident':>6}")
    print(header)
    print("-" * len(header))
    for r in report["results"]:
        print(f"{r['graph']:<16} {r['clients']:>7} "
              f"{r['uncoalesced']['throughput_rps']:>11,.0f} "
              f"{r['coalesced']['throughput_rps']:>9,.0f} "
              f"{r['speedup']:>7.2f}x "
              f"{r['coalesced']['coalesce_ratio']:>6.2f} "
              f"{'ok' if r['identity']['bit_identical'] else 'FAIL':>6}")
    print()
    for name, gate in report["summary"]["gates"].items():
        if gate.get("skipped"):
            print(f"{name} gate SKIPPED: {gate['skipped']} "
                  f"(measured min {gate.get('min_speedup')}x)")
        else:
            detail = (f"min speedup {gate['min_speedup']}x, floor "
                      f"{gate['floor']}x" if "floor" in gate
                      else f"{gate['sampled']} responses sampled")
            print(f"{name} gate: {detail} (passed: {gate['passed']}"
                  + (f", {gate['failed_reason']}" if gate.get("failed_reason")
                     else "") + ")")
    print(f"regression check passed: {report['summary']['check_passed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: the RMAT suite at scale 13, "
                             "fewer requests per client")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every evaluated gate passed "
                             "(the throughput gate skips below "
                             f"{GATE_MIN_CORES} cores unless --require-cores; "
                             "the bit-identity gate always evaluates)")
    parser.add_argument("--require-cores", type=int, default=0, metavar="N",
                        help="hard-fail (instead of skipping the throughput "
                             "gate) when the machine has fewer than N cores")
    parser.add_argument("--clients", type=int, default=None,
                        help=f"concurrent closed-loop clients (default "
                             f"{GATE_MIN_CLIENTS}; the throughput gate only "
                             f"evaluates at >= {GATE_MIN_CLIENTS})")
    parser.add_argument("--per-client", type=int, default=None,
                        help="requests each client sends (default 8 quick / "
                             "25 full)")
    parser.add_argument("--threads", type=int, default=4,
                        help="engine context thread budget")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_serving.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    clients = args.clients if args.clients is not None else GATE_MIN_CLIENTS
    per_client = (args.per_client if args.per_client is not None
                  else (8 if args.quick else 25))
    report = run(args.quick, args.threads, clients, per_client,
                 require_cores=args.require_cores)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print_table(report)
    print(f"\nwrote {args.out}")
    if args.check and report["summary"]["check_passed"] is False:
        print(f"FAIL: serving regression gate not met (coalesced throughput "
              f">= {GATE_COALESCE_SPEEDUP}x uncoalesced at >= "
              f"{GATE_MIN_CLIENTS} clients, sampled responses bit-identical "
              f"to solo engine calls)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
