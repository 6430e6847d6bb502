#!/usr/bin/env python
"""Serving demo: 32 concurrent clients, coalesced into fused batches.

A :class:`repro.serve.QueryServer` holds two named graphs and serves three
query kinds — SpMSpV multiply, personalized PageRank, multi-source BFS —
from 32 simulated closed-loop clients (each waits for its response before
sending the next request).  Same-graph/same-parameter requests arriving
within the coalescing window execute as ONE fused block: one union gather,
one scatter, one segmented merge for the whole batch, the paper's block-
kernel economics turned into serving throughput.

The demo runs the same workload twice — coalescing disabled
(``max_batch=1``) and enabled — and prints the throughput ratio plus the
server's ``serve_stats()``: batch-size histogram, coalesce ratio, latency
percentiles, and engine health.
"""

import numpy as np

from repro import default_context
from repro.graphs import rmat
from repro.serve import QueryServer, random_query, run_closed_loop

CLIENTS = 32
REQUESTS_PER_CLIENT = 4


def simulate(graphs, ctx, *, max_batch, max_wait_s, label):
    import time

    streams = [[random_query(np.random.default_rng(100 * c + j), graphs,
                             ("multiply", "pagerank", "bfs"), nnz=(8, 64))
                for j in range(REQUESTS_PER_CLIENT)]
               for c in range(CLIENTS)]
    # fused batches (the server's default loops); a batch of one never fuses
    with QueryServer(graphs, ctx, max_batch=max_batch, max_wait_s=max_wait_s,
                     block_mode="fused", max_queue=4096, overload="block",
                     default_timeout_s=60.0) as server:
        t0 = time.perf_counter()
        outcome = run_closed_loop(server, streams, result_timeout_s=120.0)
        elapsed = time.perf_counter() - t0
        stats = server.serve_stats()
    rps = outcome["ok"] / elapsed
    print(f"\n{label}:")
    print(f"  {outcome['ok']} responses ({outcome['errors']} errors) in "
          f"{elapsed * 1e3:.0f} ms -> {rps:,.0f} req/s")
    print(f"  {stats['batches']} batches, coalesce ratio "
          f"{stats['coalesce_ratio']:.2f}, histogram "
          f"{stats['batch_size_histogram']}")
    print(f"  latency p50 {stats['latency_p50_s'] * 1e3:.2f} ms, "
          f"p99 {stats['latency_p99_s'] * 1e3:.2f} ms")
    return rps


def main() -> None:
    graphs = {
        "social": rmat(scale=11, edge_factor=12, seed=5),
        "web": rmat(scale=11, edge_factor=8, seed=9),
    }
    for name, matrix in graphs.items():
        print(f"graph {name!r}: {matrix.ncols} vertices, {matrix.nnz} edges")
    ctx = default_context(num_threads=4)

    uncoalesced = simulate(graphs, ctx, max_batch=1, max_wait_s=0.0,
                           label="uncoalesced (max_batch=1)")
    coalesced = simulate(graphs, ctx, max_batch=16, max_wait_s=0.002,
                         label="coalesced (max_batch=16, 2 ms window)")
    print(f"\ncoalescing speedup at {CLIENTS} concurrent clients: "
          f"{coalesced / uncoalesced:.2f}x")


if __name__ == "__main__":
    main()
