#!/usr/bin/env python
"""Multi-source BFS: batched frontier expansion on the SpMSpV engine.

Multi-source traversal (a building block of all-pairs shortest distance
sketches, betweenness sampling, and landmark labelings) runs one BFS from
each of several sources.  Doing the searches one by one re-dispatches and
re-allocates per call; :func:`repro.algorithms.bfs_multi_source` instead
batches the active frontiers of *all* searches into a single
``engine.multiply_many`` per level, so the whole job shares one persistent
workspace (buckets + SPA allocated once, §III-A).  The example passes
``block_mode="fused"``, so each level with two or more active frontiers
runs one fused gather/scatter: at the emulated ``num_threads=8`` it uses,
the per-vector loop runs each frontier's eight thread chunks one after
another and fusion wins.  At ``num_threads=1`` the default looped mode is
the faster one.

The example compares the batched run against per-source ``bfs`` calls and
prints the engine's call summary and workspace-reuse statistics.
"""

import time

import numpy as np

from repro import default_context
from repro.algorithms import bfs, bfs_multi_source
from repro.analysis import format_workspace_stats, summarize_engine
from repro.graphs import rmat


def main() -> None:
    matrix = rmat(scale=14, edge_factor=12, seed=5)
    n = matrix.ncols
    ctx = default_context(num_threads=8)
    rng = np.random.default_rng(42)
    sources = sorted(int(s) for s in rng.choice(n, size=6, replace=False))
    print(f"graph: {n} vertices, {matrix.nnz} edges; sources: {sources}")

    # batched: one engine, one multiply_many per level
    t0 = time.perf_counter()
    multi = bfs_multi_source(matrix, sources, ctx, block_mode="fused")
    batched_s = time.perf_counter() - t0
    print(f"\nbatched multi-source BFS: {multi.num_iterations} levels, "
          f"{len(multi.engine.history)} SpMSpV calls, {batched_s * 1e3:.1f} ms wall")
    print(f"per-level total frontier sizes: {multi.frontier_sizes}")

    # per-source baseline: six independent runs (six engines, six workspaces)
    t0 = time.perf_counter()
    singles = [bfs(matrix, s, ctx) for s in sources]
    single_s = time.perf_counter() - t0
    print(f"per-source BFS runs:      {single_s * 1e3:.1f} ms wall")

    for k, (s, single) in enumerate(zip(sources, singles)):
        assert np.array_equal(multi.levels[k], single.levels), "batched != single!"
        reached = int(np.count_nonzero(multi.levels[k] >= 0))
        print(f"  source {s:>6d}: reached {reached} vertices, "
              f"eccentricity {single.max_level()}")

    print("\nengine summary:", summarize_engine(multi.engine))
    print()
    print(format_workspace_stats(multi.engine.workspace))


if __name__ == "__main__":
    main()
