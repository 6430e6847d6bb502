"""Incremental graph algorithms: restart from the previous result on updates.

The delta layer (:mod:`repro.formats.delta`) makes *multiplies* cheap under
edge updates; this module makes whole *algorithms* cheap by reusing their
previous answers instead of recomputing from scratch:

* :func:`incremental_bfs` — after edge **insertions**, distances can only
  shrink, and every shrink originates at an inserted edge.  The previous
  level array is repaired by level-synchronous relaxation seeded from the
  inserted edges, expanding only the vertices whose level actually improved
  — typically a vanishing fraction of the graph for small update batches.
* :func:`incremental_pagerank` — the power iteration converges from any
  starting vector, so it is warm-restarted from the previous scores: one
  residual computation plus the few delta-form iterations the perturbation
  needs, instead of the full cold-start trajectory.

Caveats (documented, by design):

* Incremental BFS *repairs* **insertions only**.  A deletion can disconnect
  the tree or lengthen shortest paths, which the insertion relaxation can
  never express — monotone level shrinking cannot undo a removed edge — so
  reusing the previous levels after deletions would silently return stale
  (too-small) levels.  Deletions must therefore be declared via
  ``deleted_rows``/``deleted_cols``: with ``on_delete="error"`` (the
  default) the call raises :class:`~repro.errors.NotSupportedError`; with
  ``on_delete="recompute"`` it transparently falls back to a cold
  :func:`~repro.algorithms.bfs.bfs` on the updated graph and marks the
  result ``recomputed=True``.  Either way, stale levels are impossible.
  For pure insertions, levels are exact; parents form *a* valid BFS tree
  (each parent is one level above its child) but tie-breaks may differ
  from a cold run, because only improved vertices re-expand.
* Incremental PageRank is exact to the iteration tolerance (the fixed
  point is unique), not bit-identical to a cold run.

Both entry points run on the caller's ``engine`` (deltas included) or on a
new whole-layout engine.  A recomputed BFS runs the level loop of
:func:`~repro.algorithms.bfs.bfs`, and the warm restart continues in the
delta iteration of :func:`~repro.algorithms.pagerank.pagerank`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array
from ..core.engine import SpMSpVEngine
from ..errors import NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext
from ..parallel.metrics import ExecutionRecord
from ..semiring import MIN_SELECT2ND, PLUS_TIMES
from ._engine import adjacency, algorithm_engine
from .bfs import BFSResult, _single_source
from .pagerank import PageRankResult, _iterate, _spread, _teleport, column_stochastic

__all__ = ["incremental_bfs", "incremental_pagerank"]


def incremental_bfs(graph: Graph | CSCMatrix, previous: BFSResult,
                    inserted_rows, inserted_cols,
                    ctx: Optional[ExecutionContext] = None, *,
                    algorithm: str = "bucket",
                    deleted_rows=None, deleted_cols=None,
                    on_delete: str = "error",
                    engine: Optional[SpMSpVEngine] = None) -> BFSResult:
    """Repair a BFS result after edge insertions.

    ``graph`` is the **updated** adjacency (``A(i, j)`` = edge ``j -> i``;
    an engine already holding it — deltas included — can be passed via
    ``engine``, the serving layer's warm path).  ``previous`` is the result
    of a BFS from the same source on the graph *before* the insertions, and
    ``inserted_rows``/``inserted_cols`` list the inserted edges as
    ``(target, source)`` coordinate pairs — reweights of existing edges are
    harmless no-ops here (BFS ignores weights).

    Distances only shrink under insertions, and every shrink starts at an
    inserted edge, so the repair seeds a worklist from the edges whose
    target improves and relaxes level-synchronously: at each step the
    lowest-level improved vertices expand through one ``MIN_SELECT2ND``
    SpMSpV, exactly like a cold BFS level, but over a frontier of improved
    vertices only.  The returned levels equal a from-scratch BFS on the
    updated graph.

    **Deletions cannot be repaired** — they lengthen paths, which the
    monotone shrink relaxation cannot express — and silently reusing the
    previous levels would return stale answers.  Any update batch that
    removed edges must declare them via ``deleted_rows``/``deleted_cols``:
    with ``on_delete="error"`` (the default) the call raises
    :class:`~repro.errors.NotSupportedError`; with
    ``on_delete="recompute"`` it runs a cold
    :func:`~repro.algorithms.bfs.bfs` from the same source on the updated
    graph (through ``engine`` when given, so engine-side deltas are
    honoured) and returns that result with ``recomputed=True``.
    """
    matrix = adjacency(graph, "BFS")
    n = matrix.ncols
    if len(previous.levels) != n:
        raise ValueError(
            f"previous result covers {len(previous.levels)} vertices; "
            f"graph has {n}")
    if on_delete not in ("error", "recompute"):
        raise ValueError(
            f"on_delete must be 'error' or 'recompute', got {on_delete!r}")
    del_rows = as_index_array(deleted_rows) if deleted_rows is not None \
        else np.empty(0, dtype=INDEX_DTYPE)
    del_cols = as_index_array(deleted_cols) if deleted_cols is not None \
        else np.empty(0, dtype=INDEX_DTYPE)
    if len(del_rows) != len(del_cols):
        raise ValueError("deleted_rows and deleted_cols must match in length")
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, engine=engine)
    if len(del_rows):
        if on_delete == "error":
            raise NotSupportedError(
                f"incremental_bfs cannot repair {len(del_rows)} edge "
                f"deletion(s): deletions lengthen shortest paths, which the "
                f"insertion relaxation cannot express, and reusing the "
                f"previous levels would be stale.  Pass "
                f"on_delete='recompute' to fall back to a cold BFS, or run "
                f"repro.algorithms.bfs.bfs on the updated graph directly")
        # a cold BFS through the caller's engine keeps its deltas visible
        result = _single_source(engine, previous.source)
        result.recomputed = True
        return result

    levels = np.asarray(previous.levels).copy()
    parents = np.asarray(previous.parents).copy()
    rows = as_index_array(inserted_rows)
    cols = as_index_array(inserted_cols)
    if len(rows) != len(cols):
        raise ValueError("inserted_rows and inserted_cols must match in length")

    # seed: inserted edge (source=col, target=row) improves the target when
    # the source is reached and the hop beats the target's current level;
    # per target keep the lowest candidate level, breaking ties on the
    # smallest source id (the cold run's MIN_SELECT2ND tie-break)
    src_levels = levels[cols] if len(cols) else np.empty(0, dtype=levels.dtype)
    usable = src_levels >= 0
    cand = np.where(usable, src_levels + 1, np.iinfo(np.int64).max)
    better = usable & ((levels[rows] < 0) | (cand < levels[rows]))
    in_worklist = np.zeros(n, dtype=bool)
    if better.any():
        t_rows, t_cand, t_src = rows[better], cand[better], cols[better]
        order = np.lexsort((t_src, t_cand, t_rows))
        t_rows, t_cand, t_src = t_rows[order], t_cand[order], t_src[order]
        first = np.empty(len(t_rows), dtype=bool)
        first[0] = True
        np.not_equal(t_rows[1:], t_rows[:-1], out=first[1:])
        t_rows, t_cand, t_src = t_rows[first], t_cand[first], t_src[first]
        levels[t_rows] = t_cand
        parents[t_rows] = t_src
        in_worklist[t_rows] = True

    records: List[ExecutionRecord] = []
    frontier_sizes: List[int] = []
    while in_worklist.any():
        work = np.flatnonzero(in_worklist)
        level = int(levels[work].min())
        frontier_idx = work[levels[work] == level].astype(INDEX_DTYPE)
        in_worklist[frontier_idx] = False
        frontier = SparseVector(n, frontier_idx,
                                frontier_idx.astype(np.float64),
                                sorted=True, check=False)
        frontier_sizes.append(frontier.nnz)
        result = engine.multiply(frontier, semiring=MIN_SELECT2ND)
        records.append(result.record)
        reached = result.vector
        if reached.nnz == 0:
            continue
        improve = (levels[reached.indices] < 0) | \
                  (level + 1 < levels[reached.indices])
        targets = reached.indices[improve]
        levels[targets] = level + 1
        parents[targets] = reached.values[improve].astype(INDEX_DTYPE)
        in_worklist[targets] = True

    return BFSResult(source=previous.source, levels=levels, parents=parents,
                     num_iterations=len(records), frontier_sizes=frontier_sizes,
                     records=records, engine=engine)


def incremental_pagerank(graph: Graph | CSCMatrix, previous_scores: np.ndarray,
                         ctx: Optional[ExecutionContext] = None, *,
                         damping: float = 0.85,
                         tol: float = 1e-8,
                         max_iterations: int = 200,
                         personalization: Optional[np.ndarray] = None,
                         algorithm: str = "bucket",
                         engine: Optional[SpMSpVEngine] = None) -> PageRankResult:
    """Warm-restart PageRank on the updated graph from the previous scores.

    ``graph`` is the **updated** adjacency; ``engine``, when given, must
    hold its column-stochastic transition (``column_stochastic(updated)``)
    — the serving layer rebuilds that engine lazily after updates.  The
    iteration runs in the same delta form as
    :func:`~repro.algorithms.pagerank.pagerank`, but seeded with the
    *residual* of the previous scores under the updated operator instead of
    the full teleport vector: one dense residual multiply, then only the
    vertices the update actually perturbed stay active.  The fixed point is
    unique (``damping < 1``), so the result matches a cold run to within
    the tolerance — after a small update batch, typically in a handful of
    iterations instead of the cold run's dozens.
    """
    matrix = adjacency(graph, "PageRank")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1); got {damping}")
    n = matrix.ncols
    previous_scores = np.asarray(previous_scores, dtype=np.float64)
    if previous_scores.shape != (n,):
        raise ValueError(
            f"previous_scores has shape {previous_scores.shape}; "
            f"expected ({n},)")
    total = previous_scores.sum()
    if not total > 0:
        raise ValueError("previous_scores must have positive total mass")
    engine = algorithm_engine(matrix, ctx, algorithm=algorithm, engine=engine,
                              operator=column_stochastic)
    teleport = _teleport(n, personalization)

    # the unnormalized fixed point solves p = damping*M p + teleport and has
    # total mass 1/(1-damping) (the operator scales mass by damping and the
    # teleport injects 1 per step); rescale the normalized previous scores to
    # that mass so the warm guess sits near the fixed point, then run the
    # standard delta iteration seeded with the guess's residual r0:
    # p = p0 + sum_k (damping*M)^k r0
    scores = previous_scores * (1.0 / (1.0 - damping) / total)
    guess = SparseVector.from_dense(scores)
    applied = engine.multiply(guess, semiring=PLUS_TIMES)
    residual = teleport + _spread(applied, guess, engine.matrix, teleport, damping) - scores
    active = np.flatnonzero(np.abs(residual) > tol)
    delta = SparseVector(n, active.astype(INDEX_DTYPE), residual[active],
                         sorted=True, check=False)
    blocked, records = _iterate(engine, [teleport], damping=damping, tol=tol,
                                max_iterations=max_iterations,
                                scores=(scores + residual)[None], deltas=[delta])
    return PageRankResult(scores=blocked.scores[0], num_iterations=blocked.num_iterations,
                          active_sizes=blocked.active_sizes,
                          records=[applied.record] + records[0], engine=engine)
