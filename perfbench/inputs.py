"""Workload definitions and seeded input generation.

The graphs are the suite's fixed stand-ins (their generator seeds are part
of the suite); the workload seed picks BFS sources and the serving schedule.
Nothing here is timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from repro.formats.csc import CSCMatrix
from repro.formats.sparse_vector import SparseVector
from repro.graphs.suite import build_problem
from repro.serve.requests import MultiplyQuery, UpdateQuery


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: BFS graph: (suite problem, scale)
    bfs_graph: Tuple[str, int]
    #: graphs the query server holds: (suite problem, scale) each
    serve_graphs: Tuple[Tuple[str, int], ...]
    #: offered rates (requests/s) of the light and heavy serving phases,
    #: about a fifth and two fifths of what the server sustains on these graphs
    light_rps: int
    heavy_rps: int


WORKLOADS: Dict[str, Workload] = {
    "rmat": Workload(
        name="rmat",
        why=("scale-free: ~6-level BFS whose bulging frontier puts most time in "
             "the kernel, on a 14 MiB CSC (7x the 2 MiB L2 per core); kernel-heavy "
             "reads when served"),
        bfs_graph=("ljournal-like", 15),
        serve_graphs=(("ljournal-like", 14), ("webgoogle-like", 14)),
        light_rps=200, heavy_rps=400),
    "mesh": Workload(
        name="mesh",
        why=("high-diameter: ~55-level BFS with frontiers of tens of vertices, so "
             "per-call overhead in the engine, layout and backend dominates; "
             "overhead-bound reads when served"),
        bfs_graph=("hugetric-like", 40),
        serve_graphs=(("hugetric-like", 128), ("rgg-like", 128)),
        light_rps=300, heavy_rps=600),
}

#: share of served requests that are writes
WRITE_SHARE = 0.05
#: edges per write
WRITE_EDGES = 8
#: nnz range of a read's input vector
READ_NNZ = (16, 128)


def build_graph(problem: str, scale: int) -> CSCMatrix:
    return build_problem(problem, scale).matrix


def fresh_copy(matrix: CSCMatrix) -> CSCMatrix:
    """A new matrix object over the same arrays.

    The serving layer's engine cache is keyed by matrix identity, so each
    server gets its own objects and never inherits an earlier server's
    pending updates.
    """
    return CSCMatrix(matrix.shape, matrix.indptr, matrix.indices, matrix.data,
                     sorted_within_columns=matrix.sorted_within_columns,
                     check=False)


def scipy_graph(matrix: CSCMatrix) -> csr_matrix:
    """Scipy's view of the graph: row ``j`` of the result lists the edges j -> i."""
    m, n = matrix.shape
    return csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=(n, m))


def pick_sources(matrix: CSCMatrix, count: int, blocks: int,
                 rng: np.random.Generator) -> List[List[int]]:
    """``blocks`` lists of seeded sources from the largest connected component.

    Each block splits the component into ``count`` equal runs of vertex ids
    and draws one source from each, so every block covers the graph evenly
    (on the mesh, ids run row by row, which spreads sources over the mesh).
    """
    _, labels = csgraph.connected_components(scipy_graph(matrix), directed=True,
                                             connection="weak")
    giant = np.flatnonzero(labels == np.bincount(labels).argmax())
    strata = np.array_split(giant, count)
    return [[int(stratum[rng.integers(len(stratum))]) for stratum in strata]
            for _ in range(blocks)]


def reference_levels(graph: csr_matrix, source: int) -> np.ndarray:
    """BFS levels from scipy (-1 where unreachable)."""
    dist = csgraph.shortest_path(graph, method="D", directed=True,
                                 unweighted=True, indices=source)
    levels = np.full(dist.shape, -1, dtype=np.int64)
    reached = np.isfinite(dist)
    levels[reached] = dist[reached].astype(np.int64)
    return levels


@dataclass
class Schedule:
    """An open-loop arrival schedule: due offsets (s) and the query sent at each."""

    rate: int
    due: np.ndarray
    queries: List[object]

    @property
    def is_write(self) -> np.ndarray:
        return np.array([isinstance(q, UpdateQuery) for q in self.queries], dtype=bool)


def make_schedule(rng: np.random.Generator, graphs: Dict[str, CSCMatrix],
                  rate: int, duration_s: float) -> Schedule:
    """Poisson arrivals at ``rate`` for ``duration_s``; ~5% writes of 8 edges.

    A write inserts uniformly random new edges, or reweights or deletes
    existing edges of uniformly chosen vertices (one kind per write, equally
    likely).
    """
    expected = int(rate * duration_s)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(np.sqrt(expected)) + 16)
    due = np.cumsum(gaps)
    due = due[due < duration_s]
    names = sorted(graphs)
    #: row-major views (row i lists the entries A(i, j)) for picking existing edges
    rows_csr = {name: scipy_graph(m).T.tocsr() for name, m in graphs.items()}
    queries: List[object] = []
    for _ in range(len(due)):
        name = names[int(rng.integers(len(names)))]
        matrix = graphs[name]
        if rng.random() < WRITE_SHARE:
            queries.append(_write(rng, name, matrix, rows_csr[name]))
        else:
            queries.append(_read(rng, name, matrix))
    return Schedule(rate=rate, due=due, queries=queries)


def make_reads(rng: np.random.Generator, graphs: Dict[str, CSCMatrix],
               count: int) -> List[MultiplyQuery]:
    names = sorted(graphs)
    return [_read(rng, name, graphs[name])
            for name in (names[int(rng.integers(len(names)))] for _ in range(count))]


def _read(rng: np.random.Generator, name: str, matrix: CSCMatrix) -> MultiplyQuery:
    n = matrix.ncols
    k = int(rng.integers(READ_NNZ[0], READ_NNZ[1] + 1))
    idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    x = SparseVector(n, idx, rng.random(k) + 0.1, sorted=True, check=False)
    return MultiplyQuery(graph=name, x=x)


def _existing_edges(rng: np.random.Generator, rows_csr: csr_matrix, k: int):
    """``k`` existing edges, each of a uniformly chosen vertex (non-empty row)."""
    counts = np.diff(rows_csr.indptr)
    rows = rng.choice(np.flatnonzero(counts), size=k)
    picks = rows_csr.indptr[rows] + rng.integers(0, counts[rows])
    return rows, rows_csr.indices[picks]


def _write(rng: np.random.Generator, name: str, matrix: CSCMatrix,
           rows_csr: csr_matrix) -> UpdateQuery:
    m, n = matrix.shape
    kind = int(rng.integers(3))
    if kind == 0:  # insert
        rows, cols = rng.integers(0, m, WRITE_EDGES), rng.integers(0, n, WRITE_EDGES)
    else:          # reweight or delete existing edges
        rows, cols = _existing_edges(rng, rows_csr, WRITE_EDGES)
    values = None if kind == 2 else tuple(rng.random(WRITE_EDGES) + 0.5)
    return UpdateQuery(graph=name, rows=tuple(rows), cols=tuple(cols), values=values)
