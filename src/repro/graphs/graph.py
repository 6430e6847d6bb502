"""Graph wrapper: an adjacency matrix plus the graph-level queries the
applications and the benchmark suite need (degrees, connectivity probes,
pseudo-diameter, networkx bridge).
"""

from __future__ import annotations

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.csc import CSCMatrix
from ..parallel.context import default_context


class Graph:
    """A (possibly directed) graph represented by its adjacency matrix in CSC.

    For the SpMSpV frontier-expansion convention used throughout this package,
    ``A(i, j) != 0`` means there is an edge ``j -> i``: multiplying by a
    frontier vector indexed by source vertices yields the neighbours reached.
    Undirected graphs simply use a symmetric matrix.
    """

    def __init__(self, adjacency: CSCMatrix, *, name: str = "graph"):
        if adjacency.nrows != adjacency.ncols:
            raise ValueError("adjacency matrix must be square")
        self.matrix = adjacency
        self.name = name

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.matrix.ncols

    @property
    def num_edges(self) -> int:
        """Number of stored adjacency entries (each undirected edge counts twice)."""
        return self.matrix.nnz

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (nonzeros per column)."""
        return self.matrix.column_counts()

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (nonzeros per row)."""
        return self.matrix.row_counts()

    def average_degree(self) -> float:
        return self.matrix.average_degree()

    def is_symmetric(self) -> bool:
        """True when the adjacency matrix equals its transpose (undirected graph)."""
        a = self.matrix
        b = self.matrix.transpose()
        if a.nnz != b.nnz:
            return False
        return bool(np.array_equal(a.indptr, b.indptr) and
                    np.array_equal(a.indices, b.indices) and
                    np.allclose(a.data, b.data))

    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: int) -> np.ndarray:
        """Vertices reachable from ``vertex`` by one edge."""
        rows, _vals = self.matrix.column(vertex)
        return rows

    def pseudo_diameter(self, *, source: int = 0, max_rounds: int = 4) -> int:
        """Double-sweep pseudo-diameter estimate (the "pseudo diameter" of Table IV).

        Runs BFS from ``source``, then repeatedly from the farthest vertex
        found, and returns the largest eccentricity observed.
        """
        best = 0
        current = source
        for _ in range(max_rounds):
            levels = self._bfs_levels(current)
            reached = np.flatnonzero(levels >= 0)
            if len(reached) == 0:
                break
            ecc = int(levels[reached].max())
            farthest = int(reached[np.argmax(levels[reached])])
            if ecc <= best:
                break
            best = ecc
            current = farthest
        return best

    def _bfs_levels(self, source: int) -> np.ndarray:
        """Internal BFS used by :meth:`pseudo_diameter` (level array, -1 = unreached)."""
        from ..algorithms.bfs import bfs  # late: the algorithms import Graph

        return bfs(self.matrix, source, default_context(num_threads=1)).levels

    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a networkx graph (DiGraph unless the matrix is symmetric)."""
        import networkx as nx

        coo = self.matrix.to_coo()
        g = nx.Graph() if self.is_symmetric() else nx.DiGraph()
        g.add_nodes_from(range(self.num_vertices))
        # adjacency convention: A(i, j) is the edge j -> i
        g.add_weighted_edges_from(zip(coo.cols.tolist(), coo.rows.tolist(),
                                      coo.vals.tolist()))
        return g

    @classmethod
    def from_networkx(cls, g, *, name: str = "graph") -> "Graph":
        """Build from a networkx graph (edge u->v stored as A(v, u))."""
        import networkx as nx  # noqa: F401  (documented dependency)

        from ..formats.coo import COOMatrix

        n = g.number_of_nodes()
        nodes = {node: i for i, node in enumerate(g.nodes())}
        rows, cols, vals = [], [], []
        for u, v, data in g.edges(data=True):
            w = float(data.get("weight", 1.0))
            rows.append(nodes[v])
            cols.append(nodes[u])
            vals.append(w)
            if not g.is_directed():
                rows.append(nodes[u])
                cols.append(nodes[v])
                vals.append(w)
        coo = COOMatrix((n, n), np.array(rows, dtype=INDEX_DTYPE),
                        np.array(cols, dtype=INDEX_DTYPE), np.array(vals))
        return cls(CSCMatrix.from_coo(coo), name=name)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Graph(name={self.name!r}, vertices={self.num_vertices}, "
                f"edges={self.num_edges})")
