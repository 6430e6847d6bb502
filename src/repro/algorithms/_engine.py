"""The adjacency matrix and the engine an algorithm entry point runs on."""

from __future__ import annotations

from typing import Callable, Optional

from ..core.column_sharded import make_sharded_engine
from ..core.engine import SpMSpVEngine
from ..formats.csc import CSCMatrix
from ..graphs.graph import Graph
from ..parallel.context import ExecutionContext


def adjacency(graph: Graph | CSCMatrix, what: str, sources=()) -> CSCMatrix:
    """The square matrix of ``graph``, once every source is one of its
    vertices; ``what`` names the algorithm in the errors."""
    matrix = graph.matrix if isinstance(graph, Graph) else graph
    if matrix.nrows != matrix.ncols:
        raise ValueError(f"{what} requires a square adjacency matrix")
    for s in sources:
        if not (0 <= s < matrix.ncols):
            raise IndexError(f"source {s} out of range for {matrix.ncols} vertices")
    return matrix


def algorithm_engine(matrix: CSCMatrix, ctx: Optional[ExecutionContext], *,
                     algorithm: str = "bucket", shards: Optional[int] = None,
                     engine: Optional[SpMSpVEngine] = None,
                     operator: Optional[Callable] = None) -> SpMSpVEngine:
    """The caller's ``engine`` once its shape matches ``matrix``; else a new
    engine over ``operator(matrix)`` (``matrix`` itself by default): the
    whole layout, or with ``shards`` the ``ctx.shard_scheme`` layout on
    ``ctx.backend``."""
    if engine is not None:
        if (engine.nrows, engine.ncols) != matrix.shape:
            raise ValueError(f"engine holds a {(engine.nrows, engine.ncols)} "
                             f"matrix; graph is {matrix.shape}")
        return engine
    built = operator(matrix) if operator is not None else matrix
    if shards is None:
        return SpMSpVEngine(built, ctx, algorithm=algorithm)
    return make_sharded_engine(built, shards, ctx, algorithm=algorithm)
