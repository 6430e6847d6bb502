"""BFS through persistent engines over three layouts of one graph.

``whole`` is the monolithic :class:`~repro.core.engine.SpMSpVEngine`;
``row`` and ``column`` are 2-strip sharded engines on the 2-worker process
pool.  Every traversal is ``bfs_multi_source(m, [s], engine=E)``; the
layouts take turns per source so drift spreads evenly over them.
"""

from __future__ import annotations

import importlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.bfs import BFSResult, validate_bfs_tree
from repro.core.column_sharded import make_sharded_engine
from repro.core.engine import SpMSpVEngine
from repro.formats.csc import CSCMatrix

from .common import Hygiene
from .inputs import reference_levels, scipy_graph
from .tracing import ATTRS, Tracer

#: the module itself (the package re-exports a ``bfs`` function under its name)
bfs_mod = importlib.import_module("repro.algorithms.bfs")

LAYOUTS = ("whole", "row", "column")
SHARDS = 2
#: traversals (whole layout) also checked with the library's validate_bfs_tree,
#: an O(n) Python loop; every traversal gets the vectorized parent check
VALIDATE_SAMPLE = 3


def build_engines(matrix: CSCMatrix, ctxs, hygiene: Hygiene) -> Dict[str, object]:
    base, pool = ctxs
    engines = {"whole": SpMSpVEngine(matrix, base, algorithm="bucket")}
    try:
        for scheme in ("row", "column"):
            engines[scheme] = make_sharded_engine(matrix, SHARDS, pool,
                                                  algorithm="bucket", scheme=scheme)
        hygiene.watch(engines.values())
    except BaseException:
        close_engines(engines)
        raise
    return engines


def close_engines(engines: Dict[str, object]) -> None:
    for engine in engines.values():
        engine.close()


def traverse(matrix: CSCMatrix, engine, source: int):
    result = bfs_mod.bfs_multi_source(matrix, [source], engine=engine)
    return result.levels[0], result.parents[0], result.num_iterations


@dataclass
class Traversal:
    layout: str
    source: int
    wall_s: float
    levels: int
    ok: bool
    #: index of the traversal's root span (traced runs)
    span: int = -1


@dataclass
class BFSOutcome:
    traversals: List[Traversal] = field(default_factory=list)
    #: whole-layout traversals repeated with tracing off (traced runs)
    untraced_whole_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    comm: Dict[str, Dict[str, float]] = field(default_factory=dict)
    health: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def times(self, layout: str) -> List[float]:
        return [t.wall_s for t in self.traversals if t.layout == layout]

    @property
    def failed(self) -> int:
        return sum(not t.ok for t in self.traversals)


class Checker:
    """Off-the-clock answer checks against scipy and the whole layout."""

    def __init__(self, matrix: CSCMatrix):
        self.matrix = matrix
        self.graph = scipy_graph(matrix)
        n = matrix.nrows
        cols = np.repeat(np.arange(matrix.ncols, dtype=np.int64), np.diff(matrix.indptr))
        #: sorted keys of the edges j -> i, i.e. entries A(i, j)
        self.edge_keys = np.unique(cols * n + matrix.indices)
        self.validated = 0

    def whole_ok(self, source: int, levels: np.ndarray, parents: np.ndarray) -> bool:
        if not np.array_equal(levels, reference_levels(self.graph, source)):
            return False
        reached = np.flatnonzero(levels >= 0)
        child = reached[reached != source]
        par = parents[child]
        if parents[source] != source or (par < 0).any():
            return False
        if not (levels[par] == levels[child] - 1).all():
            return False
        keys = par * self.matrix.nrows + child
        pos = np.searchsorted(self.edge_keys, keys)
        pos[pos == len(self.edge_keys)] = 0
        if not (self.edge_keys[pos] == keys).all():
            return False
        if self.validated < VALIDATE_SAMPLE:
            self.validated += 1
            return validate_bfs_tree(self.matrix, BFSResult(
                source=source, levels=levels, parents=parents, num_iterations=0))
        return True


def warm_up(matrix: CSCMatrix, engines: Dict[str, object]) -> None:
    """One traversal per engine from a fixed source, the highest-degree vertex."""
    source = int(np.argmax(np.diff(matrix.indptr)))
    for engine in engines.values():
        traverse(matrix, engine, source)


def run(matrix: CSCMatrix, engines: Dict[str, object], source_blocks: List[List[int]],
        budget_s: float, tracer: Optional[Tracer] = None) -> BFSOutcome:
    """Traverse whole blocks of sources while the budget can fit another block.

    At least one block always runs, so the percentile sample is never
    smaller than a block.
    """
    out = BFSOutcome()
    checker = Checker(matrix)
    started = time.perf_counter()
    for b, block in enumerate(source_blocks):
        block_start = time.perf_counter()
        for i, source in enumerate(block):
            _round(matrix, engines, source, i, checker, out, tracer)
        elapsed = time.perf_counter() - started
        if b + 1 < len(source_blocks) and \
                elapsed + (time.perf_counter() - block_start) > budget_s:
            break
    for layout in ("row", "column"):
        backend = engines[layout].backend
        out.comm[layout] = backend.comm_stats()
        out.health[layout] = backend.health_stats()
    return out


def _round(matrix, engines, source, i, checker: Checker, out: BFSOutcome,
           tracer: Optional[Tracer]) -> None:
    order = LAYOUTS[i % 3:] + LAYOUTS[:i % 3]
    answers = {}
    for layout in order:
        span = tracer.span("bfs", "bfs_multi_source") if tracer else nullcontext()
        index = len(tracer.spans) if tracer else -1  # the root span's slot
        try:
            t0 = time.perf_counter()
            with span as rec:
                answer = traverse(matrix, engines[layout], source)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed traversal is counted, not fatal
            out.errors.append(f"{layout} bfs from {source}: {exc!r}")
            out.traversals.append(Traversal(layout, source, 0.0, 0, False))
            continue
        answers[layout] = answer
        if tracer:
            rec[ATTRS] = {"layout": layout, "source": source}
        out.traversals.append(Traversal(layout, source, wall, answer[2], True, index))
    if tracer and "whole" in answers:
        tracer.uninstall()
        try:
            t0 = time.perf_counter()
            traverse(matrix, engines["whole"], source)
            out.untraced_whole_s.append(time.perf_counter() - t0)
        finally:
            tracer.reinstall()
    # correctness, off the clock
    whole = answers.get("whole")
    whole_ok = whole is not None and checker.whole_ok(source, whole[0], whole[1])
    for t in out.traversals[-len(order):]:
        if not t.ok or t.source != source:
            continue
        got = answers[t.layout]
        t.ok = whole_ok and np.array_equal(got[0], whole[0]) and \
            np.array_equal(got[1], whole[1])
        if not t.ok:
            out.errors.append(f"{t.layout} bfs from {source}: wrong answer")

