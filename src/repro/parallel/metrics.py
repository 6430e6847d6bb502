"""Work metrics: the currency of the work-efficiency analysis.

The paper's central claim is about *work*: SpMSpV-bucket performs total work
proportional to the number of required arithmetic operations (`O(d·f)`),
whereas the row-split baselines perform extra per-thread work (scanning the
whole input vector, initializing a full SPA, or scanning all non-empty
matrix columns) that grows with the thread count.

Every kernel in :mod:`repro.core` and :mod:`repro.baselines` therefore
reports, per phase and per thread, the elementary operations it performed.
These counts are

* asserted against the analytical complexities in the test-suite (the
  work-efficiency invariants of DESIGN.md §6), and
* converted into simulated runtimes by :mod:`repro.machine.cost_model`, which
  is how the scaling figures of the paper are regenerated without 24/64
  physical cores.

Every counter is an integer, so an :class:`ExecutionRecord` is a phase table
plus one int64 matrix with a column per counter (:data:`METRIC_FIELDS`): each
phase owns a block of rows, one per thread and then its serial row.  Kernels
write their counts straight into that matrix, every merge of records (the
row layout's strips, the column layout's partials, a delta overlay) is a
NumPy sum over it, and the process backend ships it through the
shared-memory output slab as it is.  :class:`WorkMetrics` is a read-only view
of one row whose counters read as Python ints.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: the counters, in column order, with what each one counts
_COUNTERS = (
    ("matrix_nnz_reads",
     "matrix nonzeros read (CSC/DCSC ``indices``/``data`` elements touched)"),
    ("colptr_reads",
     "column-pointer lookups / per-column scans (CSC ``indptr`` or DCSC ``jc`` entries)"),
    ("vector_reads",
     "input-vector entries read (list entries scanned or bitmap words probed)"),
    ("bitmap_probes", "bitmap membership tests (GraphMat-style bitvector probes)"),
    ("spa_inits",
     "SPA slots initialized (full init counts every slot, partial init only touched ones)"),
    ("spa_updates", "SPA read-modify-write updates (the ADD of Algorithm 1, line 18)"),
    ("bucket_writes",
     "entries written into buckets (irregular, scattered writes - Step 1 of Algorithm 1)"),
    ("buffer_writes",
     "entries appended to thread-private buffers/lists (regular, streaming writes)"),
    ("heap_ops",
     "elementary heap element-moves (CombBLAS-heap merging; includes the lg f factor)"),
    ("sort_elements",
     "elementary comparison/move operations spent in sorting (includes the log factor)"),
    ("cache_line_misses",
     "estimated cache-line misses from poorly localized accesses (drives the "
     "sorted-vs-unsorted gap of Fig. 2 and the limited bucketing scalability of Fig. 6)"),
    ("search_probes", "binary-search probes (e.g. DCSC column lookups without the aux index)"),
    ("multiplications", "scalar multiplications performed (the MULT of Algorithm 1, line 7)"),
    ("additions", "scalar additions / semiring-add applications"),
    ("output_writes", "entries written to the output vector"),
    ("sync_events",
     "synchronization events this thread participated in (barriers, atomics, locks)"),
)

#: counter names, in the column order of every record matrix
METRIC_FIELDS = tuple(name for name, _doc in _COUNTERS)

#: columns of a record matrix: one per counter
NUM_FIELDS = len(METRIC_FIELDS)

#: each counter's column, by name (``row[COL.additions]``)
COL = SimpleNamespace(**{name: i for i, name in enumerate(METRIC_FIELDS)})

#: one phase of a record's phase table: ``(name, parallel, barriers, threads)``
PhaseEntry = Tuple[str, bool, int, int]


def _zeros(rows: int) -> np.ndarray:
    return np.zeros((rows, NUM_FIELDS), dtype=np.int64)


class WorkMetrics:
    """Counts of elementary operations performed by one thread in one phase.

    A read-only view of one row of a record matrix (or of a row of its own,
    when built from keyword counts as in ``WorkMetrics(additions=3)``); every
    counter reads as a Python int.
    """

    __slots__ = ("row",)

    def __init__(self, **counts: int):
        self.row = np.zeros(NUM_FIELDS, dtype=np.int64)
        for name, value in counts.items():
            if name not in METRIC_FIELDS:
                raise TypeError(f"WorkMetrics() got an unexpected counter {name!r}")
            self.row[getattr(COL, name)] = value

    @classmethod
    def of(cls, row: np.ndarray) -> "WorkMetrics":
        """View one int64 row of :data:`NUM_FIELDS` counters (no copy)."""
        metrics = cls.__new__(cls)
        metrics.row = row
        return metrics

    def merge(self, other: "WorkMetrics") -> "WorkMetrics":
        """Return the field-wise sum of two metric records."""
        return WorkMetrics.of(self.row + other.row)

    def __add__(self, other: "WorkMetrics") -> "WorkMetrics":
        return self.merge(other)

    def scale(self, factor: float) -> "WorkMetrics":
        """Return a copy with every counter multiplied by ``factor`` (rounded
        half to even, as Python's ``round``)."""
        return WorkMetrics.of(np.rint(self.row * factor).astype(np.int64))

    def total_operations(self) -> int:
        """Unweighted sum of all counters except synchronization events."""
        return int(self.row.sum()) - self.sync_events

    def arithmetic_operations(self) -> int:
        """Multiplications + additions — the work a lower-bound-attaining algorithm needs."""
        return self.multiplications + self.additions

    def overhead_operations(self) -> int:
        """Everything that is not arithmetic (data-structure traffic)."""
        return self.total_operations() - self.arithmetic_operations()

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (stable field order)."""
        return dict(zip(METRIC_FIELDS, self.row.tolist()))

    @classmethod
    def sum(cls, items: Iterable["WorkMetrics"]) -> "WorkMetrics":
        """Field-wise sum of an iterable of metric records."""
        rows = [item.row for item in items]
        if not rows:
            return cls()
        return cls.of(np.sum(rows, axis=0, dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkMetrics):
            return NotImplemented
        return bool(np.array_equal(self.row, other.row))

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"WorkMetrics({nonzero})"


def _counter(column: int, doc: str) -> property:
    return property(lambda self: self.row.item(column), doc=doc)


for _column, (_name, _doc) in enumerate(_COUNTERS):
    setattr(WorkMetrics, _name, _counter(_column, _doc))


class PhaseRecord:
    """Execution record of one phase (step) of a parallel algorithm.

    A phase is either *parallel* — thread row ``i`` describes the work chunk
    executed by thread ``i`` (after scheduling) — or *serial*, in which case
    the serial row describes the work of the single executing thread (the
    "master thread" of Algorithm 1, line 20).  ``counts`` holds the thread
    rows and then the serial row; a phase read from a record views the
    record's matrix.  ``thread_metrics`` may be given as a sequence of
    :class:`WorkMetrics` or as a ``(threads, NUM_FIELDS)`` int64 array.
    """

    __slots__ = ("name", "parallel", "barriers", "counts")

    def __init__(self, name: str, parallel: bool = True,
                 thread_metrics: Sequence[WorkMetrics] | np.ndarray = (),
                 serial_metrics: Optional[WorkMetrics] = None,
                 barriers: int = 1):
        threads = (thread_metrics if isinstance(thread_metrics, np.ndarray)
                   else [m.row for m in thread_metrics])
        counts = _zeros(len(threads) + 1)
        if len(threads):
            counts[:-1] = threads
        if serial_metrics is not None:
            counts[-1] = serial_metrics.row
        self.name, self.parallel, self.barriers, self.counts = \
            name, parallel, barriers, counts

    @classmethod
    def _view(cls, entry: PhaseEntry, counts: np.ndarray) -> "PhaseRecord":
        phase = cls.__new__(cls)
        phase.name, phase.parallel, phase.barriers, _threads = entry
        phase.counts = counts
        return phase

    @property
    def entry(self) -> PhaseEntry:
        """This phase's line of a record's phase table."""
        return self.name, self.parallel, self.barriers, len(self.counts) - 1

    @property
    def thread_metrics(self) -> List[WorkMetrics]:
        return [WorkMetrics.of(row) for row in self.counts[:-1]]

    @property
    def serial_metrics(self) -> WorkMetrics:
        return WorkMetrics.of(self.counts[-1])

    def total_work(self) -> WorkMetrics:
        """Total work over all threads plus the serial part."""
        return WorkMetrics.of(self.counts.sum(axis=0))

    def compact(self) -> "PhaseRecord":
        """Summary-only copy: the thread rows collapsed into the serial row.

        Total work is preserved exactly; the per-thread split (and with it
        the critical-path timing detail) is dropped.  Used by
        :meth:`~repro.core.result.SpMSpVResult.detach` for results retained
        long after their timings have been read.
        """
        return PhaseRecord._view((self.name, False, self.barriers, 0),
                                 self.counts.sum(axis=0, keepdims=True))


def _row_starts(table: Sequence[PhaseEntry]) -> List[int]:
    """The first matrix row of each phase of ``table``."""
    starts, at = [], 0
    for _name, _parallel, _barriers, threads in table:
        starts.append(at)
        at += threads + 1
    return starts


class ExecutionRecord:
    """Full record of one SpMSpV invocation: a phase table over one matrix.

    ``table`` lists the phases in order, each as ``(name, parallel,
    barriers, threads)``; ``counts`` stacks their rows, each phase's
    ``threads`` thread rows and then its serial row.  Build a record from
    :class:`PhaseRecord` objects (``phases=``, :meth:`add_phase`) or, on hot
    paths, from the table and the matrix themselves.
    """

    __slots__ = ("algorithm", "num_threads", "table", "counts", "info",
                 "wall_time_s")

    def __init__(self, algorithm: str, num_threads: int,
                 phases: Sequence[PhaseRecord] = (),
                 info: Optional[Dict[str, float]] = None,
                 wall_time_s: float = 0.0, *,
                 table: Optional[Tuple[PhaseEntry, ...]] = None,
                 counts: Optional[np.ndarray] = None):
        if table is None:
            table = tuple(p.entry for p in phases)
            counts = (np.concatenate([p.counts for p in phases]) if phases
                      else _zeros(0))
        self.algorithm = algorithm
        self.num_threads = num_threads
        self.table = table
        self.counts = counts
        #: optional free-form details (problem sizes, nnz, etc.)
        self.info = info if info is not None else {}
        #: wall-clock seconds actually spent in the Python/NumPy kernel
        self.wall_time_s = wall_time_s

    def add_phase(self, phase: PhaseRecord) -> PhaseRecord:
        self.table += (phase.entry,)
        self.counts = np.concatenate([self.counts, phase.counts])
        return phase

    @property
    def phases(self) -> Tuple[PhaseRecord, ...]:
        """The phases in order, each viewing its rows of the matrix."""
        return tuple(PhaseRecord._view(entry, self.counts[at:at + entry[3] + 1])
                     for entry, at in zip(self.table, _row_starts(self.table)))

    def phase(self, name: str) -> PhaseRecord:
        """Look up a phase by name (raises ``KeyError`` if absent)."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"no phase named {name!r}; have {self.phase_names()}")

    def total_work(self) -> WorkMetrics:
        """Total work across all phases, threads and serial sections."""
        return WorkMetrics.of(self.counts.sum(axis=0))

    def total_sync_events(self) -> int:
        """Total synchronization events (barriers weighted by participating threads)."""
        return int(self.counts[:, COL.sync_events].sum()) + sum(
            barriers * (max(threads, 1) if parallel else 1)
            for _name, parallel, barriers, threads in self.table)

    def phase_names(self) -> List[str]:
        return [entry[0] for entry in self.table]

    def compact(self) -> "ExecutionRecord":
        """Summary-only copy with every phase collapsed (see :meth:`PhaseRecord.compact`)."""
        counts = (np.add.reduceat(self.counts, _row_starts(self.table)) if self.table
                  else _zeros(0))
        return ExecutionRecord(
            self.algorithm, self.num_threads, info=dict(self.info),
            wall_time_s=self.wall_time_s, counts=counts,
            table=tuple((name, False, barriers, 0)
                        for name, _parallel, barriers, _threads in self.table))


def merge_records(records: Sequence[ExecutionRecord], names: Sequence[str],
                  groups: Optional[Sequence[Sequence[int]]] = None, *,
                  barriers: Optional[int] = None, **fields) -> ExecutionRecord:
    """One record whose phases sum the named phases of ``records`` by group.

    For each of the distinct ``names``, the merged phase is parallel with
    one thread row per group of ``groups`` (indices into ``records``; by
    default each record is a group of its own): the sum of every row of
    each grouped record's first phase of that name.  A group in which no
    record has the phase gets no row, and the serial row is zero.  The
    phase's barrier count is ``barriers`` or, by default, the largest among
    the records that have it.  ``fields`` are the merged record's
    constructor arguments (``algorithm``, ``num_threads``, ``info``, ...).

    The whole merge is one product of a 0/1 matrix, which sends every input
    row to its output row, with the records' stacked matrices; that matrix
    depends only on the phase tables and the groups, and is cached.
    """
    groups = (tuple((r,) for r in range(len(records))) if groups is None
              else tuple(tuple(g) for g in groups))
    routing, table = _merge_plan(tuple(r.table for r in records), tuple(names),
                                 groups, barriers)
    counts = routing.dot(np.concatenate([r.counts for r in records]))
    return ExecutionRecord(table=table, counts=counts, **fields)


@functools.lru_cache(maxsize=1024)
def _merge_plan(tables: Tuple[Tuple[PhaseEntry, ...], ...], names: Tuple[str, ...],
                groups: Tuple[Tuple[int, ...], ...], barriers: Optional[int]
                ) -> Tuple[np.ndarray, Tuple[PhaseEntry, ...]]:
    """The routing matrix and the phase table of :func:`merge_records`."""
    where = {name: p for p, name in enumerate(names)}
    group_of = {r: g for g, members in enumerate(groups) for r in members}
    spans = []  # (phase, group, first row, stop row) of each matched input phase
    most = [0] * len(names)
    at = 0
    for r, table in enumerate(tables):
        seen = set()
        for name, _parallel, phase_barriers, threads in table:
            p = where.get(name)
            if p is not None and p not in seen and r in group_of:
                seen.add(p)
                spans.append((p, group_of[r], at, at + threads + 1))
                most[p] = max(most[p], phase_barriers)
            at += threads + 1
    # output layout: phase by phase, a row per group that has the phase,
    # then the phase's (zero) serial row
    present = {(p, g) for p, g, _lo, _hi in spans}
    row_of: Dict[Tuple[int, int], int] = {}
    merged = []
    for p, name in enumerate(names):
        kept = [g for g in range(len(groups)) if (p, g) in present]
        for g in kept:
            row_of[p, g] = len(row_of) + p
        merged.append((name, True, most[p] if barriers is None else barriers, len(kept)))
    routing = np.zeros((len(row_of) + len(names), at), dtype=np.int64)
    for p, g, lo, hi in spans:
        routing[row_of[p, g], lo:hi] = 1
    routing.flags.writeable = False
    return routing, tuple(merged)
