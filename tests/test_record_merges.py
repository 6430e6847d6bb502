"""Array merges of execution records against an object-by-object fold.

A record's counts are one int64 matrix, and the row layout's strip merge,
the column layout's partial merge, the delta overlay merge, ``compact`` and
``total_work`` are NumPy sums over it.  The oracles here fold the same
records phase by phase and thread by thread in Python ints, the way the
merges worked when every thread's counts were an object of their own; the
merged records must agree count for count, on strip records whose phase
sets differ, at every thread count and scheduling policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import merge_overlay_record
from repro.core.sharded import ShardedEngine
from repro.core.spmspv_column import merge_partial_records
from repro.formats import CSCMatrix
from repro.parallel import default_context
from repro.parallel.metrics import (
    METRIC_FIELDS,
    ExecutionRecord,
    PhaseRecord,
    WorkMetrics,
)
from repro.parallel.scheduler import schedule

ZERO = [0] * len(METRIC_FIELDS)
#: phase names a strip record may hold, overlay phases among them
NAMES = ["estimate", "bucketing", "spa_merge", "output", "gather",
         "delta:estimate", "delta:output"]


def _metrics(row):
    return WorkMetrics(**dict(zip(METRIC_FIELDS, row)))


def _rows(draw, count):
    return [draw(st.lists(st.integers(0, 10**6), min_size=len(METRIC_FIELDS),
                          max_size=len(METRIC_FIELDS))) for _ in range(count)]


@st.composite
def records(draw, min_size=1):
    """Strip records with differing phase sets, each phase with 0-3 threads."""
    out = []
    for s in range(draw(st.integers(min_size, 4))):
        phases = []
        for name in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5)):
            threads = _rows(draw, draw(st.integers(0, 3)))
            serial = _rows(draw, 1)[0] if draw(st.booleans()) else ZERO
            phases.append(PhaseRecord(
                name, parallel=draw(st.booleans()),
                thread_metrics=[_metrics(r) for r in threads],
                serial_metrics=_metrics(serial), barriers=draw(st.integers(0, 2))))
        out.append(ExecutionRecord(f"kernel{s}", draw(st.integers(1, 3)), phases=phases,
                                   info={"df": draw(st.integers(0, 99))},
                                   wall_time_s=draw(st.floats(0, 1))))
    return out


def _phases(record):
    """A record as plain lists: ``(name, parallel, barriers, threads, serial)``."""
    return [(p.name, p.parallel, p.barriers,
             [list(t.as_dict().values()) for t in p.thread_metrics],
             list(p.serial_metrics.as_dict().values())) for p in record.phases]


def _add(rows):
    return [sum(column) for column in zip(ZERO, *rows)]


def _row_fold(records, items_per_thread):
    """The row merge, strip object by strip object."""
    strips = [_phases(r) for r in records]
    base = max(strips, key=len)
    merged = []
    for name, *_ in base:
        per_strip = [next((p for p in phases if p[0] == name), None) for phases in strips]
        threads = []
        for items in items_per_thread:
            contributions = [row for s in items if per_strip[s] is not None
                             for row in per_strip[s][3] + [per_strip[s][4]]]
            if contributions:
                threads.append(_add(contributions))
        merged.append((name, True, max(p[2] for p in per_strip if p is not None),
                       threads, ZERO))
    return merged


def _column_fold(records, reduce_row):
    """The column merge: a thread per strip that has the phase, then the reduction."""
    strips = [_phases(r) for r in records]
    names = []
    for phases in strips:
        names += [p[0] for p in phases if p[0] not in names]
    merged = [(name, True, 0, [_add(p[3] + [p[4]]) for phases in strips
                               for p in phases if p[0] == name], ZERO) for name in names]
    return merged + [("reduce", False, 1, [], reduce_row)]


def test_work_metrics_view_a_record_row_read_only_as_python_ints():
    record = ExecutionRecord("k", 2, phases=[PhaseRecord(
        "p", thread_metrics=[_metrics(range(16)), WorkMetrics(additions=7)],
        serial_metrics=WorkMetrics(sync_events=2))])
    first, second = record.phase("p").thread_metrics
    assert type(first.additions) is int and first.additions == 13
    assert all(type(v) is int for v in second.as_dict().values())
    with pytest.raises(AttributeError):
        second.additions = 0
    assert record.counts[1, 13] == 7  # a view of the record's matrix
    assert record.total_work().additions == 20
    assert record.total_sync_events() == 15 + 2 + 2  # counted events, one barrier x 2 threads
    with pytest.raises(TypeError):
        WorkMetrics(flops=1)


@pytest.mark.parametrize("policy", ["static", "dynamic", "lpt"])
@given(strips=records(), num_threads=st.integers(1, 4), data=st.data())
@settings(deadline=None, max_examples=40)
def test_row_merge_matches_the_object_fold(policy, strips, num_threads, data):
    costs = data.draw(st.lists(st.floats(0, 100), min_size=len(strips),
                               max_size=len(strips)))
    assignment = schedule(costs, num_threads, policy)
    matrix = CSCMatrix.from_dense(np.eye(4))
    engine = ShardedEngine(matrix, 1, default_context(num_threads=num_threads))
    try:
        merged = engine._merge_records(strips, assignment, "sharded", {"f": 3})
    finally:
        engine.close()
    assert _phases(merged) == _row_fold(strips, assignment.items_per_thread)
    assert (merged.algorithm, merged.num_threads, merged.info) == \
        ("sharded", num_threads, {"f": 3})


@given(strips=records(), reduce_row=st.lists(
    st.integers(0, 99), min_size=len(METRIC_FIELDS), max_size=len(METRIC_FIELDS)))
@settings(deadline=None, max_examples=60)
def test_column_merge_matches_the_object_fold(strips, reduce_row):
    merged = merge_partial_records(strips, algorithm="bucket", num_strips=len(strips),
                                   reduce_metrics=_metrics(reduce_row), wall_time_s=0.5)
    assert _phases(merged) == _column_fold(strips, reduce_row)
    assert merged.algorithm == f"column[{len(strips)}]:bucket"
    assert merged.num_threads == len(strips) and merged.wall_time_s == 0.5
    assert merged.info == {"df": sum(r.info["df"] for r in strips), "scheme": "column"}


@given(pair=records(min_size=2))
@settings(deadline=None, max_examples=60)
def test_overlay_merge_compact_and_totals_match_the_object_fold(pair):
    base, patch = pair[:2]
    merged = merge_overlay_record(base, patch)
    assert _phases(merged) == _phases(base) + [
        ("delta:" + name, *rest) for name, *rest in _phases(patch)]
    assert merged.info == base.info and merged.info is not base.info
    assert merged.wall_time_s == base.wall_time_s + patch.wall_time_s
    every_row = [row for p in _phases(merged) for row in p[3] + [p[4]]]
    assert list(merged.total_work().as_dict().values()) == _add(every_row)
    assert _phases(merged.compact()) == [
        (name, False, barriers, [], _add(threads + [serial]))
        for name, _parallel, barriers, threads, serial in _phases(merged)]
    assert list(WorkMetrics.sum(p.total_work() for p in merged.phases)
                .as_dict().values()) == _add(every_row)
