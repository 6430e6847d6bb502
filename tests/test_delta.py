"""The dynamic-graph delta layer: exact overlay, unit semantics, compaction.

The overlay's contract is *exactness*: a multiply against base ⊕ delta must
be **bit-identical** to the same multiply against the matrix rebuilt from
scratch (``apply_delta``) — for every kernel, semiring, and mask mode, with
and without forced-sorted output.  These tests lock that down differentially
on :class:`~repro.core.engine.SpMSpVEngine` and pin the :class:`~repro.
formats.delta.DeltaLog` update semantics (latest-wins, delete-of-absent as a
no-op, delete-then-reinsert) plus the cost-model compaction trigger.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SpMSpVEngine
from repro.errors import DimensionMismatchError, FormatError
from repro.formats import (CSCMatrix, DeltaLog, SparseVector, apply_delta,
                           build_patch, matrices_equal, splice_overlay, to_coo)
from repro.parallel import default_context
from repro.semiring import (MAX_SELECT2ND, MAX_TIMES, MIN_PLUS, MIN_SELECT1ST,
                            MIN_SELECT2ND, OR_AND, PLUS_TIMES)

from conftest import random_csc

KERNELS = ["bucket", "combblas_spa", "combblas_heap", "graphmat", "sort"]
ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, MIN_SELECT2ND,
                 MAX_SELECT2ND, MIN_SELECT1ST]
MASK_MODES = ["none", "mask", "complement"]


def as_semiring_input(x: SparseVector, semiring) -> SparseVector:
    if semiring is OR_AND:
        return SparseVector(x.n, x.indices, np.ones(x.nnz, dtype=bool),
                            sorted=x.sorted, check=False)
    return x


def mask_kwargs(mode: str, mask: SparseVector) -> dict:
    if mode == "none":
        return {"mask": None, "mask_complement": False}
    return {"mask": mask, "mask_complement": mode == "complement"}


def assert_bit_identical(a: SparseVector, b: SparseVector, label: str) -> None:
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    assert np.array_equal(a.values, b.values), f"{label}: values differ"


def assert_same_pairs(a: SparseVector, b: SparseVector, label: str) -> None:
    ao = np.argsort(a.indices, kind="stable")
    bo = np.argsort(b.indices, kind="stable")
    assert np.array_equal(a.indices[ao], b.indices[bo]), f"{label}: rows differ"
    assert np.array_equal(a.values[ao], b.values[bo]), f"{label}: values differ"


def random_updates(matrix: CSCMatrix, rng, n_set: int, n_del: int):
    """A mixed batch: inserts of absent edges, reweights of present edges,
    deletes of both present and absent edges."""
    m, n = matrix.shape
    coo = to_coo(matrix)
    set_rows = rng.integers(0, m, size=n_set)
    set_cols = rng.integers(0, n, size=n_set)
    set_vals = rng.random(n_set) + 0.5
    if matrix.nnz and n_set >= 2:
        # force some reweights of existing edges into the batch
        pick = rng.integers(0, matrix.nnz, size=max(1, n_set // 3))
        set_rows[:len(pick)] = coo.rows[pick]
        set_cols[:len(pick)] = coo.cols[pick]
    del_rows = rng.integers(0, m, size=n_del)
    del_cols = rng.integers(0, n, size=n_del)
    if matrix.nnz and n_del >= 2:
        pick = rng.integers(0, matrix.nnz, size=max(1, n_del // 2))
        del_rows[:len(pick)] = coo.rows[pick]
        del_cols[:len(pick)] = coo.cols[pick]
    return (set_rows, set_cols, set_vals), (del_rows, del_cols)


def dense_of(matrix: CSCMatrix) -> np.ndarray:
    return matrix.to_dense()


# --------------------------------------------------------------------------- #
# DeltaLog unit semantics
# --------------------------------------------------------------------------- #

def test_empty_delta_is_identity():
    matrix = random_csc(12, 9, 0.3, seed=1)
    delta = DeltaLog(matrix.shape)
    assert delta.is_empty and len(delta) == 0 and delta.entries == 0
    assert not delta.touched_rows().any()
    assert matrices_equal(apply_delta(matrix, delta), matrix)
    patch, touched = build_patch(matrix, delta)
    assert patch.nnz == 0 and not touched.any()


def test_latest_wins_per_edge():
    delta = DeltaLog((5, 5))
    delta.set_edges([1], [2], [10.0])
    delta.set_edges([1], [2], [20.0])
    rows, cols, vals, deleted = delta.resolved()
    assert len(rows) == 1 and vals[0] == 20.0 and not deleted[0]
    assert len(delta) == 2      # raw events
    assert delta.entries == 1   # distinct edges


def test_delete_then_reinsert():
    matrix = CSCMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
    delta = DeltaLog(matrix.shape)
    delta.delete_edges([0], [0])
    delta.set_edges([0], [0], [9.0])
    out = apply_delta(matrix, delta)
    assert out.to_dense()[0, 0] == 9.0
    # and the reverse order really deletes
    delta2 = DeltaLog(matrix.shape)
    delta2.set_edges([0], [0], [9.0])
    delta2.delete_edges([0], [0])
    assert apply_delta(matrix, delta2).to_dense()[0, 0] == 0.0


def test_delete_of_absent_edge_is_noop():
    matrix = random_csc(8, 8, 0.2, seed=3)
    dense = dense_of(matrix)
    absent = np.argwhere(dense == 0.0)
    delta = DeltaLog(matrix.shape)
    delta.delete_edges(absent[:4, 0], absent[:4, 1])
    assert matrices_equal(apply_delta(matrix, delta), matrix)


def test_insert_of_present_edge_is_reweight():
    matrix = random_csc(8, 8, 0.3, seed=4)
    coo = to_coo(matrix)
    delta = DeltaLog(matrix.shape)
    delta.set_edges(coo.rows[:3], coo.cols[:3], [7.0, 8.0, 9.0])
    out = dense_of(apply_delta(matrix, delta))
    for k, v in enumerate([7.0, 8.0, 9.0]):
        assert out[coo.rows[k], coo.cols[k]] == v
    assert apply_delta(matrix, delta).nnz == matrix.nnz


def test_clear_resets_the_log():
    delta = DeltaLog((4, 4))
    delta.set_edges([0, 1], [1, 2], [1.0, 2.0])
    delta.clear()
    assert delta.is_empty and delta.entries == 0


def test_validation_errors():
    with pytest.raises(FormatError):
        DeltaLog((0, -1))
    delta = DeltaLog((4, 4))
    with pytest.raises(DimensionMismatchError):
        delta.set_edges([4], [0], [1.0])          # row out of range
    with pytest.raises(DimensionMismatchError):
        delta.delete_edges([0], [4])              # col out of range
    with pytest.raises(FormatError):
        delta.set_edges([0, 1], [0, 1], [1.0])    # length mismatch
    with pytest.raises(FormatError):
        delta.set_edges([0, 1], [0], [1.0, 2.0])  # rows/cols mismatch
    matrix = random_csc(3, 3, 0.5, seed=0)
    with pytest.raises(DimensionMismatchError):
        apply_delta(matrix, DeltaLog((4, 4)))     # shape mismatch


#: one batch: (deletes?, [(row, col, value)]) over a 6x5 base
BATCHES = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                 st.floats(-4.0, 4.0, allow_nan=False)),
                       max_size=8)),
    max_size=10)


@settings(max_examples=80, deadline=None)
@given(BATCHES)
def test_resolved_and_apply_delta_match_a_dict_replay(batches):
    """Interleaved set/delete batches, each merged into the resolved set as
    it lands, resolve exactly as replaying every event into a dict does."""
    base = random_csc(6, 5, 0.4, seed=17)
    delta = DeltaLog(base.shape)
    replay = {}  # (row, col) -> latest value, None for a delete
    for deleting, batch in batches:
        rows = [r for r, _c, _v in batch]
        cols = [c for _r, c, _v in batch]
        if deleting:
            delta.delete_edges(rows, cols)
        else:
            delta.set_edges(rows, cols, [v for _r, _c, v in batch])
        for r, c, v in batch:
            replay[(r, c)] = None if deleting else v
    assert len(delta) == sum(len(batch) for _d, batch in batches)
    rows, cols, vals, dels = delta.resolved()
    edges = sorted(replay)
    assert list(zip(rows.tolist(), cols.tolist())) == edges
    assert dels.tolist() == [replay[e] is None for e in edges]
    assert vals[~dels].tolist() == [replay[e] for e in edges
                                    if replay[e] is not None]
    coo = to_coo(base)
    expected = dict(zip(zip(coo.rows.tolist(), coo.cols.tolist()),
                        coo.vals.tolist()))
    for edge, value in replay.items():
        if value is None:
            expected.pop(edge, None)
        else:
            expected[edge] = value
    rebuilt = to_coo(apply_delta(base, delta))
    assert dict(zip(zip(rebuilt.rows.tolist(), rebuilt.cols.tolist()),
                    rebuilt.vals.tolist())) == expected
    assert rebuilt.nnz == len(expected)


def _resolve_by_sorting_everything(events, ncols):
    """The earlier ``DeltaLog`` merge, as an oracle: concatenate every event
    ever logged, stable-sort by ``row·ncols + col`` and keep each edge's last."""
    rows = np.array([r for r, _c, _v, _d in events], dtype=np.int64)
    cols = np.array([c for _r, c, _v, _d in events], dtype=np.int64)
    vals = np.array([v for _r, _c, v, _d in events], dtype=np.float64)
    dels = np.array([d for _r, _c, _v, d in events], dtype=bool)
    keys = rows * ncols + cols
    order = np.argsort(keys, kind="stable")
    last = np.append(keys[order][1:] != keys[order][:-1], True)
    pick = order[last]
    return rows[pick], cols[pick], vals[pick], dels[pick]


#: a history of batches over a 40x30 matrix: each event is an insert, a
#: reweight or a delete of an edge drawn from a small pool, so edges repeat
#: within one batch and across batches
HISTORIES = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.tuples(st.sampled_from([(r, c) for r in (0, 7, 13, 39)
                                                  for c in (0, 5, 29)])
                                 | st.tuples(st.integers(0, 39), st.integers(0, 29)),
                                 st.floats(-4.0, 4.0, allow_nan=False)),
                       min_size=1, max_size=20)),
    min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(HISTORIES)
def test_merge_insert_resolves_as_sorting_every_event(history):
    """Each append sorts only its batch and merges it into the resolved
    entries; after every batch the four arrays equal, bit for bit, what
    sorting the whole history gives, and no array an earlier ``resolved()``
    returned has changed."""
    delta = DeltaLog((40, 30))
    events, snapshots = [], []
    for deleting, batch in history:
        rows = [r for (r, _c), _v in batch]
        cols = [c for (_r, c), _v in batch]
        if deleting:
            delta.delete_edges(rows, cols)
            events += [(r, c, 0.0, True) for r, c in zip(rows, cols)]
        else:
            delta.set_edges(rows, cols, [v for _e, v in batch])
            events += [(r, c, v, False) for (r, c), v in batch]
        got = delta.resolved()
        for array, expected in zip(got, _resolve_by_sorting_everything(events, 30)):
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()
        snapshots.append((got, [a.copy() for a in got]))
    for arrays, copies in snapshots:
        assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))


def test_stats_reports_shape_of_pending_work():
    delta = DeltaLog((10, 10))
    delta.set_edges([1, 2, 1], [1, 2, 1], [1.0, 2.0, 3.0])
    delta.delete_edges([3], [3])
    stats = delta.stats()
    assert stats["events"] == 4
    assert stats["entries"] == 3       # (1,1) latest-wins collapses
    assert stats["touched_rows"] == 3  # rows 1, 2, 3


def test_resolved_is_cached_until_mutation():
    delta = DeltaLog((6, 6))
    delta.set_edges([1], [1], [1.0])
    first = delta.resolved()
    again = delta.resolved()
    assert first[0] is again[0]        # same arrays, no recompute
    delta.set_edges([2], [2], [2.0])
    assert delta.resolved()[0] is not first[0]


def test_splice_overlay_prefers_patch_rows():
    base = SparseVector(6, [0, 2, 4], [1.0, 2.0, 3.0])
    patch = SparseVector(6, [2, 5], [9.0, 8.0])
    touched = np.zeros(6, dtype=bool)
    touched[[2, 5]] = True
    out = splice_overlay(base, patch, touched)
    assert_same_pairs(out, SparseVector(6, [0, 2, 4, 5], [1.0, 9.0, 3.0, 8.0]),
                      "splice")
    # touched row dropped from base and absent from patch disappears
    patch_empty = SparseVector(6, [5], [8.0])
    out = splice_overlay(base, patch_empty, touched)
    assert_same_pairs(out, SparseVector(6, [0, 4, 5], [1.0, 3.0, 8.0]),
                      "splice-drop")


# --------------------------------------------------------------------------- #
# differential overlay equivalence on the engine
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
def test_overlay_bit_identical_all_kernels(semiring, mask_mode):
    rng = np.random.default_rng(11)
    matrix = random_csc(40, 32, 0.15, seed=11)
    (sr, sc, sv), (dr, dc) = random_updates(matrix, rng, n_set=25, n_del=10)
    idx = np.sort(rng.choice(32, size=12, replace=False))
    x = as_semiring_input(SparseVector(32, idx, rng.random(12) + 0.1), semiring)
    mask = SparseVector.full_like_indices(
        40, np.sort(rng.choice(40, size=18, replace=False)), 1.0)
    kw = mask_kwargs(mask_mode, mask)
    ctx = default_context()

    for name in KERNELS:
        engine = SpMSpVEngine(matrix, ctx, algorithm=name)
        engine.compact_fraction = 1e9   # force the overlay path, no compaction
        engine.apply_updates(sr, sc, sv)
        engine.apply_updates(dr, dc)    # values=None deletes
        rebuilt = engine.effective_matrix()
        ref_engine = SpMSpVEngine(rebuilt, ctx, algorithm=name)

        got = engine.multiply(x, semiring=semiring, **kw)
        want = ref_engine.multiply(x, semiring=semiring, **kw)
        assert_same_pairs(got.vector, want.vector, f"{name}/{mask_mode}")
        assert "delta_patch_nnz" in got.info

        got = engine.multiply(x, semiring=semiring, sorted_output=True, **kw)
        want = ref_engine.multiply(x, semiring=semiring, sorted_output=True, **kw)
        assert_bit_identical(got.vector, want.vector,
                             f"{name}/{mask_mode} sorted")


def test_overlay_multiply_many_matches_rebuilt():
    rng = np.random.default_rng(23)
    matrix = random_csc(48, 48, 0.12, seed=23)
    (sr, sc, sv), (dr, dc) = random_updates(matrix, rng, n_set=30, n_del=12)
    xs = []
    for k in range(5):
        idx = np.sort(rng.choice(48, size=10, replace=False))
        xs.append(SparseVector(48, idx, rng.random(10) + 0.1))
    ctx = default_context()
    engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    engine.compact_fraction = 1e9
    engine.apply_updates(sr, sc, sv)
    engine.apply_updates(dr, dc)
    ref = SpMSpVEngine(engine.effective_matrix(), ctx, algorithm="bucket")
    for mode in ("fused", "looped"):
        got = engine.multiply_many(xs, semiring=PLUS_TIMES, sorted_output=True,
                                   block_mode=mode)
        want = ref.multiply_many(xs, semiring=PLUS_TIMES, sorted_output=True,
                                 block_mode=mode)
        for k, (g, w) in enumerate(zip(got, want)):
            assert_bit_identical(g.vector, w.vector, f"{mode} member {k}")
    assert engine.summary()["fused_batches"] == 1


def test_effective_matrix_matches_apply_delta():
    matrix = random_csc(20, 20, 0.2, seed=9)
    engine = SpMSpVEngine(matrix, default_context())
    engine.compact_fraction = 1e9
    engine.apply_updates([1, 2], [3, 4], [5.0, 6.0])
    delta = DeltaLog(matrix.shape)
    delta.set_edges([1, 2], [3, 4], [5.0, 6.0])
    assert matrices_equal(engine.effective_matrix(), apply_delta(matrix, delta))
    # base matrix itself is untouched until compaction
    assert matrices_equal(engine.matrix, matrix)


# --------------------------------------------------------------------------- #
# compaction
# --------------------------------------------------------------------------- #

def test_small_update_stays_in_delta():
    matrix = random_csc(60, 60, 0.2, seed=13)
    engine = SpMSpVEngine(matrix, default_context())
    ack = engine.apply_updates([0], [0], [1.0])
    assert ack == {"applied": 1, "delta_entries": 1, "compacted": False,
                   "compacted_strips": []}
    assert engine.delta_stats()["compactions"] == 0
    assert not engine.deltas[0].is_empty


def test_large_update_triggers_compaction():
    matrix = random_csc(30, 30, 0.2, seed=17)
    engine = SpMSpVEngine(matrix, default_context())
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 30, size=300)
    cols = rng.integers(0, 30, size=300)
    ack = engine.apply_updates(rows, cols, rng.random(300))
    assert ack["compacted"] and ack["delta_entries"] == 0
    assert ack["compacted_strips"] == [0]
    assert engine.deltas[0].is_empty
    assert engine.delta_stats()["compactions"] == 1
    # the compacted base is the rebuilt matrix (replay the same rng stream)
    ref = DeltaLog(matrix.shape)
    rng2 = np.random.default_rng(17)
    ref.set_edges(rng2.integers(0, 30, size=300),
                  rng2.integers(0, 30, size=300), rng2.random(300))
    assert matrices_equal(engine.matrix, apply_delta(matrix, ref))


def test_explicit_compact_and_summary_counters():
    matrix = random_csc(25, 25, 0.2, seed=19)
    engine = SpMSpVEngine(matrix, default_context())
    engine.compact_fraction = 1e9
    assert engine.compact() is False            # nothing pending
    engine.apply_updates([1], [2], [3.0])
    assert engine.compact() is True
    assert engine.deltas[0].is_empty
    summary = engine.summary()
    assert summary["delta_entries"] == 0
    assert summary["compactions"] == 1


def test_multiply_after_compaction_matches_fresh_engine():
    rng = np.random.default_rng(29)
    matrix = random_csc(40, 40, 0.15, seed=29)
    engine = SpMSpVEngine(matrix, default_context(), algorithm="bucket")
    (sr, sc, sv), _ = random_updates(matrix, rng, n_set=20, n_del=2)
    engine.apply_updates(sr, sc, sv)
    engine.compact()
    idx = np.sort(rng.choice(40, size=8, replace=False))
    x = SparseVector(40, idx, rng.random(8) + 0.1)
    fresh = SpMSpVEngine(engine.matrix, default_context(), algorithm="bucket")
    got = engine.multiply(x, sorted_output=True)
    want = fresh.multiply(x, sorted_output=True)
    assert_bit_identical(got.vector, want.vector, "post-compaction")
    assert "delta_patch_nnz" not in got.info    # overlay inactive again
