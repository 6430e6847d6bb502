"""Tests for semirings, the sparse accumulator, and the bucket machinery."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    BucketStore,
    SparseAccumulator,
    bucket_of_rows,
    bucket_row_ranges,
    compute_offsets,
)
from repro.core import buckets
from repro.core.buckets import merge_rows
from repro.errors import ReproError
from repro.semiring import (
    MAX_SELECT2ND,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SELECT1ST,
    MIN_SELECT2ND,
    OR_AND,
    PLUS_TIMES,
    available_semirings,
    get_semiring,
)


# --------------------------------------------------------------------------- #
# semirings
# --------------------------------------------------------------------------- #
def test_plus_times_basics():
    assert PLUS_TIMES.reduce(np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0)
    assert PLUS_TIMES.reduce(np.array([])) == 0.0
    np.testing.assert_allclose(PLUS_TIMES.multiply(np.array([2.0, 3.0]),
                                                   np.array([4.0, 5.0])), [8.0, 15.0])


def test_min_plus_shortest_path_semantics():
    assert MIN_PLUS.reduce(np.array([5.0, 2.0, 9.0])) == pytest.approx(2.0)
    assert MIN_PLUS.reduce(np.array([])) == np.inf
    np.testing.assert_allclose(MIN_PLUS.multiply(np.array([1.0]), np.array([2.0])), [3.0])


def test_select2nd_returns_vector_operand():
    out = MIN_SELECT2ND.multiply(np.array([10.0, 20.0]), np.array([7.0, 8.0]))
    np.testing.assert_allclose(out, [7.0, 8.0])
    out = MAX_SELECT2ND.multiply(np.array([10.0, 20.0]), 3.0)
    np.testing.assert_allclose(out, [3.0, 3.0])


def test_or_and_boolean():
    assert OR_AND.reduce(np.array([False, True])) == True  # noqa: E712
    np.testing.assert_array_equal(
        OR_AND.multiply(np.array([True, False]), np.array([True, True])), [True, False])


def test_reduceat_segments():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    starts = np.array([0, 2])
    np.testing.assert_allclose(PLUS_TIMES.reduceat(vals, starts), [3.0, 7.0])
    np.testing.assert_allclose(MIN_PLUS.reduceat(vals, starts), [1.0, 3.0])


@pytest.mark.parametrize("semiring,kept", [(MIN_SELECT2ND, 1), (MIN_SELECT1ST, 0)],
                         ids=["select2nd", "select1st"])
@pytest.mark.parametrize("shapes", [((5,), (5,)), ((), ()), ((5,), ()), ((), (5,)),
                                    ((4, 1), (4, 3)), ((4, 3), (4, 3)), ((4, 3), (1, 3))],
                         ids=str)
def test_select_copies_the_kept_operand_like_broadcast_then_copy(semiring, kept, shapes):
    """Operands of one shape skip the broadcast, yet the result still has
    the bytes, dtype, shape, C layout and writability of broadcasting the
    kept operand to the common shape and copying it (a Fortran-ordered or
    read-only operand included)."""
    rng = np.random.default_rng(3)
    a = np.asarray(rng.normal(size=shapes[0]))
    b = np.asarray(rng.integers(0, 9, size=shapes[1]))
    if a.ndim == 2:
        a = np.asfortranarray(a)
    b.flags.writeable = False
    operand = (a, b)[kept]
    expected = np.broadcast_to(
        operand, np.broadcast_shapes(np.shape(a), np.shape(b))).copy()
    out = semiring.multiply(a, b)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, operand)


def test_accumulate_at_matches_add_at():
    target = np.zeros(5)
    PLUS_TIMES.accumulate_at(target, np.array([1, 1, 3]), np.array([2.0, 3.0, 4.0]))
    np.testing.assert_allclose(target, [0, 5, 0, 4, 0])


def test_registry():
    assert "plus_times" in available_semirings()
    assert get_semiring("min_plus") is MIN_PLUS
    with pytest.raises(KeyError):
        get_semiring("does_not_exist")


# --------------------------------------------------------------------------- #
# SparseAccumulator
# --------------------------------------------------------------------------- #
def test_spa_accumulate_and_extract():
    spa = SparseAccumulator(10)
    spa.reset()
    fresh, combines = spa.accumulate(np.array([3, 3, 7]), np.array([1.0, 2.0, 5.0]))
    assert fresh == 2 and combines == 1
    idx, vals = spa.extract(sort=True)
    np.testing.assert_array_equal(idx, [3, 7])
    np.testing.assert_allclose(vals, [3.0, 5.0])


def test_spa_reset_is_logical_not_physical():
    spa = SparseAccumulator(6)
    spa.reset()
    spa.accumulate(np.array([2]), np.array([9.0]))
    spa.reset()
    assert spa.nnz == 0
    # the old value is still physically present but not logically initialized
    assert not spa.is_initialized(np.array([2]))[0]
    spa.accumulate(np.array([2]), np.array([1.0]))
    idx, vals = spa.extract()
    np.testing.assert_allclose(vals, [1.0])


def test_spa_partial_init_counts_only_touched_slots():
    spa = SparseAccumulator(1000)
    spa.reset()
    fresh, _ = spa.accumulate(np.array([0, 999]), np.array([1.0, 2.0]))
    assert fresh == 2
    assert spa.nnz == 2  # no O(m) initialization happened


def test_spa_semiring_min():
    spa = SparseAccumulator(5, semiring=MIN_PLUS)
    spa.reset()
    spa.accumulate(np.array([1, 1]), np.array([9.0, 4.0]))
    spa.accumulate(np.array([1]), np.array([6.0]))
    idx, vals = spa.extract()
    np.testing.assert_allclose(vals, [4.0])


def test_spa_accumulate_one_scalar_path():
    spa = SparseAccumulator(4)
    spa.reset()
    assert spa.accumulate_one(2, 1.5) is True
    assert spa.accumulate_one(2, 2.5) is False
    idx, vals = spa.extract()
    np.testing.assert_allclose(vals, [4.0])
    with pytest.raises(IndexError):
        spa.accumulate_one(10, 1.0)


def test_spa_out_of_range():
    spa = SparseAccumulator(4)
    spa.reset()
    with pytest.raises(IndexError):
        spa.accumulate(np.array([9]), np.array([1.0]))


def test_spa_first_touch_order_preserved():
    spa = SparseAccumulator(10)
    spa.reset()
    spa.accumulate(np.array([7]), np.array([1.0]))
    spa.accumulate(np.array([2]), np.array([1.0]))
    np.testing.assert_array_equal(spa.unique_indices(), [7, 2])
    np.testing.assert_array_equal(spa.unique_indices(sort=True), [2, 7])


def test_spa_folds_a_written_slot_before_its_batch():
    """A slot's later addends fold onto its current value in stream order:
    (0.1 + 0.2) + 0.3, which rounds to 0.6000000000000001, not 0.1 + (0.2 +
    0.3) = 0.6.  The counts stay one fresh slot and two ADDs."""
    spa = SparseAccumulator(4)
    spa.reset()
    assert spa.accumulate(np.array([0]), np.array([0.1])) == (1, 0)
    assert spa.accumulate(np.array([0, 0, 2]), np.array([0.2, 0.3, 1.0])) == (1, 2)
    idx, vals = spa.extract()
    assert idx.tolist() == [0, 2]
    assert vals.tolist() == [(0.1 + 0.2) + 0.3, 1.0] == [0.6000000000000001, 1.0]


@st.composite
def batched_streams(draw):
    """A (row, value) stream over 12 rows and the cut points of its batches."""
    rows = draw(st.lists(st.integers(0, 11), max_size=40))
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=len(rows), max_size=len(rows)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    return rows, values, cuts


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MAX_TIMES],
                         ids=lambda sr: sr.name)
@given(stream=batched_streams())
@example(stream=([0, 0, 0], [0.1, 0.2, 0.3], [1]))
@settings(deadline=None, max_examples=60)
def test_spa_batches_equal_one_merge_of_the_stream(semiring, stream):
    """Any split of a stream into batches accumulates to exactly what one
    ``merge_rows`` over the whole stream gives: the same rows and value
    bits, with one fresh slot per row and one ADD per addend that meets its
    row again."""
    rows, values, cuts = stream
    rows, values = np.array(rows, dtype=np.int64), np.array(values)
    spa = SparseAccumulator(12, semiring=semiring)
    spa.reset(semiring)
    fresh = combines = 0
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        got = spa.accumulate(rows[lo:hi], values[lo:hi])
        fresh, combines = fresh + got[0], combines + got[1]
    uind, merged = merge_rows(rows, values, semiring, 12)[:2]
    idx, vals = spa.extract(sort=True)
    assert idx.tolist() == uind.tolist()
    assert vals.tobytes() == merged.tobytes()
    assert (fresh, combines) == (len(uind), len(rows) - len(uind))


# --------------------------------------------------------------------------- #
# buckets
# --------------------------------------------------------------------------- #
def test_bucket_of_rows_matches_formula():
    rows = np.arange(10)
    buckets = bucket_of_rows(rows, 4, 10)
    np.testing.assert_array_equal(buckets, (rows * 4) // 10)


def test_bucket_row_ranges_are_inverse():
    nb, m = 7, 23
    ranges = bucket_row_ranges(nb, m)
    for k, (lo, hi) in enumerate(ranges):
        for row in range(lo, hi):
            assert bucket_of_rows(np.array([row]), nb, m)[0] == k
    assert ranges[0][0] == 0 and ranges[-1][1] == m


def test_compute_offsets_layout():
    counts = np.array([[2, 0, 1],
                       [1, 3, 0]])
    offsets = compute_offsets(counts)
    assert offsets.total_entries == 7
    np.testing.assert_array_equal(offsets.bucket_sizes(), [3, 3, 1])
    np.testing.assert_array_equal(offsets.bucket_starts, [0, 3, 6])
    # thread 0 writes first inside each bucket, thread 1 after thread 0's entries
    np.testing.assert_array_equal(offsets.write_starts[0], [0, 3, 6])
    np.testing.assert_array_equal(offsets.write_starts[1], [2, 3, 7])
    assert offsets.bucket_slice(1) == (3, 6)


def test_bucket_store_lock_free_insertion():
    counts = np.array([[2, 1], [1, 2]])
    offsets = compute_offsets(counts)
    store = BucketStore(6)
    store.attach_offsets(offsets)
    # thread 0: two entries to bucket 0, one to bucket 1
    store.write_thread_entries(0, np.array([0, 1, 0]), np.array([1, 9, 2]),
                               np.array([1.0, 2.0, 3.0]))
    # thread 1: one entry to bucket 0, two to bucket 1
    store.write_thread_entries(1, np.array([1, 0, 1]), np.array([8, 3, 7]),
                               np.array([4.0, 5.0, 6.0]))
    rows0, vals0 = store.bucket_entries(0)
    rows1, vals1 = store.bucket_entries(1)
    assert sorted(rows0.tolist()) == [1, 2, 3]
    assert sorted(rows1.tolist()) == [7, 8, 9]
    assert len(vals0) == 3 and len(vals1) == 3


def test_bucket_store_detects_estimate_mismatch():
    counts = np.array([[1, 1]])
    store = BucketStore(2)
    store.attach_offsets(compute_offsets(counts))
    with pytest.raises(ReproError):
        # claims 2 entries for bucket 0 although the estimate said 1
        store.write_thread_entries(0, np.array([0, 0]), np.array([1, 2]),
                                   np.array([1.0, 2.0]))


def test_bucket_store_grows_capacity():
    store = BucketStore(2)
    counts = np.array([[5]])
    store.attach_offsets(compute_offsets(counts))
    assert store.capacity >= 5


# --------------------------------------------------------------------------- #
# the row merge every kernel shares
# --------------------------------------------------------------------------- #
@st.composite
def merge_streams(draw):
    """A gathered (row, value) stream: rows from a small pool, so rows repeat,
    over row counts that take each path of ``stable_row_argsort`` (one 15-bit
    digit, two digits above 32,768 rows, the plain sort above 2**30)."""
    num_rows = draw(st.sampled_from([1, 9, 300, 40_000, 70_000, (1 << 30) + 5]))
    pool = draw(st.lists(st.integers(0, num_rows - 1), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=60))
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=len(rows), max_size=len(rows)))
    return num_rows, rows, values


def _rows_in_output_order(rows, values, num_rows, *, sorted_output, num_buckets):
    """Pure-Python oracle: each row's addends in stream order, the rows
    ascending or (unsorted) buckets ascending with rows in first-touch order,
    and each bucket's entry and unique-row counts."""
    addends = {}
    for row, value in zip(rows, values):
        addends.setdefault(row, []).append(value)
    bucket = {row: row * num_buckets // num_rows for row in addends}
    order = sorted(addends) if sorted_output else sorted(addends, key=bucket.get)
    sizes, uniques = [0] * num_buckets, [0] * num_buckets
    for row, group in addends.items():
        sizes[bucket[row]] += len(group)
        uniques[bucket[row]] += 1
    return order, [addends[row] for row in order], sizes, uniques


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MIN_SELECT2ND],
                         ids=lambda sr: sr.name)
@given(stream=merge_streams(), sorted_output=st.booleans(),
       num_buckets=st.integers(1, 8))
# the left fold and np.add.reduceat (first addend plus the pairwise sum of
# the rest) round these plus-times rows differently: 0.6000000000000001 vs 0.6
@example(stream=(9, [5, 5, 5], [0.1, 0.2, 0.3]), sorted_output=True, num_buckets=1)
@example(stream=(1, [0, 0, 0, 0], [97153.0, 1e6, 999999.4703372817, 0.2]),
         sorted_output=False, num_buckets=3)
@settings(deadline=None, max_examples=60)
def test_merge_rows_matches_a_row_by_row_oracle(semiring, stream, sorted_output,
                                                num_buckets):
    """``merge_rows`` groups a stream's rows, folds each row's addends left
    to right in stream order (Algorithm 1's SPA order) and lays the rows out
    as the unsorted variant would.

    Each row is folded alone by the oracle, in pure Python; a merge that
    reorders a row's addends differs from it in the last bits.
    """
    num_rows, rows, values = stream
    uind, merged, sizes, uniques = merge_rows(
        np.array(rows, dtype=np.int64), np.array(values, dtype=np.float64),
        semiring, num_rows, sorted_output=sorted_output, num_buckets=num_buckets)
    order, groups, exp_sizes, exp_uniques = _rows_in_output_order(
        rows, values, num_rows, sorted_output=sorted_output,
        num_buckets=num_buckets)
    assert uind.tolist() == order
    folded = [functools.reduce(semiring.add, g) for g in groups]
    assert np.array_equal(merged, np.array(folded, dtype=np.float64))
    assert sizes.tolist() == exp_sizes
    assert uniques.tolist() == exp_uniques


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND],
                         ids=lambda sr: sr.name)
@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_],
                         ids=lambda dt: np.dtype(dt).name)
@pytest.mark.parametrize("sorted_output", [True, False])
def test_merge_rows_dense_and_renumbered_spas_agree(semiring, dtype, sorted_output,
                                                   monkeypatch):
    """One stream merged on both sides of the crossover: at ``num_rows`` =
    SPA_ROWS_PER_ENTRY x the stream length the SPA spans the row space and
    nothing is sorted; one row more and the rows are renumbered by a stable
    sort first.  Rows, counts and value bits agree, whether a slot starts
    from the identity or (no exact seed in the dtype) from its first addend."""
    rng = np.random.default_rng(11)
    p = 64
    num_rows = buckets.SPA_ROWS_PER_ENTRY * p
    rows = rng.integers(0, num_rows, p)
    rows[:16] = rows[16:32]
    values = (rng.normal(size=p) * 1e3).astype(dtype)
    sorts = []
    sort = buckets.stable_row_argsort
    monkeypatch.setattr(buckets, "stable_row_argsort",
                        lambda *args, **kw: sorts.append(args) or sort(*args, **kw))
    dense = merge_rows(rows, values, semiring, num_rows, sorted_output=sorted_output)
    assert not sorts
    renumbered = merge_rows(rows, values, semiring, num_rows + 1,
                            sorted_output=sorted_output)
    assert len(sorts) == 1
    for a, b in zip(dense, renumbered):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_rows", [3, 1 << 20])
def test_merge_rows_keeps_a_lone_negative_zero(num_rows):
    """A plus-times slot starts from -0.0, the exact additive identity, so a
    row whose one addend is -0.0 keeps its sign (+0.0 would flip it), on the
    dense and on the renumbered SPA."""
    uind, merged, _sizes, _uniques = merge_rows(
        np.array([2, 1]), np.array([-0.0, 0.5]), PLUS_TIMES, num_rows)
    assert uind.tolist() == [1, 2]
    assert merged.tolist() == [0.5, 0.0] and np.signbit(merged[1])
