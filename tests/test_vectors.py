"""Unit tests for the sparse vector formats (list format and bitvector)."""

import numpy as np
import pytest

from repro.core.vector_ops import mask_bitmap, mask_keep
from repro.errors import FormatError
from repro.formats import BitVector, SparseVector

from conftest import random_sparse_vector


# --------------------------------------------------------------------------- #
# SparseVector (list format)
# --------------------------------------------------------------------------- #
def test_from_dense_and_back():
    dense = np.array([0.0, 1.5, 0.0, -2.0, 0.0])
    vec = SparseVector.from_dense(dense)
    assert vec.nnz == 2
    assert vec.sorted
    np.testing.assert_allclose(vec.to_dense(), dense)


def test_from_dense_with_tolerance():
    dense = np.array([1e-12, 0.5, -1e-12])
    assert SparseVector.from_dense(dense, tol=1e-9).nnz == 1


def test_from_pairs_and_empty():
    vec = SparseVector.from_pairs(6, [(3, 1.0), (1, 2.0)])
    assert vec.nnz == 2
    assert vec[3] == pytest.approx(1.0)
    empty = SparseVector.empty(4)
    assert empty.nnz == 0 and empty.density() == 0.0


def test_full_like_indices():
    vec = SparseVector.full_like_indices(10, [2, 5, 7], fill_value=3.0)
    assert vec.nnz == 3
    assert all(v == 3.0 for v in vec.values)


def test_getitem_sorted_and_unsorted():
    vec = SparseVector(8, [1, 5, 6], [1.0, 2.0, 3.0])
    assert vec[5] == pytest.approx(2.0)
    assert vec[0] == 0.0
    unsorted = vec.shuffled(np.random.default_rng(0))
    assert unsorted[5] == pytest.approx(2.0)
    assert unsorted[2] == 0.0
    with pytest.raises(IndexError):
        vec[100]


def test_duplicate_indices_rejected():
    with pytest.raises(FormatError):
        SparseVector(5, [1, 1], [1.0, 2.0])


def test_out_of_range_rejected():
    with pytest.raises(FormatError):
        SparseVector(3, [0, 7], [1.0, 2.0])


def test_sorted_flag_must_match():
    with pytest.raises(FormatError):
        SparseVector(5, [3, 1], [1.0, 2.0], sorted=True)
    # auto-detection: unsorted indices are fine when the flag is not forced
    vec = SparseVector(5, [3, 1], [1.0, 2.0])
    assert not vec.sorted


def test_sort_and_shuffle_round_trip(rng):
    vec = random_sparse_vector(50, 20, seed=1)
    shuffled = vec.shuffled(rng)
    assert shuffled.equals(vec)
    assert shuffled.sort().sorted
    np.testing.assert_array_equal(shuffled.sort().indices, vec.indices)


def test_drop_zeros():
    vec = SparseVector(6, [0, 2, 4], [0.0, 1.0, 0.0])
    assert vec.drop_zeros().nnz == 1


def test_select_mask_and_complement():
    vec = SparseVector(10, [1, 3, 5, 7], [1.0, 2.0, 3.0, 4.0])
    kept = vec.select(np.array([3, 7]))
    np.testing.assert_array_equal(kept.indices, [3, 7])
    dropped = vec.select(np.array([3, 7]), complement=True)
    np.testing.assert_array_equal(dropped.indices, [1, 5])


def test_map_values_scale_norm():
    vec = SparseVector(5, [0, 3], [3.0, 4.0])
    assert vec.scale(2.0).values.tolist() == [6.0, 8.0]
    assert vec.norm(2) == pytest.approx(5.0)
    assert SparseVector.empty(3).norm() == 0.0


def test_to_pairs_and_equals():
    vec = SparseVector(5, [2, 4], [1.0, 2.0])
    assert vec.to_pairs() == [(2, 1.0), (4, 2.0)]
    other = SparseVector(5, [4, 2], [2.0, 1.0])
    assert vec.equals(other)
    assert not vec.equals(SparseVector(5, [2, 4], [1.0, 2.5]))
    assert not vec.equals(SparseVector(6, [2, 4], [1.0, 2.0]))


def test_density():
    vec = random_sparse_vector(100, 25, seed=2)
    assert vec.density() == pytest.approx(0.25)


# --------------------------------------------------------------------------- #
# BitVector
# --------------------------------------------------------------------------- #
def test_bitvector_round_trip():
    sv = random_sparse_vector(200, 37, seed=3)
    bv = BitVector.from_sparse_vector(sv)
    assert bv.nnz == 37
    assert bv.to_sparse_vector().equals(sv)
    np.testing.assert_allclose(bv.to_dense(), sv.to_dense())


def test_bitvector_membership():
    bv = BitVector(70, [0, 63, 64, 69], [1.0, 2.0, 3.0, 4.0])
    assert bv.is_set(0) and bv.is_set(63) and bv.is_set(64) and bv.is_set(69)
    assert not bv.is_set(1) and not bv.is_set(65)
    with pytest.raises(IndexError):
        bv.is_set(70)


def test_bitvector_vectorized_membership():
    sv = random_sparse_vector(500, 60, seed=4)
    bv = BitVector.from_sparse_vector(sv)
    probe = np.arange(500)
    expected = np.zeros(500, dtype=bool)
    expected[sv.indices] = True
    member = np.array([bv.is_set(i) for i in probe])
    np.testing.assert_array_equal(member, expected)
    # the vectorized probe is the mask map: one lookup per index
    np.testing.assert_array_equal(mask_keep(mask_bitmap(sv, 500), probe), expected)
    np.testing.assert_array_equal(
        mask_keep(mask_bitmap(sv, 500), probe, complement=True), ~expected)


def test_bitvector_memory_is_o_n_plus_nnz():
    bv = BitVector.empty(6400)
    assert bv.memory_words() == 100  # 6400/64 bitmap words, no values
    bv2 = BitVector(6400, [1, 2, 3], [1.0, 2.0, 3.0])
    assert bv2.memory_words() == 100 + 6


def test_bitvector_duplicate_rejected():
    with pytest.raises(FormatError):
        BitVector(10, [1, 1], [1.0, 2.0])
