"""Unit tests for the DCSC matrix format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import CSCMatrix, DCSCMatrix

from conftest import random_csc


# --------------------------------------------------------------------------- #
# DCSC
# --------------------------------------------------------------------------- #
def test_dcsc_skips_empty_columns():
    dense = np.zeros((5, 10))
    dense[0, 2] = 1.0
    dense[3, 2] = 2.0
    dense[4, 7] = 3.0
    csc = CSCMatrix.from_dense(dense)
    dcsc = DCSCMatrix.from_csc(csc)
    assert dcsc.nzc == 2
    np.testing.assert_array_equal(dcsc.jc, [2, 7])
    np.testing.assert_allclose(dcsc.to_dense(), dense)


def test_dcsc_memory_is_smaller_for_hypersparse():
    dense = np.zeros((50, 1000))
    dense[3, 17] = 1.0
    dense[10, 900] = 2.0
    csc = CSCMatrix.from_dense(dense)
    dcsc = DCSCMatrix.from_csc(csc)
    # CSC needs n+1 pointer entries; DCSC needs only O(nzc + nnz)
    assert dcsc.memory_footprint() < len(csc.indptr)


def test_dcsc_column_lookup_with_aux_index():
    csc = random_csc(20, 40, 0.05, seed=9)
    dcsc = DCSCMatrix.from_csc(csc)
    for j in range(40):
        rows, vals = dcsc.column(j)
        expected_rows, expected_vals = csc.column(j)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_allclose(vals, expected_vals)


def test_dcsc_column_position_missing():
    dense = np.zeros((4, 6))
    dense[1, 3] = 5.0
    dcsc = DCSCMatrix.from_csc(CSCMatrix.from_dense(dense))
    assert dcsc.column_position(3) == 0
    assert dcsc.column_position(0) == -1
    with pytest.raises(IndexError):
        dcsc.column_position(99)


def test_dcsc_column_positions_vectorized():
    csc = random_csc(15, 25, 0.1, seed=10)
    dcsc = DCSCMatrix.from_csc(csc)
    cols = np.arange(25)
    pos = dcsc.column_positions(cols)
    for j in range(25):
        if csc.column_nnz(j) == 0:
            assert pos[j] == -1
        else:
            assert dcsc.jc[pos[j]] == j


def test_dcsc_gather_columns_matches_csc():
    csc = random_csc(18, 30, 0.12, seed=11)
    dcsc = DCSCMatrix.from_csc(csc)
    cols = np.array([0, 5, 5, 17, 29])
    rows_c, vals_c, _ = csc.gather_columns(cols)
    rows_d, vals_d, _ = dcsc.gather_columns(cols)
    np.testing.assert_array_equal(np.sort(rows_c), np.sort(rows_d))
    np.testing.assert_allclose(np.sort(vals_c), np.sort(vals_d))


def test_dcsc_round_trips():
    csc = random_csc(12, 20, 0.15, seed=12)
    dcsc = DCSCMatrix.from_csc(csc)
    np.testing.assert_allclose(dcsc.to_csc().to_dense(), csc.to_dense())
    np.testing.assert_allclose(dcsc.to_coo().to_dense(), csc.to_dense())


def test_dcsc_empty_matrix():
    dcsc = DCSCMatrix.from_csc(CSCMatrix.empty((5, 5)))
    assert dcsc.nzc == 0
    assert dcsc.nnz == 0
    rows, vals = dcsc.column(2)
    assert len(rows) == 0


def test_dcsc_validation_rejects_empty_represented_column():
    with pytest.raises(FormatError):
        DCSCMatrix((3, 3), jc=[0, 1], cp=[0, 1, 1], ir=[0], num=[1.0])
