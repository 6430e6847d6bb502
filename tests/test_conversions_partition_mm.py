"""Tests for format conversions, matrix partitioning, and Matrix Market I/O."""

import numpy as np
import pytest

from repro.errors import NotSupportedError, ReproError
from repro.formats import (
    BitVector,
    COOMatrix,
    CSCMatrix,
    DCSCMatrix,
    SparseVector,
    column_split,
    convert,
    grid_partition,
    matrices_equal,
    partition_nonzeros,
    read_matrix_market,
    read_matrix_market_csc,
    row_split,
    split_ranges,
    to_bitvector,
    to_csc,
    to_sparse_vector,
    write_matrix_market,
)

from conftest import random_csc, random_dense


# --------------------------------------------------------------------------- #
# conversions
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fmt", ["coo", "csc", "dcsc"])
def test_convert_round_trip(fmt):
    mat = random_csc(10, 14, 0.2, seed=20)
    converted = convert(mat, fmt)
    assert matrices_equal(mat, converted)


def test_convert_unknown_format():
    with pytest.raises(NotSupportedError):
        convert(random_csc(3, 3), "ellpack")


def test_to_csc_from_all_formats():
    dense = random_dense(8, 6, 0.3, seed=21)
    coo = COOMatrix.from_dense(dense)
    for obj in (coo, CSCMatrix.from_coo(coo), DCSCMatrix.from_coo(coo)):
        np.testing.assert_allclose(to_csc(obj).to_dense(), dense)


def test_vector_conversions():
    sv = SparseVector(9, [1, 4], [2.0, 3.0])
    assert to_sparse_vector(sv) is sv
    assert to_sparse_vector(sv.to_dense()).equals(sv)
    bv = to_bitvector(sv)
    assert isinstance(bv, BitVector)
    assert to_sparse_vector(bv).equals(sv)
    with pytest.raises(NotSupportedError):
        to_sparse_vector(np.zeros((2, 2)))


def test_matrices_equal_detects_difference():
    a = random_csc(5, 5, 0.4, seed=22)
    b = CSCMatrix.from_dense(a.to_dense() + np.eye(5))
    assert not matrices_equal(a, b)


# --------------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------------- #
def test_split_ranges_cover_everything():
    ranges = split_ranges(10, 3)
    assert ranges == [(0, 4), (4, 7), (7, 10)]
    assert split_ranges(2, 5)[-1] == (2, 2)  # empty trailing ranges allowed
    with pytest.raises(ValueError):
        split_ranges(5, 0)


def test_row_split_reassembles(small_matrix):
    split = row_split(small_matrix, 3)
    assert split.num_parts == 3
    stacked = np.vstack([s.to_dense() for s in split.strips])
    np.testing.assert_allclose(stacked, small_matrix.to_dense())
    # DCSC view has the same content
    for strip, dcsc in zip(split.strips, split.strip_dcsc()):
        np.testing.assert_allclose(dcsc.to_dense(), strip.to_dense())


def test_column_split_reassembles(small_matrix):
    split = column_split(small_matrix, 2)
    stacked = np.hstack([s.to_dense() for s in split.strips])
    np.testing.assert_allclose(stacked, small_matrix.to_dense())


def test_grid_partition_reassembles():
    mat = random_csc(9, 12, 0.3, seed=23)
    grid = grid_partition(mat, 4)
    assert grid.grid_shape == (2, 2)
    rows = [np.hstack([blk.to_dense() for blk in row]) for row in grid.blocks]
    np.testing.assert_allclose(np.vstack(rows), mat.to_dense())


def test_grid_partition_requires_square_thread_count():
    with pytest.raises(ReproError, match=r"\(pr, pc\)"):
        grid_partition(random_csc(4, 4), 3)


def test_grid_partition_explicit_rectangular_tuple():
    mat = random_csc(9, 12, 0.3, seed=23)
    grid = grid_partition(mat, (3, 2))
    assert grid.grid_shape == (3, 2)
    rows = [np.hstack([blk.to_dense() for blk in row]) for row in grid.blocks]
    np.testing.assert_allclose(np.vstack(rows), mat.to_dense())
    # a square count and its equivalent tuple agree block-for-block
    by_int = grid_partition(mat, 4)
    by_tuple = grid_partition(mat, (2, 2))
    assert by_int.row_ranges == by_tuple.row_ranges
    assert by_int.col_ranges == by_tuple.col_ranges


def test_grid_partition_tuple_validation():
    mat = random_csc(4, 4)
    with pytest.raises(ReproError, match="3-tuple"):
        grid_partition(mat, (2, 2, 2))
    with pytest.raises(ReproError, match=">= 1"):
        grid_partition(mat, (0, 2))


def test_partition_nonzeros():
    chunks = partition_nonzeros(np.arange(10), 4)
    assert sum(len(c) for c in chunks) == 10
    assert all(np.all(np.diff(c) == 1) for c in chunks if len(c))


def test_row_split_more_parts_than_rows():
    mat = random_csc(3, 8, 0.4, seed=31)
    split = row_split(mat, 7)
    assert split.num_parts == 7
    # every strip is structurally valid, including the zero-row ones
    for (lo, hi), strip in zip(split.row_ranges, split.strips):
        assert strip.nrows == hi - lo
        assert strip.ncols == mat.ncols
        strip.validate()
    empty = [s for s in split.strips if s.nrows == 0]
    assert len(empty) == 4  # 7 parts over 3 rows: 4 empty strips
    assert all(s.nnz == 0 for s in empty)
    assert sum(s.nnz for s in split.strips) == mat.nnz
    stacked = np.vstack([s.to_dense() for s in split.strips if s.nrows])
    np.testing.assert_allclose(stacked, mat.to_dense())


def test_row_split_empty_strip_structure():
    mat = random_csc(2, 5, 0.5, seed=32)
    split = row_split(mat, 4)
    empty = [s for s in split.strips if s.nrows == 0]
    assert empty, "4 parts over 2 rows must produce empty strips"
    for strip in empty:
        assert strip.shape == (0, 5)
        assert len(strip.indptr) == 6
        assert np.all(strip.indptr == 0)
        # empty strips still answer the structural queries
        assert strip.nzc() == 0
        assert strip.column_counts().tolist() == [0] * 5


def test_strip_dcsc_round_trip_with_empty_columns():
    # a matrix whose columns 1 and 3 are entirely empty, plus empty rows,
    # so strips have both empty columns and (for enough parts) zero rows
    dense = np.array([
        [1.0, 0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 3.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [4.0, 0.0, 0.0, 0.0, 5.0],
    ])
    mat = CSCMatrix.from_dense(dense)
    for parts in (1, 2, 3, 4, 6):
        split = row_split(mat, parts)
        dcscs = split.strip_dcsc()
        assert len(dcscs) == parts
        for strip, dcsc in zip(split.strips, dcscs):
            # DCSC stores only non-empty columns; content must round-trip
            assert dcsc.nzc <= strip.ncols
            np.testing.assert_allclose(dcsc.to_dense(), strip.to_dense())
        stacked = np.vstack([s.to_dense() for s in split.strips if s.nrows])
        np.testing.assert_allclose(stacked, dense)


def test_row_split_rejects_nonpositive_parts():
    mat = random_csc(4, 4, 0.3, seed=33)
    with pytest.raises(ValueError):
        row_split(mat, 0)


# --------------------------------------------------------------------------- #
# Matrix Market I/O
# --------------------------------------------------------------------------- #
def test_matrix_market_round_trip(tmp_path):
    mat = random_csc(12, 9, 0.2, seed=24)
    path = tmp_path / "test.mtx"
    write_matrix_market(path, mat, comment="round trip test")
    back = read_matrix_market_csc(path)
    np.testing.assert_allclose(back.to_dense(), mat.to_dense())


def test_matrix_market_symmetric(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 7.0\n")
    coo = read_matrix_market(path)
    dense = coo.to_dense()
    assert dense[1, 0] == 5.0 and dense[0, 1] == 5.0
    assert dense[2, 2] == 7.0
    assert coo.nnz == 3  # diagonal entry not duplicated


def test_matrix_market_pattern(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 1\n"
        "2 2\n")
    dense = read_matrix_market(path).to_dense()
    np.testing.assert_allclose(dense, np.eye(2))


def test_matrix_market_rejects_garbage(tmp_path):
    from repro.errors import FormatError

    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix market file\n1 1 1\n")
    with pytest.raises(FormatError):
        read_matrix_market(path)


def test_matrix_market_wrong_count(tmp_path):
    from repro.errors import FormatError

    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n")
    with pytest.raises(FormatError):
        read_matrix_market(path)
