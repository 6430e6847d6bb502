"""Coordinate (COO / triplet) sparse matrix format.

COO is the natural *builder* format: graph generators and the Matrix Market
reader produce triplets, which are then converted to CSC/DCSC for the
multiplication kernels.  The format stores three parallel arrays
``(rows, cols, vals)`` plus the logical shape.

Duplicate entries are allowed while building and are summed (or combined with
a user-supplied reduction) by :meth:`COOMatrix.sum_duplicates`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array, as_value_array, check_shape
from ..errors import FormatError


class COOMatrix:
    """A sparse matrix in coordinate (triplet) format.

    Parameters
    ----------
    shape:
        ``(m, n)`` logical dimensions.
    rows, cols:
        Row / column index of each stored entry (``int64``).
    vals:
        Numerical value of each stored entry.
    """

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __init__(self, shape, rows, cols, vals, check: bool = True):
        self.shape = check_shape(shape)
        self.rows = as_index_array(rows)
        self.cols = as_index_array(cols)
        self.vals = as_value_array(vals, dtype=np.asarray(vals).dtype
                                   if np.asarray(vals).dtype.kind in "fiub" else None)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise FormatError(
                f"triplet arrays must have equal length, got "
                f"{len(self.rows)}, {len(self.cols)}, {len(self.vals)}"
            )
        self._checked = False
        if check:
            self.validate()

    @classmethod
    def empty(cls, shape, dtype=np.float64) -> "COOMatrix":
        """Return an empty matrix of the given shape."""
        return cls(shape, np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=dtype))

    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array, dropping explicit zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted individually)."""
        return int(len(self.vals))

    @property
    def dtype(self):
        return self.vals.dtype

    def validate(self) -> None:
        """Raise :class:`FormatError` if any index is out of range."""
        m, n = self.shape
        if self.nnz:
            if self.rows.min(initial=0) < 0 or (self.nnz and self.rows.max() >= m):
                raise FormatError("row index out of range")
            if self.cols.min(initial=0) < 0 or (self.nnz and self.cols.max() >= n):
                raise FormatError("column index out of range")
        self._checked = True

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def sum_duplicates(self, combine: Optional[Callable] = None) -> "COOMatrix":
        """Return a new COO matrix with duplicate ``(row, col)`` entries combined.

        ``combine`` defaults to summation; any NumPy ufunc with a ``reduceat``
        method (e.g. ``np.minimum``) may be passed instead.
        """
        if self.nnz == 0:
            return COOMatrix(self.shape, [], [], np.empty(0, dtype=self.dtype))
        m, n = self.shape
        keys = self.rows * n + self.cols
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        vals_sorted = self.vals[order]
        boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        uniq_keys = keys_sorted[starts]
        if combine is None:
            combined = np.add.reduceat(vals_sorted, starts)
        else:
            combined = combine.reduceat(vals_sorted, starts)
        return COOMatrix(self.shape, uniq_keys // n, uniq_keys % n, combined)

    def transpose(self) -> "COOMatrix":
        """Return the transpose (swaps rows and columns)."""
        m, n = self.shape
        return COOMatrix((n, m), self.cols.copy(), self.rows.copy(), self.vals.copy())

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array (duplicates are summed)."""
        dense = np.zeros(self.shape, dtype=self.vals.dtype if self.vals.dtype.kind == "f"
                         else np.float64)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def sorted_by_column(self) -> "COOMatrix":
        """Return a copy with entries sorted by (column, row)."""
        order = np.lexsort((self.rows, self.cols))
        return COOMatrix(self.shape, self.rows[order], self.cols[order], self.vals[order])

    def sorted_by_row(self) -> "COOMatrix":
        """Return a copy with entries sorted by (row, column)."""
        order = np.lexsort((self.cols, self.rows))
        return COOMatrix(self.shape, self.rows[order], self.cols[order], self.vals[order])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"
