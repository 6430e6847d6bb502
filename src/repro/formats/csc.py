"""Compressed Sparse Column (CSC) matrix format.

CSC is the storage format used by the SpMSpV-bucket algorithm (Table I of the
paper).  It stores three arrays:

* ``indptr`` — length ``n + 1``; column ``j`` occupies the half-open range
  ``indices[indptr[j]:indptr[j+1]]`` / ``data[indptr[j]:indptr[j+1]]``.
* ``indices`` — row ids of the nonzeros (length ``nnz``).
* ``data`` — numerical values of the nonzeros (length ``nnz``).

The class additionally exposes the *vectorized multi-column gather*
(:meth:`CSCMatrix.gather_columns`) that the kernels in :mod:`repro.core` and
:mod:`repro.baselines` are built on: given the nonzero indices of the sparse
input vector it returns, in one shot, the row ids, values, and originating
column of every matrix nonzero in the selected columns.  This is the NumPy
equivalent of the per-column loops in Algorithm 1 / Algorithm 2 of the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array, as_value_array, check_shape
from ..errors import DimensionMismatchError, FormatError
from .coo import COOMatrix


class CSCMatrix:
    """An m-by-n sparse matrix in Compressed Sparse Column format."""

    __slots__ = ("shape", "indptr", "indices", "data", "sorted_within_columns")

    def __init__(self, shape, indptr, indices, data, *,
                 sorted_within_columns: bool = False, check: bool = True):
        self.shape = check_shape(shape)
        self.indptr = as_index_array(indptr)
        self.indices = as_index_array(indices)
        self.data = as_value_array(data, dtype=np.asarray(data).dtype
                                   if np.asarray(data).dtype.kind in "fiub" else None)
        self.sorted_within_columns = bool(sorted_within_columns)
        if check:
            self.validate()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, sum_duplicates: bool = True) -> "CSCMatrix":
        """Build a CSC matrix from a :class:`COOMatrix`.

        Duplicate entries are summed by default (set ``sum_duplicates=False``
        only if the triplets are known to be duplicate-free).  Row ids within
        each column come out sorted, which the kernels exploit for cache
        locality (the paper's "sorted" variant).
        """
        if sum_duplicates:
            coo = coo.sum_duplicates()
        m, n = coo.shape
        order = np.lexsort((coo.rows, coo.cols))
        cols_sorted = coo.cols[order]
        indices = coo.rows[order]
        data = coo.vals[order]
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        counts = np.bincount(cols_sorted, minlength=n)
        np.cumsum(counts, out=indptr[1:])
        return cls((m, n), indptr, indices, data, sorted_within_columns=True, check=False)

    @classmethod
    def from_dense(cls, dense) -> "CSCMatrix":
        """Build a CSC matrix from a dense 2-D array, dropping zeros."""
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any ``scipy.sparse`` matrix (converted to its CSC form)."""
        csc = mat.tocsc()
        csc.sum_duplicates()
        csc.sort_indices()
        return cls(csc.shape, csc.indptr, csc.indices, csc.data,
                   sorted_within_columns=True, check=False)

    @classmethod
    def empty(cls, shape, dtype=np.float64) -> "CSCMatrix":
        """Return an all-zero matrix of the given shape."""
        m, n = check_shape(shape)
        return cls((m, n), np.zeros(n + 1, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=dtype),
                   sorted_within_columns=True, check=False)

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSCMatrix":
        """Return the n-by-n identity matrix."""
        indptr = np.arange(n + 1, dtype=INDEX_DTYPE)
        indices = np.arange(n, dtype=INDEX_DTYPE)
        data = np.ones(n, dtype=dtype)
        return cls((n, n), indptr, indices, data, sorted_within_columns=True, check=False)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(len(self.data))

    @property
    def dtype(self):
        return self.data.dtype

    def nzc(self) -> int:
        """Number of non-empty columns (the ``nzc()`` function of the paper)."""
        return int(np.count_nonzero(np.diff(self.indptr)))

    def column_counts(self) -> np.ndarray:
        """Return ``nnz(A(:, j))`` for every column ``j`` as a length-n array."""
        return np.diff(self.indptr)

    def row_counts(self) -> np.ndarray:
        """Return ``nnz(A(i, :))`` for every row ``i`` as a length-m array."""
        return np.bincount(self.indices, minlength=self.nrows).astype(INDEX_DTYPE)

    def average_degree(self) -> float:
        """Average number of nonzeros per column (``d`` in the paper's analysis)."""
        return self.nnz / self.ncols if self.ncols else 0.0

    def validate(self) -> None:
        """Check structural invariants; raise :class:`FormatError` on violation."""
        m, n = self.shape
        if len(self.indptr) != n + 1:
            raise FormatError(f"indptr must have length n+1={n + 1}, got {len(self.indptr)}")
        if self.indptr[0] != 0:
            raise FormatError("indptr[0] must be 0")
        if self.indptr[-1] != len(self.indices):
            raise FormatError("indptr[-1] must equal nnz")
        if len(self.indices) != len(self.data):
            raise FormatError("indices and data must have the same length")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise FormatError("row index out of range")

    # ------------------------------------------------------------------ #
    # column access
    # ------------------------------------------------------------------ #
    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_ids, values)`` views of column ``j`` (``A(:, j)``)."""
        if not (0 <= j < self.ncols):
            raise IndexError(f"column index {j} out of range for {self.ncols} columns")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def column_nnz(self, j: int) -> int:
        """Number of nonzeros in column ``j``."""
        return int(self.indptr[j + 1] - self.indptr[j])

    def gather_positions(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Storage positions of every nonzero of the selected columns, in one pass.

        Parameters
        ----------
        cols:
            Column indices to extract (need not be sorted, duplicates allowed;
            each occurrence contributes its entries again, matching the
            semantics of iterating over the nonzeros of ``x``).

        Returns
        -------
        (positions, source) where the k-th gathered nonzero is stored at
        ``indices[positions[k]]`` / ``data[positions[k]]`` and ``source[k]``
        is the *position within* ``cols`` of the column it came from (so that
        the caller can look up the corresponding ``x`` value).
        """
        cols = as_index_array(cols)
        if cols.size and (cols.min() < 0 or cols.max() >= self.ncols):
            raise IndexError("column index out of range in gather_columns")
        starts = self.indptr[cols]
        lengths = self.indptr[cols + 1] - starts
        return _segment_positions(starts, lengths)

    def gather_columns(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather ``(rows, values, source)`` of the selected columns.

        :meth:`gather_positions` followed by the row and value reads.
        """
        positions, source = self.gather_positions(cols)
        return self.indices[positions], self.data[positions], source

    def gather_columns_block(self, cols: np.ndarray, values_slab: Optional[np.ndarray] = None,
                             multiply=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     Optional[np.ndarray]]:
        """Gather a column union once and broadcast-multiply it against a value slab.

        This is the block counterpart of :meth:`gather_columns`: ``cols`` is
        the (typically shared) column union of a
        :class:`~repro.formats.vector_block.SparseVectorBlock`, gathered in
        **one** vectorized pass, and ``values_slab`` is the block's
        ``(len(cols), k)`` value slab.  The multiply is broadcast across all k
        vectors in a single vectorized call: the returned ``scaled`` has shape
        ``(total, k)`` with ``scaled[e, i] = multiply(values[e], slab[src[e], i])``
        — every vector's scaled contribution for every gathered nonzero,
        without gathering any column twice.

        Returns ``(rows, values, source, scaled)``; ``scaled`` is None when no
        slab is given (plain union gather).
        """
        rows, vals, src = self.gather_columns(cols)
        if values_slab is None:
            return rows, vals, src, None
        values_slab = np.asarray(values_slab)
        if values_slab.ndim != 2 or values_slab.shape[0] != len(as_index_array(cols)):
            raise DimensionMismatchError(
                f"values_slab must be (len(cols), k), got {values_slab.shape}")
        mul = multiply if multiply is not None else np.multiply
        if len(rows) == 0:
            k = values_slab.shape[1]
            out_dtype = np.result_type(self.dtype, values_slab.dtype)
            return rows, vals, src, np.empty((0, k), dtype=out_dtype)
        scaled = np.asarray(mul(vals[:, None], values_slab[src]))
        return rows, vals, src, scaled

    def selected_nnz(self, cols: np.ndarray) -> int:
        """Total number of nonzeros in the selected columns (``d·f`` of the analysis)."""
        cols = as_index_array(cols)
        if cols.size == 0:
            return 0
        return int((self.indptr[cols + 1] - self.indptr[cols]).sum())

    # ------------------------------------------------------------------ #
    # conversions / transforms
    # ------------------------------------------------------------------ #
    def to_coo(self) -> COOMatrix:
        """Convert to coordinate format."""
        cols = np.repeat(np.arange(self.ncols, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return COOMatrix(self.shape, self.indices.copy(), cols, self.data.copy(), check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        dense = np.zeros(self.shape, dtype=self.dtype if self.dtype.kind == "f" else np.float64)
        coo = self.to_coo()
        dense[coo.rows, coo.cols] = coo.vals
        return dense

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csc_matrix`` (requires scipy)."""
        from scipy import sparse

        return sparse.csc_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def transpose(self) -> "CSCMatrix":
        """Return the transpose as a new CSC matrix (i.e. CSR of the original)."""
        return CSCMatrix.from_coo(self.to_coo().transpose())

    def sort_within_columns(self) -> "CSCMatrix":
        """Return an equivalent matrix whose row ids are sorted within each column."""
        if self.sorted_within_columns:
            return self
        return CSCMatrix.from_coo(self.to_coo(), sum_duplicates=False)

    def extract_rows(self, row_lo: int, row_hi: int, *, remap: bool = True) -> "CSCMatrix":
        """Extract the row slice ``A[row_lo:row_hi, :]`` as a new CSC matrix.

        Used by the row-split parallelization of the CombBLAS/GraphMat
        baselines.  If ``remap`` is true the returned matrix has
        ``row_hi - row_lo`` rows and its row ids are shifted to start at 0;
        otherwise the original row ids are kept (and the row dimension stays
        the same).
        """
        if not (0 <= row_lo <= row_hi <= self.nrows):
            raise IndexError("invalid row range")
        mask = (self.indices >= row_lo) & (self.indices < row_hi)
        new_indices = self.indices[mask]
        new_data = self.data[mask]
        # Per-column count of surviving entries -> new indptr.
        col_of = np.repeat(np.arange(self.ncols, dtype=INDEX_DTYPE), np.diff(self.indptr))
        new_counts = np.bincount(col_of[mask], minlength=self.ncols)
        new_indptr = np.zeros(self.ncols + 1, dtype=INDEX_DTYPE)
        np.cumsum(new_counts, out=new_indptr[1:])
        if remap:
            new_indices = new_indices - row_lo
            shape = (row_hi - row_lo, self.ncols)
        else:
            shape = self.shape
        return CSCMatrix(shape, new_indptr, new_indices, new_data,
                         sorted_within_columns=self.sorted_within_columns, check=False)

    def extract_columns(self, col_lo: int, col_hi: int) -> "CSCMatrix":
        """Extract the column slice ``A[:, col_lo:col_hi]`` as a new CSC matrix."""
        if not (0 <= col_lo <= col_hi <= self.ncols):
            raise IndexError("invalid column range")
        lo = self.indptr[col_lo]
        hi = self.indptr[col_hi]
        new_indptr = self.indptr[col_lo:col_hi + 1] - lo
        return CSCMatrix((self.nrows, col_hi - col_lo), new_indptr,
                         self.indices[lo:hi].copy(), self.data[lo:hi].copy(),
                         sorted_within_columns=self.sorted_within_columns, check=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, nzc={self.nzc()}, "
                f"dtype={self.dtype})")

    # Convenience: A @ dense_vector for oracle checks in tests/examples.
    def matvec_dense(self, x: np.ndarray) -> np.ndarray:
        """Multiply by a dense vector (reference helper, not a tuned kernel)."""
        x = np.asarray(x)
        if x.shape[0] != self.ncols:
            raise DimensionMismatchError(
                f"matrix has {self.ncols} columns but vector has length {x.shape[0]}")
        y = np.zeros(self.nrows, dtype=np.result_type(self.dtype, x.dtype))
        nz_cols = np.flatnonzero(x)
        rows, vals, src = self.gather_columns(nz_cols)
        if rows.size:
            np.add.at(y, rows, vals * x[nz_cols][src])
        return y


def _segment_positions(starts: np.ndarray, lengths: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(positions, source)`` of the storage segments ``[start, start+length)``.

    Segment k contributes ``starts[k], ..., starts[k] + lengths[k] - 1``, all
    tagged with source ``k`` — built without a Python loop (shared by the
    CSC and DCSC column gathers).
    """
    lengths = lengths.astype(INDEX_DTYPE, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
    source = np.repeat(np.arange(len(lengths), dtype=INDEX_DTYPE), lengths)
    offsets = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=INDEX_DTYPE)
    return positions, source
