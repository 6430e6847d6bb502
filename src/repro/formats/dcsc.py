"""Double-Compressed Sparse Column (DCSC) matrix format.

DCSC (Buluç & Gilbert, IPDPS 2008) removes the repetitions in the CSC
``indptr`` array that arise from empty columns: only the ``nzc`` non-empty
columns are represented, each with its column id.  The format is used by the
CombBLAS and GraphMat baselines in the paper (Table I).

Arrays:

* ``jc``  — length ``nzc``; the column ids of the non-empty columns, ascending.
* ``cp``  — length ``nzc + 1``; ``cp[k]:cp[k+1]`` is the nonzero range of the
  k-th non-empty column.
* ``ir``  — row ids of the nonzeros.
* ``num`` — numerical values of the nonzeros.

The optional *auxiliary index* (``aux``) provides expected-constant-time
random access to a column id, as described in §II-C of the paper.  It is a
coarse bucket table over the column-id space: ``aux[b]`` is the first
position in ``jc`` whose column id falls in chunk ``b``, so a column lookup
scans only the (expected O(1)) entries of one chunk.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array, as_value_array, check_shape
from ..errors import FormatError
from .coo import COOMatrix
from .csc import CSCMatrix, _segment_positions


class DCSCMatrix:
    """An m-by-n hypersparse matrix in Double-Compressed Sparse Column format."""

    __slots__ = ("shape", "jc", "cp", "ir", "num", "aux", "_aux_chunk")

    def __init__(self, shape, jc, cp, ir, num, *, build_aux: bool = True,
                 check: bool = True):
        self.shape = check_shape(shape)
        self.jc = as_index_array(jc)
        self.cp = as_index_array(cp)
        self.ir = as_index_array(ir)
        self.num = as_value_array(num, dtype=np.asarray(num).dtype
                                  if np.asarray(num).dtype.kind in "fiub" else None)
        self.aux: Optional[np.ndarray] = None
        self._aux_chunk: int = 1
        if check:
            self.validate()
        if build_aux:
            self.build_aux_index()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csc(cls, csc: CSCMatrix, *, build_aux: bool = True) -> "DCSCMatrix":
        """Build a DCSC matrix from a CSC matrix by dropping empty columns."""
        counts = csc.column_counts()
        nonempty = np.flatnonzero(counts)
        cp = np.zeros(len(nonempty) + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts[nonempty], out=cp[1:])
        return cls(csc.shape, nonempty.astype(INDEX_DTYPE), cp,
                   csc.indices.copy(), csc.data.copy(),
                   build_aux=build_aux, check=False)

    @classmethod
    def from_coo(cls, coo: COOMatrix, *, build_aux: bool = True) -> "DCSCMatrix":
        """Build a DCSC matrix from triplets."""
        return cls.from_csc(CSCMatrix.from_coo(coo), build_aux=build_aux)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(len(self.num))

    @property
    def nzc(self) -> int:
        """Number of non-empty columns."""
        return int(len(self.jc))

    @property
    def dtype(self):
        return self.num.dtype

    def validate(self) -> None:
        """Check structural invariants; raise :class:`FormatError` on violation."""
        m, n = self.shape
        if len(self.cp) != len(self.jc) + 1:
            raise FormatError("cp must have length nzc + 1")
        if len(self.jc) and (self.jc.min() < 0 or self.jc.max() >= n):
            raise FormatError("column id out of range in jc")
        if len(self.jc) > 1 and np.any(np.diff(self.jc) <= 0):
            raise FormatError("jc must be strictly increasing")
        if len(self.cp) and self.cp[0] != 0:
            raise FormatError("cp[0] must be 0")
        if len(self.cp) and self.cp[-1] != len(self.ir):
            raise FormatError("cp[-1] must equal nnz")
        if np.any(np.diff(self.cp) <= 0):
            # every represented column must be non-empty
            raise FormatError("every column in a DCSC matrix must have at least one nonzero")
        if len(self.ir) != len(self.num):
            raise FormatError("ir and num must have the same length")
        if self.nnz and (self.ir.min() < 0 or self.ir.max() >= m):
            raise FormatError("row index out of range")

    # ------------------------------------------------------------------ #
    # auxiliary index for fast column lookup
    # ------------------------------------------------------------------ #
    def build_aux_index(self, chunks_per_column: float = 1.0) -> None:
        """Build the auxiliary index that supports expected-O(1) column lookup.

        The column-id space ``[0, n)`` is divided into ``~nzc`` equal chunks
        and ``aux[b]`` records where the b-th chunk starts inside ``jc``.
        """
        n = self.ncols
        if self.nzc == 0 or n == 0:
            self.aux = np.zeros(2, dtype=INDEX_DTYPE)
            self._aux_chunk = max(n, 1)
            return
        nchunks = max(1, int(self.nzc * chunks_per_column))
        self._aux_chunk = max(1, -(-n // nchunks))  # ceil(n / nchunks)
        nchunks = -(-n // self._aux_chunk)
        # aux[b] = first position k with jc[k] >= b * chunk
        boundaries = np.arange(nchunks + 1, dtype=INDEX_DTYPE) * self._aux_chunk
        self.aux = np.searchsorted(self.jc, boundaries).astype(INDEX_DTYPE)

    def column_position(self, j: int) -> int:
        """Return the position of column ``j`` in ``jc``, or -1 if the column is empty.

        Uses the auxiliary index when available (expected O(1)); falls back to
        binary search otherwise (O(log nzc)).
        """
        if not (0 <= j < self.ncols):
            raise IndexError(f"column index {j} out of range")
        if self.aux is not None and self._aux_chunk > 0:
            b = j // self._aux_chunk
            lo = int(self.aux[b])
            hi = int(self.aux[min(b + 1, len(self.aux) - 1)])
            pos = lo + int(np.searchsorted(self.jc[lo:hi], j))
        else:
            pos = int(np.searchsorted(self.jc, j))
        if pos < self.nzc and self.jc[pos] == j:
            return pos
        return -1

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_ids, values)`` of column ``j`` (empty arrays if the column is empty)."""
        pos = self.column_position(j)
        if pos < 0:
            return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=self.dtype)
        lo, hi = self.cp[pos], self.cp[pos + 1]
        return self.ir[lo:hi], self.num[lo:hi]

    def column_positions(self, cols: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`column_position` for an array of column ids (-1 where empty)."""
        cols = as_index_array(cols)
        pos = np.searchsorted(self.jc, cols)
        pos_clamped = np.minimum(pos, max(self.nzc - 1, 0))
        found = (self.nzc > 0) & (self.jc[pos_clamped] == cols) if self.nzc else \
            np.zeros(len(cols), dtype=bool)
        return np.where(found, pos_clamped, -1).astype(INDEX_DTYPE)

    def gather_positions(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """DCSC analogue of :meth:`CSCMatrix.gather_positions` (positions index ``ir``/``num``).

        Empty columns contribute nothing; ``source`` still indexes ``cols``.
        """
        cols = as_index_array(cols)
        if cols.size == 0 or self.nzc == 0:
            return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
        pos = self.column_positions(cols)
        present = np.flatnonzero(pos >= 0).astype(INDEX_DTYPE)
        ppos = pos[present]
        starts = self.cp[ppos]
        positions, k = _segment_positions(starts, self.cp[ppos + 1] - starts)
        return positions, present[k]

    def gather_columns(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """DCSC analogue of :meth:`CSCMatrix.gather_columns` (empty columns contribute nothing)."""
        positions, source = self.gather_positions(cols)
        return self.ir[positions], self.num[positions], source

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_csc(self) -> CSCMatrix:
        """Expand back to a CSC matrix (re-introducing empty columns)."""
        counts = np.zeros(self.ncols, dtype=INDEX_DTYPE)
        counts[self.jc] = np.diff(self.cp)
        indptr = np.zeros(self.ncols + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSCMatrix(self.shape, indptr, self.ir.copy(), self.num.copy(), check=False)

    def to_coo(self) -> COOMatrix:
        cols = np.repeat(self.jc, np.diff(self.cp))
        return COOMatrix(self.shape, self.ir.copy(), cols, self.num.copy(), check=False)

    def to_dense(self) -> np.ndarray:
        return self.to_csc().to_dense()

    def memory_footprint(self) -> int:
        """Approximate memory use in array elements: O(nzc + nnz), vs CSC's O(n + nnz)."""
        return len(self.jc) + len(self.cp) + len(self.ir) + len(self.num) + \
            (len(self.aux) if self.aux is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DCSCMatrix(shape={self.shape}, nnz={self.nnz}, nzc={self.nzc}, "
                f"dtype={self.dtype})")
