"""Bitvector sparse-vector format (GraphMat style).

The paper (§II-C) describes the bitvector format as "an O(n)-length bitmap
that signals whether or not a particular index is nonzero, and an O(nnz)
list of values".  GraphMat stores its vectors this way because its
matrix-driven kernel needs constant-time membership tests ("is x(j)
nonzero?") while iterating over all non-empty matrix columns.

We store the bitmap packed into ``uint64`` words (so the O(n) term has a
small constant, as in the original) plus the list of (index, value) pairs.
"""

from __future__ import annotations

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array, as_value_array
from ..errors import FormatError
from .sparse_vector import SparseVector

_WORD_BITS = 64


class BitVector:
    """A length-n sparse vector backed by a packed bitmap plus a value list."""

    __slots__ = ("n", "bitmap", "indices", "values")

    def __init__(self, n: int, indices, values, *, check: bool = True):
        self.n = int(n)
        self.indices = as_index_array(indices)
        self.values = as_value_array(values, dtype=np.asarray(values).dtype
                                     if np.asarray(values).dtype.kind in "fiub" else None)
        nwords = (self.n + _WORD_BITS - 1) // _WORD_BITS
        self.bitmap = np.zeros(max(nwords, 1), dtype=np.uint64)
        if len(self.indices):
            words = self.indices // _WORD_BITS
            bits = (self.indices % _WORD_BITS).astype(np.uint64)
            np.bitwise_or.at(self.bitmap, words, np.uint64(1) << bits)
        if check:
            self.validate()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_sparse_vector(cls, x: SparseVector) -> "BitVector":
        """Convert from list format."""
        return cls(x.n, x.indices.copy(), x.values.copy(), check=False)

    @classmethod
    def from_dense(cls, dense) -> "BitVector":
        return cls.from_sparse_vector(SparseVector.from_dense(dense))

    @classmethod
    def empty(cls, n: int, dtype=np.float64) -> "BitVector":
        return cls(n, np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=dtype), check=False)

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def dtype(self):
        return self.values.dtype

    def validate(self) -> None:
        if len(self.indices) != len(self.values):
            raise FormatError("indices and values must have the same length")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise FormatError("vector index out of range")
            if len(np.unique(self.indices)) != self.nnz:
                raise FormatError("duplicate indices in bitvector")

    def is_set(self, i: int) -> bool:
        """Constant-time membership test: is x(i) stored (nonzero)?"""
        if not (0 <= i < self.n):
            raise IndexError(f"index {i} out of range")
        word = self.bitmap[i // _WORD_BITS]
        return bool((word >> np.uint64(i % _WORD_BITS)) & np.uint64(1))

    def memory_words(self) -> int:
        """Bitmap words + stored pairs — the O(n)/64 + O(nnz) footprint."""
        return int(len(self.bitmap) + 2 * self.nnz)

    # ------------------------------------------------------------------ #
    def to_sparse_vector(self, *, sort: bool = True) -> SparseVector:
        """Convert back to list format."""
        sv = SparseVector(self.n, self.indices.copy(), self.values.copy(), check=False)
        return sv.sort() if sort else sv

    def to_dense(self) -> np.ndarray:
        return self.to_sparse_vector().to_dense()

    def __repr__(self) -> str:  # pragma: no cover
        return f"BitVector(n={self.n}, nnz={self.nnz}, dtype={self.dtype})"
