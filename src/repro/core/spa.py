"""Sparse accumulator (SPA) with partial initialization.

The SPA (Gilbert, Moler & Schreiber, 1992) is "a dense vector of numerical
values and a list of indices that refer to nonzero entries in the dense
vector" (§II-E).  The paper's requirement for work efficiency (§II-F) is that
the SPA must *not* be fully initialized per multiplication — only the slots
that will actually be touched.

We achieve O(1) logical reset with the classic *epoch stamping* trick: a
parallel ``stamp`` array records the epoch in which each slot was last
written; a slot is "initialized" in the current multiplication iff its stamp
equals the current epoch.  Resetting the SPA is then a single counter
increment — no O(m) clearing — which is exactly the property the
work-efficiency argument needs, while the dense arrays themselves are
allocated once and reused across multiplications (the paper's "Memory
allocation" optimization of §III-A).

This persistent SPA serves the sequential algorithm of Table II and the
baselines' literal references.  The kernels' Step 2 is a per-call SPA,
:func:`~repro.core.buckets.merge_rows`, and :meth:`SparseAccumulator.accumulate`
folds each batch, behind the values its slots already hold, through that same
merge, so both fold a row's addends in stream order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array, as_value_array
from ..errors import DimensionMismatchError
from ..semiring import PLUS_TIMES, Semiring
from .buckets import merge_rows


class SparseAccumulator:
    """A dense-backed accumulator over the row space ``0..m-1``."""

    __slots__ = ("m", "values", "stamp", "epoch", "semiring", "_uind_chunks")

    def __init__(self, m: int, *, semiring: Semiring = PLUS_TIMES, dtype=np.float64):
        self.m = int(m)
        self.values = np.zeros(self.m, dtype=dtype)
        self.stamp = np.zeros(self.m, dtype=INDEX_DTYPE)
        self.epoch = INDEX_DTYPE(0)
        self.semiring = semiring
        self._uind_chunks = []

    # ------------------------------------------------------------------ #
    def reset(self, semiring: Optional[Semiring] = None) -> None:
        """Logically clear the accumulator in O(1) (start a new epoch)."""
        self.epoch += 1
        self._uind_chunks = []
        if semiring is not None:
            self.semiring = semiring

    @property
    def nnz(self) -> int:
        """Number of distinct slots written in the current epoch."""
        return sum(len(c) for c in self._uind_chunks)

    def is_initialized(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given slots were written in this epoch."""
        indices = as_index_array(indices)
        return self.stamp[indices] == self.epoch

    # ------------------------------------------------------------------ #
    def accumulate(self, indices: np.ndarray, values: np.ndarray) -> Tuple[int, int]:
        """Accumulate ``values`` into the given slots with the semiring's ADD.

        Each slot's addends are folded left to right in stream order, the
        slot's current value (if it was already written this epoch) first:
        one :func:`~repro.core.buckets.merge_rows` over those values ahead
        of the batch — the vectorized equivalent of lines 13-18 of
        Algorithm 1.  Accumulating a stream in any split into batches
        therefore equals accumulating it at once.

        Returns ``(num_fresh, num_combines)``: how many slots were seen for the
        first time this epoch and how many ADD applications were performed.
        """
        indices = as_index_array(indices)
        values = np.asarray(values)
        if len(indices) != len(values):
            raise DimensionMismatchError("indices and values must have equal length")
        if len(indices) == 0:
            return 0, 0
        if indices.max() >= self.m or indices.min() < 0:
            raise IndexError("SPA index out of range")

        values = values.astype(self.values.dtype, copy=False)
        written = np.unique(indices[self.stamp[indices] == self.epoch])
        uidx, combined = merge_rows(np.concatenate([written, indices]),
                                    np.concatenate([self.values[written], values]),
                                    self.semiring, self.m)[:2]
        fresh = uidx[self.stamp[uidx] != self.epoch]
        if len(fresh):
            self.stamp[fresh] = self.epoch
            self._uind_chunks.append(fresh)
        self.values[uidx] = combined
        return int(len(fresh)), int(len(written) + len(indices) - len(uidx))

    def accumulate_one(self, index: int, value) -> bool:
        """Scalar accumulate (used by the literal reference implementations).

        Returns True if the slot was fresh (first write this epoch).
        """
        if not (0 <= index < self.m):
            raise IndexError("SPA index out of range")
        if self.stamp[index] != self.epoch:
            self.values[index] = value
            self.stamp[index] = self.epoch
            self._uind_chunks.append(np.array([index], dtype=INDEX_DTYPE))
            return True
        self.values[index] = self.semiring.add(self.values[index], value)
        return False

    # ------------------------------------------------------------------ #
    def unique_indices(self, *, sort: bool = False) -> np.ndarray:
        """Indices written this epoch, in first-write order (or sorted)."""
        if not self._uind_chunks:
            return np.empty(0, dtype=INDEX_DTYPE)
        uind = np.concatenate(self._uind_chunks)
        return np.sort(uind) if sort else uind

    def extract(self, *, sort: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` of every slot written this epoch."""
        uind = self.unique_indices(sort=sort)
        return uind, self.values[uind].copy()

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Read the current values of the given slots (no initialization check)."""
        return self.values[as_index_array(indices)].copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"SparseAccumulator(m={self.m}, nnz={self.nnz}, semiring={self.semiring.name})"
