"""GraphBLAS-style semirings for SpMSpV.

The paper positions SpMSpV as "one of the most important primitives in the
upcoming GraphBLAS standard", and its applications (BFS, MIS, matching,
SSSP, PageRank, SVM/SMO) each run the multiplication over a different
semiring.  A semiring bundles

* ``add``   — the reduction used when several matrix entries land on the
  same output row (a binary NumPy ufunc so that the kernels' SPA merge can
  fold a whole stream with ``ufunc.at``),
* ``add_identity`` — the identity element of ``add``,
* ``mul``   — the elementwise combination of a matrix entry ``A(i, j)`` with
  the vector entry ``x(j)``.

``SELECT2ND`` (multiply returns the vector operand) is what BFS uses to
propagate parent ids / frontier values without touching the matrix values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring ``(add, add_identity, mul)`` over NumPy arrays."""

    name: str
    add: np.ufunc
    add_identity: float
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul_name: str = "times"

    def multiply(self, matrix_values: np.ndarray, vector_values: np.ndarray) -> np.ndarray:
        """Elementwise ``mul(A(i,j), x(j))`` for parallel arrays of matrix/vector values."""
        return self.mul(matrix_values, vector_values)

    def reduce(self, values: np.ndarray) -> float:
        """Reduce an array of values with ``add`` (returns ``add_identity`` when empty)."""
        if len(values) == 0:
            return self.add_identity
        return self.add.reduce(values)

    def reduceat(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segmented reduction (one result per segment start) using ``add``."""
        if len(values) == 0:
            return np.empty(0, dtype=values.dtype)
        return self.add.reduceat(values, starts)

    def accumulate_at(self, target: np.ndarray, positions: np.ndarray,
                      values: np.ndarray) -> None:
        """Unbuffered in-place ``target[positions] = add(target[positions], values)``.

        This mirrors the SPA update ``SPA[ind] <- ADD(SPA[ind], val)`` of
        Algorithm 1 line 18, applied for all entries at once.
        """
        self.add.at(target, positions, values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Semiring({self.name})"


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _select(kept: np.ndarray, other: np.ndarray) -> np.ndarray:
    """A fresh C-ordered copy of ``kept`` at the operands' broadcast shape.

    Operands of one shape (every single-vector kernel call) are copied as
    they are; only differing shapes, such as the fused kernel's ``(p, 1)``
    against ``(p, k)``, pay for the broadcast.
    """
    if np.shape(kept) == np.shape(other):
        return np.array(kept, order="C")
    return np.broadcast_to(kept, np.broadcast_shapes(np.shape(kept), np.shape(other))).copy()


def _select_second(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # "second" operand is the vector value x(j)
    return _select(b, a)


def _select_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _select(a, b)


#: Conventional arithmetic: y(i) = Σ_j A(i,j)·x(j).  Used by PageRank, SVM, ...
PLUS_TIMES = Semiring("plus_times", np.add, 0.0, _times, "times")

#: Tropical / shortest-path semiring: y(i) = min_j (A(i,j) + x(j)).  Used by SSSP.
MIN_PLUS = Semiring("min_plus", np.minimum, np.inf, _plus, "plus")

#: max-times semiring (e.g. widest-path / reliability style computations).
MAX_TIMES = Semiring("max_times", np.maximum, -np.inf, _times, "times")

#: Boolean semiring: y(i) = OR_j (A(i,j) AND x(j)).  Structural reachability.
OR_AND = Semiring("or_and", np.logical_or, False, lambda a, b: np.logical_and(a, b), "and")

#: BFS semiring: multiply selects the vector (frontier) value, add keeps the minimum.
#: With frontier values = parent ids this computes a valid parent per newly
#: reached vertex; with frontier values = 1 it computes reachability.
MIN_SELECT2ND = Semiring("min_select2nd", np.minimum, np.inf, _select_second, "select2nd")

#: Like MIN_SELECT2ND but keeps any (the max) contribution — also valid for BFS.
MAX_SELECT2ND = Semiring("max_select2nd", np.maximum, -np.inf, _select_second, "select2nd")

#: multiply selects the matrix value; add takes min (used by some matching codes).
MIN_SELECT1ST = Semiring("min_select1st", np.minimum, np.inf, _select_first, "select1st")

_REGISTRY = {
    sr.name: sr
    for sr in (PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, MIN_SELECT2ND, MAX_SELECT2ND,
               MIN_SELECT1ST)
}


def get_semiring(name: str) -> Semiring:
    """Look up a built-in semiring by name (see module docstring for the list)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown semiring {name!r}; available: {sorted(_REGISTRY)}") from None


def available_semirings() -> list:
    """Names of all built-in semirings."""
    return sorted(_REGISTRY)
