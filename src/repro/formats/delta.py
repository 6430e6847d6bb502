"""Dynamic-graph delta layer: a COO edge-update log overlaying a base matrix.

Real serving traffic mutates the graph, but every matrix in the repo is
frozen at engine build time (the process backend even copies the CSC arrays
into shared memory once).  :class:`DeltaLog` records edge updates — insert,
reweight, delete — against an immutable base matrix.  It keeps only the
resolved edge set (one latest-wins entry per touched edge), merging each
batch in as it lands, so a write sorts only its batch and reading the
resolved set costs nothing.  :func:`build_patch` turns the log into a
*patch matrix* that lets SpMSpV run as

    ``y = splice(base_kernel(A, x), patch_kernel(P, x))``

with **bit-identical** results to rebuilding the matrix from scratch.

The patch trick
---------------
``build_patch`` produces a full-height matrix ``P`` that contains the
*effective* entries (base entries minus deletes/overwrites, plus surviving
updates) of every row touched by the delta, and nothing else.  Because ``P``
has the same shape as the base, a kernel run on ``P`` uses the *same* input
vector, mask and semiring as the base run — no index remapping.  Splicing
then drops the stale touched-row entries from the base output and merges in
the patch output.  For every kernel in the registry the per-row addend
stream of ``P`` equals the one a rebuilt matrix would produce for that row
(CSC column order is preserved by :meth:`CSCMatrix.from_coo`'s stable sort),
so each output value is bitwise identical — including under non-commutative
``select``-style semirings.

Update semantics
----------------
* latest-wins per ``(row, col)``: later log entries shadow earlier ones;
* inserting an existing edge is a reweight;
* deleting an absent edge is a no-op;
* values are cast to the base matrix dtype at patch/compaction time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array
from ..errors import DimensionMismatchError, FormatError
from .coo import COOMatrix
from .csc import CSCMatrix
from .sparse_vector import SparseVector

__all__ = [
    "DeltaLog",
    "check_updates",
    "build_patch",
    "apply_delta",
    "splice_overlay",
]


def check_updates(shape, rows, cols, values=None
                  ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Validate one batch of edge updates against a matrix shape.

    Returns ``(rows, cols, values)`` as index arrays and a float64 value
    array (a scalar value is broadcast to every edge; ``values=None``, a
    deletion, stays None).  Raises :class:`~repro.errors.FormatError` when
    the arrays differ in length and
    :class:`~repro.errors.DimensionMismatchError` for an index outside
    ``shape``, so a caller can validate a whole batch before any of it is
    recorded.
    """
    rows = as_index_array(rows)
    cols = as_index_array(cols)
    if len(rows) != len(cols):
        raise FormatError(
            f"update arrays must have equal length, got {len(rows)} and {len(cols)}")
    m, n = shape
    if len(rows) and (rows.min() < 0 or rows.max() >= m):
        raise DimensionMismatchError(f"update row out of range for {m} rows")
    if len(cols) and (cols.min() < 0 or cols.max() >= n):
        raise DimensionMismatchError(f"update col out of range for {n} cols")
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0:
            values = np.full(rows.shape, values)
        if values.shape != rows.shape:
            raise FormatError("values must match update index arrays")
    return rows, cols, values


def _grown(old: np.ndarray, kept: np.ndarray, fresh: np.ndarray, new) -> np.ndarray:
    """A new array holding ``old`` at the ``kept`` slots and ``new`` at ``fresh``."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[kept] = old
    out[fresh] = new
    return out


class DeltaLog:
    """An append-only log of edge updates against a fixed matrix shape.

    The log keeps only its resolved edge set: one ``(row, col, value,
    deleted)`` entry per distinct touched edge, sorted by ``(row, col)``,
    latest-wins, beside the entries' sorted ``row·ncols + col`` keys.  An
    append resolves its batch alone (a stable sort of the batch), binary
    searches it into the keys, overwrites the edges it hits and inserts the
    rest, so a write sorts O(batch) and copies the entries once; arrays an
    earlier :meth:`resolved` returned are never written.  ``len()`` still
    counts the raw events appended since the last :meth:`clear`.
    """

    __slots__ = ("shape", "_count", "_resolved", "_keys")

    def __init__(self, shape):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise FormatError(f"invalid delta shape {shape!r}")
        self.shape = (m, n)
        self.clear()

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def _append(self, rows, cols, vals) -> int:
        """Merge one validated batch; ``vals=None`` logs deletions."""
        rows, cols, vals = check_updates(self.shape, rows, cols, vals)
        count = len(rows)
        if count == 0:
            return 0
        deleted = vals is None
        if deleted:
            vals = np.zeros(count)
        # the batch latest-wins: stable, so within one edge the later event
        # sorts last, and wins
        keys = rows * self.shape[1] + cols
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        last = np.empty(count, dtype=bool)
        last[-1] = True
        np.not_equal(ks[1:], ks[:-1], out=last[:-1])
        keys, pick = ks[last], order[last]
        # a new edge goes to its sorted position and an edge already resolved
        # is overwritten, in new arrays, so no array an earlier resolved()
        # returned changes
        old_keys = self._keys
        old_rows, old_cols, old_vals, old_dels = self._resolved
        pos = np.searchsorted(old_keys, keys)
        hit = np.zeros(len(keys), dtype=bool)
        if len(old_keys):
            hit = old_keys[np.minimum(pos, len(old_keys) - 1)] == keys
        miss = ~hit
        at, new = pos[miss], pick[miss]
        fresh = at + np.arange(len(at))   # the new edges' slots once grown
        kept = np.ones(len(old_keys) + len(at), dtype=bool)
        kept[fresh] = False
        self._keys = _grown(old_keys, kept, fresh, keys[miss])
        new_vals = _grown(old_vals, kept, fresh, vals[new])
        new_dels = _grown(old_dels, kept, fresh, deleted)
        if len(at) < len(keys):
            # each hit moves past the new edges inserted before it
            dest = pos[hit] + np.searchsorted(at, pos[hit], side="right")
            new_vals[dest] = vals[pick[hit]]
            new_dels[dest] = deleted
        self._resolved = (_grown(old_rows, kept, fresh, rows[new]),
                          _grown(old_cols, kept, fresh, cols[new]), new_vals, new_dels)
        self._count += count
        return count

    def set_edges(self, rows, cols, values) -> int:
        """Insert or reweight edges; returns the number of logged events."""
        return self._append(rows, cols, values)

    def delete_edges(self, rows, cols) -> int:
        """Mark edges deleted (no-op for absent edges at resolution time)."""
        return self._append(rows, cols, None)

    def clear(self) -> None:
        empty_idx = np.empty(0, dtype=INDEX_DTYPE)
        self._resolved = (empty_idx, empty_idx.copy(),
                          np.empty(0, dtype=np.float64), np.empty(0, dtype=bool))
        self._keys = empty_idx.copy()
        self._count = 0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of logged (pre-resolution) update events."""
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    def resolved(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The log latest-wins: ``(rows, cols, vals, deleted)``.

        The arrays are sorted by ``(row, col)`` and contain one entry per
        distinct touched edge (deletes included, flagged).
        """
        return self._resolved

    @property
    def entries(self) -> int:
        """Number of distinct edges touched after latest-wins resolution."""
        return int(len(self._resolved[0]))

    def touched_rows(self) -> np.ndarray:
        """Boolean length-``nrows`` flag array of rows with any resolved update."""
        flags = np.zeros(self.shape[0], dtype=bool)
        flags[self._resolved[0]] = True
        return flags

    def stats(self) -> dict:
        return {
            "events": self._count,
            "entries": self.entries,
            "touched_rows": int(self.touched_rows().sum()) if self._count else 0,
        }


# ---------------------------------------------------------------------- #
# patch construction / compaction
# ---------------------------------------------------------------------- #
def _check_base(base: CSCMatrix, delta: DeltaLog) -> None:
    if base.shape != delta.shape:
        raise DimensionMismatchError(
            f"delta shape {delta.shape} does not match base shape {base.shape}")


def _base_survivors(base: CSCMatrix, upd_keys: np.ndarray,
                    row_mask: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base triplets restricted to ``row_mask`` (or all rows) minus every
    edge present in ``upd_keys`` (sorted ``row*ncols+col`` update keys)."""
    cols = np.repeat(np.arange(base.ncols, dtype=INDEX_DTYPE),
                     np.diff(base.indptr))
    rows = base.indices
    vals = base.data
    if row_mask is not None:
        keep = row_mask[rows]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if len(upd_keys) and len(rows):
        keys = rows.astype(np.int64) * base.ncols + cols
        pos = np.searchsorted(upd_keys, keys)
        pos[pos == len(upd_keys)] = len(upd_keys) - 1
        survive = upd_keys[pos] != keys
        rows, cols, vals = rows[survive], cols[survive], vals[survive]
    return rows, cols, vals


def build_patch(base: CSCMatrix, delta: DeltaLog) -> Tuple[CSCMatrix, np.ndarray]:
    """Return ``(patch, touched)`` for overlay execution.

    ``patch`` is a full-height CSC matrix holding the effective entries of
    every delta-touched row (and nothing else); ``touched`` is the boolean
    row flag array.  ``base_result`` entries whose row is touched are stale
    and must be replaced by the patch kernel's output — see
    :func:`splice_overlay`.
    """
    _check_base(base, delta)
    u_rows, u_cols, u_vals, u_dels = delta.resolved()
    touched = np.zeros(base.nrows, dtype=bool)
    touched[u_rows] = True
    upd_keys = u_rows.astype(np.int64) * base.ncols + u_cols
    b_rows, b_cols, b_vals = _base_survivors(base, upd_keys, touched)
    live = ~u_dels
    rows = np.concatenate([b_rows, u_rows[live]])
    cols = np.concatenate([b_cols, u_cols[live]])
    vals = np.concatenate([b_vals.astype(base.dtype, copy=False),
                           u_vals[live].astype(base.dtype, copy=False)])
    patch = CSCMatrix.from_coo(COOMatrix(base.shape, rows, cols, vals, check=False),
                               sum_duplicates=False)
    return patch, touched


def apply_delta(base: CSCMatrix, delta: DeltaLog) -> CSCMatrix:
    """Materialise the effective matrix ``base ⊕ delta`` (full rebuild).

    This is the compaction path: O(nnz log nnz) for the lexsort inside
    :meth:`CSCMatrix.from_coo`, versus O(nnz + patch) for overlay execution
    — the break-even the compaction policy prices.
    """
    _check_base(base, delta)
    if delta.is_empty:
        return base
    u_rows, u_cols, u_vals, u_dels = delta.resolved()
    upd_keys = u_rows.astype(np.int64) * base.ncols + u_cols
    b_rows, b_cols, b_vals = _base_survivors(base, upd_keys, None)
    live = ~u_dels
    rows = np.concatenate([b_rows, u_rows[live]])
    cols = np.concatenate([b_cols, u_cols[live]])
    vals = np.concatenate([b_vals.astype(base.dtype, copy=False),
                           u_vals[live].astype(base.dtype, copy=False)])
    return CSCMatrix.from_coo(COOMatrix(base.shape, rows, cols, vals, check=False),
                              sum_duplicates=False)


def splice_overlay(y_base: SparseVector, y_patch: SparseVector,
                   touched: np.ndarray) -> SparseVector:
    """Replace the touched-row entries of ``y_base`` with ``y_patch``.

    Both vectors come from the *same* kernel on the *same* input and mask,
    so their index sets are disjoint after dropping the stale touched rows
    from the base output.  If both inputs are sorted the merge preserves
    sorted order (stable argsort over distinct indices), keeping the result
    bit-identical to a sorted single-matrix run.
    """
    keep = ~touched[y_base.indices]
    indices = np.concatenate([y_base.indices[keep], y_patch.indices])
    values = np.concatenate([y_base.values[keep], y_patch.values])
    out_sorted = bool(y_base.sorted and y_patch.sorted)
    if out_sorted and len(indices) > 1:
        order = np.argsort(indices, kind="stable")
        indices = indices[order]
        values = values[order]
    return SparseVector(y_base.n, indices, values, sorted=out_sorted, check=False)
