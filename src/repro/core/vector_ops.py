"""Elementwise operations on sparse vectors.

The graph algorithms of §I (BFS, MIS, matching, PageRank, SSSP, local
clustering) interleave SpMSpV with GraphBLAS-style vector operations:
elementwise add/multiply, structural masking, and assignment.  These helpers
keep those algorithms readable while staying vectorized.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from .._typing import INDEX_DTYPE
from ..errors import DimensionError, DimensionMismatchError
from ..formats.sparse_vector import SparseVector
from ..semiring import PLUS_TIMES, Semiring
from .buckets import merge_rows


#: an output mask: a :class:`SparseVector` whose stored indices are the
#: member rows, or a dense row-membership map (1-D ``bool``, length nrows)
Mask = Union[SparseVector, np.ndarray]


def _check_same_length(a: SparseVector, b: SparseVector) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"vectors have different lengths: {a.n} vs {b.n}")


def ewise_add(a: SparseVector, b: SparseVector, *, semiring: Semiring = PLUS_TIMES,
              ) -> SparseVector:
    """Union elementwise combine: indices present in either vector, values combined
    with the semiring's ADD where both are present."""
    _check_same_length(a, b)
    if a.nnz == 0:
        return b.copy().sort()
    if b.nnz == 0:
        return a.copy().sort()
    indices = np.concatenate([a.indices, b.indices])
    values = np.concatenate([a.values.astype(np.result_type(a.dtype, b.dtype)),
                             b.values.astype(np.result_type(a.dtype, b.dtype))])
    uidx, combined = merge_rows(indices, values, semiring, a.n)[:2]
    return SparseVector(a.n, uidx, combined, sorted=True, check=False)


def ewise_mult(a: SparseVector, b: SparseVector, *, op: Optional[Callable] = None
               ) -> SparseVector:
    """Intersection elementwise combine: only indices present in both vectors survive.

    ``op`` defaults to multiplication.
    """
    _check_same_length(a, b)
    op = op if op is not None else (lambda x, y: x * y)
    if a.nnz == 0 or b.nnz == 0:
        return SparseVector.empty(a.n)
    a_s, b_s = a.sort(), b.sort()
    common, a_pos, b_pos = np.intersect1d(a_s.indices, b_s.indices,
                                          assume_unique=True, return_indices=True)
    if len(common) == 0:
        return SparseVector.empty(a.n)
    return SparseVector(a.n, common, op(a_s.values[a_pos], b_s.values[b_pos]),
                        sorted=True, check=False)


def mask_vector(x: SparseVector, mask: SparseVector, *, complement: bool = False
                ) -> SparseVector:
    """Structural mask: keep entries of ``x`` whose index is (not, if complement) in ``mask``."""
    _check_same_length(x, mask)
    return x.select(mask.indices, complement=complement)


def check_operands(matrix, x: SparseVector) -> None:
    """Shared conformance check of every SpMSpV signature (``A`` is m-by-n, ``x`` length n)."""
    if matrix.ncols != x.n:
        raise DimensionMismatchError(
            f"matrix has {matrix.ncols} columns but vector has length {x.n}")


def check_mask(mask: Optional[Mask], nrows: int) -> None:
    """Validate that an output mask lives in the matrix's row space.

    A mask is either a :class:`SparseVector` of length ``nrows`` (its stored
    indices are the member rows) or a dense row-membership map: a 1-D
    ``bool`` array of length ``nrows``, checked in O(1).  An output mask
    selects rows of ``y = A·x``, so anything else — a wrong length, or a map
    of another dtype or dimension — raises, in both the late
    (finalize-time) and early (scatter-time) masking paths.
    """
    if mask is None:
        return
    if isinstance(mask, np.ndarray):
        if mask.ndim != 1 or mask.dtype != np.bool_ or len(mask) != nrows:
            raise DimensionError(
                f"output mask map has shape {mask.shape} and dtype {mask.dtype}; "
                f"a mask map must be a 1-D bool array of length nrows={nrows}")
        return
    if mask.n != nrows:
        raise DimensionError(
            f"output mask has length {mask.n} but the matrix has {nrows} rows; "
            f"masks select rows of y = A·x and must be of length nrows")


def mask_bitmap(mask: Optional[Mask], nrows: int) -> Optional[np.ndarray]:
    """The dense row-membership map every masking path probes.

    Returns None for no mask, passes a map through unchanged (after the O(1)
    :func:`check_mask`), and compiles a :class:`SparseVector` mask into a
    fresh map once.  Callers compile at the kernel, or once per call at the
    plan step of a sharded layout, so strips share one map.
    """
    if mask is None:
        return None
    check_mask(mask, nrows)
    if isinstance(mask, np.ndarray):
        return mask
    bitmap = np.zeros(nrows, dtype=bool)
    bitmap[mask.indices] = True
    return bitmap


def mask_keep(bitmap: Optional[np.ndarray], rows: np.ndarray, *,
              complement: bool = False) -> Optional[np.ndarray]:
    """Boolean keep-filter of scattered row ids against a mask map.

    This is the scatter-time (early) form of the GraphBLAS structural mask:
    an entry bound for row ``i`` survives iff ``i`` is in the mask (or not
    in it, under ``complement``) — one lookup per row id.  Because masking
    drops *whole rows*, the surviving rows' addend streams — and therefore
    their floating-point reductions and first-touch order — are untouched,
    which is what keeps early-masked kernels bit-identical to finalize-time
    masking.  Returns None when nothing is filtered (no map).
    """
    if bitmap is None:
        return None
    keep = bitmap[rows]
    return np.logical_not(keep, out=keep) if complement else keep


def finalize_output(y: SparseVector, semiring: Semiring, *,
                    mask: Optional[Mask] = None,
                    mask_complement: bool = False) -> SparseVector:
    """Standard SpMSpV output post-processing: apply the mask, prune identities.

    An output entry equal to the semiring's additive identity carries no
    information (it is what an absent entry means), so it is dropped.  Keying
    this off ``add_identity`` instead of ``semiring is PLUS_TIMES`` makes
    user-defined plus-times-like semirings behave identically to the builtin.
    """
    if mask is not None:
        keep = mask_keep(mask_bitmap(mask, y.n), y.indices,
                         complement=mask_complement)
        y = SparseVector(y.n, y.indices[keep], y.values[keep],
                         sorted=y.sorted, check=False)
    return y.drop_values(semiring.add_identity)


def assign_scalar(x: SparseVector, indices: np.ndarray, value: float) -> SparseVector:
    """Return a copy of ``x`` with ``value`` assigned at the given indices."""
    indices = np.asarray(indices, dtype=INDEX_DTYPE)
    merged_idx = np.concatenate([x.indices, indices])
    merged_val = np.concatenate([x.values.astype(np.float64),
                                 np.full(len(indices), value, dtype=np.float64)])
    # later assignments win: keep the last occurrence of each index
    order = np.argsort(merged_idx, kind="stable")
    si, sv = merged_idx[order], merged_val[order]
    last_of_run = np.concatenate([np.flatnonzero(np.diff(si)), [len(si) - 1]]) if len(si) \
        else np.empty(0, dtype=np.int64)
    return SparseVector(x.n, si[last_of_run], sv[last_of_run], sorted=True, check=False)


def reduce_vector(x: SparseVector, *, semiring: Semiring = PLUS_TIMES) -> float:
    """Reduce all stored values with the semiring's ADD."""
    return float(semiring.reduce(x.values)) if x.nnz else float(semiring.add_identity)


def where_values(x: SparseVector, predicate: Callable[[np.ndarray], np.ndarray]
                 ) -> SparseVector:
    """Keep only entries whose value satisfies ``predicate`` (vectorized boolean fn)."""
    if x.nnz == 0:
        return x.copy()
    keep = predicate(x.values)
    return SparseVector(x.n, x.indices[keep], x.values[keep], sorted=x.sorted, check=False)
