"""Matrix partitioning schemes discussed in §II-F of the paper.

The paper analyses three ways of distributing an SpMSpV across ``t`` threads:

* **row-split** — ``A`` is cut into ``t`` horizontal strips of ``m/t`` rows;
  each thread owns one strip and the corresponding slice of ``y``.  No
  synchronization is needed, but every thread must scan the whole input
  vector, so the scheme is *not* work-efficient for ``t > d``.
  (Used by CombBLAS-SPA, CombBLAS-heap and GraphMat.)
* **column-split** — ``A`` is cut into ``t`` vertical strips of ``n/t``
  columns; each thread reads a private slice of ``x`` but all threads write
  to the shared output, so synchronization is required.  Work-efficient.
* **2-D grid** — ``A`` is cut into a ``√t × √t`` grid; the input vector is
  read ``√t`` times and output rows are shared within grid rows, so the
  scheme is neither work-efficient (for ``t > d²``) nor synchronization-free.

These partitioners are exercised by the baselines and by the work-efficiency
audit behind Table II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..errors import ReproError
from .csc import CSCMatrix
from .dcsc import DCSCMatrix


def split_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, nearly equal half-open ranges.

    The first ``total % parts`` ranges get one extra element; ranges may be
    empty when ``parts > total``.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class RowSplit:
    """A row-wise 1-D partition of a matrix into per-thread strips."""

    row_ranges: List[Tuple[int, int]]
    strips: List[CSCMatrix]

    @property
    def num_parts(self) -> int:
        return len(self.strips)

    def strip_dcsc(self) -> List[DCSCMatrix]:
        """DCSC view of every strip (the storage the CombBLAS/GraphMat baselines use)."""
        return [DCSCMatrix.from_csc(s) for s in self.strips]


def row_split(matrix: CSCMatrix, parts: int) -> RowSplit:
    """Split ``matrix`` into ``parts`` horizontal strips (rows remapped to local ids)."""
    ranges = split_ranges(matrix.nrows, parts)
    strips = [matrix.extract_rows(lo, hi, remap=True) for lo, hi in ranges]
    return RowSplit(ranges, strips)


@dataclass(frozen=True)
class ColumnSplit:
    """A column-wise 1-D partition of a matrix into per-thread strips."""

    col_ranges: List[Tuple[int, int]]
    strips: List[CSCMatrix]

    @property
    def num_parts(self) -> int:
        return len(self.strips)


def column_split(matrix: CSCMatrix, parts: int) -> ColumnSplit:
    """Split ``matrix`` into ``parts`` vertical strips (columns remapped to local ids)."""
    ranges = split_ranges(matrix.ncols, parts)
    strips = [matrix.extract_columns(lo, hi) for lo, hi in ranges]
    return ColumnSplit(ranges, strips)


def join_strips(strips: List[CSCMatrix], axis: int) -> CSCMatrix:
    """The matrix :func:`row_split` (``axis=0``) or :func:`column_split`
    (``axis=1``) cut into ``strips``, in O(nnz): column strips concatenate;
    in every column, a row strip's entries go after those of the strips
    above it."""
    if len(strips) == 1:
        return strips[0]
    is_sorted = all(s.sorted_within_columns for s in strips)
    data = np.concatenate([s.data for s in strips])
    if axis == 1:
        offsets = np.cumsum([0] + [s.nnz for s in strips[:-1]])
        indptr = np.concatenate([[0]] + [s.indptr[1:] + off
                                         for s, off in zip(strips, offsets)])
        return CSCMatrix((strips[0].nrows, sum(s.ncols for s in strips)), indptr,
                         np.concatenate([s.indices for s in strips]), data,
                         sorted_within_columns=is_sorted, check=False)
    lows = np.cumsum([0] + [s.nrows for s in strips[:-1]])
    counts = np.array([np.diff(s.indptr) for s in strips])
    indptr = np.zeros(strips[0].ncols + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts.sum(axis=0), out=indptr[1:])
    # where strip p's part of column j starts in the joined column j
    starts = indptr[:-1] + np.cumsum(counts, axis=0) - counts
    dest = np.concatenate([np.arange(s.nnz) + np.repeat(start - s.indptr[:-1], count)
                           for s, start, count in zip(strips, starts, counts)])
    indices = np.empty(len(dest), dtype=INDEX_DTYPE)
    indices[dest] = np.concatenate([s.indices + lo for s, lo in zip(strips, lows)])
    joined = np.empty_like(data)
    joined[dest] = data
    return CSCMatrix((sum(s.nrows for s in strips), strips[0].ncols), indptr,
                     indices, joined, sorted_within_columns=is_sorted, check=False)


@dataclass(frozen=True)
class GridPartition:
    """A 2-D ``pr × pc`` grid partition of a matrix."""

    row_ranges: List[Tuple[int, int]]
    col_ranges: List[Tuple[int, int]]
    blocks: List[List[CSCMatrix]]  # blocks[i][j] = A[row_ranges[i], col_ranges[j]]

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return len(self.row_ranges), len(self.col_ranges)


def grid_partition(matrix: CSCMatrix, parts) -> GridPartition:
    """Partition ``matrix`` into a ``pr × pc`` grid of blocks.

    ``parts`` is either an int — which must be a perfect square, inferring a
    ``√parts × √parts`` grid (the paper's 2-D scheme assumes a square thread
    grid) — or an explicit ``(pr, pc)`` tuple for rectangular grids.
    """
    if isinstance(parts, tuple):
        if len(parts) != 2:
            raise ReproError(
                f"2-D grid partitioning takes a square thread count or an "
                f"explicit (pr, pc) tuple, got a {len(parts)}-tuple {parts!r}")
        pr, pc = int(parts[0]), int(parts[1])
        if pr < 1 or pc < 1:
            raise ReproError(
                f"2-D grid dimensions must be >= 1, got (pr, pc)=({pr}, {pc})")
    else:
        parts = int(parts)
        root = int(round(math.sqrt(parts)))
        if root * root != parts:
            raise ReproError(
                f"2-D grid partitioning requires a square thread count "
                f"(got {parts}); pass an explicit (pr, pc) tuple for a "
                f"rectangular grid")
        pr = pc = root
    row_ranges = split_ranges(matrix.nrows, pr)
    col_ranges = split_ranges(matrix.ncols, pc)
    blocks: List[List[CSCMatrix]] = []
    for rlo, rhi in row_ranges:
        row_strip = matrix.extract_rows(rlo, rhi, remap=True)
        blocks.append([row_strip.extract_columns(clo, chi) for clo, chi in col_ranges])
    return GridPartition(row_ranges, col_ranges, blocks)


def partition_nonzeros(indices: np.ndarray, parts: int) -> List[np.ndarray]:
    """Split an array of vector-nonzero positions into ``parts`` nearly equal chunks.

    This is the "assignment of work to threads ... based on nonzeros, as
    opposed to rows, of x" refinement mentioned in §III-B of the paper.
    """
    ranges = split_ranges(len(indices), parts)
    return [np.arange(lo, hi, dtype=INDEX_DTYPE) for lo, hi in ranges]
