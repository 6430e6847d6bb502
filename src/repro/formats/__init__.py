"""Sparse matrix and vector storage formats (the paper's §II-C substrate).

Matrix formats: :class:`COOMatrix` (builder), :class:`CSCMatrix` (used by
SpMSpV-bucket) and :class:`DCSCMatrix` (used by the CombBLAS / GraphMat
baselines and the column-split engine's strips).  Every kernel is
column-driven, so there is no row-major format.  Vector formats:
:class:`SparseVector` (sorted/unsorted list format) and :class:`BitVector`
(GraphMat's bitmap format).  Partitioning schemes (row-split /
column-split / 2-D grid) live in :mod:`repro.formats.partition` and Matrix
Market I/O in :mod:`repro.formats.matrix_market`.
"""

from .bitvector import BitVector
from .coo import COOMatrix
from .conversions import (
    convert,
    from_scipy,
    matrices_equal,
    to_bitvector,
    to_coo,
    to_csc,
    to_dcsc,
    to_scipy_csc,
    to_sparse_vector,
)
from .csc import CSCMatrix
from .dcsc import DCSCMatrix
from .delta import DeltaLog, apply_delta, build_patch, splice_overlay
from .matrix_market import read_matrix_market, read_matrix_market_csc, write_matrix_market
from .partition import (
    ColumnSplit,
    GridPartition,
    RowSplit,
    column_split,
    grid_partition,
    partition_nonzeros,
    row_split,
    split_ranges,
)
from .sparse_vector import SparseVector
from .vector_block import SparseVectorBlock

__all__ = [
    "BitVector",
    "COOMatrix",
    "CSCMatrix",
    "ColumnSplit",
    "DCSCMatrix",
    "DeltaLog",
    "GridPartition",
    "RowSplit",
    "SparseVector",
    "SparseVectorBlock",
    "apply_delta",
    "build_patch",
    "column_split",
    "convert",
    "from_scipy",
    "grid_partition",
    "matrices_equal",
    "partition_nonzeros",
    "read_matrix_market",
    "read_matrix_market_csc",
    "row_split",
    "splice_overlay",
    "split_ranges",
    "to_bitvector",
    "to_coo",
    "to_csc",
    "to_dcsc",
    "to_scipy_csc",
    "to_sparse_vector",
    "write_matrix_market",
]
