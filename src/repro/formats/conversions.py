"""Format conversion helpers and the scipy bridge.

The individual classes already know how to convert among themselves; this
module provides a single dispatching entry point (:func:`convert`) plus
helpers that tests and examples use to move data in and out of
``scipy.sparse`` / dense NumPy without caring about the source format.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import NotSupportedError
from .bitvector import BitVector
from .coo import COOMatrix
from .csc import CSCMatrix
from .dcsc import DCSCMatrix
from .sparse_vector import SparseVector

AnyMatrix = Union[COOMatrix, CSCMatrix, DCSCMatrix]
AnyVector = Union[SparseVector, BitVector, np.ndarray]

_MATRIX_FORMATS = {"coo": COOMatrix, "csc": CSCMatrix, "dcsc": DCSCMatrix}


def to_coo(matrix: AnyMatrix) -> COOMatrix:
    """Convert any supported matrix object to COO."""
    if isinstance(matrix, COOMatrix):
        return matrix
    if isinstance(matrix, (CSCMatrix, DCSCMatrix)):
        return matrix.to_coo()
    raise NotSupportedError(f"cannot convert {type(matrix).__name__} to COO")


def to_csc(matrix: AnyMatrix) -> CSCMatrix:
    """Convert any supported matrix object to CSC."""
    if isinstance(matrix, CSCMatrix):
        return matrix
    if isinstance(matrix, COOMatrix):
        return CSCMatrix.from_coo(matrix)
    if isinstance(matrix, DCSCMatrix):
        return matrix.to_csc()
    raise NotSupportedError(f"cannot convert {type(matrix).__name__} to CSC")


def to_dcsc(matrix: AnyMatrix) -> DCSCMatrix:
    """Convert any supported matrix object to DCSC."""
    if isinstance(matrix, DCSCMatrix):
        return matrix
    return DCSCMatrix.from_csc(to_csc(matrix))


def convert(matrix: AnyMatrix, fmt: str) -> AnyMatrix:
    """Convert ``matrix`` to the named format (``'coo' | 'csc' | 'dcsc'``)."""
    fmt = fmt.lower()
    if fmt == "coo":
        return to_coo(matrix)
    if fmt == "csc":
        return to_csc(matrix)
    if fmt == "dcsc":
        return to_dcsc(matrix)
    raise NotSupportedError(f"unknown matrix format {fmt!r}; expected one of "
                            f"{sorted(_MATRIX_FORMATS)}")


def to_sparse_vector(vector: AnyVector, n: int = None) -> SparseVector:
    """Convert any supported vector object (or a dense array) to list format."""
    if isinstance(vector, SparseVector):
        return vector
    if isinstance(vector, BitVector):
        return vector.to_sparse_vector()
    dense = np.asarray(vector)
    if dense.ndim != 1:
        raise NotSupportedError("dense vector must be 1-D")
    if n is not None and len(dense) != n:
        raise NotSupportedError(f"dense vector length {len(dense)} != expected {n}")
    return SparseVector.from_dense(dense)


def to_bitvector(vector: AnyVector) -> BitVector:
    """Convert any supported vector object to the bitvector format."""
    if isinstance(vector, BitVector):
        return vector
    return BitVector.from_sparse_vector(to_sparse_vector(vector))


def from_scipy(matrix) -> CSCMatrix:
    """Convert a scipy sparse matrix to our CSC format."""
    return CSCMatrix.from_scipy(matrix)


def to_scipy_csc(matrix: AnyMatrix):
    """Convert any supported matrix object to ``scipy.sparse.csc_matrix``."""
    return to_csc(matrix).to_scipy()


def matrices_equal(a: AnyMatrix, b: AnyMatrix, *, rtol: float = 1e-10,
                   atol: float = 1e-12) -> bool:
    """Numerically compare two matrices independent of storage format."""
    ca, cb = to_csc(a).sort_within_columns(), to_csc(b).sort_within_columns()
    if ca.shape != cb.shape:
        return False
    if ca.nnz != cb.nnz:
        # fall back to dense comparison to tolerate explicit zeros
        return bool(np.allclose(ca.to_dense(), cb.to_dense(), rtol=rtol, atol=atol))
    return bool(np.array_equal(ca.indptr, cb.indptr) and
                np.array_equal(ca.indices, cb.indices) and
                np.allclose(ca.data, cb.data, rtol=rtol, atol=atol))
