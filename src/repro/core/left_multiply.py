"""Left multiplication ``y' = x' A`` (§II-A of the paper).

The paper only presents the right-multiplication ``y = A x`` because "the
left multiplication by the row vector is symmetric and the algorithms we
present can be trivially adopted".  This module provides that adoption: a row
vector times a CSC matrix equals the transpose of ``Aᵀ x``, and ``Aᵀ`` in CSC
form is exactly the CSR form of ``A`` reinterpreted.  For repeated left
multiplications (e.g. PageRank formulated over a row-stochastic matrix) the
transposed operand should be built once and reused, so the helper accepts and
returns it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext
from ..semiring import PLUS_TIMES, Semiring
from .result import SpMSpVResult
from .vector_ops import Mask


def transpose_for_left_multiply(matrix: CSCMatrix) -> CSCMatrix:
    """Build (once) the transposed operand used by :func:`spmspv_left`."""
    return matrix.transpose()


def spmspv_left(matrix: CSCMatrix, x: SparseVector,
                ctx: Optional[ExecutionContext] = None, *,
                algorithm: str = "bucket",
                semiring: Semiring = PLUS_TIMES,
                sorted_output: Optional[bool] = None,
                mask: Optional[Mask] = None,
                mask_complement: bool = False,
                transposed: Optional[CSCMatrix] = None,
                ) -> Tuple[SpMSpVResult, CSCMatrix]:
    """Compute the left product ``y' = x' A`` with any registered SpMSpV algorithm.

    ``x`` must have length ``m`` (the number of matrix rows); the result vector
    has length ``n``.  Returns ``(result, transposed)`` where ``transposed`` is
    the CSC form of ``Aᵀ`` — pass it back in on subsequent calls to avoid
    rebuilding it (the same "prepare once, multiply many times" pattern the
    paper uses for its BFS experiments).
    """
    if x.n != matrix.nrows:
        from ..errors import DimensionMismatchError

        raise DimensionMismatchError(
            f"left multiplication needs len(x) == nrows; got {x.n} vs {matrix.nrows}")
    from .engine import SpMSpVEngine, engine_for

    if transposed is None:
        # freshly built transpose: serve it from a one-shot engine so the
        # throwaway matrix does not pin a slot in (and evict hot engines
        # from) the shared spmspv cache
        transposed = transpose_for_left_multiply(matrix)
        engine = SpMSpVEngine(transposed, ctx)
    else:
        engine = engine_for(transposed, ctx)
    result = engine.multiply(x, algorithm=algorithm, semiring=semiring,
                             sorted_output=sorted_output, mask=mask,
                             mask_complement=mask_complement)
    return result, transposed
