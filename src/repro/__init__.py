"""repro — reproduction of "A Work-Efficient Parallel Sparse Matrix-Sparse
Vector Multiplication Algorithm" (Azad & Buluç, IPDPS 2017).

The package implements the paper's SpMSpV-bucket algorithm, the baselines it
is compared against (CombBLAS-SPA, CombBLAS-heap, GraphMat, sort-based), the
sparse-format substrate they run on, a parallel machine model that reproduces
the paper's scaling experiments, and the graph algorithms (BFS, connected
components, MIS, bipartite matching, PageRank, SSSP, local clustering) that
motivate the primitive.

Quickstart::

    import numpy as np
    from repro import CSCMatrix, SparseVector, spmspv, default_context

    A = CSCMatrix.from_dense(np.array([[0, 2.0], [3.0, 0]]))
    x = SparseVector.from_dense(np.array([1.0, 0.0]))
    result = spmspv(A, x, default_context(num_threads=4), algorithm="bucket")
    print(result.vector.to_dense())        # [0. 3.]
    print(result.simulated_time_ms())      # simulated Edison runtime
"""

from .core import (
    SpMSpVEngine,
    SpMSpVResult,
    SpMSpVWorkspace,
    SparseAccumulator,
    available_algorithms,
    spmspv,
    spmspv_bucket,
)
from .formats import (
    BitVector,
    COOMatrix,
    CSCMatrix,
    DCSCMatrix,
    SparseVector,
)
from .machine import EDISON, KNL, CostModel, Platform, get_platform
from .parallel import ExecutionContext, default_context
from .semiring import (
    MIN_PLUS,
    MIN_SELECT2ND,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    get_semiring,
)

__version__ = "1.0.0"

__all__ = [
    "BitVector",
    "COOMatrix",
    "CSCMatrix",
    "CostModel",
    "DCSCMatrix",
    "EDISON",
    "ExecutionContext",
    "KNL",
    "MIN_PLUS",
    "MIN_SELECT2ND",
    "OR_AND",
    "PLUS_TIMES",
    "Platform",
    "Semiring",
    "SpMSpVEngine",
    "SpMSpVResult",
    "SpMSpVWorkspace",
    "SparseAccumulator",
    "SparseVector",
    "available_algorithms",
    "default_context",
    "get_platform",
    "get_semiring",
    "spmspv",
    "spmspv_bucket",
    "__version__",
]
