"""Algorithm registry and the top-level :func:`spmspv` convenience entry point.

Every SpMSpV implementation in the package shares the signature

``algo(matrix, x, ctx=None, *, semiring=..., sorted_output=None, mask=None,
mask_complement=False, workspace=None) -> SpMSpVResult``

so graph algorithms and benchmarks can switch implementations by name.

:func:`spmspv` itself is a thin shim over the unified execution engine
(:class:`repro.core.engine.SpMSpVEngine`): every call is served by a cached
per-``(matrix, context)`` engine, which reuses one persistent workspace
across repeated calls on the same matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext
from ..semiring import PLUS_TIMES, Semiring
from .result import SpMSpVResult
from .spmspv_bucket import spmspv_bucket
from .vector_ops import Mask

AlgorithmFn = Callable[..., SpMSpVResult]

_REGISTRY: Dict[str, AlgorithmFn] = {}


def register_algorithm(name: str, fn: AlgorithmFn, *, overwrite: bool = False) -> None:
    """Register an SpMSpV implementation under a short name.

    ``fn`` takes the shared signature above, ``workspace=`` included: every
    engine passes its persistent workspace on each call (a kernel that has
    no use for it may accept ``**kwargs``).
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"algorithm {name!r} is already registered")
    _REGISTRY[name] = fn


def available_algorithms() -> list:
    """Names of all registered SpMSpV implementations."""
    return sorted(_REGISTRY)


def get_algorithm(name: str) -> AlgorithmFn:
    """Look up an implementation by name ('bucket', 'combblas_spa', ...)."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise NotSupportedError(
            f"unknown SpMSpV algorithm {name!r}; available: {available_algorithms()}"
        ) from None


def _ensure_registered() -> None:
    """Populate the registry lazily (avoids import cycles with repro.baselines)."""
    if _REGISTRY:
        return
    from ..baselines.combblas_heap import spmspv_combblas_heap
    from ..baselines.combblas_spa import spmspv_combblas_spa
    from ..baselines.graphmat import spmspv_graphmat
    from ..baselines.spmspv_sort import spmspv_sort

    _REGISTRY.update({
        "bucket": spmspv_bucket,
        "combblas_spa": spmspv_combblas_spa,
        "combblas_heap": spmspv_combblas_heap,
        "graphmat": spmspv_graphmat,
        "sort": spmspv_sort,
    })


def spmspv(matrix: CSCMatrix, x: SparseVector,
           ctx: Optional[ExecutionContext] = None, *,
           algorithm: str = "bucket",
           semiring: Semiring = PLUS_TIMES,
           sorted_output: Optional[bool] = None,
           mask: Optional[Mask] = None,
           mask_complement: bool = False,
           **kwargs) -> SpMSpVResult:
    """Multiply a sparse matrix by a sparse vector: ``y <- A x`` over a semiring.

    ``algorithm`` selects the implementation:

    * ``'bucket'`` — the paper's SpMSpV-bucket algorithm (default),
    * ``'combblas_spa'`` / ``'combblas_heap'`` / ``'graphmat'`` / ``'sort'`` —
      the baselines of Table I.

    Any other name raises :class:`~repro.errors.NotSupportedError`.

    Every call executes through the cached :class:`~repro.core.engine.SpMSpVEngine`
    for ``(matrix, ctx)``, so repeated calls on the same matrix reuse one
    persistent workspace (pass ``workspace=`` explicitly to override it).
    """
    from .engine import engine_for  # late: engine imports this module

    _ensure_registered()
    engine = engine_for(matrix, ctx)
    return engine.multiply(x, algorithm=algorithm, semiring=semiring,
                           sorted_output=sorted_output, mask=mask,
                           mask_complement=mask_complement, **kwargs)
