"""Result object returned by every SpMSpV implementation in this package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..formats.sparse_vector import SparseVector
from ..parallel.metrics import ExecutionRecord


@dataclass
class SpMSpVResult:
    """The output vector of one SpMSpV plus the full execution record.

    ``vector`` is the mathematical result ``y = A·x`` (over the requested
    semiring, after masking).  ``record`` carries the per-phase, per-thread
    work metrics used by the machine model and the work-efficiency analysis.
    ``info`` holds free-form problem statistics (``f``, ``d·f``, ``nnz(y)``,
    ...) that the benchmark harness reports alongside timings.
    """

    vector: SparseVector
    record: ExecutionRecord
    info: Dict[str, float] = field(default_factory=dict)

    def detach(self) -> "SpMSpVResult":
        """Switch to summary-only mode for long-lived retention.

        Collapses the record's per-thread phase detail into aggregate totals
        (the per-phase/per-thread split — and with it the critical-path
        timing — is gone, so price the record *before* detaching if you need
        simulated times).  The output vector and the info dict are kept.
        Returns ``self`` for chaining.
        """
        self.record = self.record.compact()
        return self

    @property
    def nnz(self) -> int:
        """Number of nonzeros in the output vector."""
        return self.vector.nnz

    @property
    def algorithm(self) -> str:
        return self.record.algorithm

    def simulated_time_ms(self, platform=None, model=None) -> float:
        """Price this execution on a platform (defaults to the Edison preset)."""
        from ..machine.cost_model import CostModel, cost_model_for
        from ..machine.platforms import EDISON

        if model is None:
            model = cost_model_for(platform if platform is not None else EDISON)
        return model.record_time_ms(self.record)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SpMSpVResult(algorithm={self.algorithm!r}, nnz(y)={self.nnz}, "
                f"threads={self.record.num_threads})")


class DetachableResult:
    """Mixin for algorithm results that carry their :class:`SpMSpVEngine`.

    Every iterative algorithm returns a result holding the engine that ran
    it, for reporting — which pins the engine's workspace buffers (bucket
    store, block buffers) for as long as the result lives.
    Workloads that retain many results over huge graphs call
    :meth:`detach`: the engine is replaced by its :meth:`summary()
    <repro.core.engine.SpMSpVEngine.summary>` dict (kept in
    ``engine_summary``), and any per-call execution records are compacted to
    their totals.  The mathematical outcome (levels, scores, ...) is
    untouched.  Returns ``self`` for chaining.
    """

    #: summary of the detached engine (None while the engine is attached)
    engine_summary = None

    def detach(self):
        engine = getattr(self, "engine", None)
        if engine is not None:
            self.engine_summary = engine.summary()
            self.engine = None
        records = getattr(self, "records", None)
        if records is not None:
            records[:] = [r.compact() for r in records]
        return self
