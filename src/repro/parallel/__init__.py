"""Parallel runtime: execution context, backends, partitioning, scheduling, metrics."""

from .backends import (
    EmulatedBackend,
    ExecutionBackend,
    ProcessBackend,
    available_backends,
    make_backend,
    register_backend,
)
from .context import ExecutionContext, RetryPolicy, default_context
from .faults import ChaosBackend, FaultPlan  # registers the "chaos" backend
from .metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from .partitioner import (
    chunk_edges,
    load_imbalance,
    partition_by_weight,
    partition_vector_nonzeros,
)
from .scheduler import Assignment, schedule, schedule_dynamic, schedule_lpt, schedule_static

__all__ = [
    "Assignment",
    "ChaosBackend",
    "EmulatedBackend",
    "ExecutionBackend",
    "ExecutionContext",
    "ExecutionRecord",
    "FaultPlan",
    "PhaseRecord",
    "ProcessBackend",
    "RetryPolicy",
    "WorkMetrics",
    "available_backends",
    "chunk_edges",
    "default_context",
    "load_imbalance",
    "make_backend",
    "partition_by_weight",
    "partition_vector_nonzeros",
    "register_backend",
    "schedule",
    "schedule_dynamic",
    "schedule_lpt",
    "schedule_static",
]
