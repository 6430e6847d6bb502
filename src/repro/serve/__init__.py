"""Async query-serving layer: coalesce concurrent queries into batches.

This package coalesces independent client queries (multiply / personalized
PageRank / multi-source BFS) against named graphs into one engine batch per
flush — looped by default, or a fused
:class:`~repro.formats.vector_block.SparseVectorBlock` execution that pays
the paper's block kernel's fixed costs once per batch.  See
:class:`QueryServer` for the request lifecycle.
"""

from .clock import VirtualClock, WallClock
from .coalescer import Batch, Coalescer
from .loadgen import (ScheduledRequest, SubmitOutcome, generate_schedule,
                      random_query, replay, run_closed_loop)
from .requests import (BFSAnswer, BFSQuery, MultiplyQuery, PageRankQuery,
                       Request, ServeFuture, UpdateAck, UpdateQuery)
from .server import QueryServer

__all__ = [
    "Batch",
    "BFSAnswer",
    "BFSQuery",
    "Coalescer",
    "MultiplyQuery",
    "PageRankQuery",
    "QueryServer",
    "Request",
    "ScheduledRequest",
    "ServeFuture",
    "SubmitOutcome",
    "UpdateAck",
    "UpdateQuery",
    "VirtualClock",
    "WallClock",
    "generate_schedule",
    "random_query",
    "replay",
    "run_closed_loop",
]
