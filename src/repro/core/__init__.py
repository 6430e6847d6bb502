"""Core: the SpMSpV-bucket algorithm and its supporting data structures."""

from .buckets import BucketOffsets, BucketStore, bucket_of_rows, bucket_row_ranges, \
    compute_offsets
from .dispatch import available_algorithms, get_algorithm, register_algorithm, spmspv
from .engine import (
    EngineCall,
    SpMSpVEngine,
    clear_engine_cache,
    engine_for,
)
from .column_sharded import ColumnShardedEngine, make_sharded_engine
from .result import SpMSpVResult
from .sharded import EngineGroup, ShardedEngine
from .spa import SparseAccumulator
from .spmspv_block import spmspv_bucket_block
from .spmspv_bucket import spmspv_bucket, spmspv_bucket_reference
from .spmspv_column import (
    ColumnPartial,
    column_partial,
    merge_partial_records,
    reduce_partials,
    slice_frontier,
)
from .vector_ops import (
    assign_scalar,
    ewise_add,
    ewise_mult,
    finalize_output,
    mask_vector,
    reduce_vector,
    where_values,
)
from .workspace import BlockBuffers, SharedSlab, SpMSpVWorkspace

__all__ = [
    "BlockBuffers",
    "SharedSlab",
    "BucketOffsets",
    "BucketStore",
    "ColumnPartial",
    "ColumnShardedEngine",
    "EngineCall",
    "EngineGroup",
    "ShardedEngine",
    "SpMSpVEngine",
    "SpMSpVWorkspace",
    "SparseAccumulator",
    "SpMSpVResult",
    "assign_scalar",
    "available_algorithms",
    "bucket_of_rows",
    "bucket_row_ranges",
    "clear_engine_cache",
    "column_partial",
    "compute_offsets",
    "engine_for",
    "make_sharded_engine",
    "merge_partial_records",
    "reduce_partials",
    "slice_frontier",
    "ewise_add",
    "ewise_mult",
    "finalize_output",
    "get_algorithm",
    "mask_vector",
    "reduce_vector",
    "register_algorithm",
    "spmspv",
    "spmspv_bucket",
    "spmspv_bucket_block",
    "spmspv_bucket_reference",
    "where_values",
]
