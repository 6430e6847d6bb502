"""Machine model: platform presets (Table III), cost model, cache estimators, simulator."""

from .cache import CacheStats, SetAssociativeCache, estimate_column_gather_misses, \
    estimate_scatter_misses
from .cost_model import (
    BLOCK_FEATURE_NAMES,
    DEFAULT_WEIGHTS_NS,
    CostModel,
    block_features,
    cost_model_for,
)
from .platforms import EDISON, KNL, LAPTOP, PLATFORMS, Platform, get_platform
from .simulator import SimulatedRun, simulate_record, simulate_records, speedup_curve

__all__ = [
    "BLOCK_FEATURE_NAMES",
    "CacheStats",
    "CostModel",
    "DEFAULT_WEIGHTS_NS",
    "block_features",
    "EDISON",
    "KNL",
    "LAPTOP",
    "PLATFORMS",
    "Platform",
    "SetAssociativeCache",
    "SimulatedRun",
    "cost_model_for",
    "estimate_column_gather_misses",
    "estimate_scatter_misses",
    "get_platform",
    "simulate_record",
    "simulate_records",
    "simulate_records",
    "speedup_curve",
]
