"""Machine model: platform presets (Table III), cost model, cache estimators, simulator."""

from .cache import CacheStats, SetAssociativeCache, estimate_column_gather_misses, \
    estimate_scatter_misses
from .cost_model import (
    DEFAULT_WEIGHTS_NS,
    CostModel,
    cost_model_for,
)
from .platforms import EDISON, KNL, LAPTOP, PLATFORMS, Platform, get_platform
from .simulator import SimulatedRun, simulate_record, simulate_records, speedup_curve

__all__ = [
    "CacheStats",
    "CostModel",
    "DEFAULT_WEIGHTS_NS",
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
    "speedup_curve",
]
