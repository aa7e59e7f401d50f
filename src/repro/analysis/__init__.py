"""Trade-off analysis: sweeps, the §VI-B decision guide, adaptive selection.

The process-pool sweep engine (``parallel``) is imported on first use."""

import importlib
from typing import Any

from repro.analysis.accuracy import (
    AccuracyReport,
    Classification,
    DecisionOracle,
    oracle_for_cluster,
)
from repro.analysis.adaptive import AdaptiveSelector, EwmaEstimator, run_adaptive_batch
from repro.analysis.scale import (
    LocalitySplit,
    ScaleRunResult,
    StaleCommitTracker,
    StreamingLocalitySplit,
)
from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    compare_approaches,
    run_point,
    sweep,
)
from repro.analysis.tradeoff import (
    QuadrantResult,
    empirical_quadrants,
    recommend,
    recommend_regime,
)

__all__ = [
    "AccuracyReport",
    "AdaptiveSelector",
    "Classification",
    "DecisionOracle",
    "oracle_for_cluster",
    "EwmaEstimator",
    "QuadrantResult",
    "run_adaptive_batch",
    "SweepPoint",
    "SweepResult",
    "compare_approaches",
    "estimate_point_cost",
    "should_parallelize",
    "empirical_quadrants",
    "parallel_map",
    "recommend",
    "recommend_regime",
    "run_point",
    "run_sweep",
    "LocalitySplit",
    "ScaleRunResult",
    "StaleCommitTracker",
    "StreamingLocalitySplit",
    "sweep",
]


def __getattr__(name: str) -> Any:
    if name in ("estimate_point_cost", "parallel_map", "run_sweep", "should_parallelize"):
        return getattr(importlib.import_module("repro.analysis.parallel"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
