"""Experiment harness: builds clusters, drives workloads, measures runs."""

from repro.harness.experiment import (
    DetectionStats,
    Experiment,
    ThroughputPoint,
    build_experiment,
)
from repro.harness.metrics import cdf_points, mbps, percentile
from repro.harness.reporting import (
    CommandResult,
    format_table,
    render_result,
)

__all__ = [
    "CommandResult",
    "DetectionStats",
    "Experiment",
    "ThroughputPoint",
    "build_experiment",
    "cdf_points",
    "format_table",
    "mbps",
    "percentile",
    "render_result",
]
