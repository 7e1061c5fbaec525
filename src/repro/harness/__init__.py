"""Experiment harness: builds clusters, drives workloads, reports figures."""

from repro.harness.experiment import (
    DetectionStats,
    Experiment,
    ThroughputPoint,
    build_experiment,
)
from repro.harness.figures import ascii_cdf, ascii_series
from repro.harness.metrics import cdf_points, mbps, percentile
from repro.harness.reporting import (
    CommandResult,
    format_series,
    format_table,
    render_result,
)

__all__ = [
    "CommandResult",
    "DetectionStats",
    "ascii_cdf",
    "ascii_series",
    "Experiment",
    "ThroughputPoint",
    "build_experiment",
    "cdf_points",
    "format_series",
    "format_table",
    "mbps",
    "percentile",
    "render_result",
]
