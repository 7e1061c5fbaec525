"""Zero-dependency exporter: Prometheus text.

``prometheus_text`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
(plus optional health reports and SLO statuses) in the Prometheus text
exposition format — ``# TYPE`` headers, escaped labels, histograms as
summaries with ``quantile`` labels. The output is deterministic: families
and label sets render in sorted order, and histogram ``_sum`` lines use
``math.fsum`` so the value is independent of sample arrival order (the
cross-engine equivalence the differential suite asserts).

Its strict line-format checker lives with the tests (``tests/prom_lint.py``),
which, with the CI observability job, are its only callers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

_QUANTILES = (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))

#: ``# HELP`` text per family. Families absent here fall back to a
#: prefix-derived generic line so every exposition family carries HELP.
_HELP_TEXT: Dict[str, str] = {
    "validator_detection_ms": "Per-trigger detection latency (ms).",
    "validator_responses_total": "Responses ingested by the validator.",
}

_HELP_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("validator_", "Validation-core instrumentation (repro.core)."),
    ("replicator_", "Trigger replication instrumentation."),
    ("jury_", "Deployment-level health/SLO export."),
)


def help_text(family: str) -> str:
    """The ``# HELP`` line body for a family (generic fallback included)."""
    text = _HELP_TEXT.get(family)
    if text is not None:
        return text
    for prefix, fallback in _HELP_PREFIXES:
        if family.startswith(prefix):
            return fallback
    return "JURY reproduction metric."

def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_series(name: str, labels: Sequence[Tuple[str, str]],
                   value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{escape_label_value(str(v))}"'
                        for k, v in sorted(labels))
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def prometheus_metrics_lines(registry) -> List[str]:
    """Exposition lines for every instrument in the registry."""
    lines: List[str] = []
    typed: set = set()

    def header(family: str, prom_type: str) -> None:
        if family not in typed:
            typed.add(family)
            lines.append(f"# HELP {family} {help_text(family)}")
            lines.append(f"# TYPE {family} {prom_type}")

    for name, labels, instrument, kind in registry.instruments():
        if kind == "counter":
            header(name, "counter")
            lines.append(_render_series(name, labels, instrument.value))
        elif kind == "gauge":
            header(name, "gauge")
            lines.append(_render_series(name, labels, instrument.value))
        else:
            header(name, "summary")
            for quantile, q in _QUANTILES:
                lines.append(_render_series(
                    name, tuple(labels) + (("quantile", quantile),),
                    instrument.percentile(q / 100.0)))
            # fsum is order-independent over the sample multiset, so the
            # sum matches across engines that observed in different orders.
            lines.append(_render_series(
                f"{name}_sum", labels, math.fsum(instrument.samples)))
            lines.append(_render_series(
                f"{name}_count", labels, instrument.count))
    return lines


def prometheus_health_lines(reports: Dict[str, object]) -> List[str]:
    """Exposition lines for a ``{replica: HealthReport}`` mapping."""
    lines: List[str] = []
    if not reports:
        return lines
    gauges = (
        ("jury_replica_health_score", "score"),
        ("jury_replica_disagreement_rate", "disagreement_rate"),
        ("jury_replica_timeout_miss_rate", "timeout_miss_rate"),
        ("jury_replica_lag_p95_ms", "lag_p95_ms"),
        ("jury_replica_suspected", "suspected"),
    )
    for family, attr in gauges:
        lines.append(f"# TYPE {family} gauge")
        for cid in sorted(reports):
            value = getattr(reports[cid], attr)
            lines.append(_render_series(
                family, (("replica", cid),), float(value)))
    return lines


def prometheus_slo_lines(statuses: Sequence) -> List[str]:
    """Exposition lines for a list of :class:`~repro.obs.health.SloStatus`."""
    lines: List[str] = []
    if not statuses:
        return lines
    ordered = sorted(statuses, key=lambda status: status.name)
    lines.append("# TYPE jury_slo_ok gauge")
    lines.extend(_render_series("jury_slo_ok", (("rule", status.name),),
                                float(status.ok)) for status in ordered)
    lines.append("# TYPE jury_slo_value gauge")
    lines.extend(_render_series("jury_slo_value", (("rule", status.name),),
                                status.value) for status in ordered)
    lines.append("# TYPE jury_slo_threshold gauge")
    lines.extend(_render_series("jury_slo_threshold",
                                (("rule", status.name),),
                                status.threshold) for status in ordered)
    return lines


def prometheus_text(registry=None, health_reports=None,
                    slo_statuses=None) -> str:
    """The full exposition document (trailing newline included)."""
    lines: List[str] = []
    if registry is not None:
        lines.extend(prometheus_metrics_lines(registry))
    if health_reports:
        lines.extend(prometheus_health_lines(health_reports))
    if slo_statuses:
        lines.extend(prometheus_slo_lines(slo_statuses))
    return "\n".join(lines) + "\n" if lines else ""
