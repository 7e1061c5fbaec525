"""Zero-dependency exporters: Prometheus text, JSONL, and a snapshot sink.

``prometheus_text`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
(plus optional health reports and SLO statuses) in the Prometheus text
exposition format — ``# TYPE`` headers, escaped labels, histograms as
summaries with ``quantile`` labels. The output is deterministic: families
and label sets render in sorted order, and histogram ``_sum`` lines use
``math.fsum`` so the value is independent of sample arrival order (the
cross-engine equivalence the differential suite asserts).

``lint_prometheus_text`` is a strict line-format checker used by the CI
observability job — it validates the exposition without any external
Prometheus tooling.

:class:`SnapshotSink` is the periodic export hook for the pipeline flush
path: it snapshots metrics/health on simulated-time boundary crossings and
renders the collected records as JSONL.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

_QUANTILES = (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))

#: ``# HELP`` text per family. Families absent here fall back to a
#: prefix-derived generic line so every exposition family carries HELP.
_HELP_TEXT: Dict[str, str] = {
    "validator_detection_ms": "Per-trigger detection latency (ms).",
    "validator_responses_total": "Responses ingested by the validator.",
}

_HELP_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("validator_", "Validation-core instrumentation (repro.core)."),
    ("pipeline_", "Sharded-pipeline instrumentation (repro.core.pipeline)."),
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

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|[+-]Inf)$")
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$')
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


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


# ----------------------------------------------------------------------
# Exposition linter (CI gate — no external Prometheus tooling needed)
# ----------------------------------------------------------------------

def lint_prometheus_text(text: str) -> List[str]:
    """Validate an exposition document; returns error strings (empty = ok).

    Checks the line grammar, label-pair syntax, ``# TYPE``/``# HELP``
    placement (before the family's first sample, at most once per family),
    duplicate series, and histogram bucket discipline: every ``_bucket``
    sample of a declared histogram must carry an ``le`` label, the bucket
    counts of each series must be cumulative (non-decreasing in ``le``
    order), and the ``+Inf`` bucket must be present and equal the series'
    ``_count``.
    """
    errors: List[str] = []
    declared: Dict[str, str] = {}
    helped: set = set()
    seen_series: set = set()
    sampled_families: set = set()
    #: (family, non-le label body) -> [(le, value), ...] / _count values
    buckets: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, str], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"line {lineno}: malformed TYPE comment")
                    continue
                _, _, family, prom_type = parts
                if not _NAME_RE.match(family):
                    errors.append(
                        f"line {lineno}: bad family name {family!r}")
                if prom_type not in _TYPES:
                    errors.append(
                        f"line {lineno}: unknown type {prom_type!r}")
                if family in declared:
                    errors.append(
                        f"line {lineno}: duplicate TYPE for {family!r}")
                if family in sampled_families:
                    errors.append(
                        f"line {lineno}: TYPE for {family!r} after samples")
                declared[family] = prom_type
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 4:
                    errors.append(f"line {lineno}: malformed HELP comment")
                    continue
                family = parts[2]
                if not _NAME_RE.match(family):
                    errors.append(
                        f"line {lineno}: bad family name {family!r}")
                if family in helped:
                    errors.append(
                        f"line {lineno}: duplicate HELP for {family!r}")
                if family in sampled_families:
                    errors.append(
                        f"line {lineno}: HELP for {family!r} after samples")
                helped.add(family)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = _family_of(name, declared)
        sampled_families.add(family)
        if family not in declared:
            errors.append(
                f"line {lineno}: sample for undeclared family {family!r}")
        labels = match.group("labels")
        label_pairs: List[str] = []
        if labels:
            for pair in _split_label_pairs(labels):
                if not _LABEL_RE.match(pair):
                    errors.append(
                        f"line {lineno}: malformed label pair {pair!r}")
                else:
                    label_pairs.append(pair)
        series = (name, labels or "")
        if series in seen_series:
            errors.append(f"line {lineno}: duplicate series {line!r}")
        seen_series.add(series)
        if declared.get(family) != "histogram":
            continue
        value = float(match.group("value").replace("+Inf", "inf")
                      .replace("-Inf", "-inf").replace("NaN", "nan"))
        rest = ",".join(p for p in label_pairs if not p.startswith('le="'))
        if name == f"{family}_bucket":
            le_pairs = [p for p in label_pairs if p.startswith('le="')]
            if len(le_pairs) != 1:
                errors.append(
                    f"line {lineno}: histogram bucket without an le label")
                continue
            bound_text = le_pairs[0][len('le="'):-1]
            try:
                bound = float(bound_text.replace("+Inf", "inf"))
            except ValueError:
                errors.append(
                    f"line {lineno}: unparseable le bound {bound_text!r}")
                continue
            buckets.setdefault((family, rest), []).append((bound, value))
        elif name == f"{family}_count":
            counts[(family, rest)] = value
    for key, series_buckets in sorted(buckets.items()):
        family, rest = key
        label = f"{family}{{{rest}}}" if rest else family
        bounds = [bound for bound, _ in series_buckets]
        values = [value for _, value in series_buckets]
        if bounds != sorted(bounds):
            errors.append(f"{label}: bucket le bounds out of order")
        if any(later < earlier
               for earlier, later in zip(values, values[1:])):
            errors.append(f"{label}: bucket counts are not cumulative")
        if not bounds or bounds[-1] != math.inf:
            errors.append(f"{label}: missing +Inf bucket")
        elif key in counts and values[-1] != counts[key]:
            errors.append(
                f"{label}: +Inf bucket {values[-1]} != _count {counts[key]}")
    return errors


def _family_of(sample_name: str, declared: Dict[str, str]) -> str:
    """Map a sample name back to its family (summary _sum/_count suffixes)."""
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if declared.get(base) in ("summary", "histogram"):
                return base
    return sample_name


def _split_label_pairs(body: str) -> Iterable[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs


# ----------------------------------------------------------------------
# JSONL exports and the periodic snapshot sink
# ----------------------------------------------------------------------

def jsonl_line(record: Dict[str, object]) -> str:
    """One stable JSONL line (sorted keys, no trailing whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def metrics_jsonl(registry, now: float) -> str:
    """The registry snapshot as one JSONL record."""
    return jsonl_line({"kind": "metrics", "time_ms": now,
                       "metrics": registry.snapshot()})


def health_jsonl(reports: Dict[str, object], slo_statuses: Sequence = None,
                 now: float = 0.0) -> str:
    """Health reports plus SLO statuses as one JSONL record."""
    return jsonl_line({
        "kind": "health", "time_ms": now,
        "replicas": {cid: reports[cid].to_dict() for cid in sorted(reports)},
        "slo": [status.to_dict() for status in (slo_statuses or ())]})


class SnapshotSink:
    """Periodic metrics/health snapshots on simulated-time boundaries.

    ``observe(now)`` is called at the end of every engine step (the
    observer seam's ``tick``); the first call at or past each
    ``interval_ms`` boundary records one snapshot (repeat calls within a
    boundary are no-ops, and idle gaps collapse to a single snapshot — the
    sink follows the engine's activity, it never schedules simulator
    events of its own).
    """

    def __init__(self, interval_ms: float = 500.0, registry=None,
                 health=None):
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive: {interval_ms}")
        self.interval_ms = interval_ms
        self.registry = registry
        self.health = health
        self.records: List[Dict[str, object]] = []
        self._next_boundary = interval_ms

    def observe(self, now: float) -> None:
        """Record one snapshot if ``now`` crossed the next boundary."""
        if now < self._next_boundary:
            return
        boundary = self._next_boundary
        while self._next_boundary <= now:
            self._next_boundary += self.interval_ms
        record: Dict[str, object] = {"kind": "snapshot", "time_ms": now,
                                     "boundary_ms": boundary}
        if self.registry is not None:
            record["metrics"] = self.registry.snapshot()
        if self.health is not None:
            reports = self.health.evaluate(boundary)
            record["health"] = {cid: reports[cid].to_dict()
                                for cid in sorted(reports)}
        self.records.append(record)

    def to_jsonl(self) -> str:
        """All recorded snapshots, one JSON object per line."""
        return "\n".join(jsonl_line(record) for record in self.records)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            text = self.to_jsonl()
            if text:
                handle.write(text)
                handle.write("\n")
