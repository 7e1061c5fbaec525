"""Trigger-lifecycle observability: tracing and metrics for the validation path.

Two complementary views of the same pipeline:

* :class:`~repro.obs.trace.Tracer` — per-trigger lifecycle *spans*
  (intercept → replicate → ingest → Algorithm-1 checks with verdicts →
  alarm/accept), keyed on simulated time and deterministic under replay.
* :class:`~repro.obs.metrics.MetricsRegistry` — counter/gauge/histogram
  families (per-check verdicts, detection latency, per-shard queue and
  batch behaviour) for aggregate health.

Built on top of them, three diagnosis/health layers:

* :class:`~repro.obs.diagnose.AlarmForensics` — per-alarm
  :class:`~repro.obs.diagnose.AlarmExplanation` records (failed check,
  dissenting replicas, cache/network diffs, T1/T2/T3 fault class).
* :class:`~repro.obs.health.ReplicaHealthTracker` /
  :class:`~repro.obs.health.SloMonitor` — rolling-window replica health
  scores with hysteresis, plus SLO threshold rules over the registry.
* :mod:`repro.obs.export` — zero-dependency Prometheus-text and JSONL
  exporters and the periodic :class:`~repro.obs.export.SnapshotSink`.

Production-shaped telemetry bounding (PR 8):

* :class:`~repro.obs.recorder.FlightRecorder` — always-on fixed-size ring
  of recent decision/alarm/checkpoint/SLO events, dumped on anomaly
  triggers.
* :class:`~repro.obs.sampling.HeadSampler` — deterministic 1-in-N head
  sampling of the observer stack, keyed on the trigger id.
* :mod:`repro.obs.diff` — canonical trace diffing with first-divergence
  attribution (``jury-repro trace-diff``).

All are strictly read-only observers of the validation path: enabling
them cannot change a decision, and disabling them (``None``, the default)
costs one branch per instrumented event. See ``docs/observability.md``
for the span model, metric catalog, explanation schema, and health/SLO
formulas.
"""

from repro.obs.diagnose import (
    CHECK_BY_REASON,
    FAULT_CLASS_BY_REASON,
    AlarmExplanation,
    AlarmForensics,
    FieldDiff,
    diff_entries,
    explain_alarm,
    explanations_from_files,
    export_explanations,
    find_explanation,
    render_explanations,
)
from repro.obs.diff import (
    DiffEntry,
    TraceDiff,
    diff_payloads,
    diff_trace_files,
    diff_tracers,
    first_divergence_detail,
)
from repro.obs.export import (
    SnapshotSink,
    health_jsonl,
    lint_prometheus_text,
    metrics_jsonl,
    prometheus_text,
)
from repro.obs.health import (
    HealthReport,
    ReplicaHealthTracker,
    SloMonitor,
    SloRule,
    SloStatus,
    default_slo_rules,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_deployment,
    collect_pipeline,
    dump_metrics,
)
from repro.obs.recorder import (
    FlightRecorder,
    dump_flight,
    load_flight,
    render_flight,
)
from repro.obs.sampling import (
    HeadSampler,
    active_sampler,
)
from repro.obs.trace import (
    ACCEPT,
    ALARM,
    CHECK_CONSENSUS,
    CHECK_POLICY,
    CHECK_SANITY,
    CHECK_STALENESS,
    DECIDE,
    INGEST,
    INTERCEPT,
    LATE_DROP,
    REPLICATE,
    STAGE_RANK,
    VERDICT_OK,
    NullTracer,
    Span,
    Tracer,
    TriggerTimeline,
    active_tracer,
    dump_trace,
    load_trace,
    match_trigger_key,
    span_sort_key,
)

__all__ = [
    "ACCEPT",
    "ALARM",
    "CHECK_BY_REASON",
    "CHECK_CONSENSUS",
    "CHECK_POLICY",
    "CHECK_SANITY",
    "CHECK_STALENESS",
    "AlarmExplanation",
    "AlarmForensics",
    "Counter",
    "DECIDE",
    "DiffEntry",
    "FAULT_CLASS_BY_REASON",
    "FieldDiff",
    "FlightRecorder",
    "Gauge",
    "HeadSampler",
    "HealthReport",
    "Histogram",
    "INGEST",
    "INTERCEPT",
    "LATE_DROP",
    "MetricsRegistry",
    "NullTracer",
    "REPLICATE",
    "ReplicaHealthTracker",
    "STAGE_RANK",
    "SloMonitor",
    "SloRule",
    "SloStatus",
    "SnapshotSink",
    "Span",
    "TraceDiff",
    "Tracer",
    "TriggerTimeline",
    "VERDICT_OK",
    "active_sampler",
    "active_tracer",
    "collect_deployment",
    "collect_pipeline",
    "default_slo_rules",
    "diff_entries",
    "diff_payloads",
    "diff_trace_files",
    "diff_tracers",
    "dump_flight",
    "dump_metrics",
    "dump_trace",
    "explain_alarm",
    "explanations_from_files",
    "export_explanations",
    "find_explanation",
    "first_divergence_detail",
    "health_jsonl",
    "lint_prometheus_text",
    "load_flight",
    "load_trace",
    "match_trigger_key",
    "metrics_jsonl",
    "prometheus_text",
    "render_explanations",
    "render_flight",
    "span_sort_key",
]
