"""Trigger-lifecycle observability: tracing and metrics for the validation path.

Two complementary views of the same pipeline:

* :class:`~repro.obs.trace.Tracer` — per-trigger lifecycle *spans*
  (intercept → replicate → ingest → Algorithm-1 checks with verdicts →
  alarm/accept), keyed on simulated time and deterministic under replay.
* :class:`~repro.obs.metrics.MetricsRegistry` — counter/gauge/histogram
  families (per-check verdicts, detection latency, replication fan-out
  and byte counters) for aggregate health.

Built on top of them, three diagnosis/health layers:

* :class:`~repro.obs.diagnose.AlarmForensics` — per-alarm
  :class:`~repro.obs.diagnose.AlarmExplanation` records (failed check,
  dissenting replicas, cache/network diffs, T1/T2/T3 fault class).
* :class:`~repro.obs.health.ReplicaHealthTracker` /
  :class:`~repro.obs.health.SloMonitor` — rolling-window replica health
  scores with hysteresis, plus SLO threshold rules over the registry.
* :mod:`repro.obs.export` — the zero-dependency Prometheus-text exporter
  and its linter.

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
costs one branch per instrumented event. A deployment exports them
together through :meth:`JuryDeployment.report
<repro.core.deployment.JuryDeployment.report>`, one section per attached
observer, and ``jury-repro report`` saves and renders that one artifact.
See ``docs/observability.md`` for the span model, metric catalog,
explanation schema, and health/SLO formulas.
"""

from repro.obs.diagnose import (
    CHECK_BY_REASON,
    FAULT_CLASS_BY_REASON,
    AlarmExplanation,
    AlarmForensics,
    FieldDiff,
    diff_entries,
    explain_alarm,
    export_explanations,
    find_explanation,
    render_explanations,
)
from repro.obs.diff import (
    DiffEntry,
    TraceDiff,
    diff_payloads,
    diff_tracers,
    first_divergence_detail,
)
from repro.obs.export import (
    lint_prometheus_text,
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
    dump_metrics,
)
from repro.obs.recorder import (
    FlightRecorder,
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
    "Span",
    "TraceDiff",
    "Tracer",
    "TriggerTimeline",
    "VERDICT_OK",
    "active_sampler",
    "active_tracer",
    "collect_deployment",
    "default_slo_rules",
    "diff_entries",
    "diff_payloads",
    "diff_tracers",
    "dump_metrics",
    "explain_alarm",
    "export_explanations",
    "find_explanation",
    "first_divergence_detail",
    "lint_prometheus_text",
    "match_trigger_key",
    "prometheus_text",
    "render_explanations",
    "render_flight",
    "span_sort_key",
]
