"""Trigger-lifecycle observability for the validation path.

Engines report lifecycle events to one seam,
:class:`~repro.obs.observer.Observer`, which writes each event once, as
rows of one columnar event log. Every other piece is a view of that log or
sits beside it:

* :mod:`repro.obs.trace` — the event log and :class:`~repro.obs.trace.
  Tracer`, its per-trigger lifecycle view (intercept → replicate → ingest →
  Algorithm-1 checks with verdicts → alarm/accept), keyed on simulated time
  and deterministic under replay.
* :mod:`repro.obs.metrics` — counter/gauge/histogram families (per-check
  verdicts, detection latency, replication fan-out, byte counters).
* :mod:`repro.obs.health` — rolling-window replica health scores with
  hysteresis, and SLO threshold rules over the metrics.
* :mod:`repro.obs.recorder` — the flight recorder: the last flight events
  and anomaly-triggered dumps.
* :mod:`repro.obs.diagnose` — per-alarm explanations (failed check,
  dissenting replicas, cache/network diffs, T1/T2/T3 fault class).
* :mod:`repro.obs.sampling` — deterministic 1-in-N head sampling keyed on
  the trigger id; :mod:`repro.obs.diff` — canonical trace diffing
  (``jury-repro trace-diff``); :mod:`repro.obs.export` — Prometheus text.

All are strictly read-only observers of the validation path: enabling
them cannot change a decision, and disabling them (``None``, the default)
costs one branch per instrumented event. Import each from its module; a
deployment exports them together through :meth:`JuryDeployment.report
<repro.core.deployment.JuryDeployment.report>`, and ``jury-repro report``
saves and renders that one artifact. See ``docs/observability.md``.
"""
