"""Counter/gauge/histogram families for the validation path.

A :class:`MetricsRegistry` holds named metric *families*; a family plus a
sorted label set identifies one child instrument (the Prometheus data
model, minus the wire format). An instrument handle is stable for the
registry's lifetime. Families the instrumentation emits:

* validator-side — ``validator_responses_total{kind}``,
  ``validator_decisions_total{outcome}``, ``validator_checks_total{check,
  verdict}``, ``validator_alarms_total{reason}``, and the
  ``validator_detection_ms`` histogram;
* replication-side — ``replicator_triggers_total{source}``,
  ``replicator_copies_total``;
* engine-side (collected, not inlined — zero hot-path cost) —
  ``pipeline_shard_*{shard}`` families scraped from each shard's
  :class:`~repro.core.pipeline.ShardStats` by :func:`collect_pipeline`.

Histograms keep raw samples and defer quantiles to
:func:`repro.harness.metrics.percentile` (imported lazily: the harness
package pulls in the whole experiment stack, which must not load just
because a deployment created a registry).

Like the tracer, a registry never touches simulated time, randomness, or
validator state — metrics on/off cannot change a decision.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> object:
        return self.value


class Gauge:
    """A point-in-time level (queue depth, high-water mark)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water semantics)."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> object:
        return self.value


class Histogram:
    """A sample distribution with percentile summaries.

    Stores raw samples (simulation scales here are thousands of decisions,
    not millions of requests); ``percentile`` interpolates through the
    harness helper so CLI reports and figures agree on quantile math.
    """

    __slots__ = ("samples", "total")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        from repro.harness.metrics import percentile
        return percentile(self.samples, q)

    def snapshot(self) -> object:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": min(self.samples),
            "p50": round(self.percentile(0.5), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
            "max": max(self.samples),
        }


class MetricsRegistry:
    """Get-or-create registry of labelled metric families."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labelset(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> object:
        """The current value of a counter or gauge (0 if never touched)."""
        key = (name, _labelset(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0

    def family_total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(c.value for (n, _), c in self._counters.items()
                   if n == name)

    def instruments(self, kind: Optional[str] = None):
        """Yield ``(name, labelset, instrument, kind)`` deterministically.

        Sorted by (kind, name, labelset); ``kind`` filters to one of
        ``counter`` / ``gauge`` / ``histogram``. This is the exporter
        surface (:mod:`repro.obs.export`).
        """
        tables = (("counter", self._counters), ("gauge", self._gauges),
                  ("histogram", self._histograms))
        for table_kind, table in tables:
            if kind is not None and table_kind != kind:
                continue
            for (name, labels), instrument in sorted(
                    table.items(), key=lambda item: item[0]):
                yield name, labels, instrument, table_kind

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-able dump of every instrument.

        Keys render as ``name{label=value,...}`` with labels sorted, so
        two registries fed the same events snapshot identically.
        """
        out: Dict[str, object] = {}
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            for (name, labels), instrument in sorted(
                    table.items(), key=lambda item: item[0]):
                rendered = name
                if labels:
                    # Labels are sorted at creation (_labelset), but the
                    # render sorts again defensively so dumps stay stable
                    # even for label sets constructed by hand.
                    rendered += "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(labels)) + "}"
                out[rendered] = {"type": kind,
                                 "value": instrument.snapshot()}
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def rows(self) -> List[List[str]]:
        """``[metric, type, value]`` rows for the human reporter."""
        return [[name, entry["type"], json.dumps(entry["value"], sort_keys=True)
                 if isinstance(entry["value"], dict) else str(entry["value"])]
                for name, entry in self.snapshot().items()]


# ----------------------------------------------------------------------
# Engine-side collection (pull, not push: zero hot-path cost)
# ----------------------------------------------------------------------

def collect_pipeline(registry: MetricsRegistry, pipeline) -> None:
    """Scrape a :class:`~repro.core.pipeline.ValidationPipeline`'s per-shard
    counters into the registry's ``pipeline_shard_*`` families."""
    stats = pipeline.stats
    registry.gauge("pipeline_shards").set(stats.shards)
    registry.counter("pipeline_responses_routed_total").inc(
        stats.responses_routed
        - registry.value("pipeline_responses_routed_total"))
    for index, shard in enumerate(stats.per_shard):
        for counter_name in ("enqueued", "processed", "batches",
                             "overflow_enqueued", "overflow_drained",
                             "backpressure_events", "timer_wakeups",
                             "fastpath_decisions", "slowpath_decisions",
                             "late_responses", "decided", "alarmed"):
            name = f"pipeline_shard_{counter_name}_total"
            instrument = registry.counter(name, shard=index)
            instrument.inc(shard[counter_name] - instrument.value)
        registry.gauge("pipeline_shard_queue_high_water",
                       shard=index).max(shard["queue_high_water"])
        registry.gauge("pipeline_shard_max_batch",
                       shard=index).max(shard["max_batch"])


def collect_deployment(registry: MetricsRegistry, deployment) -> None:
    """Scrape deployment-level counters: replication fan-out, module relay
    volume, byte counters, and (when sharded) the per-shard families."""
    registry.counter("replicator_triggers_replicated_total").inc(
        sum(r.triggers_replicated for r in deployment.replicators.values())
        - registry.value("replicator_triggers_replicated_total"))
    registry.counter("module_responses_sent_total").inc(
        sum(m.responses_sent for m in deployment.modules.values())
        - registry.value("module_responses_sent_total"))
    registry.counter("module_shadow_triggers_total").inc(
        deployment.total_shadow_triggers()
        - registry.value("module_shadow_triggers_total"))
    registry.gauge("replication_bytes").set(
        deployment.replication_counter.bytes)
    registry.gauge("validator_bytes").set(deployment.validator_counter.bytes)
    validator = deployment.validator
    if hasattr(validator, "stats"):
        collect_pipeline(registry, validator)


def dump_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a metrics snapshot as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_json())
        handle.write("\n")
