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
* deployment-side (collected, not inlined — zero hot-path cost) — the
  fan-out, relay and byte counters :func:`collect_deployment` scrapes.

Attached to the observer seam, the registry is a view of its event log
(:mod:`repro.obs.trace`): every accessor and read first folds in the rows
recorded since the last one, and so does the log before rows retire, so
the event-derived families (the ``validator_*`` ones,
``replicator_triggers_total`` and the ``checkpoint_*`` ones) cost nothing
per event. A fold updates each distinct code's instruments once, by its
count, and appends the detection samples in log order. An instrument is
created on the first row that updates it, so an export lists exactly the
updated ones; ``replicator_copies_total`` and
:func:`collect_deployment`'s families are updated directly.

Histograms keep raw samples, unboxed, and defer quantiles to
:func:`repro.harness.metrics.percentile` (imported lazily: the harness
package pulls in the whole experiment stack, which must not load just
because a deployment created a registry).

Like the tracer, a registry never touches simulated time, randomness, or
validator state — metrics on/off cannot change a decision.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace

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

    Stores raw samples, unboxed: floats in an ``array('d')`` in arrival
    order, and every other value (the integer responses-per-trigger) as a
    value -> count map, so a sample costs 8 bytes or nothing and keeps its
    type (``14`` stays ``14``). ``percentile`` interpolates through the
    harness helper so CLI reports and figures agree on quantile math.
    """

    __slots__ = ("_floats", "_counts", "_float_total", "_exact_total")

    def __init__(self) -> None:
        self._floats = array("d")
        self._counts: Dict[object, int] = {}
        self._float_total, self._exact_total = 0.0, 0

    def observe(self, value: float) -> None:
        if type(value) is float:
            self._observe_floats((value,))
        else:
            self._observe_times(value, 1)

    def _observe_floats(self, values) -> None:
        """Observe each float of ``values``, in order."""
        start = len(self._floats)
        self._floats.extend(values)
        for value in self._floats[start:]:
            self._float_total += value

    def _observe_times(self, value, times: int) -> None:
        """Observe the exact (non-float) ``value`` ``times`` times."""
        self._counts[value] = self._counts.get(value, 0) + times
        self._exact_total += value * times

    @property
    def samples(self):
        """Every sample: the floats in arrival order, then the others
        sorted (a float-only histogram returns its array)."""
        if not self._counts:
            return self._floats
        return [*self._floats, *(value for value, times in
                                 sorted(self._counts.items())
                                 for _ in range(times))]

    @property
    def total(self) -> float:
        return self._float_total + self._exact_total

    @property
    def count(self) -> int:
        return len(self._floats) + sum(self._counts.values())

    def percentile(self, q: float) -> float:
        if not self.count:
            return 0.0
        from repro.harness.metrics import percentile
        return percentile(self.samples, q)

    def snapshot(self) -> object:
        samples = self.samples
        if not samples:
            return {"count": 0}
        return {
            "count": len(samples),
            "sum": round(self.total, 9),
            "min": min(samples),
            "p50": round(self.percentile(0.5), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
            "max": max(samples),
        }


class MetricsRegistry:
    """Get-or-create registry of labelled metric families."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        #: The event log read (see the module docstring).
        self._log = None
        self._bound = _Instruments(self)
        #: Per row code, what it updates (:meth:`_plan`).
        self._plans: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        return self._instrument(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._instrument(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._instrument(self._histograms, Histogram, name, labels)

    def _instrument(self, table, make, name: str, labels):
        self._catch_up()
        key = (name, _labelset(labels))
        instrument = table.get(key)
        if instrument is None:
            instrument = table[key] = make()
        return instrument

    def _catch_up(self) -> None:
        """Fold in the log rows recorded since the last read."""
        if self._log is not None:
            self._log.fold(self)

    def fold(self, rows) -> None:
        """Fold in rows of the log (:func:`repro.obs.trace.attach`): update
        each distinct code's instruments once, then add the detection
        samples."""
        plans, gauged = self._plans, None
        for code, count, meaning in rows.tally:  # (by each code's last row)
            plan = plans.get(code)
            if plan is None:
                plan = plans[code] = self._plan(*meaning)
            counters, sized, gauge = plan
            for counter in counters:
                counter.inc(count)
            if sized is not None:
                sized[0]._observe_times(sized[1], count)
            if gauge is not None:
                gauged = gauge
        detections = rows.decisions[2]
        if detections:
            self._bound["validator_detection_ms"]._observe_floats(detections)
        if gauged is not None:  # a gauge holds the last row's value
            gauged[0].set(gauged[1])

    def _plan(self, stage, verdict, detail, attrs, facts):
        """What a row of this meaning updates: ``(counters, (histogram,
        exact sample) or None, (gauge, value) or None)``."""
        bound, attrs = self._bound, dict(attrs)
        counters, sized, gauge = [], None, None
        if stage == obs_trace.INGEST:
            counters.append(bound["validator_responses_total", "kind",
                                  attrs["kind"]])
        elif stage == obs_trace.DECIDE and facts is not None:
            # (A decide row without facts is the flight ring's alone.)
            counters.append(bound["validator_decisions_total", "outcome",
                                  "alarmed" if facts[2] else "ok"])
            if verdict == "timeout":
                counters.append(bound["validator_timeout_decisions_total"])
            sized = (bound["validator_responses_per_trigger"],
                     attrs["n_responses"])
        elif stage in _CHECKS:
            check, failed = _CHECKS[stage]
            counters.append(bound[
                "validator_checks_total", "check", check, "verdict",
                failed or verdict if verdict != obs_trace.VERDICT_OK
                else verdict])
        elif stage == obs_trace.ALARM:
            counters.append(bound["validator_alarms_total", "reason",
                                  verdict])
        elif stage == obs_trace.LATE_DROP:
            counters.append(bound["validator_late_responses_total"])
        elif stage == obs_trace.INTERCEPT:
            counters.append(bound["replicator_triggers_total", "source",
                                  attrs["source"]])
        elif stage == obs_trace.ENGINE_CHECKPOINT:
            counters.append(bound["checkpoint_snapshots_total"])
            gauge = (self.gauge("checkpoint_body_bytes"), attrs["body_bytes"])
        elif stage == obs_trace.ENGINE_RESTORE:
            counters.append(bound["checkpoint_restores_total"])
        return tuple(counters), sized, gauge

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> object:
        """The current value of a counter or gauge (0 if never touched)."""
        self._catch_up()
        key = (name, _labelset(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0

    def family_total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        self._catch_up()
        return sum(c.value for (n, _), c in self._counters.items()
                   if n == name)

    def instruments(self, kind: Optional[str] = None):
        """Yield ``(name, labelset, instrument, kind)`` deterministically.

        Sorted by (kind, name, labelset); ``kind`` filters to one of
        ``counter`` / ``gauge`` / ``histogram``. This is the exporter
        surface (:mod:`repro.obs.export`).
        """
        self._catch_up()
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
        for name, labels, instrument, kind in self.instruments():
            rendered = name
            if labels:
                # Labels are sorted at creation (_labelset), but the render
                # sorts again defensively so dumps stay stable even for
                # label sets constructed by hand.
                rendered += "{" + ",".join(
                    f"{k}={v}" for k, v in sorted(labels)) + "}"
            out[rendered] = {"type": kind, "value": instrument.snapshot()}
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)



#: Check stage -> (check label, counted verdict when not ok; None: as is).
_CHECKS = {obs_trace.CHECK_CONSENSUS: ("consensus", None),
           obs_trace.CHECK_SANITY: ("sanity", None),
           obs_trace.CHECK_STALENESS: ("staleness", "stale"),
           obs_trace.CHECK_POLICY: ("policy", "violation")}


class _Instruments(dict):
    """The fold's instrument handles by ``name`` or ``(name, label, value,
    ...)``, each asked of the registry once, on its first update."""

    #: Families bound as histograms; every other one is a counter.
    HISTOGRAMS = {"validator_detection_ms", "validator_responses_per_trigger"}
    __slots__ = ("registry",)

    def __init__(self, registry) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, key):
        name, *pairs = (key,) if isinstance(key, str) else key
        labels = dict(zip(pairs[::2], pairs[1::2]))
        make = (self.registry.histogram if name in self.HISTOGRAMS
                else self.registry.counter)
        instrument = self[key] = make(name, **labels)
        return instrument


def snapshot_rows(snapshot: Dict[str, Dict]) -> List[List[str]]:
    """``[metric, type, value]`` rows of a :meth:`MetricsRegistry.snapshot`."""
    return [[name, entry["type"], json.dumps(entry["value"], sort_keys=True)
             if isinstance(entry["value"], dict) else str(entry["value"])]
            for name, entry in snapshot.items()]


# ----------------------------------------------------------------------
# Deployment-side collection (pull, not push: zero hot-path cost)
# ----------------------------------------------------------------------

def collect_deployment(registry: MetricsRegistry, deployment) -> None:
    """Scrape deployment-level counters: replication fan-out, module relay
    volume and byte counters."""
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
