"""The four workloads: build, warm up, measure a fixed window, drain, judge.

Load model (all workloads): one process, one thread, pinned to one CPU.
Closed loop in wall time — the next response is fed when the previous
``ingest`` returns — and open loop in *simulated* time: arrivals carry a
schedule and the harness advances ``sim.run(until=t)`` before each
``ingest``, so θτ timers, pipeline flush events and the retention horizon
behave as in a deployment. Inputs are generated from the seed in chunks
outside the timed calls, with the collector paused so that the generator's
garbage is not charged to the program (nor the program's to the generator).

Windows are fixed amounts of *work* (triggers, or simulated ms), identical
on any two commits; ``--seconds`` scales them linearly and
:data:`NOMINAL_SECONDS` gives the sizes written in ``bench/README.md``.
When a window's wall time falls under 5 s on the current code, the next PR
re-sizes it before any further claim is made on it (the re-size rule).

A traced run alternates short blocks of plain and traced slices over the
same window (the windows drift, so two halves would not compare); the
ratio of the two rates is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench import kernels, measure
from bench.measure import Slice
from bench.oracle import Verdict, judge_engine, theta_race_ids
from bench.paths import OUT_DIR
from bench.streams import Arrival, ResponseStream
from bench.trace import SpanRecorder

#: ``--seconds`` at which the windows have the sizes the README states.
NOMINAL_SECONDS = 15.0

K = 6
TIMEOUT_MS = 250.0
STREAM_RATE_PER_S = 5000.0
#: Responses per timed slice: 64 triggers' worth.
SLICE_RESPONSES = 64 * (2 * K + 2)
#: Triggers generated per untimed refill between slices.
REFILL_TRIGGERS = 2000
#: A traced run alternates blocks of this many plain and traced slices.
TRACE_BLOCK_SLICES = 8

_clock = time.perf_counter


@dataclass
class RunResult:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    traced: bool
    verdict: Verdict
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StreamSpec:
    """A ``stream-*`` workload at :data:`NOMINAL_SECONDS`."""

    name: str
    engine: str           #: "seq" | "pipe" | "obs"
    corrupt_rate: float
    silent_rate: float
    warm_triggers: int
    window_triggers: int


STREAMS: Tuple[StreamSpec, ...] = (
    # The validator hot loop at the rate an operator must survive; sits on
    # the retention-prune cliff (>20 000 recently-decided entries).
    StreamSpec(
        "stream-seq", engine="seq", corrupt_rate=0.02, silent_rate=0.0,
        warm_triggers=20_000, window_triggers=4_000),
    # Slow path, alarms and deadline timers on 15% of the traffic; per-shard
    # retention stays under the cap, so hot-path gains show here.
    StreamSpec(
        "stream-pipe4-faulty", engine="pipe", corrupt_rate=0.10,
        silent_rate=0.05, warm_triggers=10_000, window_triggers=100_000),
    # The only workload where observers do work (all five, unsampled).
    StreamSpec(
        "stream-obs-full", engine="obs", corrupt_rate=0.02, silent_rate=0.0,
        warm_triggers=10_000, window_triggers=34_000),
)

#: The only workload where sim kernel, net, controllers, datastore,
#: replicator and JuryModule do the work; the validator is ~7% of it.
DEPLOY_NAME = "deploy-onos-k6"
DEPLOY_RATE_PER_S = 3000.0
DEPLOY_RAMP_MS = 300.0
DEPLOY_WINDOW_MS = 2000.0
DEPLOY_SLICE_MS = 25.0
DEPLOY_DRAIN_MS = 600.0
#: A traced run alternates blocks of this many plain and traced slices.
DEPLOY_BLOCK_SLICES = 5
#: Simulated gap after installing the span wrappers: lets events that were
#: scheduled unwrapped fire before the measured blocks start.
DEPLOY_SETTLE_MS = 50.0

#: Workload names, in the order of ``BENCHMARK.json`` (which says why each
#: was chosen).
WORKLOADS: Tuple[str, ...] = (DEPLOY_NAME,) + tuple(s.name for s in STREAMS)


def _scaled(amount: float, seconds: float, floor: int = 1) -> int:
    return max(floor, int(round(amount * seconds / NOMINAL_SECONDS)))


# ----------------------------------------------------------------------
# Stream workloads
# ----------------------------------------------------------------------

def _build_engine(spec: StreamSpec, sim, observers: bool = True):
    from repro.core.pipeline import ValidationPipeline
    from repro.core.timeouts import StaticTimeout
    from repro.core.validator import Validator

    timeout = StaticTimeout(TIMEOUT_MS)
    if spec.engine == "seq":
        return Validator(sim, K, timeout=timeout, keep_results=False)
    stack = {}
    if spec.engine == "obs" and observers:
        from repro.obs.diagnose import AlarmForensics
        from repro.obs.health import ReplicaHealthTracker
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import FlightRecorder
        from repro.obs.trace import Tracer
        stack = {"tracer": Tracer(), "metrics": MetricsRegistry(),
                 "forensics": AlarmForensics(),
                 "health": ReplicaHealthTracker(),
                 "recorder": FlightRecorder()}
    return ValidationPipeline(sim, K, shards=4, timeout=timeout,
                              keep_results=False, backend="serial", **stack)


class _StreamRun:
    """One engine fed from one seeded stream."""

    def __init__(self, spec: StreamSpec, seed: int, observers: bool = True):
        from repro.sim.simulator import Simulator

        self.spec = spec
        self.stream = ResponseStream(
            seed, k=K, rate_per_s=STREAM_RATE_PER_S,
            corrupt_rate=spec.corrupt_rate, silent_rate=spec.silent_rate)
        self.sim = Simulator(seed=0)
        self.engine = _build_engine(spec, self.sim, observers)
        self.probe = measure.SpeedProbe()

    def _generate(self, triggers: int) -> List[Arrival]:
        gc.disable()
        try:
            return self.stream.take(triggers)
        finally:
            gc.enable()

    def feed(self, triggers: int,
             on_slice: Optional[Callable[[Sequence[Arrival]], None]] = None
             ) -> None:
        """Generate and feed ``triggers`` more triggers, slice by slice."""
        feed_slice = on_slice if on_slice is not None else self._feed_plain
        remaining = triggers
        backlog: List[Arrival] = []
        while remaining > 0:
            step = min(REFILL_TRIGGERS, remaining)
            remaining -= step
            backlog.extend(self._generate(step))
            # Whole slices only, so every slice is the same amount of work;
            # the remainder waits for the next refill.
            whole = len(backlog) - len(backlog) % SLICE_RESPONSES
            for lo in range(0, whole, SLICE_RESPONSES):
                feed_slice(backlog[lo:lo + SLICE_RESPONSES])
            del backlog[:whole]
        if backlog:
            feed_slice(backlog)

    def _feed_plain(self, arrivals: Sequence[Arrival]) -> None:
        run, ingest = self.sim.run, self.engine.ingest
        for time_ms, _, response in arrivals:
            run(until=time_ms)
            ingest(response)

    def _timed_slice(self, arrivals: Sequence[Arrival]) -> Slice:
        engine, run, ingest = self.engine, self.sim.run, self.engine.ingest
        speed = self.probe.sample()
        decided = engine.triggers_decided
        start = _clock()
        for time_ms, _, response in arrivals:
            run(until=time_ms)
            ingest(response)
        wall = _clock() - start
        return wall, engine.triggers_decided - decided, speed

    def timed_window(self, triggers: int) -> List[Slice]:
        """Feed ``triggers`` triggers; one ``(wall, decided, probe)`` per
        slice."""
        slices: List[Slice] = []
        self.feed(triggers, lambda arrivals: slices.append(
            self._timed_slice(arrivals)))
        return slices

    def _traced_slice(self, arrivals: Sequence[Arrival],
                      recorder: SpanRecorder) -> Tuple[Slice, int]:
        """One slice with a span around every call into the engine.

        ``sim.run`` spans are the timers and flush events that fire between
        arrivals; ``validator.ingest`` spans that decided a trigger are
        recorded as ``validator.decide`` instead. Inside the timed loop
        there are only clock reads and list appends; the spans are filed
        after the slice's wall time has been taken. Also returns how many
        triggers were decided inside ``sim.run`` (by their deadline).
        """
        engine, run, ingest = self.engine, self.sim.run, self.engine.ingest
        stamps: List[float] = []
        counts: List[int] = []
        stamp, count = stamps.append, counts.append
        speed = self.probe.sample()
        first = engine.triggers_decided
        start = _clock()
        for time_ms, _, response in arrivals:
            stamp(_clock())
            run(until=time_ms)
            stamp(_clock())
            count(engine.triggers_decided)
            ingest(response)
            stamp(_clock())
            count(engine.triggers_decided)
        wall = _clock() - start
        decided = engine.triggers_decided - first

        add = recorder.add
        run_id = recorder.name_id("sim.run")
        ingest_id = recorder.name_id("validator.ingest")
        decide_id = recorder.name_id("validator.decide")
        by_timer, before = 0, first
        for index, (_, _, response) in enumerate(arrivals):
            a, b, c = stamps[3 * index:3 * index + 3]
            mid, after = counts[2 * index:2 * index + 2]
            add(run_id, a, b)
            add(decide_id if after > mid else ingest_id, b, c,
                response.trigger_id[1])
            by_timer += mid - before
            before = after
        return (wall, decided, speed), by_timer

    def interleaved_window(self, triggers: int, recorder: SpanRecorder
                           ) -> Tuple[List[Slice], List[Slice], int]:
        """Alternate blocks of plain and traced slices over one window.

        Interleaving, not halves: these windows drift (heaps grow, the
        retention dict fills), so two halves would differ by more than the
        tracing costs. Returns the plain slices, the traced slices and the
        decisions taken by deadline inside traced slices.
        """
        plain: List[Slice] = []
        traced: List[Slice] = []
        by_timer = 0
        seen = 0

        def feed_slice(arrivals: Sequence[Arrival]) -> None:
            nonlocal by_timer, seen
            recorder.on = (seen // TRACE_BLOCK_SLICES) % 2 == 1
            seen += 1
            if recorder.on:
                slice_, timers = self._traced_slice(arrivals, recorder)
                traced.append(slice_)
                by_timer += timers
            else:
                plain.append(self._timed_slice(arrivals))

        try:
            self.feed(triggers, feed_slice)
        finally:
            recorder.on = False
        return plain, traced, by_timer

    def drain(self) -> None:
        """Feed the stream's tail and let every θτ deadline fire."""
        self._feed_plain(self.stream.flush())
        self.sim.run(until=self.sim.now + TIMEOUT_MS + 50.0)

    def verdict(self) -> Verdict:
        expected = {("ext", index) for index in self.stream.corrupted}
        return judge_engine(self.engine, self.stream.triggers_started,
                            expected)


def run_stream(spec: StreamSpec, seed: int, seconds: float, traced: bool,
               started_at: float) -> RunResult:
    warm = min(spec.warm_triggers,
               _scaled(spec.warm_triggers, seconds, floor=200))
    window = _scaled(spec.window_triggers, seconds, floor=640)
    run = _StreamRun(spec, seed)
    run.feed(warm)
    gc.collect()
    setup_s = _clock() - started_at
    notes: Dict[str, object] = {"warm_triggers": warm,
                                "window_triggers": window}

    if not traced:
        slices = run.timed_window(window)
        summary = measure.window_summary(slices)
        run.drain()
        verdict = run.verdict()
        metrics = _end_to_end(setup_s, summary)
        notes.update(_window_notes(summary))
        return RunResult(spec.name, seed, False, verdict, metrics, notes)

    calib_ms = measure.host_calibration_ms()
    gc.collect()
    recorder = SpanRecorder()
    probes = _StreamProbes(run, recorder)
    probes.install()
    try:
        plain_slices, traced_slices, by_timer = run.interleaved_window(
            window, recorder)
    finally:
        probes.remove()
    plain = measure.window_summary(plain_slices)
    summary = measure.window_summary(traced_slices)
    metrics = _ledger_common(summary, plain, calib_ms)
    metrics.update(_stream_ledger(run, recorder, summary, by_timer, probes))
    if spec.engine == "obs":
        metrics.update(_observer_ledger(spec, seed, warm, window, plain,
                                        probes))
    run.drain()
    verdict = run.verdict()
    metrics["failed_share"] = verdict.failed_share
    sets = kernels.recorded_response_sets(seed, spec.corrupt_rate,
                                          spec.silent_rate)
    if spec.engine == "pipe":
        metrics.update(kernels.consensus_kernels(
            sets, K, run.engine._merged_network))
        metrics.update(kernels.frame_kernels(sets, K, TIMEOUT_MS))
    if spec.engine == "seq":
        os.makedirs(OUT_DIR, exist_ok=True)
        wal_path = os.path.join(OUT_DIR, f"wal-{spec.name}.bin")
        try:
            metrics.update(kernels.recovery_kernels(run.engine, sets,
                                                    wal_path))
        finally:
            if os.path.exists(wal_path):
                os.remove(wal_path)
    notes.update(_window_notes(summary))
    notes["trace_file"] = _write_trace(recorder, spec.name, summary)
    return RunResult(spec.name, seed, True, verdict, metrics, notes)


class _StreamProbes:
    """Timed wrappers on the few callables a stream loop cannot see into.

    Installed for the whole interleaved window; they record only while the
    recorder is on and pass straight through in the plain blocks. Engine
    counters (pipeline stats, late drops, observer spans, RSS) are taken
    over the whole window: they count behaviour, which tracing leaves alone.
    """

    def __init__(self, run: _StreamRun, recorder: SpanRecorder):
        self.run = run
        self.recorder = recorder
        self._restore: List[Callable[[], None]] = []
        self.stats_before = self._pipeline_stats()
        self.rss_before = measure.current_rss_mb()
        self.spans_before = self.observer_spans()
        self.late_before = run.engine.late_responses

    def _pipeline_stats(self) -> Optional[Dict[str, object]]:
        stats = getattr(self.run.engine, "stats", None)
        return stats.snapshot() if stats is not None else None

    def observer_spans(self) -> int:
        tracer = getattr(self.run.engine, "tracer", None)
        return len(tracer) if tracer is not None else 0

    def install(self) -> None:
        recorder = self.recorder
        engine = self.run.engine
        if self.run.spec.engine != "seq":
            from repro.core import pipeline as pipeline_module
            original = pipeline_module.shard_of
            pipeline_module.shard_of = recorder.wrap("pipeline.route",
                                                     original)
            self._restore.append(
                lambda: setattr(pipeline_module, "shard_of", original))
        for attr, methods, name in (
                ("tracer", ("emit",), "obs.tracer_emit"),
                ("metrics", ("counter", "histogram"), "obs.metrics_lookup"),
                ("health", ("record_response", "record_decision"),
                 "obs.health_record"),
                ("forensics", ("observe_decision",), "obs.forensics")):
            observer = getattr(engine, attr, None)
            if observer is None:
                continue
            # Shards hold the same observer objects, so one instance-level
            # patch covers the pipeline and all of its shards.
            for method in methods:
                setattr(observer, method,
                        recorder.wrap(name, getattr(observer, method)))
                self._restore.append(
                    lambda observer=observer, method=method:
                    delattr(observer, method))

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()


def _stream_ledger(run: _StreamRun, recorder: SpanRecorder,
                   summary: Dict[str, float], by_timer: int,
                   probes: _StreamProbes) -> Dict[str, float]:
    window_s = summary["window_wall_s"]
    ingest = recorder.durations_us("validator.ingest")
    decide = recorder.durations_us("validator.decide")
    run_share = 100.0 * recorder.total_s("sim.run") / window_s
    engine = run.engine
    if run.spec.engine == "seq":
        return {
            "validator.ingest_us_p50": measure.percentile(ingest, 0.5),
            "validator.ingest_us_p99": measure.percentile(ingest, 0.99),
            "validator.decide_us_p50": measure.percentile(decide, 0.5),
            "validator.decide_us_p99": measure.percentile(decide, 0.99),
            "sim.run_share": run_share,
            "validator.timeouts": float(by_timer),
            "validator.late_drops": float(engine.late_responses
                                          - probes.late_before),
        }
    # Pipeline: ingest only routes and enqueues; decisions happen in the
    # flush events sim.run fires, so no ingest span ever "decides".
    before = probes.stats_before["aggregate"]
    after_snapshot = engine.stats.snapshot()
    after = after_snapshot["aggregate"]

    def delta(key: str) -> float:
        return float(after[key] - before[key])

    decided = [shard["decided"] - old["decided"] for shard, old in
               zip(after_snapshot["per_shard"],
                   probes.stats_before["per_shard"])]
    mean_decided = sum(decided) / len(decided)
    batches = delta("batches")
    return {
        "pipeline.ingest_us_p50": measure.percentile(ingest + decide, 0.5),
        "pipeline.flush_share": run_share,
        "pipeline.route_us": recorder.mean_us("pipeline.route"),
        "pipeline.batches": batches,
        "pipeline.batch_mean": (delta("batched_responses") / batches
                                if batches else 0.0),
        "pipeline.overflow": delta("overflow_enqueued"),
        "pipeline.timer_wakeups": delta("timer_wakeups"),
        "pipeline.shard_skew": ((max(decided) - min(decided)) / mean_decided
                                if mean_decided else 0.0),
    }


def _observer_ledger(spec: StreamSpec, seed: int, warm: int, window: int,
                     with_observers: Dict[str, float],
                     probes: _StreamProbes) -> Dict[str, float]:
    """Observer costs, and the overhead against the same input without them."""
    recorder = probes.recorder
    run = probes.run
    decided = max(1.0, float(run.engine.triggers_decided)
                  - float(probes.stats_before["aggregate"]["decided"]))
    spans = probes.observer_spans() - probes.spans_before
    rss_growth = measure.current_rss_mb() - probes.rss_before

    bare = _StreamRun(spec, seed, observers=False)
    bare.feed(warm)
    gc.collect()
    without = measure.window_summary(bare.timed_window(window))
    overhead = 100.0 * (without["triggers_per_s"]
                        / with_observers["triggers_per_s"] - 1.0)
    return {
        "obs.overhead_pct": overhead,
        "obs.spans_per_trigger": spans / decided,
        "obs.tracer_emit_us": recorder.mean_us("obs.tracer_emit"),
        "obs.metrics_inc_us": recorder.mean_us("obs.metrics_lookup"),
        "obs.health_record_us": recorder.mean_us("obs.health_record"),
        "obs.forensics_us": recorder.mean_us("obs.forensics"),
        "obs.rss_mb_per_ktrigger": rss_growth * 1000.0 / decided,
    }


# ----------------------------------------------------------------------
# Deployment workload
# ----------------------------------------------------------------------

class _DeployRun:
    """One ``Jury.experiment`` with traffic, run in fixed simulated slices."""

    def __init__(self, seed: int, window_ms: float, k: Optional[int] = K):
        from repro.api import Jury
        from repro.config import JuryConfig
        from repro.workloads.traffic import TrafficDriver

        self.experiment = Jury.experiment(JuryConfig(
            kind="onos", n=7, k=k, switches=24, topology="linear",
            timeout_ms=TIMEOUT_MS, keep_results=False, seed=seed))
        self.experiment.warmup()
        self.driver = TrafficDriver(
            self.experiment.sim, self.experiment.topology,
            packet_in_rate_per_s=DEPLOY_RATE_PER_S,
            duration_ms=DEPLOY_RAMP_MS + window_ms + DEPLOY_SETTLE_MS)
        self.driver.start()
        self.experiment.run(DEPLOY_RAMP_MS)
        self.probe = measure.SpeedProbe()

    @property
    def validator(self):
        return self.experiment.jury.validator

    def window(self, slices: int) -> List[Slice]:
        """Advance ``slices`` × 25 simulated ms; ``(wall, decided)`` each."""
        advance = self.experiment.run
        validator = self.experiment.jury.validator if self.experiment.jury \
            else None
        out: List[Slice] = []
        for _ in range(slices):
            speed = self.probe.sample()
            decided = validator.triggers_decided if validator else 0
            start = _clock()
            advance(DEPLOY_SLICE_MS)
            wall = _clock() - start
            out.append((wall, (validator.triggers_decided - decided)
                        if validator else 0, speed))
        return out

    def drain(self) -> None:
        """Run on until every trigger offered has had θτ to decide.

        Topology discovery opens ~2 triggers per link every LLDP period,
        for ever, so "nothing pending" only holds in the gap after one
        round has timed out and before the next: the drain ends 100 ms
        short of a round.
        """
        controller = next(iter(self.experiment.cluster.controllers.values()))
        period = controller.profile.lldp_period_ms
        drain_ms = (period - 100.0 - self.experiment.sim.now) % period
        while drain_ms < DEPLOY_DRAIN_MS:
            drain_ms += period
        self.experiment.run(drain_ms)

    def verdict(self) -> Verdict:
        validator = self.validator
        return judge_engine(
            validator, validator.triggers_decided + validator.pending_count,
            theta_race_ids(validator.alarms, 2 * K + 2,
                           validator.late_responses))


def run_deploy(seed: int, seconds: float, traced: bool,
               started_at: float) -> RunResult:
    slices_total = _scaled(DEPLOY_WINDOW_MS / DEPLOY_SLICE_MS, seconds,
                           floor=10)
    window_ms = slices_total * DEPLOY_SLICE_MS
    run = _DeployRun(seed, window_ms)
    gc.collect()
    setup_s = _clock() - started_at
    notes: Dict[str, object] = {"window_sim_ms": window_ms}

    if not traced:
        summary = measure.window_summary(run.window(slices_total))
        run.drain()
        verdict = run.verdict()
        metrics = _end_to_end(setup_s, summary)
        notes.update(_window_notes(summary))
        notes.update(_deploy_notes(run))
        return RunResult(DEPLOY_NAME, seed, False, verdict, metrics, notes)

    from bench.layers import LayerTracer

    calib_ms = measure.host_calibration_ms()
    gc.collect()
    experiment = run.experiment
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder, experiment)
    detect_ms: List[float] = []
    timeout_policy = run.validator.timeout
    timeout_policy.observe = detect_ms.append
    plain_slices: List[Slice] = []
    traced_slices: List[Slice] = []
    counted = dict.fromkeys(_deploy_counters(run), 0.0)
    tracer.install()
    try:
        experiment.run(DEPLOY_SETTLE_MS)
        del detect_ms[:]
        experiment.begin_window()
        # Alternate blocks of plain and traced slices: traffic is bursty
        # (an LLDP round every second), so two halves would not compare.
        for block, lo in enumerate(range(0, slices_total,
                                         DEPLOY_BLOCK_SLICES)):
            count = min(DEPLOY_BLOCK_SLICES, slices_total - lo)
            if block % 2 == 0:
                plain_slices.extend(run.window(count))
                continue
            before = _deploy_counters(run)
            recorder.on = True
            traced_slices.extend(run.window(count))
            recorder.on = False
            for key, value in _deploy_counters(run).items():
                counted[key] += value - before[key]
        flow_mod_rate = experiment.throughput().flow_mod_rate_per_s
    finally:
        recorder.on = False
        tracer.remove()
        del timeout_policy.observe
    plain = measure.window_summary(plain_slices)
    summary = measure.window_summary(traced_slices)
    metrics = _ledger_common(summary, plain, calib_ms)
    metrics.update(_deploy_ledger(recorder, summary, counted, detect_ms))
    run.drain()
    verdict = run.verdict()
    metrics["failed_share"] = verdict.failed_share

    # The same traffic without JURY: the paper's Fig 4h FLOW_MOD drop over
    # the same simulated window, and its wall-clock twin per simulated ms.
    vanilla = _DeployRun(seed, window_ms, k=None)
    gc.collect()
    vanilla.experiment.run(DEPLOY_SETTLE_MS)
    vanilla.experiment.begin_window()
    vanilla_slices = vanilla.window(slices_total)
    vanilla_rate = vanilla.experiment.throughput().flow_mod_rate_per_s
    metrics["deploy.flow_mod_drop_pct"] = (
        100.0 * (1.0 - flow_mod_rate / vanilla_rate) if vanilla_rate else 0.0)
    metrics["deploy.jury_wall_ratio"] = (
        (measure.scaled_wall_s(plain_slices) / len(plain_slices))
        / (measure.scaled_wall_s(vanilla_slices) / len(vanilla_slices)))
    metrics.update(kernels.openflow_kernels())

    notes.update(_window_notes(summary))
    notes.update(_deploy_notes(run))
    notes["trace_file"] = _write_trace(recorder, DEPLOY_NAME, summary)
    return RunResult(DEPLOY_NAME, seed, True, verdict, metrics, notes)


def _deploy_notes(run: _DeployRun) -> Dict[str, object]:
    validator = run.validator
    return {"decided_total": validator.triggers_decided,
            "alarms_raised": len(validator.alarms),
            "late_responses": validator.late_responses}


def _deploy_counters(run: _DeployRun) -> Dict[str, float]:
    jury = run.experiment.jury
    return {
        "events": float(run.experiment.sim.events_fired),
        "copies": float(sum(r.triggers_replicated
                            for r in jury.replicators.values())),
        "shadow": float(jury.total_shadow_triggers()),
    }


def _deploy_ledger(recorder: SpanRecorder, summary: Dict[str, float],
                   counted: Dict[str, float],
                   detect_ms: List[float]) -> Dict[str, float]:
    from bench.layers import LAYERS

    shares = recorder.shares(summary["window_wall_s"])
    decided = max(1.0, summary["window_decided"])
    events = counted["events"]
    ingests = float(recorder.calls("validator.ingest"))
    # Decisions that completed before θτ: the paper's consensus time. The
    # rest (triggers that externalise nothing) sit at exactly the timeout.
    consensus_ms = [ms for ms in detect_ms if ms < TIMEOUT_MS]
    metrics = {f"{layer}.self_share": shares.get(layer, 0.0)
               for layer in LAYERS}
    metrics.update({
        "unattributed_share": shares["unattributed"],
        "sim.events": events,
        "sim.events_per_trigger": events / decided,
        "datastore.puts": float(recorder.calls("datastore.put")),
        "datastore.canonical_calls": float(
            recorder.calls("datastore.canonical")),
        "datastore.canonical_us": recorder.mean_us("datastore.canonical"),
        "replicator.copies": counted["copies"],
        "module.shadow_runs": counted["shadow"],
        "validator.ingests": ingests,
        "validator.responses_per_trigger": ingests / decided,
        "validator.detect_sim_ms_p50": measure.percentile(consensus_ms, 0.5),
        "validator.detect_sim_ms_p95": measure.percentile(consensus_ms, 0.95),
    })
    return metrics


# ----------------------------------------------------------------------
# Shared assembly
# ----------------------------------------------------------------------

def _end_to_end(setup_s: float, summary: Dict[str, float]
                ) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "triggers_per_s": summary["triggers_per_s"],
        "trigger_ms_p50": summary["trigger_ms_p50"],
        "peak_rss_mb": measure.peak_rss_mb(),
    }


def _ledger_common(traced: Dict[str, float], untraced: Dict[str, float],
                   calib_ms: float) -> Dict[str, float]:
    return {
        "slice_ms_p90": untraced["slice_ms_p90"],
        "slice_ms_p99": untraced["slice_ms_p99"],
        "slice_ms_max": untraced["slice_ms_max"],
        "segment_spread_pct": untraced["segment_spread_pct"],
        "trace.overhead_pct": 100.0 * (
            untraced["triggers_per_s"] / traced["triggers_per_s"] - 1.0)
        if traced["triggers_per_s"] else 0.0,
        "host.calib_ms": calib_ms,
    }


def _window_notes(summary: Dict[str, float]) -> Dict[str, object]:
    return {"window_wall_s": round(summary["window_wall_s"], 3),
            "window_decided": int(summary["window_decided"]),
            "slice_samples": int(summary["slice_samples"]),
            "raw_triggers_per_s": round(summary["raw_triggers_per_s"], 3),
            "probe_ms_p50": round(summary["probe_ms_p50"], 4)}


def _write_trace(recorder: SpanRecorder, workload: str,
                 summary: Dict[str, float]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    recorder.write(path, workload, summary["window_wall_s"])
    return os.path.relpath(path)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 started_at: float) -> RunResult:
    """Run one workload in this process (already pinned by the caller)."""
    if name == DEPLOY_NAME:
        return run_deploy(seed, seconds, traced, started_at)
    for spec in STREAMS:
        if spec.name == name:
            return run_stream(spec, seed, seconds, traced, started_at)
    raise ValueError(f"unknown workload {name!r}")
