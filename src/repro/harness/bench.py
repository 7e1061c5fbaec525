"""Validator benchmark harness: sequential vs. sharded pipeline.

Generates a seeded synthetic response workload (full ``2k+2`` external
response sets with evolving state digests and a configurable rate of
consensus faults), drives it through the sequential
:class:`~repro.core.validator.Validator` and the sharded
:class:`~repro.core.pipeline.ValidationPipeline`, and emits the comparison
as the ``BENCH_validator_pipeline.json`` payload — the first point of the
repo's perf trajectory (see ``docs/pipeline.md`` for how to read it).
:func:`compare_backends` sweeps the pipeline's execution backends
(serial/threads/processes; see ``docs/backends.md``) over one workload and
emits ``BENCH_backends.json``.

Wall-clock reads are confined to this module and the CLI/benchmark entry
points that call it; simulation code stays deterministic (analyzer rule
D101).
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Callable, Dict, List, Tuple

from repro.core.alarms import canonical_alarm_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.harness.metrics import percentile
from repro.sim.simulator import Simulator

#: Distinct flows to cycle through — entries repeat, as production flow
#: tables do, which is what makes the pipeline's memo caches honest.
_FLOW_VARIANTS = 50
#: Triggers per digest step: replica views advance slowly relative to the
#: trigger rate, so digests repeat across consecutive triggers.
_DIGEST_STRIDE = 10


def _entries(flow: int) -> Tuple[Tuple, Tuple]:
    cache = (("cache", "FlowsDB", ("flow", 1, ("ip", flow), 100), "create",
              (("actions", (("output", 2),)), ("command", "add"), ("dpid", 1),
               ("match", ("ip", flow)), ("priority", 100),
               ("state", "pending_add"))),)
    net = (("flow_mod", 1, "add", ("ip", flow), (("output", 2),), 100),)
    return cache, net


def synthetic_validation_workload(
        triggers: int, k: int = 6, seed: int = 0,
        fault_rate: float = 0.02) -> List[List[Response]]:
    """``triggers`` full external response sets, in arrival order.

    Each trigger contributes ``2k + 2`` responses: the primary's network
    write and cache update, plus a cache relay and a shadow replica result
    from each of ``k`` secondaries. With probability ``fault_rate`` one
    secondary's cache relay is corrupted — a T1-style incorrect replicated
    state that must alarm (and forces the consensus slow path).
    """
    rng = random.Random(seed)
    workload: List[List[Response]] = []
    for index in range(triggers):
        tau = ("ext", index)
        cache, net = _entries(rng.randrange(_FLOW_VARIANTS))
        combined = (cache, tuple(sorted(set(net), key=repr)))
        digest = (("c1", index // _DIGEST_STRIDE),)
        faulty = rng.random() < fault_rate
        responses = [
            Response("c1", tau, ResponseKind.NETWORK_WRITE, net,
                     state_digest=digest),
            Response("c1", tau, ResponseKind.CACHE_UPDATE, cache,
                     state_digest=digest, origin="c1"),
        ]
        for s in range(k):
            sid = f"s{s}"
            relayed = cache
            if faulty and s == 0:
                corrupted_cache, _ = _entries(_FLOW_VARIANTS + index)
                relayed = corrupted_cache
            responses.append(Response(sid, tau, ResponseKind.CACHE_UPDATE,
                                      relayed, state_digest=digest,
                                      origin="c1"))
            responses.append(Response(sid, tau, ResponseKind.REPLICA_RESULT,
                                      combined, tainted=True,
                                      state_digest=digest,
                                      primary_hint="c1"))
        workload.append(responses)
    return workload


def _timed_run(make_validator: Callable[[Simulator], object],
               workload: List[List[Response]],
               chunk: int = 64,
               drain: bool = False) -> Tuple[object, float, List[float]]:
    """Ingest the workload; returns (validator, wall_s, per-trigger ms)."""
    sim = Simulator(seed=0)
    validator = make_validator(sim)
    samples: List[float] = []
    start = time.perf_counter()  # jury: ignore[D101]
    for base in range(0, len(workload), chunk):
        group = workload[base:base + chunk]
        t0 = time.perf_counter()  # jury: ignore[D101]
        for responses in group:
            ingest = validator.ingest
            for response in responses:
                ingest(response)
        if drain:
            validator.drain()
        elapsed = time.perf_counter() - t0  # jury: ignore[D101]
        samples.append(elapsed * 1000.0 / len(group))
    wall = time.perf_counter() - start  # jury: ignore[D101]
    return validator, wall, samples


def _summary(wall_s: float, samples: List[float],
             triggers: int) -> Dict[str, float]:
    return {
        "ops_per_s": triggers / wall_s if wall_s > 0 else 0.0,
        "p50_ms": percentile(samples, 0.5),
        "p99_ms": percentile(samples, 0.99),
        "wall_s": wall_s,
    }


def compare(triggers: int = 20_000, k: int = 6, seed: int = 0,
            fault_rate: float = 0.02, shards: int = 4,
            queue_capacity: int = 1024, batch_max: int = 512,
            chunk: int = 64) -> Dict[str, object]:
    """Run the sequential-vs-pipeline comparison; returns the JSON payload.

    Both validators consume the *same* workload objects, so the canonical
    alarm streams are directly comparable — their equality is part of the
    payload (a benchmark that trades correctness for speed must fail loud).
    """
    workload = synthetic_validation_workload(triggers, k=k, seed=seed,
                                             fault_rate=fault_rate)
    timeout_ms = 10_000.0

    sequential, seq_wall, seq_samples = _timed_run(
        lambda sim: Validator(sim, k, timeout=StaticTimeout(timeout_ms),
                              keep_results=False),
        workload, chunk=chunk)
    pipe, pipe_wall, pipe_samples = _timed_run(
        lambda sim: ValidationPipeline(
            sim, k, shards=shards, timeout=StaticTimeout(timeout_ms),
            keep_results=False, queue_capacity=queue_capacity,
            batch_max=batch_max),
        workload, chunk=chunk, drain=True)

    seq_summary = _summary(seq_wall, seq_samples, triggers)
    pipe_summary = _summary(pipe_wall, pipe_samples, triggers)
    speedup = (pipe_summary["ops_per_s"] / seq_summary["ops_per_s"]
               if seq_summary["ops_per_s"] else 0.0)
    return {
        "benchmark": "validator_pipeline",
        "workload": {
            "triggers": triggers,
            "k": k,
            "seed": seed,
            "fault_rate": fault_rate,
            "responses_per_trigger": 2 * k + 2,
        },
        "sequential": {
            **seq_summary,
            "decided": sequential.triggers_decided,
            "alarmed": sequential.triggers_alarmed,
        },
        "pipeline": {
            "shards": shards,
            "queue_capacity": queue_capacity,
            "batch_max": batch_max,
            **pipe_summary,
            "decided": pipe.triggers_decided,
            "alarmed": pipe.triggers_alarmed,
            "stats": pipe.stats.snapshot(),
        },
        "speedup": speedup,
        "alarm_streams_identical": (
            canonical_alarm_stream(sequential.alarms)
            == canonical_alarm_stream(pipe.alarms)),
    }


def compare_observability(triggers: int = 20_000, k: int = 6, seed: int = 0,
                          fault_rate: float = 0.02, shards: int = 4,
                          reps: int = 3, chunk: int = 64,
                          obs_sample: int = 64) -> Dict[str, object]:
    """Measure the observability layer's cost on the sharded pipeline.

    Three variants consume the same workload: the no-op path twice
    (``off`` / ``off2`` — identical code, so their paired delta is the
    noise floor that bounds the tracing-off overhead) and the fully
    instrumented path (``on`` — tracer plus metrics registry). Variants are
    interleaved across ``reps`` repetitions and the best wall time per
    variant is kept, which cancels cache/frequency drift that sequential
    runs would fold into the comparison.

    The payload also carries the equivalence evidence: canonical alarm
    streams must be identical with observability on and off, and the
    trace's span ledger must conserve (ingest spans == responses fed).

    Overhead percentages compare the best-of-reps *median per-chunk* time
    rather than whole-run wall clock: the median discards scheduler
    hiccups that a single wall number folds in, which is what keeps the
    ``off_delta_pct`` gate usable on shared CI runners. The one exception
    is ``sampled_overhead_pct``, which is the *median of paired per-rep
    best-chunk ratios*: the sampled delta is µs-scale, and unpaired
    noise on either side of a global ratio would swing it by several
    points per run.

    A fourth interleaved variant, ``sampled``, runs the *full* stack
    (tracer + metrics + forensics + health) head-sampled at
    1-in-``obs_sample`` with the always-on flight recorder attached. This
    is the production-shaped configuration the ≤25% overhead gate watches
    (``sampled_overhead_pct``); its alarm stream must still match the
    uninstrumented run byte-for-byte (``alarm_streams_identical_sampled``)
    because sampling gates only telemetry, never checks.

    The unsampled ``full`` variant (tracer + metrics + alarm forensics +
    replica health) runs twice after the timed reps, best kept. Its
    overhead number is regression-gated against the committed payload
    (``bench obs --baseline``) rather than an absolute bound, and its
    alarm stream must still match the uninstrumented run byte-for-byte
    (``alarm_streams_identical_full``).
    """
    from repro.obs.diagnose import AlarmForensics
    from repro.obs.health import ReplicaHealthTracker
    from repro.obs.metrics import MetricsRegistry, collect_pipeline
    from repro.obs.recorder import FlightRecorder
    from repro.obs.sampling import HeadSampler
    from repro.obs.trace import INGEST, Tracer

    workload = synthetic_validation_workload(triggers, k=k, seed=seed,
                                             fault_rate=fault_rate)
    timeout_ms = 10_000.0

    def run(**observers):
        return _timed_run(
            lambda sim: ValidationPipeline(
                sim, k, shards=shards, timeout=StaticTimeout(timeout_ms),
                keep_results=False, **observers),
            workload, chunk=chunk, drain=True)

    def full_stack_kwargs():
        return {"tracer": Tracer(), "metrics": MetricsRegistry(),
                "forensics": AlarmForensics(),
                "health": ReplicaHealthTracker()}

    best_wall: Dict[str, float] = {}
    best_p50: Dict[str, float] = {}
    rep_min: Dict[str, List[float]] = {}
    finals: Dict[str, object] = {}
    variants = ("off", "off2", "on", "sampled")
    for rep in range(max(1, reps)):
        # Rotate the variant order each rep and collect garbage before each
        # timed region: otherwise the span-heavy "on" run leaves allocator
        # pressure that lands on whichever variant runs next, biasing the
        # off-vs-off2 paired delta the gate watches.
        shift = rep % len(variants)
        order = variants[shift:] + variants[:shift]
        for variant in order:
            gc.collect()
            if variant == "on":
                engine, wall, samples = run(tracer=Tracer(),
                                            metrics=MetricsRegistry())
            elif variant == "sampled":
                engine, wall, samples = run(
                    sampler=HeadSampler(obs_sample),
                    recorder=FlightRecorder(), **full_stack_kwargs())
            else:
                engine, wall, samples = run()
            p50 = percentile(samples, 0.5)
            if p50 < best_p50.get(variant, float("inf")):
                best_p50[variant] = p50
                finals[variant] = engine
            rep_min.setdefault(variant, []).append(min(samples))
            if variant not in best_wall or wall < best_wall[variant]:
                best_wall[variant] = wall
    best = best_wall
    best_min = {v: min(mins) for v, mins in rep_min.items()}

    # Paired per-rep ratios for the sampled gate: within one rep the four
    # variants run back-to-back, so a transient slowdown (another process,
    # frequency scaling) lands on both sides of the ratio; the median
    # across reps then discards the reps it didn't. Comparing global
    # minima instead lets one noisy window inflate the sampled side while
    # the off side keeps a fast chunk from a quiet window.
    sampled_ratios = sorted(
        rep_min["sampled"][r] / min(rep_min["off"][r], rep_min["off2"][r])
        for r in range(len(rep_min["sampled"])))
    sampled_overhead = (percentile(sampled_ratios, 0.5) - 1.0) * 100.0

    # Unsampled full stack: two runs, best kept — single-run numbers are
    # too noisy for the --baseline regression gate to trust.
    full_engine, full_wall, full_p50 = None, float("inf"), float("inf")
    for _ in range(2):
        gc.collect()
        engine, wall, samples = run(**full_stack_kwargs())
        p50 = percentile(samples, 0.5)
        if p50 < full_p50:
            full_engine, full_wall, full_p50 = engine, wall, p50

    def pct(slow: float, fast: float) -> float:
        return (slow - fast) / fast * 100.0 if fast > 0 else 0.0

    on_engine = finals["on"]
    tracer = on_engine.tracer
    registry = on_engine.metrics
    collect_pipeline(registry, on_engine)
    stage_counts = tracer.stage_counts()
    responses_fed = triggers * (2 * k + 2)
    return {
        "benchmark": "observability_overhead",
        "workload": {
            "triggers": triggers,
            "k": k,
            "seed": seed,
            "fault_rate": fault_rate,
            "shards": shards,
            "reps": reps,
            "obs_sample": obs_sample,
        },
        "off": {"wall_s": best["off"], "p50_chunk_ms": best_p50["off"],
                "min_chunk_ms": best_min["off"],
                "ops_per_s": triggers / best["off"]},
        "off2": {"wall_s": best["off2"], "p50_chunk_ms": best_p50["off2"],
                 "min_chunk_ms": best_min["off2"],
                 "ops_per_s": triggers / best["off2"]},
        "on": {"wall_s": best["on"], "p50_chunk_ms": best_p50["on"],
               "ops_per_s": triggers / best["on"],
               "spans": len(tracer),
               "metrics_series": len(registry.snapshot())},
        "sampled": {
            "wall_s": best["sampled"],
            "p50_chunk_ms": best_p50["sampled"],
            "min_chunk_ms": best_min["sampled"],
            "ops_per_s": triggers / best["sampled"],
            "obs_sample": obs_sample,
            "spans": len(finals["sampled"].tracer),
            "flight_events": len(finals["sampled"].observer.recorder),
            "flight_dumps": len(finals["sampled"].observer.recorder.dumps),
        },
        "full": {"wall_s": full_wall, "p50_chunk_ms": full_p50,
                 "ops_per_s": triggers / full_wall if full_wall > 0 else 0.0,
                 "explained_alarms": full_engine.forensics.alarm_count,
                 "health_response_events":
                     full_engine.health.response_events},
        # Best-of-2, still noisier than the interleaved numbers: gated
        # only relatively, against the committed payload (--baseline).
        "full_overhead_pct": pct(full_p50,
                                 min(best_p50["off"], best_p50["off2"])),
        # The production-shaped gate: full stack head-sampled 1-in-N plus
        # the always-on flight recorder must stay within the CI bound.
        # Unlike the order-of-magnitude overheads above, this delta is a
        # handful of µs per trigger, so it uses the median of paired
        # per-rep best-chunk ratios (see sampled_ratios above) instead of
        # a ratio of global medians, which swings by several points per
        # run on a shared machine.
        "sampled_overhead_pct": sampled_overhead,
        # |off - off2| / min on median chunk time: the noise floor bounding
        # the no-op path cost (two identical binaries should tie).
        "off_delta_pct": abs(pct(max(best_p50["off"], best_p50["off2"]),
                                 min(best_p50["off"], best_p50["off2"]))),
        "trace_overhead_pct": pct(best_p50["on"],
                                  min(best_p50["off"], best_p50["off2"])),
        "alarm_streams_identical": (
            canonical_alarm_stream(finals["off"].alarms)
            == canonical_alarm_stream(on_engine.alarms)),
        "alarm_streams_identical_full": (
            canonical_alarm_stream(finals["off"].alarms)
            == canonical_alarm_stream(full_engine.alarms)),
        "alarm_streams_identical_sampled": (
            canonical_alarm_stream(finals["off"].alarms)
            == canonical_alarm_stream(finals["sampled"].alarms)),
        "span_conservation": {
            "responses_fed": responses_fed,
            "ingest_spans": stage_counts.get(INGEST, 0),
            "holds": stage_counts.get(INGEST, 0) == responses_fed,
        },
        "stage_counts": stage_counts,
    }


def compare_backends(triggers: int = 20_000, k: int = 6, seed: int = 0,
                     fault_rate: float = 0.02, shards: int = 4,
                     backends: Tuple[str, ...] = ("serial", "threads",
                                                  "processes"),
                     chunk: int = 2048) -> Dict[str, object]:
    """Sweep execution backends over one workload; returns the payload.

    Every backend consumes the *same* workload objects through the same
    sharded pipeline shape, so throughput numbers are directly comparable
    and the canonical alarm streams must match byte-for-byte
    (``alarm_streams_identical`` — a backend that trades determinism for
    speed must fail loud). Speedups are relative to the ``serial``
    backend; ``cpu_count`` is recorded because the ``processes`` backend
    can only win with >1 CPU, and gates reading this payload must
    condition on it (same contract as :func:`compare_analysis`).

    The chunk is deliberately large: frame backends amortize their
    serialization cost over per-shard batches, so tiny flush groups
    measure pickling overhead instead of pipeline throughput.
    """
    import os

    from repro.core.alarms import canonical_alarm_stream as canonical

    workload = synthetic_validation_workload(triggers, k=k, seed=seed,
                                             fault_rate=fault_rate)
    timeout_ms = 10_000.0

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1

    runs: Dict[str, Dict[str, object]] = {}
    streams: Dict[str, bytes] = {}
    for backend in backends:
        gc.collect()
        engine, wall, samples = _timed_run(
            lambda sim, backend=backend: ValidationPipeline(
                sim, k, shards=shards, timeout=StaticTimeout(timeout_ms),
                keep_results=False, backend=backend),
            workload, chunk=chunk, drain=True)
        streams[backend] = canonical(engine.alarms)
        runs[backend] = {
            **_summary(wall, samples, triggers),
            "decided": engine.triggers_decided,
            "alarmed": engine.triggers_alarmed,
        }
        close = getattr(engine, "close", None)
        if close is not None:
            close()

    serial_ops = runs.get("serial", {}).get("ops_per_s", 0.0)
    speedups = {backend: (runs[backend]["ops_per_s"] / serial_ops
                          if serial_ops else 0.0)
                for backend in backends}
    reference = streams[backends[0]]
    return {
        "benchmark": "validator_backends",
        "workload": {
            "triggers": triggers,
            "k": k,
            "seed": seed,
            "fault_rate": fault_rate,
            "responses_per_trigger": 2 * k + 2,
            "shards": shards,
            "chunk": chunk,
        },
        "cpu_count": cpus,
        "backends": runs,
        "speedups": speedups,
        "alarm_streams_identical": all(
            stream == reference for stream in streams.values()),
    }


def compare_analysis(paths: Tuple[str, ...] = ("src/repro",),
                     jobs: int = 4, reps: int = 3,
                     cache_path: str = "") -> Dict[str, object]:
    """Benchmark the static analyzer: cold vs warm vs parallel module phase.

    Three variants over the same tree, best-of-``reps`` wall time each:
    ``cold_jobs1`` (no cache, sequential), ``cold_jobsN`` (no cache,
    ``jobs`` worker processes), and ``warm`` (content-hash cache populated
    by a priming run). All three must produce byte-identical finding lists
    — the cache and the pool are exact optimizations, and the payload
    records that equivalence alongside the speedups.

    ``cpu_count`` is recorded because the parallel speedup is only
    physically possible with >1 CPU; gates reading this payload must
    condition on it.
    """
    import os
    import tempfile

    from repro.analysis.cache import AnalysisCache
    from repro.analysis.engine import analyze_paths as run_analysis

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1

    def timed(**kwargs) -> Tuple[float, object]:
        gc.collect()
        t0 = time.perf_counter()  # jury: ignore[D101]
        report = run_analysis(list(paths), **kwargs)
        return time.perf_counter() - t0, report  # jury: ignore[D101]

    def best_of(variant_kwargs) -> Tuple[float, List[float], object]:
        walls: List[float] = []
        report = None
        for _ in range(reps):
            wall, report = timed(**variant_kwargs())
            walls.append(wall)
        return min(walls), walls, report

    own_cache = not cache_path
    if own_cache:
        handle, cache_path = tempfile.mkstemp(suffix=".jury-cache.json")
        os.close(handle)
        os.unlink(cache_path)
    try:
        cold1_best, cold1_walls, cold1_report = best_of(lambda: {})
        coldn_best, coldn_walls, coldn_report = best_of(
            lambda: {"jobs": jobs})
        # Priming run fills the cache; the measured runs are fully warm.
        run_analysis(list(paths), cache=AnalysisCache.load(cache_path))
        warm_best, warm_walls, warm_report = best_of(
            lambda: {"cache": AnalysisCache.load(cache_path)})
    finally:
        if own_cache:
            try:
                os.unlink(cache_path)
            except OSError:  # jury: ignore[H403] — tmp cache may not exist
                pass

    def digest(report) -> List[dict]:
        return [f.to_dict() for f in report.findings]

    identical = (digest(cold1_report) == digest(coldn_report)
                 == digest(warm_report))
    return {
        "paths": list(paths),
        "files_scanned": cold1_report.files_scanned,
        "findings": len(cold1_report.findings),
        "reps": reps,
        "jobs": jobs,
        "cpu_count": cpus,
        "cold_jobs1": {"wall_s": cold1_best, "runs": cold1_walls},
        "cold_jobsN": {"wall_s": coldn_best, "runs": coldn_walls},
        "warm": {"wall_s": warm_best, "runs": warm_walls,
                 "cache_hits": warm_report.cache_hits},
        "warm_speedup": cold1_best / warm_best if warm_best > 0 else 0.0,
        "parallel_speedup": (cold1_best / coldn_best
                             if coldn_best > 0 else 0.0),
        "reports_identical": identical,
    }


def write_payload(payload: Dict[str, object], path: str) -> None:
    """Write a benchmark payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
