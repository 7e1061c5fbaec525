"""Crash-recovery soak harness: kill a real process, restore, byte-compare.

The differential suites and the fuzz oracle exercise recovery *in
memory* (``run_with_recovery`` abandons an engine object). This harness
closes the remaining gap to the real failure model: a **separate worker
process** runs a long seeded workload with a file-backed
:class:`~repro.core.checkpoint.WriteAheadLog` and periodic on-disk
checkpoints, then ``SIGKILL``-s itself mid-run — no atexit hooks, no
flushing courtesy, exactly what the kernel OOM killer or a power event
would leave behind. The parent then proves two things:

* **Recovery correctness** — load the newest checkpoint artifact, replay
  the WAL tail, resume the not-yet-ingested remainder of the workload,
  and require the canonical alarm stream to be byte-identical to an
  uninterrupted reference run (the ``docs/recovery.md`` contract).
* **Bounded memory** — the worker's peak RSS (``ru_maxrss`` of the
  reaped child) stays under a ceiling, so the checkpoint/WAL machinery
  does not turn a long soak into an unbounded accumulation. The worker
  runs ``keep_results=False`` and schedules traffic through a streaming
  pump (one trigger ahead), so resident state is the validator's
  in-flight window, not the whole workload.

The workload is a *pure function of the trigger index* (CRC-32 of
``"flow:<seed>:<i>"`` picks the flow, ``"fault:<seed>:<i>"`` plants the
~2% consensus faults, arrival times are ``i·spacing + j·delta`` with all
offsets distinct) — so the parent recomputes the exact resume tail
without any channel to the dead worker beyond the checkpoint + WAL.

Wall-clock and process APIs are confined to this harness module
(analyzer rule D101 territory); simulation code stays deterministic.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import resource
import signal
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from repro.controllers.context import sort_canonicals
from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import (
    WAL_INGEST,
    Checkpoint,
    WriteAheadLog,
    replay_stream,
    replay_wal,
    restore_engine,
    settle,
    wal_ingests,
    wal_last_ingest_time,
    wal_tail,
)
from repro.core.pipeline import ValidationPipeline
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.errors import CheckpointError
from repro.sim.simulator import Simulator
# The soak reuses the synthetic workload's entry shapes so its triggers are
# indistinguishable from that workload's — only the draw changes
# (indexed CRC-32 instead of a sequential PRNG) to make any suffix
# recomputable from its first index.
from repro.workloads.synthetic import DIGEST_STRIDE, FLOW_VARIANTS, entries

#: One trigger in ``FAULT_STRIDE`` carries a corrupted cache relay.
FAULT_STRIDE = 50

CHECKPOINT_FILE = "CHECKPOINT_sample.json"
WAL_FILE = "soak-wal.bin"


# ----------------------------------------------------------------------
# Indexed workload (pure function of the trigger index)
# ----------------------------------------------------------------------
def trigger_time_ms(index: int, spacing_ms: float) -> float:
    """Arrival time of trigger ``index``'s first response."""
    return index * spacing_ms


def soak_trigger(index: int, k: int, seed: int,
                 spacing_ms: float) -> List[Tuple]:
    """Trigger ``index``'s full ``2k+2`` response set, as WAL ingest records
    ``(WAL_INGEST, time_ms, response)``.

    Response ``j`` arrives at ``index*spacing + j*delta`` with
    ``delta = spacing/(2k+4)``: every response in the whole soak has a
    distinct timestamp, so "strictly after the WAL's newest ingest" is an
    exact resume boundary — no same-instant tie to mis-replay.
    """
    tau = ("ext", index)
    flow = crc32(f"flow:{seed}:{index}".encode()) % FLOW_VARIANTS
    faulty = crc32(f"fault:{seed}:{index}".encode()) % FAULT_STRIDE == 0
    cache, net = entries(flow)
    combined = (cache, sort_canonicals(set(net)))
    digest = (("c1", index // DIGEST_STRIDE),)
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
            corrupted_cache, _ = entries(FLOW_VARIANTS + index)
            relayed = corrupted_cache
        responses.append(Response(sid, tau, ResponseKind.CACHE_UPDATE,
                                  relayed, state_digest=digest, origin="c1"))
        responses.append(Response(sid, tau, ResponseKind.REPLICA_RESULT,
                                  combined, tainted=True, state_digest=digest,
                                  primary_hint="c1"))
    base = trigger_time_ms(index, spacing_ms)
    delta = spacing_ms / (2 * k + 4)
    return [(WAL_INGEST, base + j * delta, response)
            for j, response in enumerate(responses)]


def soak_stream(triggers: int, k: int, seed: int,
                spacing_ms: float) -> List[Tuple]:
    """The whole soak workload, flat, in arrival order."""
    return [record for index in range(triggers)
            for record in soak_trigger(index, k, seed, spacing_ms)]


# ----------------------------------------------------------------------
# Engine construction (one shape for worker, reference, and twin)
# ----------------------------------------------------------------------
def _build_engine(sim: Simulator, params: Dict[str, object]):
    """The soak's engine: ``keep_results=False`` keeps RSS honest."""
    timeout = StaticTimeout(float(params["timeout_ms"]))
    shards = params.get("shards")
    if shards is None:
        return Validator(sim, int(params["k"]), timeout=timeout,
                         keep_results=False)
    return ValidationPipeline(
        sim, int(params["k"]), shards=int(shards), timeout=timeout,
        keep_results=False, flush_interval_ms=0.0)


# ----------------------------------------------------------------------
# Worker side (the process that dies)
# ----------------------------------------------------------------------
def _hard_kill() -> None:
    """``kill -9`` ourselves from inside a simulation event.

    SIGKILL is not catchable: no finally blocks, no WAL flush beyond the
    per-append one — the honest crash.
    """
    os.kill(os.getpid(), signal.SIGKILL)  # jury: ignore[D101]


def _pump(sim: Simulator, engine, params: Dict[str, object],
          index: int) -> None:
    """Schedule trigger ``index`` now, then re-arm for ``index+1``.

    Streaming one trigger ahead keeps the event heap (and therefore the
    worker's RSS) independent of the soak duration.
    """
    triggers = int(params["triggers"])
    if index >= triggers:
        return
    spacing = float(params["spacing_ms"])
    replay_wal(engine, soak_trigger(index, int(params["k"]),
                                    int(params["seed"]), spacing))
    if index + 1 < triggers:
        sim.schedule_at(trigger_time_ms(index + 1, spacing),
                        _pump, sim, engine, params, index + 1)


def _soak_worker(params: Dict[str, object], workdir: str) -> None:
    """Child-process entry: run the soak, checkpointing, until the kill.

    Every auto-checkpoint is atomically saved to ``CHECKPOINT_sample.json``
    (newest wins; ``Checkpoint.save`` is write-temp-then-rename, so the
    kill can never leave a torn artifact) and every ingest hits the
    file-backed WAL before it can influence a decision.
    """
    sim = Simulator(seed=0)
    engine = _build_engine(sim, params)
    wal = WriteAheadLog(os.path.join(workdir, WAL_FILE))
    engine.wal = wal
    engine.checkpoint_every = int(params["checkpoint_every"])
    checkpoint_path = os.path.join(workdir, CHECKPOINT_FILE)
    engine.on_checkpoint = lambda cp: cp.save(checkpoint_path)
    # Baseline at t=0: a kill inside the first interval still restores.
    engine.checkpoint().save(checkpoint_path)

    kill_at_ms = params.get("kill_at_ms")
    if kill_at_ms is not None:
        # Scheduled before the pump: at an exactly-coinciding timestamp
        # the kill fires first (FIFO), so the WAL's newest ingest stays
        # strictly earlier than the kill instant.
        sim.schedule_at(float(kill_at_ms), _hard_kill)
    sim.schedule_at(0.0, _pump, sim, engine, params, 0)
    settle(engine, float(params["duration_ms"]) + float(params["settle_ms"]))
    wal.close()


# ----------------------------------------------------------------------
# Parent side (kill, recover, verify)
# ----------------------------------------------------------------------
def run_soak(duration_s: float = 60.0,
             kill_at_s: Optional[float] = 30.0,
             checkpoint_every: int = 200,
             rate_per_s: float = 200.0,
             k: int = 3,
             shards: Optional[int] = None,
             timeout_ms: float = 250.0,
             seed: int = 0,
             max_rss_mb: float = 512.0,
             workdir: str = ".",
             settle_ms: float = 10_000.0) -> Dict[str, object]:
    """Run the whole soak and return the JSON-able verdict payload.

    ``duration_s``/``kill_at_s`` are **simulated** seconds — wall time is
    however fast the machine chews through the event heap. ``ok`` in the
    returned payload is the single pass/fail bit; ``failures`` lists the
    individual broken guarantees for the report.
    """
    if kill_at_s is not None and not 0.0 < kill_at_s < duration_s:
        raise CheckpointError(
            f"--kill-at {kill_at_s} must fall inside (0, {duration_s}) "
            f"— killing before the first trigger or after the stream ends "
            f"soaks nothing")
    triggers = int(duration_s * rate_per_s)
    if triggers < 1:
        raise CheckpointError(
            f"duration {duration_s}s at {rate_per_s}/s yields no triggers")
    params: Dict[str, object] = {
        "triggers": triggers,
        "k": k,
        "seed": seed,
        "shards": shards,
        "timeout_ms": timeout_ms,
        "spacing_ms": 1000.0 / rate_per_s,
        "duration_ms": duration_s * 1000.0,
        "settle_ms": settle_ms,
        "checkpoint_every": checkpoint_every,
        "kill_at_ms": None if kill_at_s is None else kill_at_s * 1000.0,
    }

    # A previous soak in the same workdir must not leak into this one: the
    # WAL opens for append, and a stale tail would move the resume boundary.
    for name in (WAL_FILE, CHECKPOINT_FILE):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))

    # The real OS process is the test subject: its SIGKILL death is the
    # failure the harness exists to recover from. Inside the worker the
    # workload itself stays on the deterministic event loop.
    worker = multiprocessing.Process(  # jury: ignore[D105]
        target=_soak_worker, args=(params, workdir), name="jury-soak-worker")
    worker.start()
    worker.join()
    # Linux ru_maxrss is KiB; measured before the parent spawns anything
    # else so the reading is the soak worker's peak, not a bystander's.
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    failures: List[str] = []
    expected_exit = (-int(signal.SIGKILL)
                     if params["kill_at_ms"] is not None else 0)
    if worker.exitcode != expected_exit:
        failures.append(
            f"worker exited {worker.exitcode}, expected {expected_exit} "
            f"({'SIGKILL' if expected_exit else 'clean exit'})")
    rss_limit_kb = max_rss_mb * 1024.0
    if rss_kb > rss_limit_kb:
        failures.append(
            f"worker peak RSS {rss_kb / 1024.0:.1f} MiB exceeds the "
            f"--max-rss-mb {max_rss_mb:g} ceiling")

    checkpoint_path = os.path.join(workdir, CHECKPOINT_FILE)
    checkpoint = Checkpoint.load(checkpoint_path)
    wal_records = WriteAheadLog.read(os.path.join(workdir, WAL_FILE))

    payload: Dict[str, object] = {
        "command": "soak",
        "triggers": triggers,
        "duration_s": duration_s,
        "kill_at_s": kill_at_s,
        "rate_per_s": rate_per_s,
        "k": k,
        "shards": shards,
        "checkpoint_every": checkpoint_every,
        "worker_exitcode": worker.exitcode,
        "worker_peak_rss_kb": rss_kb,
        "max_rss_mb": max_rss_mb,
        "checkpoint": {
            "path": checkpoint_path,
            "sha256": checkpoint.sha256,
            "body_bytes": len(checkpoint.body),
            "sim_now_ms": checkpoint.meta.get("sim_now"),
            "triggers_decided": checkpoint.meta.get("triggers_decided"),
        },
        "wal_records": len(wal_records),
    }

    # Recovery twin: restore the on-disk artifact, replay the WAL tail,
    # then resume the workload strictly after the newest logged ingest —
    # recomputed from the trigger index, never received from the corpse.
    recovered = restore_engine(checkpoint)
    tail = wal_tail(wal_records, checkpoint.sha256)
    boundary = wal_last_ingest_time(wal_records)
    stream = soak_stream(triggers, k, seed, float(params["spacing_ms"]))
    resumed = [record for record in stream
               if boundary is None or record[1] > boundary]
    _, last = replay_wal(recovered, tail + resumed)
    settle(recovered, last + settle_ms)
    payload["wal_tail_replayed"] = len(wal_ingests(tail))
    payload["resumed_records"] = len(resumed)

    # Uninterrupted reference: same engine shape, same stream, no kill.
    reference = replay_stream(
        stream, lambda sim: _build_engine(sim, params), settle_ms)

    recovered_stream = canonical_alarm_stream(recovered.alarms)
    reference_stream = canonical_alarm_stream(reference.alarms)
    payload["recovered"] = {
        "decided": recovered.triggers_decided,
        "alarms": len(recovered.alarms),
        "alarm_stream_bytes": len(recovered_stream),
    }
    payload["reference"] = {
        "decided": reference.triggers_decided,
        "alarms": len(reference.alarms),
        "alarm_stream_bytes": len(reference_stream),
    }
    payload["alarm_streams_identical"] = \
        recovered_stream == reference_stream
    if recovered_stream != reference_stream:
        failures.append(
            "recovered alarm stream diverges from the uninterrupted "
            "reference (checkpoint+WAL recovery is not byte-identical)")
    if recovered.triggers_decided != reference.triggers_decided:
        failures.append(
            f"recovered engine decided {recovered.triggers_decided} "
            f"triggers, reference decided {reference.triggers_decided}")

    payload["failures"] = failures
    payload["ok"] = not failures
    return payload
