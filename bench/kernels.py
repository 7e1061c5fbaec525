"""Replayed kernels: per-call costs of code no end-to-end workload isolates.

Each function times one public callable of the program on inputs recorded
from the seeded stream, in process and outside any window. The rows are
informational (ROADMAP item 3 names them as suspects): nothing end-to-end
is claimed from them, and the frame/WAL/OpenFlow rows have no end-to-end
workload yet (see ``bench/README.md``).
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict, List, Sequence

from bench.streams import ResponseStream

_clock = time.perf_counter

#: Response sets replayed by the consensus kernels.
RECORDED_SETS = 2000


def recorded_response_sets(seed: int, corrupt_rate: float,
                           silent_rate: float,
                           count: int = RECORDED_SETS) -> List[List]:
    """The first ``count`` triggers' response sets, each in arrival order."""
    stream = ResponseStream(seed, corrupt_rate=corrupt_rate,
                            silent_rate=silent_rate)
    arrivals = stream.take(count) + stream.flush()
    by_trigger: Dict[int, List] = {}
    for _, _, response in arrivals:
        by_trigger.setdefault(response.trigger_id[1], []).append(response)
    return [by_trigger[index] for index in range(count)]


def _mean_us(fn: Callable, inputs: Sequence, repeat: int = 3) -> float:
    """Best-of-``repeat`` mean µs per call of ``fn`` over ``inputs``."""
    best = float("inf")
    for _ in range(repeat):
        start = _clock()
        for item in inputs:
            fn(item)
        best = min(best, _clock() - start)
    return best * 1e6 / max(1, len(inputs))


def consensus_kernels(sets: List[List], k: int,
                      merged_network: Callable) -> Dict[str, float]:
    """Fast path, full consensus, sanity and policy on recorded sets."""
    from repro.core.consensus import (
        evaluate_consensus,
        sanity_check,
        unanimity_fast_consensus,
    )
    from repro.faults.injector import default_policy_engine

    def fast(responses):
        return unanimity_fast_consensus(responses, True, True, merged_network)

    hits = sum(1 for responses in sets if fast(responses) is not None)
    outcomes = [evaluate_consensus(responses, k, True) for responses in sets]
    clean = [outcome for outcome in outcomes if outcome.ok]
    engine = default_policy_engine()
    return {
        "consensus.fastpath_us": _mean_us(fast, sets),
        "consensus.fastpath_hit_share": hits / len(sets),
        "consensus.evaluate_us": _mean_us(
            lambda responses: evaluate_consensus(responses, k, True), sets),
        "consensus.sanity_us": _mean_us(
            lambda o: sanity_check(o.primary_cache_entry,
                                   o.primary_network_entry, o.primary_id),
            clean),
        "policy.check_us": _mean_us(
            lambda o: engine.check_decision(o, True), clean),
    }


def frame_kernels(sets: List[List], k: int,
                  timeout_ms: float) -> Dict[str, float]:
    """The frame path in process: encode → ShardCore.process → decode.

    One frame per simulated instant, i.e. one response each — what the
    ``processes`` backend ships today with one-response instants.
    """
    from repro.core.backends.frames import BatchFrame
    from repro.core.backends.shardcore import ShardCore

    frames = []
    for responses in sets:
        for response in responses:
            frames.append(BatchFrame(
                shard=0, seq=len(frames), now=float(len(frames)),
                items=((float(len(frames)), response),), drained=True))
    dumps, loads = pickle.dumps, pickle.loads
    protocol = pickle.HIGHEST_PROTOCOL

    core = ShardCore(k, timeout_ms)
    start = _clock()
    verdicts = [core.process(frame) for frame in frames]
    process_s = _clock() - start

    start = _clock()
    blobs = [dumps(frame, protocol) for frame in frames]
    blobs += [dumps(verdict, protocol) for verdict in verdicts]
    encode_s = _clock() - start
    start = _clock()
    for blob in blobs:
        loads(blob)
    decode_s = _clock() - start
    return {
        "frames.encode_us": encode_s * 1e6 / len(blobs),
        "frames.decode_us": decode_s * 1e6 / len(blobs),
        "frames.batch_bytes": sum(map(len, blobs)) / len(blobs),
        "shardcore.process_us": process_s * 1e6 / len(frames),
    }


def recovery_kernels(engine, sets: List[List], wal_path: str
                     ) -> Dict[str, float]:
    """Snapshot of the live engine and file-backed WAL appends."""
    from repro.core.checkpoint import WriteAheadLog

    start = _clock()
    checkpoint = engine.checkpoint()
    snapshot_s = _clock() - start

    responses = [r for responses in sets[:200] for r in responses]
    with WriteAheadLog(wal_path) as wal:
        start = _clock()
        for index, response in enumerate(responses):
            wal.append_ingest(float(index), response)
        append_s = _clock() - start
    return {
        "checkpoint.snapshot_ms": snapshot_s * 1000.0,
        "checkpoint.bytes": float(len(checkpoint.body)),
        "wal.append_us": append_s * 1e6 / len(responses),
    }


def openflow_kernels(count: int = 2000) -> Dict[str, float]:
    """Wire encode/decode of the FLOW_MOD the forwarding app emits."""
    from repro.openflow.actions import ActionOutput
    from repro.openflow.match import Match
    from repro.openflow.messages import FlowMod
    from repro.openflow.wire import decode, encode

    messages = [
        FlowMod(dpid=1 + i % 24,
                match=Match(dl_type=0x0800, nw_src=f"10.0.{i % 250}.1",
                            nw_dst=f"10.0.{(i * 7) % 250}.2"),
                actions=(ActionOutput(1 + i % 4),), priority=100)
        for i in range(count)]
    blobs = [encode(message) for message in messages]
    return {
        "openflow.encode_us": _mean_us(encode, messages),
        "openflow.decode_us": _mean_us(decode, blobs),
    }
