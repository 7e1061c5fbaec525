"""Seeded response streams for the ``stream-*`` workloads.

One trigger is a full ``2k + 2`` external response set with the entry
shapes of ``repro.harness.bench`` (so the decision layer sees the same
tuples the committed ``BENCH_*.json`` numbers were taken on), but unlike
that loop every response carries a *simulated arrival time*: triggers start
every ``1000 / rate`` ms and each response is delayed by its own jitter, so
~150 triggers are in flight at once and the validator's θτ timers, flush
events and retention horizon advance the way they do in a deployment.

Everything is drawn from ``random.Random(f"jury-bench/{seed}")``; the same
seed yields the same responses in the same arrival order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Set, Tuple

from repro.core.responses import Response, ResponseKind

#: Distinct flows cycled through and triggers per digest step — the values
#: ``repro.harness.bench`` uses, which keep the pipeline's memo caches honest.
FLOW_VARIANTS = 50
DIGEST_STRIDE = 10

#: Arrival jitter (ms): the primary relays within a millisecond, secondaries
#: carry the long-tailed shadow-execution delay.
PRIMARY_JITTER_MS = (0.1, 1.0)
SECONDARY_JITTER_MS = (2.0, 30.0)

#: Triggers generated per refill; also the sort unit (see ``_refill``).
CHUNK_TRIGGERS = 2000

Arrival = Tuple[float, int, Response]


def _entries(flow: int) -> Tuple[Tuple, Tuple]:
    cache = (("cache", "FlowsDB", ("flow", 1, ("ip", flow), 100), "create",
              (("actions", (("output", 2),)), ("command", "add"), ("dpid", 1),
               ("match", ("ip", flow)), ("priority", 100),
               ("state", "pending_add"))),)
    net = (("flow_mod", 1, "add", ("ip", flow), (("output", 2),), 100),)
    return cache, net


class ResponseStream:
    """Lazy arrival-ordered ``(time_ms, seq, Response)`` stream.

    ``corrupt_rate`` of the triggers have secondary ``s0`` relay a corrupted
    cache entry (must alarm, consensus slow path); ``silent_rate`` have the
    last secondary send nothing (decided by the θτ deadline, must not
    alarm). The ground truth is recorded in :attr:`corrupted` /
    :attr:`silent` as trigger indices, for :mod:`bench.oracle`.
    """

    def __init__(self, seed: int, k: int = 6, rate_per_s: float = 5000.0,
                 corrupt_rate: float = 0.02, silent_rate: float = 0.0):
        self.k = k
        self.gap_ms = 1000.0 / rate_per_s
        self.corrupt_rate = corrupt_rate
        self.silent_rate = silent_rate
        self._rng = random.Random(f"jury-bench/{seed}")
        self._next_index = 0
        self._seq = 0
        self._carry: List[Arrival] = []
        self.corrupted: Set[int] = set()
        self.silent: Set[int] = set()
        self.responses_emitted = 0

    @property
    def triggers_started(self) -> int:
        """Triggers whose responses have been generated so far."""
        return self._next_index

    def _trigger(self, index: int, out: List[Arrival]) -> None:
        rng = self._rng
        uniform = rng.uniform
        start = index * self.gap_ms
        tau = ("ext", index)
        cache, net = _entries(rng.randrange(FLOW_VARIANTS))
        combined = (cache, net)
        digest = (("c1", index // DIGEST_STRIDE),)
        corrupt = rng.random() < self.corrupt_rate
        silent = not corrupt and rng.random() < self.silent_rate
        if corrupt:
            self.corrupted.add(index)
        if silent:
            self.silent.add(index)
        seq = self._seq
        lo, hi = PRIMARY_JITTER_MS
        out.append((start + uniform(lo, hi), seq, Response(
            "c1", tau, ResponseKind.NETWORK_WRITE, net,
            state_digest=digest)))
        out.append((start + uniform(lo, hi), seq + 1, Response(
            "c1", tau, ResponseKind.CACHE_UPDATE, cache,
            state_digest=digest, origin="c1")))
        seq += 2
        lo, hi = SECONDARY_JITTER_MS
        secondaries = self.k - 1 if silent else self.k
        for s in range(secondaries):
            sid = f"s{s}"
            relayed = cache
            if corrupt and s == 0:
                relayed, _ = _entries(FLOW_VARIANTS + index)
            out.append((start + uniform(lo, hi), seq, Response(
                sid, tau, ResponseKind.CACHE_UPDATE, relayed,
                state_digest=digest, origin="c1")))
            out.append((start + uniform(lo, hi), seq + 1, Response(
                sid, tau, ResponseKind.REPLICA_RESULT, combined,
                tainted=True, state_digest=digest, primary_hint="c1")))
            seq += 2
        self._seq = seq

    def _refill(self, triggers: int) -> List[Arrival]:
        """Generate ``triggers`` more triggers; return the arrivals now final.

        An arrival is final once no later trigger can precede it: every
        future response arrives after the next trigger's start plus the
        minimum jitter. The rest is carried into the next refill.
        """
        pending = self._carry
        first = self._next_index
        for index in range(first, first + triggers):
            self._trigger(index, pending)
        self._next_index = first + triggers
        pending.sort()
        horizon = self._next_index * self.gap_ms + PRIMARY_JITTER_MS[0]
        cut = len(pending)
        while cut and pending[cut - 1][0] >= horizon:
            cut -= 1
        self._carry = pending[cut:]
        del pending[cut:]
        self.responses_emitted += len(pending)
        return pending

    def take(self, triggers: int) -> List[Arrival]:
        """Arrivals finalised by generating ``triggers`` more triggers."""
        out: List[Arrival] = []
        remaining = triggers
        while remaining > 0:
            step = min(CHUNK_TRIGGERS, remaining)
            out.extend(self._refill(step))
            remaining -= step
        return out

    def flush(self) -> List[Arrival]:
        """The carried tail: arrivals of the last triggers, in order."""
        tail, self._carry = self._carry, []
        self.responses_emitted += len(tail)
        return tail


def stream_sha256(arrivals: Iterator[Arrival]) -> str:
    """Digest of a stream prefix (times to the nanosecond, full responses)."""
    digest = hashlib.sha256()
    for time_ms, seq, response in arrivals:
        digest.update(
            f"{time_ms:.6f}|{seq}|{response.controller_id}|"
            f"{response.trigger_id!r}|{response.kind.value}|"
            f"{response.entry!r}|{response.state_digest!r}\n".encode())
    return digest.hexdigest()
