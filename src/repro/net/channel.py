"""Control-plane channels with TCP-like ordering and byte accounting.

The paper's replicator "sets up TCP channels to ensure reliable and in-order
delivery" (§IV-A), and the validator depends on in-order cache-update
delivery (§IV-C). :class:`ControlChannel` preserves per-direction FIFO order
even under jittered latency by never letting a later send overtake an earlier
one. :class:`ByteCounter` feeds the network-overhead results (§VII-B.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Protocol

from repro.sim.latency import Fixed, LatencyModel
from repro.sim.simulator import Simulator


class ByteCounter:
    """Accumulates bytes and converts to Mbps over a measurement window."""

    def __init__(self, name: str = ""):
        self.name = name
        self.bytes = 0
        self.messages = 0

    def add(self, nbytes: int) -> None:
        self.bytes += nbytes
        self.messages += 1

    def mbps(self, window_ms: float) -> float:
        """Average megabits per second over ``window_ms`` of simulated time."""
        if window_ms <= 0:
            return 0.0
        return self.bytes * 8.0 / (window_ms * 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteCounter({self.name!r}, bytes={self.bytes})"


class ChannelEndpoint(Protocol):
    """Anything that can terminate a control channel."""

    def handle_control_message(self, channel: "ControlChannel", message: Any) -> None:
        """Deliver one in-order message from the channel's other end."""


class ControlChannel:
    """A bidirectional, reliable, in-order message channel.

    Parameters
    ----------
    sim: driving simulator.
    a, b: the two endpoints.
    latency: one-way delay distribution.
    name: label used in byte-accounting reports.
    counter: optional shared :class:`ByteCounter` (e.g. "all inter-controller
        traffic"); a per-channel counter is always maintained as well.

    Every channel gets a :attr:`uid` — ``"<name>#<creation ordinal>"`` —
    that is stable for the lifetime of the channel and deterministic across
    runs with the same wiring order. Components that need to key state by
    channel use it instead of ``id(channel)``, whose value is a reusable
    process address that differs between replicas.
    """

    _uid_counter = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        a: ChannelEndpoint,
        b: ChannelEndpoint,
        latency: Optional[LatencyModel] = None,
        name: str = "chan",
        counter: Optional[ByteCounter] = None,
    ):
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency if latency is not None else Fixed(0.1)
        self.name = name
        self.uid = f"{name}#{next(ControlChannel._uid_counter)}"
        self.counter = ByteCounter(name)
        self.shared_counter = counter
        self.up = True
        self._rng = sim.fork_rng(f"chan/{name}")
        # Per-direction watermarks preserving FIFO under jittered latency.
        self._last_to_a = 0.0
        self._last_to_b = 0.0

    def other(self, endpoint: ChannelEndpoint) -> ChannelEndpoint:
        """The endpoint opposite ``endpoint``."""
        return self.b if endpoint is self.a else self.a

    def send(self, sender: ChannelEndpoint, message: Any) -> None:
        """Queue ``message`` for in-order delivery to the opposite end."""
        if not self.up:
            return
        receiver = self.other(sender)
        nbytes = message.wire_size() if hasattr(message, "wire_size") else 64
        self.counter.add(nbytes)
        if self.shared_counter is not None:
            self.shared_counter.add(nbytes)
        arrival = self.sim.now + self.latency.sample(self._rng)
        if receiver is self.a:
            arrival = max(arrival, self._last_to_a)
            self._last_to_a = arrival
        else:
            arrival = max(arrival, self._last_to_b)
            self._last_to_b = arrival
        self.sim.schedule_at(arrival, self._deliver, receiver, message)

    def _deliver(self, receiver: ChannelEndpoint, message: Any) -> None:
        if not self.up:
            return
        receiver.handle_control_message(self, message)

    def fail(self) -> None:
        """Sever the channel; in-flight and future messages are lost."""
        self.up = False

    def restore(self) -> None:
        """Bring the channel back up (previously lost messages stay lost)."""
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ControlChannel({self.name!r}, up={self.up})"
