"""Control-plane record and replay (OFRewind-style troubleshooting).

The paper's related work discusses OFRewind, which records control-plane
traffic for later replay. This module provides the comparable facility for
the simulated cluster: a :class:`ControlPlaneRecorder` taps the per-switch
OVS proxies and records every southbound trigger with its timestamp; a
:class:`TraceReplayer` re-injects a recording into a (possibly different)
cluster with original timing — e.g. record a benign run once, then replay
it against a fault-injected cluster for a like-for-like comparison.

Recordings serialize through :mod:`repro.openflow.wire`, so they can be
written to disk and reloaded.

This records what the *switches* send. What the *validator* receives is
recorded by attaching a :class:`~repro.core.checkpoint.WriteAheadLog` to
it; :func:`~repro.core.checkpoint.replay_stream` replays that stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.controllers.cluster import ControllerCluster
from repro.errors import WorkloadError
from repro.openflow import wire
from repro.openflow.messages import OpenFlowMessage, PacketIn
from repro.sim.simulator import Simulator

_RECORD_HEADER = struct.Struct("!dIH")  # time_ms, dpid, frame length


@dataclass
class RecordedTrigger:
    """One intercepted southbound message with its arrival time."""

    time_ms: float
    dpid: int
    message: OpenFlowMessage


class ControlPlaneRecorder:
    """Taps every OVS proxy of a cluster and records PACKET_INs."""

    def __init__(self, cluster: ControllerCluster,
                 include_handshakes: bool = False):
        self.cluster = cluster
        self.include_handshakes = include_handshakes
        self.records: List[RecordedTrigger] = []
        self._recording = False
        self._previous_hooks = {}
        for dpid, proxy in cluster.proxies.items():
            previous = proxy.on_switch_to_controller
            self._previous_hooks[dpid] = previous
            proxy.on_switch_to_controller = self._make_hook(dpid, previous)

    def _make_hook(self, dpid: int, previous):
        def hook(message):
            if previous is not None:
                previous(message)
            if self._recording and self._should_record(message):
                self.records.append(RecordedTrigger(
                    time_ms=self.cluster.sim.now, dpid=dpid,
                    message=message))
        return hook

    def _should_record(self, message) -> bool:
        if isinstance(message, PacketIn):
            return True
        return self.include_handshakes

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording."""
        self._recording = True

    def stop(self) -> None:
        """Stop recording (records are kept)."""
        self._recording = False

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dump(self) -> bytes:
        """Serialize the recording (wire-encoded messages + timestamps)."""
        chunks = []
        for record in self.records:
            frame = wire.encode(record.message)
            chunks.append(_RECORD_HEADER.pack(record.time_ms, record.dpid,
                                              len(frame)))
            chunks.append(frame)
        return b"".join(chunks)

    @staticmethod
    def load(data: bytes) -> List[RecordedTrigger]:
        """Parse a recording produced by :meth:`dump`."""
        records: List[RecordedTrigger] = []
        offset = 0
        while offset < len(data):
            if offset + _RECORD_HEADER.size > len(data):
                raise WorkloadError("truncated recording header")
            time_ms, dpid, length = _RECORD_HEADER.unpack_from(data, offset)
            offset += _RECORD_HEADER.size
            frame = data[offset:offset + length]
            if len(frame) != length:
                raise WorkloadError("truncated recording frame")
            offset += length
            message, rest = wire.decode(frame)
            if rest:
                raise WorkloadError("trailing bytes in recorded frame")
            records.append(RecordedTrigger(time_ms=time_ms, dpid=dpid,
                                           message=message))
        return records


class TraceReplayer:
    """Re-injects a recording into a cluster with original relative timing."""

    def __init__(self, sim: Simulator, cluster: ControllerCluster,
                 records: List[RecordedTrigger],
                 speedup: float = 1.0):
        if speedup <= 0:
            raise WorkloadError("speedup must be positive")
        self.sim = sim
        self.cluster = cluster
        self.records = records
        self.speedup = speedup
        self.replayed = 0
        self.skipped = 0

    def start(self) -> None:
        """Schedule every recorded trigger relative to now."""
        if not self.records:
            return
        base = self.records[0].time_ms
        for record in self.records:
            delay = (record.time_ms - base) / self.speedup
            self.sim.schedule(delay, self._inject, record)

    def _inject(self, record: RecordedTrigger) -> None:
        proxy = self.cluster.proxies.get(record.dpid)
        if proxy is None:
            self.skipped += 1
            return
        self.replayed += 1
        # Enter through the proxy exactly as the switch's message would:
        # the primary receives it and JURY's replicator (if deployed) sees it.
        proxy._from_switch(record.message)
