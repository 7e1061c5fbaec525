"""The programmable soft switch (OVS-alike) at the data plane.

Implements the OpenFlow 1.0 datapath behaviour the paper's faults hinge on:

* table-miss punting to the controller with packet buffering;
* FLOW_MOD installation with the OF 1.0 *silent field discard* on match
  prerequisite violations (the "ODL incorrect FLOW_MOD" root cause) —
  switchable to strict validation;
* PACKET_OUT handling with buffered-packet release;
* the HELLO/FEATURES handshake that precedes the controller's shared-cache
  switch write (the "ONOS database locking" fault site).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro.net.channel import ControlChannel
from repro.net.links import Link
from repro.net.packet import Packet
from repro.openflow.actions import (
    Action,
    ActionController,
    ActionDrop,
    ActionFlood,
    ActionOutput,
)
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    PacketIn,
    PacketOut,
)
from repro.sim.simulator import Simulator


class SoftSwitch:
    """A single-table OpenFlow switch.

    Parameters
    ----------
    sim: driving simulator.
    dpid: datapath id (unique within a topology).
    of10_silent_field_strip:
        When True (the OpenFlow 1.0 behaviour), FLOW_MODs whose match
        violates the field hierarchy are *silently* installed with the orphan
        fields stripped. When False, such FLOW_MODs are rejected and counted
        in ``rejected_flow_mods``.
    """

    def __init__(
        self,
        sim: Simulator,
        dpid: int,
        name: Optional[str] = None,
        of10_silent_field_strip: bool = True,
        max_flows: Optional[int] = None,
    ):
        self.sim = sim
        self.dpid = dpid
        self.name = name or f"s{dpid}"
        self.table = FlowTable(max_entries=max_flows)
        self.ports: Dict[int, Link] = {}
        self.control_channel: Optional[ControlChannel] = None
        self.of10_silent_field_strip = of10_silent_field_strip
        self._buffers: Dict[int, Tuple[Packet, int]] = {}
        self._buffer_ids = itertools.count(1)
        # Counters used throughout the evaluation harness.
        self.packet_ins_sent = 0
        self.flow_mods_received = 0
        self.rejected_flow_mods = 0
        self.stripped_flow_mods = 0
        self.packet_outs_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_port(self, port: int, link: Link) -> None:
        """Connect ``link`` at local port number ``port``."""
        self.ports[port] = link

    def connect_control(self, channel: ControlChannel) -> None:
        """Attach the control channel (to a controller or OVS proxy)."""
        self.control_channel = channel

    @property
    def port_numbers(self) -> Tuple[int, ...]:
        return tuple(sorted(self.ports))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet, port: int) -> None:
        """Datapath ingress: match the table or punt to the controller."""
        entry = self.table.lookup(packet, in_port=port)
        if entry is None:
            self._punt_to_controller(packet, port)
            return
        entry.packets += 1
        entry.bytes += packet.size
        self._apply_actions(entry.actions, packet, in_port=port)

    def _punt_to_controller(self, packet: Packet, in_port: int) -> None:
        if self.control_channel is None:
            self.packets_dropped += 1
            return
        buffer_id = next(self._buffer_ids)
        self._buffers[buffer_id] = (packet, in_port)
        self.packet_ins_sent += 1
        message = PacketIn(dpid=self.dpid, in_port=in_port, packet=packet,
                           buffer_id=buffer_id)
        self.control_channel.send(self, message)

    def _apply_actions(self, actions: Tuple[Action, ...], packet: Packet,
                       in_port: Optional[int]) -> None:
        forwarded = False
        for action in actions:
            if isinstance(action, ActionOutput):
                link = self.ports.get(action.port)
                if link is not None and link.up:
                    link.transmit(self, packet)
                    forwarded = True
            elif isinstance(action, ActionFlood):
                for port, link in self.ports.items():
                    if port != in_port and link.up:
                        link.transmit(self, packet)
                        forwarded = True
            elif isinstance(action, ActionController):
                self._punt_to_controller(packet, in_port or 0)
            elif isinstance(action, ActionDrop):
                pass
        if forwarded:
            self.packets_forwarded += 1
        elif not actions or all(isinstance(a, ActionDrop) for a in actions):
            self.packets_dropped += 1

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def handle_control_message(self, channel: ControlChannel, message: Any) -> None:
        """Southbound message dispatch."""
        if isinstance(message, Hello):
            channel.send(self, Hello())
        elif isinstance(message, EchoRequest):
            channel.send(self, EchoReply(xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            channel.send(self, FeaturesReply(
                xid=message.xid, dpid=self.dpid, ports=self.port_numbers))
        elif isinstance(message, BarrierRequest):
            channel.send(self, BarrierReply(xid=message.xid))
        elif isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)

    def _handle_flow_mod(self, message: FlowMod) -> None:
        self.flow_mods_received += 1
        if message.command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            strict = message.priority if message.command == FlowModCommand.DELETE_STRICT else None
            self.table.delete(message.match, strict_priority=strict)
            return
        match = message.match
        if match.hierarchy_violations():
            if self.of10_silent_field_strip:
                match = match.strip_unsupported_fields()
                self.stripped_flow_mods += 1
            else:
                self.rejected_flow_mods += 1
                return
        self.table.add(FlowEntry(
            match=match,
            actions=message.actions,
            priority=message.priority,
            cookie=message.cookie,
        ))

    def _handle_packet_out(self, message: PacketOut) -> None:
        self.packet_outs_received += 1
        packet, in_port = None, message.in_port
        if message.buffer_id is not None:
            buffered = self._buffers.pop(message.buffer_id, None)
            if buffered is not None:
                packet, in_port = buffered
        if packet is None:
            packet = message.packet
        if packet is None:
            return
        self._apply_actions(message.actions, packet, in_port=in_port)

    # ------------------------------------------------------------------
    # Introspection used by faults and validation
    # ------------------------------------------------------------------
    def installed_flow_canonicals(self) -> Tuple[Tuple, ...]:
        """Canonical (match, actions, priority) tuples of installed rules.

        ONOS compares these against its flow store to move rules from
        PENDING_ADD to ADDED; a mismatch strands them (Appendix fault 4).
        """
        from repro.openflow.actions import canonical_actions

        return tuple(
            (e.match.canonical(), canonical_actions(e.actions), e.priority)
            for e in self.table
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoftSwitch(dpid={self.dpid}, flows={len(self.table)})"
