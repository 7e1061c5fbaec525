"""OpenFlow 1.0 wire encoding.

Serializes the message objects of :mod:`repro.openflow.messages` to a
compact binary framing modeled on the OpenFlow 1.0 encoding (8-byte
``ofp_header`` with version/type/length/xid, big-endian fields), and parses
them back. The round-trip tests use it to keep the ``wire_size()``
estimates (the network-overhead reproduction's byte counts) honest, and
``bench/kernels.py`` times it.

The encoding is self-contained rather than byte-exact OpenFlow: match
fields and packets carry a tagged TLV body (real OF 1.0 would need the full
``ofp_match`` wildcards bitmap and action structs, which nothing in the
evaluation depends on). Round-tripping is exact for every supported
message.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Tuple

from repro.errors import OpenFlowError
from repro.net.packet import EtherType, IpProto, LldpPayload, Packet
from repro.openflow.actions import (
    Action,
    ActionController,
    ActionDrop,
    ActionFlood,
    ActionOutput,
)
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
)

OFP_VERSION = 0x01
_HEADER = struct.Struct("!BBHI")  # version, type, length, xid

# ofp_type numbers (OpenFlow 1.0).
_TYPE_OF = {
    Hello: 0,
    EchoRequest: 2,
    EchoReply: 3,
    FeaturesRequest: 5,
    FeaturesReply: 6,
    PacketIn: 10,
    PacketOut: 13,
    FlowMod: 14,
    BarrierRequest: 18,
    BarrierReply: 19,
}
_OF_TYPE = {number: klass for klass, number in _TYPE_OF.items()}


def encode(message: OpenFlowMessage) -> bytes:
    """Serialize a message to its wire framing."""
    klass = type(message)
    if klass not in _TYPE_OF:
        raise OpenFlowError(f"cannot encode {klass.__name__}")
    if not 0 <= message.xid <= 0xFFFFFFFF:
        raise OpenFlowError(f"xid out of u32 range: {message.xid}")
    body = _encode_body(message)
    length = _HEADER.size + len(body)
    if length > 0xFFFF:
        raise OpenFlowError(f"message too large for OF framing: {length}")
    return _HEADER.pack(OFP_VERSION, _TYPE_OF[klass], length,
                        message.xid) + body


def decode(data: bytes) -> Tuple[OpenFlowMessage, bytes]:
    """Parse one message from ``data``; returns ``(message, remainder)``."""
    if len(data) < _HEADER.size:
        raise OpenFlowError("truncated OpenFlow header")
    version, of_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION:
        raise OpenFlowError(f"unsupported OpenFlow version {version}")
    if of_type not in _OF_TYPE:
        raise OpenFlowError(f"unknown ofp_type {of_type}")
    if length < _HEADER.size:
        # A length shorter than the header would slice an empty body AND
        # hand already-consumed header bytes back as "remainder", making
        # decode_all fabricate phantom messages from the same 8 bytes.
        raise OpenFlowError(f"ofp_header length {length} shorter than "
                            f"the {_HEADER.size}-byte header")
    if len(data) < length:
        raise OpenFlowError("truncated OpenFlow message body")
    body = data[_HEADER.size:length]
    message = _decode_body(_OF_TYPE[of_type], body)
    message.xid = xid
    return message, data[length:]


def decode_all(data: bytes):
    """Parse a concatenated stream of messages."""
    messages = []
    while data:
        message, data = decode(data)
        messages.append(message)
    return messages


# ----------------------------------------------------------------------
# Bodies (tagged JSON TLV — compact, unambiguous, round-trip exact)
# ----------------------------------------------------------------------

def _blob(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def _unblob(body: bytes) -> dict:
    try:
        return json.loads(body.decode()) if body else {}
    except (ValueError, UnicodeDecodeError) as exc:
        raise OpenFlowError(f"malformed message body: {exc}") from exc


def _encode_body(message: OpenFlowMessage) -> bytes:
    if isinstance(message, (Hello, EchoRequest, EchoReply,
                            FeaturesRequest, BarrierRequest, BarrierReply)):
        return b""
    if isinstance(message, FeaturesReply):
        return _blob({"dpid": message.dpid, "ports": list(message.ports)})
    if isinstance(message, PacketIn):
        return _blob({
            "dpid": message.dpid, "in_port": message.in_port,
            "buffer_id": message.buffer_id,
            "packet": _packet_to_dict(message.packet),
        })
    if isinstance(message, PacketOut):
        return _blob({
            "dpid": message.dpid, "in_port": message.in_port,
            "buffer_id": message.buffer_id,
            "actions": [list(a.canonical()) for a in message.actions],
            "packet": _packet_to_dict(message.packet),
        })
    if isinstance(message, FlowMod):
        return _blob({
            "dpid": message.dpid,
            "command": message.command.value,
            "match": [list(pair) for pair in message.match.canonical()],
            "actions": [list(a.canonical()) for a in message.actions],
            "priority": message.priority,
            "idle_timeout": message.idle_timeout,
            "cookie": message.cookie,
        })
    raise OpenFlowError(f"cannot encode body of {type(message).__name__}")


def _decode_body(klass, body: bytes) -> OpenFlowMessage:
    if klass in (Hello, EchoRequest, EchoReply, FeaturesRequest,
                 BarrierRequest, BarrierReply):
        return klass()
    fields = _unblob(body)
    if klass is FeaturesReply:
        return FeaturesReply(dpid=fields["dpid"],
                             ports=tuple(fields["ports"]))
    if klass is PacketIn:
        return PacketIn(dpid=fields["dpid"], in_port=fields["in_port"],
                        buffer_id=fields["buffer_id"],
                        packet=_packet_from_dict(fields["packet"]))
    if klass is PacketOut:
        return PacketOut(dpid=fields["dpid"], in_port=fields["in_port"],
                         buffer_id=fields["buffer_id"],
                         actions=_actions_from_lists(fields["actions"]),
                         packet=_packet_from_dict(fields["packet"]))
    if klass is FlowMod:
        return FlowMod(
            dpid=fields["dpid"],
            command=FlowModCommand(fields["command"]),
            match=Match.from_canonical(
                tuple(tuple(pair) for pair in fields["match"])),
            actions=_actions_from_lists(fields["actions"]),
            priority=fields["priority"],
            idle_timeout=fields["idle_timeout"],
            cookie=fields["cookie"],
        )
    raise OpenFlowError(f"cannot decode body of {klass.__name__}")


def _actions_from_lists(items) -> Tuple[Action, ...]:
    actions = []
    for item in items:
        tag = item[0]
        if tag == "drop":
            actions.append(ActionDrop())
        elif tag == "output":
            port = item[1]
            from repro.openflow.constants import OFPP_CONTROLLER, OFPP_FLOOD

            if port == OFPP_FLOOD:
                actions.append(ActionFlood())
            elif port == OFPP_CONTROLLER:
                actions.append(ActionController())
            else:
                actions.append(ActionOutput(port))
        else:
            raise OpenFlowError(f"unknown action tag {tag!r}")
    return tuple(actions)


def _packet_to_dict(packet: Optional[Packet]) -> Optional[dict]:
    if packet is None:
        return None
    payload: Any = None
    if isinstance(packet.payload, LldpPayload):
        payload = {"__lldp__": [packet.payload.src_dpid,
                                packet.payload.src_port,
                                packet.payload.controller_id]}
    elif isinstance(packet.payload, (str, int, float, type(None))):
        payload = packet.payload
    # Complex payloads (e.g. encapsulated control messages) are not
    # serialized — recording captures the outer message instead.
    return {
        "src_mac": packet.src_mac, "dst_mac": packet.dst_mac,
        "eth_type": int(packet.eth_type),
        "src_ip": packet.src_ip, "dst_ip": packet.dst_ip,
        "ip_proto": None if packet.ip_proto is None else int(packet.ip_proto),
        "src_port": packet.src_port, "dst_port": packet.dst_port,
        "payload": payload, "size": packet.size, "flow_id": packet.flow_id,
    }


def _packet_from_dict(fields: Optional[dict]) -> Optional[Packet]:
    if fields is None:
        return None
    payload = fields["payload"]
    if isinstance(payload, dict) and "__lldp__" in payload:
        src_dpid, src_port, controller_id = payload["__lldp__"]
        payload = LldpPayload(src_dpid=src_dpid, src_port=src_port,
                              controller_id=controller_id)
    return Packet(
        src_mac=fields["src_mac"], dst_mac=fields["dst_mac"],
        eth_type=EtherType(fields["eth_type"]),
        src_ip=fields["src_ip"], dst_ip=fields["dst_ip"],
        ip_proto=None if fields["ip_proto"] is None
        else IpProto(fields["ip_proto"]),
        src_port=fields["src_port"], dst_port=fields["dst_port"],
        payload=payload, size=fields["size"], flow_id=fields["flow_id"],
    )
