"""A compact packet model.

Packets carry exactly the header fields OpenFlow 1.0 can match on
(:class:`repro.openflow.match.Match`), plus an opaque payload used for LLDP
probes and encapsulated control messages. Packets are immutable; "modifying"
a packet (e.g. re-encapsulation) creates a new one via ``dataclasses.replace``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

ETH_BROADCAST = "ff:ff:ff:ff:ff:ff"


class EtherType(enum.IntEnum):
    """Ethernet frame types used in this reproduction."""

    IPV4 = 0x0800
    ARP = 0x0806
    LLDP = 0x88CC


class IpProto(enum.IntEnum):
    """IP protocol numbers used in this reproduction."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass(frozen=True)
class LldpPayload:
    """LLDP TLVs relevant to SDN topology discovery.

    Controllers stamp outgoing probes with the origin datapath and port (and
    their own controller id, which the ONOS master-election liveness
    algorithm reads).
    """

    src_dpid: int
    src_port: int
    controller_id: Optional[str] = None


@dataclass(frozen=True)
class Packet:
    """An Ethernet frame with optional IP/TCP headers.

    ``size`` is the wire size in bytes, used for the paper's network-overhead
    accounting (§VII-B.2). ``payload`` holds an :class:`LldpPayload`, an
    encapsulated control message, or arbitrary application data.
    """

    src_mac: str
    dst_mac: str
    eth_type: EtherType
    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    ip_proto: Optional[IpProto] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    payload: Any = None
    size: int = 64
    flow_id: Optional[int] = field(default=None)

    @property
    def is_lldp(self) -> bool:
        return self.eth_type == EtherType.LLDP

    @property
    def is_arp(self) -> bool:
        return self.eth_type == EtherType.ARP

    @property
    def is_broadcast(self) -> bool:
        return self.dst_mac == ETH_BROADCAST

    def summary(self) -> str:
        """Short human-readable description for alarms and logs."""
        if self.is_lldp:
            return f"LLDP({self.payload})"
        if self.is_arp:
            return f"ARP({self.src_ip}->{self.dst_ip})"
        proto = self.ip_proto.name if self.ip_proto is not None else "?"
        return (
            f"{proto}({self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port})"
        )


def arp_request(src_mac: str, src_ip: str, dst_ip: str, flow_id: Optional[int] = None) -> Packet:
    """Broadcast ARP who-has ``dst_ip``."""
    return Packet(
        src_mac=src_mac,
        dst_mac=ETH_BROADCAST,
        eth_type=EtherType.ARP,
        src_ip=src_ip,
        dst_ip=dst_ip,
        size=60,
        flow_id=flow_id,
    )


def arp_reply(
    src_mac: str, src_ip: str, dst_mac: str, dst_ip: str, flow_id: Optional[int] = None
) -> Packet:
    """Unicast ARP reply."""
    return Packet(
        src_mac=src_mac,
        dst_mac=dst_mac,
        eth_type=EtherType.ARP,
        src_ip=src_ip,
        dst_ip=dst_ip,
        size=60,
        flow_id=flow_id,
    )


def tcp_packet(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    size: int = 74,
    flow_id: Optional[int] = None,
) -> Packet:
    """First packet (SYN) of a TCP connection — the unit tcpreplay drives."""
    return Packet(
        src_mac=src_mac,
        dst_mac=dst_mac,
        eth_type=EtherType.IPV4,
        src_ip=src_ip,
        dst_ip=dst_ip,
        ip_proto=IpProto.TCP,
        src_port=src_port,
        dst_port=dst_port,
        size=size,
        flow_id=flow_id,
    )


def lldp_probe(src_dpid: int, src_port: int, controller_id: Optional[str] = None) -> Packet:
    """LLDP probe emitted by a controller through a switch port."""
    return Packet(
        src_mac=f"lldp:{src_dpid:02x}",
        dst_mac="01:80:c2:00:00:0e",
        eth_type=EtherType.LLDP,
        payload=LldpPayload(src_dpid=src_dpid, src_port=src_port, controller_id=controller_id),
        size=68,
    )
