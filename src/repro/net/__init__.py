"""Network substrate: packets, links, hosts, soft switches, and topologies.

This package plays the role of the paper's physical testbed and Mininet
network: programmable soft switches (OVS-alikes) with OpenFlow flow tables,
hosts that originate ARP/TCP traffic, latency-modeled links, and topology
builders for the linear Mininet network and the three-tier hardware testbed.
"""

from repro.net.channel import ByteCounter, ControlChannel
from repro.net.hosts import Host
from repro.net.links import Link
from repro.net.ovs import ReplicatingProxy
from repro.net.packet import (
    ETH_BROADCAST,
    EtherType,
    IpProto,
    LldpPayload,
    Packet,
    arp_reply,
    arp_request,
    lldp_probe,
    tcp_packet,
)
from repro.net.switch import SoftSwitch
from repro.net.topology import Topology, linear_topology, three_tier_topology

__all__ = [
    "ByteCounter",
    "ControlChannel",
    "ETH_BROADCAST",
    "EtherType",
    "Host",
    "IpProto",
    "Link",
    "LldpPayload",
    "Packet",
    "ReplicatingProxy",
    "SoftSwitch",
    "Topology",
    "arp_reply",
    "arp_request",
    "lldp_probe",
    "linear_topology",
    "tcp_packet",
    "three_tier_topology",
]
