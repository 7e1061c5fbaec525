"""Tests for the packet model."""

from repro.net.packet import (
    ETH_BROADCAST,
    EtherType,
    IpProto,
    LldpPayload,
    arp_reply,
    arp_request,
    lldp_probe,
    tcp_packet,
)


def test_arp_request_is_broadcast():
    packet = arp_request("aa:aa", "10.0.0.1", "10.0.0.2")
    assert packet.is_arp
    assert packet.is_broadcast
    assert packet.dst_mac == ETH_BROADCAST
    assert packet.src_ip == "10.0.0.1"
    assert packet.dst_ip == "10.0.0.2"


def test_arp_reply_is_unicast():
    packet = arp_reply("bb:bb", "10.0.0.2", "aa:aa", "10.0.0.1")
    assert packet.is_arp
    assert not packet.is_broadcast
    assert packet.dst_mac == "aa:aa"


def test_tcp_packet_fields():
    packet = tcp_packet("aa", "bb", "10.0.0.1", "10.0.0.2", 1234, 80)
    assert packet.eth_type == EtherType.IPV4
    assert packet.ip_proto == IpProto.TCP
    assert packet.src_port == 1234
    assert packet.dst_port == 80
    assert not packet.is_arp
    assert not packet.is_lldp


def test_lldp_probe_carries_origin():
    packet = lldp_probe(7, 3, controller_id="c2")
    assert packet.is_lldp
    payload = packet.payload
    assert isinstance(payload, LldpPayload)
    assert payload.src_dpid == 7
    assert payload.src_port == 3
    assert payload.controller_id == "c2"


def test_packets_are_immutable():
    packet = arp_request("aa", "10.0.0.1", "10.0.0.2")
    try:
        packet.src_mac = "bb"
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_summary_formats():
    assert "ARP" in arp_request("a", "1.1.1.1", "2.2.2.2").summary()
    assert "LLDP" in lldp_probe(1, 1).summary()
    assert "TCP" in tcp_packet("a", "b", "1.1.1.1", "2.2.2.2", 5, 6).summary()


def test_flow_id_tracking():
    packet = tcp_packet("a", "b", "1.1.1.1", "2.2.2.2", 5, 6, flow_id=42)
    assert packet.flow_id == 42
