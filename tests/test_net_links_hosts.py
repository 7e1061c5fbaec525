"""Tests for data links and hosts."""

from repro.net.hosts import Host
from repro.net.links import Link
from repro.net.packet import arp_request, tcp_packet
from repro.sim.latency import Fixed
from repro.sim.simulator import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def receive_packet(self, packet, port):
        self.received.append((packet, port))


def test_link_delivers_to_opposite_end():
    sim = Simulator()
    a, b = Sink(), Sink()
    link = Link(sim, a, 1, b, 2, latency=Fixed(0.5))
    packet = tcp_packet("x", "y", "1.1.1.1", "2.2.2.2", 1, 2)
    link.transmit(a, packet)
    sim.run()
    assert b.received == [(packet, 2)]
    assert a.received == []


def test_link_counts_bytes():
    sim = Simulator()
    a, b = Sink(), Sink()
    link = Link(sim, a, 1, b, 2)
    link.transmit(a, tcp_packet("x", "y", "1.1.1.1", "2.2.2.2", 1, 2, size=100))
    sim.run()
    assert link.counter.bytes == 100


def test_failed_link_drops_packets():
    sim = Simulator()
    a, b = Sink(), Sink()
    link = Link(sim, a, 1, b, 2, latency=Fixed(1.0))
    link.transmit(a, tcp_packet("x", "y", "1.1.1.1", "2.2.2.2", 1, 2))
    link.fail()
    sim.run()
    assert b.received == []
    link.restore()
    link.transmit(a, tcp_packet("x", "y", "1.1.1.1", "2.2.2.2", 1, 3))
    sim.run()
    assert len(b.received) == 1


def test_endpoint_for():
    sim = Simulator()
    a, b = Sink(), Sink()
    link = Link(sim, a, 3, b, 9)
    assert link.endpoint_for(a) == 3
    assert link.endpoint_for(b) == 9


def make_host_pair(sim):
    h1 = Host(sim, "h1", "aa:01", "10.0.0.1")
    h2 = Host(sim, "h2", "aa:02", "10.0.0.2")
    link = Link(sim, h1, 1, h2, 1)
    h1.attach(link)
    h2.attach(link)
    return h1, h2


def test_host_replies_to_arp_for_own_ip():
    sim = Simulator()
    h1, h2 = make_host_pair(sim)
    h1.send(arp_request(h1.mac, h1.ip, h2.ip))
    sim.run()
    # h2 answered; h1 received the unicast reply.
    assert len(h1.received) == 1
    reply = h1.received[0]
    assert reply.src_mac == h2.mac
    assert reply.dst_mac == h1.mac


def test_host_ignores_arp_for_other_ip():
    sim = Simulator()
    h1, h2 = make_host_pair(sim)
    h1.send(arp_request(h1.mac, h1.ip, "10.0.0.99"))
    sim.run()
    assert h1.received == []
    # The request was delivered to h2 but not answered; h2 recorded it.
    assert len(h2.received) == 1


def test_open_connection_uses_unique_ports():
    sim = Simulator()
    h1, h2 = make_host_pair(sim)
    h1.open_connection(h2)
    h1.open_connection(h2)
    sim.run()
    ports = {p.src_port for p in h2.received}
    assert len(ports) == 2


def test_received_by_flow_tracking():
    sim = Simulator()
    h1, h2 = make_host_pair(sim)
    flow_id = h1.open_connection(h2)
    sim.run()
    assert h2.received_by_flow[flow_id] == 1


def test_unattached_host_send_is_safe():
    sim = Simulator()
    host = Host(sim, "h", "aa", "10.0.0.1")
    host.send(arp_request(host.mac, host.ip, "10.0.0.2"))  # no crash
    assert host.sent == 0
