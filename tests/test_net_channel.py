"""Tests for control channels and byte accounting."""

from repro.net.channel import ByteCounter, ControlChannel
from repro.sim.latency import Fixed, Uniform
from repro.sim.simulator import Simulator


class Endpoint:
    def __init__(self):
        self.received = []

    def handle_control_message(self, channel, message):
        self.received.append(message)


class Sized:
    def __init__(self, size):
        self._size = size

    def wire_size(self):
        return self._size


def test_bidirectional_delivery():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b, latency=Fixed(1.0))
    chan.send(a, "to-b")
    chan.send(b, "to-a")
    sim.run()
    assert b.received == ["to-b"]
    assert a.received == ["to-a"]


def test_in_order_delivery_under_jitter():
    sim = Simulator(seed=3)
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b, latency=Uniform(0.1, 5.0))
    for i in range(50):
        sim.schedule(i * 0.01, chan.send, a, i)
    sim.run()
    assert b.received == list(range(50))


def test_byte_counting():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    shared = ByteCounter("shared")
    chan = ControlChannel(sim, a, b, counter=shared)
    chan.send(a, Sized(100))
    chan.send(a, Sized(50))
    sim.run()
    assert chan.counter.bytes == 150
    assert chan.counter.messages == 2
    assert shared.bytes == 150


def test_unsized_messages_use_default():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b)
    chan.send(a, "plain")
    sim.run()
    assert chan.counter.bytes == 64


def test_mbps_conversion():
    counter = ByteCounter()
    counter.add(125_000)  # 1 Mbit
    assert abs(counter.mbps(1000.0) - 1.0) < 1e-9
    assert counter.mbps(0.0) == 0.0


def test_failed_channel_drops_messages():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b, latency=Fixed(5.0))
    chan.send(a, "in-flight")
    chan.fail()
    chan.send(a, "after-fail")
    sim.run()
    assert b.received == []


def test_restore_resumes_delivery():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b, latency=Fixed(1.0))
    chan.fail()
    chan.restore()
    chan.send(a, "ok")
    sim.run()
    assert b.received == ["ok"]


def test_other_endpoint():
    sim = Simulator()
    a, b = Endpoint(), Endpoint()
    chan = ControlChannel(sim, a, b)
    assert chan.other(a) is b
    assert chan.other(b) is a
