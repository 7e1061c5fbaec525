"""Tests for the flow table: priorities, exact-match fast path, deletion."""

from repro.net.packet import tcp_packet
from repro.openflow.actions import ActionDrop, ActionOutput
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match


def tcp(sport=1000):
    return tcp_packet("aa", "bb", "10.0.0.1", "10.0.0.2", sport, 80)


def exact_entry(packet, port=2, priority=100, in_port=1):
    return FlowEntry(match=Match.for_flow(packet, in_port=in_port),
                     actions=(ActionOutput(port),), priority=priority)


def test_lookup_hits_exact_entry():
    table = FlowTable()
    packet = tcp()
    table.add(exact_entry(packet))
    found = table.lookup(packet, in_port=1)
    assert found is not None
    assert found.actions == (ActionOutput(2),)
    assert table.lookup(packet, in_port=9) is None


def test_lookup_miss_returns_none():
    table = FlowTable()
    assert table.lookup(tcp(), in_port=1) is None


def test_priority_order_among_wildcards():
    table = FlowTable()
    low = FlowEntry(match=Match(dl_dst="bb"), actions=(ActionOutput(1),), priority=10)
    high = FlowEntry(match=Match(dl_dst="bb"), actions=(ActionOutput(2),), priority=50)
    table.add(low)
    table.add(high)
    found = table.lookup(tcp(), in_port=1)
    assert found.actions == (ActionOutput(2),)


def test_higher_priority_wildcard_beats_exact():
    table = FlowTable()
    packet = tcp()
    table.add(exact_entry(packet, port=2, priority=100))
    table.add(FlowEntry(match=Match(dl_dst="bb"),
                        actions=(ActionDrop(),), priority=200))
    found = table.lookup(packet, in_port=1)
    assert found.actions == (ActionDrop(),)


def test_exact_beats_lower_priority_wildcard():
    table = FlowTable()
    packet = tcp()
    table.add(exact_entry(packet, port=2, priority=100))
    table.add(FlowEntry(match=Match(dl_dst="bb"),
                        actions=(ActionDrop(),), priority=50))
    found = table.lookup(packet, in_port=1)
    assert found.actions == (ActionOutput(2),)


def test_duplicate_add_replaces():
    table = FlowTable()
    packet = tcp()
    table.add(exact_entry(packet, port=2))
    table.add(exact_entry(packet, port=3))
    assert len(table) == 1
    assert table.lookup(packet, in_port=1).actions == (ActionOutput(3),)


def test_delete_exact():
    table = FlowTable()
    packet = tcp()
    entry = exact_entry(packet)
    table.add(entry)
    assert table.delete(entry.match) == 1
    assert len(table) == 0
    assert table.delete(entry.match) == 0


def test_delete_strict_requires_priority():
    table = FlowTable()
    packet = tcp()
    entry = exact_entry(packet, priority=77)
    table.add(entry)
    assert table.delete(entry.match, strict_priority=10) == 0
    assert table.delete(entry.match, strict_priority=77) == 1


def test_delete_wildcard():
    table = FlowTable()
    match = Match(dl_dst="bb")
    table.add(FlowEntry(match=match, actions=(ActionOutput(1),), priority=5))
    assert table.delete(match) == 1


def test_find_returns_installed_entry():
    table = FlowTable()
    packet = tcp()
    entry = exact_entry(packet, priority=42)
    table.add(entry)
    assert table.find(entry.match, 42) is entry
    assert table.find(entry.match, 43) is None


def test_iteration_covers_exact_and_wildcard():
    table = FlowTable()
    table.add(exact_entry(tcp(1)))
    table.add(FlowEntry(match=Match(dl_dst="bb"), actions=(), priority=1))
    assert len(list(table)) == 2
    assert len(table.entries) == 2


def test_hit_statistics_updated_by_switch_usage():
    entry = exact_entry(tcp())
    assert entry.packets == 0
    entry.packets += 1
    entry.bytes += 74
    assert entry.packets == 1


def test_scaling_many_exact_entries_constant_lookup():
    table = FlowTable()
    for sport in range(2000):
        table.add(exact_entry(tcp(sport)))
    assert len(table) == 2000
    packet = tcp(1500)
    found = table.lookup(packet, in_port=1)
    assert found is not None
