"""Priority-ordered flow table for the soft switch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import OpenFlowError
from repro.net.packet import Packet
from repro.openflow.actions import Action
from repro.openflow.match import Match


@dataclass
class FlowEntry:
    """An installed flow rule with hit statistics."""

    match: Match
    actions: Tuple[Action, ...]
    priority: int = 100
    cookie: int = 0
    packets: int = 0
    bytes: int = 0

    def key(self) -> Tuple:
        """Identity for strict delete/modify: (match, priority)."""
        return (self.match.canonical(), self.priority)


def _exact_signature(match: Match) -> Optional[Tuple]:
    """TCAM fast-path signature for fully specified (exact) matches.

    Exact src-dst rules dominate reactive workloads; indexing them by a
    header tuple keeps lookup O(1) instead of scanning hundreds of
    thousands of entries at high PACKET_IN rates.
    """
    fields = (match.in_port, match.dl_src, match.dl_dst, match.dl_type,
              match.nw_src, match.nw_dst, match.nw_proto,
              match.tp_src, match.tp_dst)
    if any(f is None for f in fields):
        return None
    return fields


def _packet_signature(packet: Packet, in_port: Optional[int]) -> Tuple:
    return (in_port, packet.src_mac, packet.dst_mac, int(packet.eth_type),
            packet.src_ip, packet.dst_ip,
            None if packet.ip_proto is None else int(packet.ip_proto),
            packet.src_port, packet.dst_port)


class FlowTable:
    """A single OpenFlow table: highest priority wins, FIFO within priority.

    Fully specified matches live in an exact-match hash index; wildcard
    entries in a small priority-sorted list.
    """

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = max_entries
        self._exact: dict = {}
        self._wildcards: List[FlowEntry] = []

    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcards)

    def __iter__(self):
        yield from self._exact.values()
        yield from self._wildcards

    @property
    def entries(self) -> Tuple[FlowEntry, ...]:
        return tuple(self)

    def add(self, entry: FlowEntry) -> None:
        """Install an entry, replacing an exact (match, priority) duplicate."""
        if self.max_entries is not None and len(self) >= self.max_entries:
            if self.find(entry.match, entry.priority) is None:
                raise OpenFlowError(
                    f"flow table full ({self.max_entries} entries)"
                )
        signature = _exact_signature(entry.match)
        if signature is not None:
            self._exact[signature] = entry
            return
        self._wildcards = [e for e in self._wildcards if e.key() != entry.key()]
        self._wildcards.append(entry)
        # Descending priority; stable sort preserves FIFO within a priority.
        self._wildcards.sort(key=lambda e: -e.priority)

    def find(self, match: Match, priority: int) -> Optional[FlowEntry]:
        """Locate the entry with exactly this (match, priority), if any."""
        signature = _exact_signature(match)
        if signature is not None:
            entry = self._exact.get(signature)
            if entry is not None and entry.priority == priority:
                return entry
            return None
        key = (match.canonical(), priority)
        for entry in self._wildcards:
            if entry.key() == key:
                return entry
        return None

    def delete(self, match: Match, strict_priority: Optional[int] = None) -> int:
        """Remove matching entries; returns how many were removed.

        Non-strict delete removes every entry whose match equals ``match``
        regardless of priority (the common controller usage here); strict
        delete requires the priority too.
        """
        signature = _exact_signature(match)
        if signature is not None:
            entry = self._exact.get(signature)
            if entry is None:
                return 0
            if strict_priority is not None and entry.priority != strict_priority:
                return 0
            del self._exact[signature]
            return 1
        before = len(self._wildcards)
        if strict_priority is None:
            canonical = match.canonical()
            self._wildcards = [e for e in self._wildcards
                               if e.match.canonical() != canonical]
        else:
            key = (match.canonical(), strict_priority)
            self._wildcards = [e for e in self._wildcards if e.key() != key]
        return before - len(self._wildcards)

    def lookup(self, packet: Packet, in_port: Optional[int] = None) -> Optional[FlowEntry]:
        """Return the highest-priority entry matching the packet, or None."""
        exact = self._exact.get(_packet_signature(packet, in_port))
        for entry in self._wildcards:
            if exact is not None and entry.priority <= exact.priority:
                break  # wildcards are priority-sorted; exact entry wins
            if entry.match.matches(packet, in_port):
                return entry
        return exact
