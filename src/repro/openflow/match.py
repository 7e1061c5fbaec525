"""OpenFlow 1.0 match structure with field-prerequisite validation.

OpenFlow 1.0 match fields form a hierarchy: network-layer fields
(``nw_src``/``nw_dst``/``nw_proto``) are only meaningful when ``dl_type``
selects IPv4 or ARP, and transport-layer fields (``tp_src``/``tp_dst``) only
when ``nw_proto`` selects TCP/UDP/ICMP. OpenFlow 1.0 switches *silently
discard* fields whose prerequisites are unset — the behaviour behind the
"ODL incorrect FLOW_MOD" fault (T3), where the switch-installed flow diverges
from the data store. :meth:`Match.validate_hierarchy` detects such matches
and :meth:`Match.strip_unsupported_fields` reproduces the switch behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.errors import MatchFieldError
from repro.net.packet import EtherType, IpProto, Packet

_NW_FIELDS = ("nw_src", "nw_dst", "nw_proto")
_TP_FIELDS = ("tp_src", "tp_dst")
_NW_ETH_TYPES = (int(EtherType.IPV4), int(EtherType.ARP))
_TP_PROTOS = (int(IpProto.TCP), int(IpProto.UDP), int(IpProto.ICMP))


@dataclass(frozen=True)
class Match:
    """A wildcard-capable match over the OpenFlow 1.0 12-tuple subset.

    ``None`` means "wildcard". Matches are hashable and canonically ordered,
    so they can serve directly as cache keys and consensus entries. A match
    is canonicalised several times per flow (cache key, cache value,
    FLOW_MOD), so :meth:`canonical` is computed once and kept on the frozen
    instance — outside the fields, invisible to ``==``, ``hash``, ``repr``,
    pickling and :func:`dataclasses.replace`.
    """

    in_port: Optional[int] = None
    dl_src: Optional[str] = None
    dl_dst: Optional[str] = None
    dl_type: Optional[int] = None
    nw_src: Optional[str] = None
    nw_dst: Optional[str] = None
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    # Class-level "not computed yet"; the computed value shadows it in the
    # instance ``__dict__``.
    _canonical: ClassVar[Optional[Tuple]] = None

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle/copy the fields only; the memo is recomputed on demand."""
        state = dict(self.__dict__)
        state.pop("_canonical", None)
        return state

    # ------------------------------------------------------------------
    # Prerequisite hierarchy
    # ------------------------------------------------------------------
    def hierarchy_violations(self) -> Tuple[str, ...]:
        """Return the names of fields whose prerequisites are unset."""
        bad = []
        nw_ok = self.dl_type in _NW_ETH_TYPES
        if not nw_ok:
            bad.extend(f for f in _NW_FIELDS if getattr(self, f) is not None)
        tp_ok = nw_ok and self.nw_proto in _TP_PROTOS
        if not tp_ok:
            bad.extend(f for f in _TP_FIELDS if getattr(self, f) is not None)
        return tuple(bad)

    def validate_hierarchy(self) -> None:
        """Raise :class:`MatchFieldError` if any prerequisite is violated."""
        bad = self.hierarchy_violations()
        if bad:
            raise MatchFieldError(
                f"match fields {bad} set without their prerequisites: {self}"
            )

    def strip_unsupported_fields(self) -> "Match":
        """Reproduce OpenFlow 1.0 switch behaviour: drop orphan fields.

        A well-formed match is returned unchanged; a malformed one comes
        back *different* from what the controller stored — the switch/store
        inconsistency of the ODL incorrect-FLOW_MOD fault.
        """
        bad = self.hierarchy_violations()
        if not bad:
            return self
        return replace(self, **{name: None for name in bad})

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def matches(self, packet: Packet, in_port: Optional[int] = None) -> bool:
        """True if ``packet`` arriving on ``in_port`` satisfies this match."""
        checks = (
            (self.in_port, in_port),
            (self.dl_src, packet.src_mac),
            (self.dl_dst, packet.dst_mac),
            (self.dl_type, int(packet.eth_type)),
            (self.nw_src, packet.src_ip),
            (self.nw_dst, packet.dst_ip),
            (self.nw_proto, None if packet.ip_proto is None else int(packet.ip_proto)),
            (self.tp_src, packet.src_port),
            (self.tp_dst, packet.dst_port),
        )
        return all(want is None or want == got for want, got in checks)

    def specificity(self) -> int:
        """Number of non-wildcard fields (used for tie-breaking diagnostics)."""
        return sum(1 for f in fields(self) if getattr(self, f.name) is not None)

    def canonical(self) -> Tuple:
        """A hashable canonical form used as a consensus/cache entry."""
        canonical = self._canonical
        if canonical is None:
            canonical = tuple((f.name, getattr(self, f.name))
                              for f in fields(self)
                              if getattr(self, f.name) is not None)
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    @classmethod
    def from_canonical(cls, canonical: Tuple) -> "Match":
        """Rebuild a Match from its :meth:`canonical` form."""
        return cls(**dict(canonical))

    @classmethod
    def for_flow(cls, packet: Packet, in_port: Optional[int] = None) -> "Match":
        """Exact src-dst match for a data packet (ONOS reactive style)."""
        nw_proto = None if packet.ip_proto is None else int(packet.ip_proto)
        return cls(
            in_port=in_port,
            dl_src=packet.src_mac,
            dl_dst=packet.dst_mac,
            dl_type=int(packet.eth_type),
            nw_src=packet.src_ip,
            nw_dst=packet.dst_ip,
            nw_proto=nw_proto,
            tp_src=packet.src_port,
            tp_dst=packet.dst_port,
        )

    @classmethod
    def for_destination(cls, dst_mac: str) -> "Match":
        """Destination-only match (ODL proactive style)."""
        return cls(dl_dst=dst_mac)
