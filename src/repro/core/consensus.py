"""Consensus evaluation and the network/cache sanity check.

``evaluate_consensus`` implements the CONSENSUS step of Algorithm 1 with the
three refinements of §IV-C:

* **Transient state asynchrony** — the primary's action is validated only
  against secondary replicas whose state digest matches the primary's, so
  an eventually-consistent cluster's laggards cannot cause false positives.
* **Non-determinism** — if every replica produced a distinct response, the
  action is labelled non-deterministic and non-faulty; otherwise majority
  among equivalent-state replicas applies.
* **Slow replicas / omissions** — an absent primary response against
  non-empty replica responses is a response-omission (timing) fault.

``sanity_check`` asserts that the primary's *network* writes are consistent
with the *cache* updates (the T2 detector): every FLOW_MOD must be justified
by a flow-cache write and vice versa; PACKET_OUTs are exempt (they have no
cache footprint by design).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.alarms import AlarmReason
from repro.core.responses import Response, ResponseKind
from repro.datastore.caches import FLOWSDB
from repro.openflow.constants import FlowState


@dataclass
class ConsensusOutcome:
    """Result of the consensus step for one trigger."""

    ok: bool
    reason: Optional[AlarmReason] = None
    offending: Optional[str] = None
    detail: str = ""
    primary_id: Optional[str] = None
    primary_cache_entry: Tuple = ()
    primary_network_entry: Tuple = ()
    non_deterministic: bool = False
    compared_replicas: int = 0


def evaluate_consensus(responses: Sequence[Response], k: int,
                       external: bool,
                       state_aware: bool = True) -> ConsensusOutcome:
    """Run the consensus mechanism over one trigger's responses.

    ``state_aware=False`` disables the snapshot grouping of §IV-C (used by
    the ablation benchmark): the primary is compared against *all* replicas
    regardless of their view, which re-introduces false positives under
    eventual consistency.
    """
    replicas = [r for r in responses if r.kind == ResponseKind.REPLICA_RESULT]
    cache_relays = [r for r in responses if r.kind == ResponseKind.CACHE_UPDATE]
    network = [r for r in responses if r.kind == ResponseKind.NETWORK_WRITE]

    primary_id = _primary_id(replicas, cache_relays, network)
    cache_entry, cache_deviant = _cache_majority(cache_relays)
    # The full network entry (all emitters, incl. remote masters emitting
    # FLOW_MODs for cache writes they observed) feeds the sanity check; the
    # consensus comparison uses only the primary's OWN emissions, because
    # shadow replicas can only reproduce what the primary itself would send.
    network_entry = _merge_network(network)
    own_network_entry = _merge_network(
        [r for r in network if r.controller_id == primary_id])
    primary_digest = _primary_digest(primary_id, cache_relays, network)

    if cache_deviant is not None:
        return ConsensusOutcome(
            ok=False, reason=AlarmReason.CONSENSUS_MISMATCH,
            offending=cache_deviant, primary_id=primary_id,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry,
            detail="cache relay deviates from majority (incorrect replicated state)")

    if not external:
        # Internal triggers: the relayed copies of the origin's cache events
        # must agree (checked above); network/cache coherence and policies
        # are checked by the caller.
        return ConsensusOutcome(
            ok=True, primary_id=primary_id,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry)

    primary_combined = (cache_entry, own_network_entry)
    has_primary = bool(cache_relays or network)

    if not has_primary:
        # No untainted response from the primary at all. If the replicas'
        # shadow executions externalized anything, the primary omitted its
        # response — the database-locking detection path (§VII-A1).
        non_empty = [r for r in replicas if r.entry != ((), ())]
        # Majority of the *expected* k replicas must have externalized:
        # during state churn a lone lagging replica shadow-produces writes
        # the up-to-date primary correctly skipped.
        if replicas and len(non_empty) * 2 > max(len(replicas), k):
            return ConsensusOutcome(
                ok=False, reason=AlarmReason.PRIMARY_OMISSION,
                offending=primary_id, primary_id=primary_id,
                detail=f"{len(non_empty)}/{len(replicas)} replicas externalized "
                       "responses but the primary did not")
        return ConsensusOutcome(ok=True, primary_id=primary_id)

    if not replicas:
        # Nothing to compare against (e.g. k=0); fall through to sanity/policy.
        return ConsensusOutcome(
            ok=True, primary_id=primary_id,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry)

    if any(r.declared_non_deterministic for r in replicas):
        # §VIII extension: the application identified itself as
        # non-deterministic, so majority comparison is skipped outright.
        return ConsensusOutcome(
            ok=True, non_deterministic=True, primary_id=primary_id,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry)

    entries = [r.entry for r in replicas]
    if len(entries) >= 2 and len(set(entries)) == len(entries):
        # Every replica distinct: non-deterministic application logic.
        return ConsensusOutcome(
            ok=True, non_deterministic=True, primary_id=primary_id,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry)

    comparable = [r for r in replicas
                  if not state_aware
                  or primary_digest is None
                  or r.state_digest == primary_digest]
    if not comparable:
        # No replica shared the primary's view — inconclusive, avert the FP.
        return ConsensusOutcome(
            ok=True, primary_id=primary_id, compared_replicas=0,
            primary_cache_entry=cache_entry, primary_network_entry=network_entry,
            detail="no equivalent-state replicas; inconclusive")

    majority_entry, majority_count = Counter(
        r.entry for r in comparable).most_common(1)[0]
    if majority_count * 2 <= len(comparable):
        return ConsensusOutcome(
            ok=True, primary_id=primary_id, compared_replicas=len(comparable),
            primary_cache_entry=cache_entry, primary_network_entry=network_entry,
            detail="no majority among equivalent-state replicas; inconclusive")

    if primary_combined != majority_entry:
        return ConsensusOutcome(
            ok=False, reason=AlarmReason.CONSENSUS_MISMATCH,
            offending=primary_id, primary_id=primary_id,
            compared_replicas=len(comparable),
            primary_cache_entry=cache_entry, primary_network_entry=network_entry,
            detail=f"primary response deviates from {majority_count}/"
                   f"{len(comparable)} equivalent-state replicas")

    return ConsensusOutcome(
        ok=True, primary_id=primary_id, compared_replicas=len(comparable),
        primary_cache_entry=cache_entry, primary_network_entry=network_entry)


# ----------------------------------------------------------------------
# Sanity check: network writes vs cache updates (T2 detector)
# ----------------------------------------------------------------------

def sanity_check(cache_entry: Tuple, network_entry: Tuple,
                 primary_id: Optional[str]) -> ConsensusOutcome:
    """Assert the primary's network writes match the cache updates.

    Returns an ok outcome or a SANITY_MISMATCH naming the offender.
    """
    expected_flow_mods = _flow_mods_implied_by_cache(cache_entry)
    actual_flow_mods = {c for c in network_entry if c and c[0] == "flow_mod"}

    missing = expected_flow_mods - actual_flow_mods
    if missing:
        return ConsensusOutcome(
            ok=False, reason=AlarmReason.SANITY_MISMATCH, offending=primary_id,
            primary_id=primary_id,
            detail=f"cache promises {len(missing)} FLOW_MOD(s) absent from "
                   f"the network: {sorted(missing, key=repr)[:2]}")
    unjustified = actual_flow_mods - expected_flow_mods
    if unjustified:
        return ConsensusOutcome(
            ok=False, reason=AlarmReason.SANITY_MISMATCH, offending=primary_id,
            primary_id=primary_id,
            detail=f"{len(unjustified)} FLOW_MOD(s) on the network with no "
                   f"matching cache update: {sorted(unjustified, key=repr)[:2]}")
    return ConsensusOutcome(ok=True, primary_id=primary_id)


def _flow_mods_implied_by_cache(cache_entry: Tuple) -> set:
    """The FLOW_MOD canonicals a set of cache writes promises."""
    implied = set()
    for canonical in cache_entry:
        if not canonical or canonical[0] != "cache" or canonical[1] != FLOWSDB:
            continue
        _, _, key, op, value = canonical
        if not (isinstance(key, tuple) and len(key) == 4 and key[0] == "flow"):
            continue
        _, dpid, match_canonical, priority = key
        if op == "delete":
            implied.add(("flow_mod", dpid, "delete", match_canonical, (),
                         priority))
            continue
        fields = dict(value) if isinstance(value, tuple) else {}
        if fields.get("state") != FlowState.PENDING_ADD.value:
            continue  # reconciliation updates promise nothing new
        if "attempts" in fields:
            continue  # stranded-rule refresh, FLOW_MOD already (re)sent
        implied.add((
            "flow_mod", dpid, fields.get("command", "add"),
            fields.get("match", match_canonical), fields.get("actions", ()),
            fields.get("priority", priority),
        ))
    return implied


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _primary_id(replicas: List[Response], cache_relays: List[Response],
                network: List[Response]) -> Optional[str]:
    # The primary is the controller that received the trigger: the origin
    # of the cache write if one exists (a remote master may also emit
    # network writes for the same trigger, so network sender is a fallback).
    for response in cache_relays:
        origin = getattr(response, "origin", None)
        if origin:
            return origin
    for response in replicas:
        hint = getattr(response, "primary_hint", None)
        if hint:
            return hint
    for response in network:
        return response.controller_id
    return None


def _primary_digest(primary_id: Optional[str], cache_relays: List[Response],
                    network: List[Response]) -> Optional[Tuple]:
    """The primary's state digest, taken from its own relayed responses."""
    for response in cache_relays + network:
        if response.controller_id == primary_id and response.state_digest:
            return response.state_digest
    return None


def _cache_majority(cache_relays: List[Response]) -> Tuple[Tuple, Optional[str]]:
    """Majority cache entry among relays, plus a deviating relayer if any.

    Relays are copies of the same origin events; a deviation means a replica
    applied (and re-reported) corrupted state.
    """
    if not cache_relays:
        return (), None
    counts = Counter(r.entry for r in cache_relays)
    majority_entry, majority_count = counts.most_common(1)[0]
    if majority_count == len(cache_relays):
        return majority_entry, None
    if majority_count * 2 <= len(cache_relays):
        # No clear majority — blame the origin's own relay if it deviates,
        # otherwise the first deviant.
        majority_entry = counts.most_common(1)[0][0]
    for response in cache_relays:
        if response.entry != majority_entry:
            return majority_entry, response.controller_id
    return majority_entry, None


def _merge_network(network: List[Response]) -> Tuple:
    """Merge network-write bundles (origin + remote masters) for a trigger."""
    merged: List[Tuple] = []
    for response in network:
        merged.extend(response.entry)
    return tuple(sorted(set(merged), key=repr))


def unanimity_fast_consensus(responses: Sequence[Response], external: bool,
                             state_aware: bool,
                             merged_network) -> Optional[ConsensusOutcome]:
    """Unanimity fast path: the clean outcome or ``None`` (fall back).

    Returns an outcome only when it provably equals what
    :func:`evaluate_consensus` would produce — unanimous cache relays, a
    known primary, every replica sharing the primary's digest and entry,
    and the primary's combined response matching that entry. Anything
    murkier (omissions, deviations, non-determinism, partial state
    equivalence) must take the slow path, so taking the fast one can never
    change an outcome. ``merged_network`` is a (possibly memoised) callable
    with the contract of :func:`_merge_network`; the one caller,
    :class:`~repro.core.backends.shardcore.ShardCore`, passes its memo's.
    """
    replicas: List[Response] = []
    cache_relays: List[Response] = []
    network: List[Response] = []
    for r in responses:
        if r.kind == ResponseKind.REPLICA_RESULT:
            replicas.append(r)
        elif r.kind == ResponseKind.CACHE_UPDATE:
            cache_relays.append(r)
        else:
            network.append(r)

    cache_entry: Tuple = cache_relays[0].entry if cache_relays else ()
    primary_id: Optional[str] = None
    for r in cache_relays:
        if r.entry != cache_entry:
            return None  # deviant relay — slow path assigns blame
        if primary_id is None and r.origin:
            primary_id = r.origin
    if primary_id is None:
        for r in replicas:
            if r.primary_hint:
                primary_id = r.primary_hint
                break
    if primary_id is None and network:
        primary_id = network[0].controller_id

    network_entry = merged_network(network)

    if not external:
        return ConsensusOutcome(
            ok=True, primary_id=primary_id,
            primary_cache_entry=cache_entry,
            primary_network_entry=network_entry)

    if not (cache_relays or network):
        return None  # possible primary omission — slow path
    if not replicas:
        return ConsensusOutcome(
            ok=True, primary_id=primary_id,
            primary_cache_entry=cache_entry,
            primary_network_entry=network_entry)

    replica_entry = replicas[0].entry
    for r in replicas:
        if r.declared_non_deterministic or r.entry != replica_entry:
            return None

    primary_digest: Optional[Tuple] = None
    for r in cache_relays:
        if r.controller_id == primary_id and r.state_digest:
            primary_digest = r.state_digest
            break
    if primary_digest is None:
        for r in network:
            if r.controller_id == primary_id and r.state_digest:
                primary_digest = r.state_digest
                break
    if state_aware and primary_digest is not None:
        for r in replicas:
            if r.state_digest != primary_digest:
                return None  # partial equivalence — slow path

    own_network_entry = merged_network(
        [r for r in network if r.controller_id == primary_id])
    if (cache_entry, own_network_entry) != replica_entry:
        return None
    return ConsensusOutcome(
        ok=True, primary_id=primary_id,
        compared_replicas=len(replicas),
        primary_cache_entry=cache_entry,
        primary_network_entry=network_entry)
