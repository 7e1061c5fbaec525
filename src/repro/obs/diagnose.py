"""Alarm forensics: per-alarm explanations built from DecisionCore evidence.

The validator's alarms say *that* something failed; this module says *why*.
For every alarm raised by the check battery, :class:`AlarmForensics` builds
an :class:`AlarmExplanation` out of the evidence the decision already had in
hand — the response vector, the :class:`~repro.core.consensus.ConsensusOutcome`,
and the external/internal classification — and records:

* the **failed check** (consensus / sanity / staleness / policy, including
  the violated policy rule text),
* the **dissenting replica set** versus the agreeing one,
* the exact **cache keys and network writes that diverged**, as per-field
  diffs between the expected (majority) entry and the observed one,
* the inferred **T1/T2/T3 fault class** of the paper's taxonomy.

Explanations are plain frozen data: deterministic, JSON-serializable, and
held entirely inside the forensics object, which keeps each alarmed
decision's evidence and explains it on first read. Alarm objects themselves
are never touched, so the byte-identical alarm-stream contract of the
differential suite holds with forensics on or off by construction (the X501
cross-module rule enforces this: observers must not mutate engine state,
even one attribute deep). The forensics object is a pure observer behind
the same ``None`` fast path as the tracer and the metrics registry; it
never schedules events, draws randomness, or mutates validator state.

Offline, explanations come back from the ``alarms`` section of a saved
``jury-repro report`` file through :meth:`AlarmExplanation.from_dict`, so
the same :meth:`~AlarmExplanation.render`, :func:`render_explanations` and
:func:`find_explanation` serve a live run and a post-mortem alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alarms import Alarm, AlarmReason
from repro.core.consensus import ConsensusOutcome, _flow_mods_implied_by_cache
from repro.core.responses import Response, ResponseKind

#: Check of Algorithm 1 that raised each alarm reason.
CHECK_BY_REASON: Dict[AlarmReason, str] = {
    AlarmReason.PRIMARY_OMISSION: "consensus",
    AlarmReason.CONSENSUS_MISMATCH: "consensus",
    AlarmReason.SANITY_MISMATCH: "sanity",
    AlarmReason.STALE_REPLICA: "staleness",
    AlarmReason.POLICY_VIOLATION: "policy",
}

#: Inferred fault class (paper §III taxonomy) per detection mechanism.
#: Consensus deviations and omissions are wrong/withheld responses to a
#: trigger (T1); a cache/network coherence break is an inconsistent-state
#: fault (T2); a policy violation on an accepted outcome is faulty logic
#: the replicas agreed on (T3). Persistent staleness is a desynchronized
#: replica answering from the wrong state — T1, matching the class the
#: built-in StoreDesyncFault scenario declares.
FAULT_CLASS_BY_REASON: Dict[AlarmReason, str] = {
    AlarmReason.PRIMARY_OMISSION: "T1",
    AlarmReason.CONSENSUS_MISMATCH: "T1",
    AlarmReason.SANITY_MISMATCH: "T2",
    AlarmReason.STALE_REPLICA: "T1",
    AlarmReason.POLICY_VIOLATION: "T3",
}

FAULT_CLASS_DESCRIPTIONS: Dict[str, str] = {
    "T1": "wrong or withheld response to a trigger",
    "T2": "inconsistent controller state (cache/network divergence)",
    "T3": "policy-violating logic the replicas agree on",
}


@dataclass(frozen=True)
class FieldDiff:
    """One divergence between an expected and an observed entry.

    ``kind`` is ``missing`` (expected, not observed), ``unexpected``
    (observed, not expected) or ``changed`` (same key, different field
    value). All payloads are ``repr`` strings so the record is JSON-able
    and deterministic regardless of the underlying canonical types.
    """

    kind: str
    key: str
    field: str = ""
    expected: str = ""
    actual: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render(self) -> str:
        if self.kind == "changed":
            return (f"~ {self.key}: field {self.field!r} expected "
                    f"{self.expected} got {self.actual}")
        marker = "-" if self.kind == "missing" else "+"
        return f"{marker} {self.key} ({self.kind})"


def _entry_identity(canonical: Tuple) -> Tuple[Tuple, Dict[str, object]]:
    """Split a canonical entry into a stable identity key and its fields.

    Cache canonicals are identified by ``(cache, db, key)`` with ``op`` and
    the value fields comparable; FLOW_MOD canonicals by
    ``(flow_mod, dpid, match, priority)`` with ``command``/``actions``
    comparable. Anything else diffs as an opaque whole.
    """
    if (isinstance(canonical, tuple) and len(canonical) == 5
            and canonical[0] == "cache"):
        _, db, key, op, value = canonical
        attrs: Dict[str, object] = {"op": op}
        if (isinstance(value, tuple)
                and all(isinstance(pair, tuple) and len(pair) == 2
                        and isinstance(pair[0], str) for pair in value)):
            attrs.update(dict(value))
        else:
            attrs["value"] = value
        return ("cache", db, key), attrs
    if (isinstance(canonical, tuple) and len(canonical) == 6
            and canonical[0] == "flow_mod"):
        _, dpid, command, match, actions, priority = canonical
        return (("flow_mod", dpid, match, priority),
                {"command": command, "actions": actions})
    return (canonical,), {}


def diff_entries(expected: Sequence[Tuple],
                 actual: Sequence[Tuple]) -> Tuple[FieldDiff, ...]:
    """Per-field diff of two canonical entry bundles, deterministic order."""
    expected_by_id = {}
    actual_by_id = {}
    for canonical in expected:
        identity, attrs = _entry_identity(canonical)
        expected_by_id[identity] = attrs
    for canonical in actual:
        identity, attrs = _entry_identity(canonical)
        actual_by_id[identity] = attrs
    diffs: List[FieldDiff] = []
    for identity in sorted(expected_by_id, key=repr):
        if identity not in actual_by_id:
            diffs.append(FieldDiff(kind="missing", key=repr(identity)))
            continue
        want, got = expected_by_id[identity], actual_by_id[identity]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                diffs.append(FieldDiff(
                    kind="changed", key=repr(identity), field=name,
                    expected=repr(want.get(name)), actual=repr(got.get(name))))
    for identity in sorted(actual_by_id, key=repr):
        if identity not in expected_by_id:
            diffs.append(FieldDiff(kind="unexpected", key=repr(identity)))
    return tuple(diffs)


@dataclass(frozen=True)
class AlarmExplanation:
    """Forensic record for one alarm: evidence, diffs, and fault class."""

    trigger_id: str
    raised_at: float
    reason: str
    failed_check: str
    fault_class: str
    offending_controller: str = ""
    dissenting_replicas: Tuple[str, ...] = ()
    agreeing_replicas: Tuple[str, ...] = ()
    cache_diffs: Tuple[FieldDiff, ...] = ()
    network_diffs: Tuple[FieldDiff, ...] = ()
    policy_rule: str = ""
    detail: str = ""
    external: Optional[bool] = None
    n_responses: int = 0
    #: ``live`` when built from DecisionCore evidence at decision time.
    source: str = "live"

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("cache_diffs", "network_diffs"):
                value = [diff.to_dict() for diff in value]
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AlarmExplanation":
        """Inverse of :meth:`to_dict`; other keys (the export ``id``) are
        ignored."""
        values = {spec.name: payload[spec.name] for spec in fields(cls)
                  if spec.name in payload}
        for name in ("cache_diffs", "network_diffs"):
            values[name] = tuple(FieldDiff(**diff)
                                 for diff in values.get(name, ()))
        for name in ("dissenting_replicas", "agreeing_replicas"):
            values[name] = tuple(values.get(name, ()))
        return cls(**values)

    def render(self, explanation_id: str = "") -> str:
        """Human-readable report block (deterministic)."""
        head = f"{explanation_id}  " if explanation_id else ""
        klass = FAULT_CLASS_DESCRIPTIONS.get(self.fault_class, "")
        lines = [
            f"{head}ALARM {self.reason}  trigger {self.trigger_id}"
            f"  at {self.raised_at:.3f} ms",
            f"  fault class:  {self.fault_class}"
            + (f" ({klass})" if klass else ""),
            f"  failed check: {self.failed_check}",
            f"  offender:     {self.offending_controller or '<unattributed>'}",
        ]
        if self.dissenting_replicas or self.agreeing_replicas:
            lines.append(
                f"  dissenting:   {', '.join(self.dissenting_replicas) or '-'}"
                f"   agreeing: {', '.join(self.agreeing_replicas) or '-'}")
        if self.policy_rule:
            lines.append(f"  policy rule:  {self.policy_rule}")
        for title, diffs in (("cache diff", self.cache_diffs),
                             ("network diff", self.network_diffs)):
            if diffs:
                lines.append(f"  {title}:")
                lines.extend(f"    {diff.render()}" for diff in diffs)
        if self.detail:
            lines.append(f"  detail:       {self.detail}")
        if self.source != "live":
            lines.append(f"  source:       {self.source}")
        return "\n".join(lines)


def _split_responses(responses: Sequence[Response]):
    replicas = [r for r in responses if r.kind == ResponseKind.REPLICA_RESULT]
    relays = [r for r in responses if r.kind == ResponseKind.CACHE_UPDATE]
    network = [r for r in responses if r.kind == ResponseKind.NETWORK_WRITE]
    return replicas, relays, network


def _majority_replica_entry(replicas: Sequence[Response]) -> Tuple:
    entries = Counter(r.entry for r in replicas)
    if not entries:
        return ((), ())
    best = max(entries.items(), key=lambda item: (item[1], repr(item[0])))
    return best[0]


def _consensus_evidence(alarm: Alarm, responses: Sequence[Response],
                        outcome: ConsensusOutcome) -> Dict[str, object]:
    replicas, relays, _ = _split_responses(responses)
    offender = alarm.offending_controller
    relay_entries = Counter(r.entry for r in relays)
    offender_relay = next(
        (r for r in relays if r.controller_id == offender), None)
    if offender_relay is not None and len(relay_entries) > 1:
        # A cache relay deviated from the other relays of the same origin
        # events: corrupted replicated state on the relayer.
        majority = max(relay_entries.items(),
                       key=lambda item: (item[1], repr(item[0])))[0]
        dissenting = sorted(r.controller_id for r in relays
                            if r.entry != majority)
        agreeing = sorted(r.controller_id for r in relays
                          if r.entry == majority)
        return {
            "dissenting_replicas": tuple(dissenting),
            "agreeing_replicas": tuple(agreeing),
            "cache_diffs": diff_entries(majority, offender_relay.entry),
        }
    # Primary deviation: the replicas' majority shadow entry is the
    # expectation, the primary's combined (cache, own-network) response the
    # observation.
    majority_entry = _majority_replica_entry(replicas)
    expected_cache, expected_network = (
        majority_entry if (isinstance(majority_entry, tuple)
                           and len(majority_entry) == 2)
        else (majority_entry, ()))
    agreeing = sorted(r.controller_id for r in replicas
                      if r.entry == majority_entry)
    return {
        "dissenting_replicas": (offender,) if offender else (),
        "agreeing_replicas": tuple(agreeing),
        "cache_diffs": diff_entries(expected_cache,
                                    outcome.primary_cache_entry),
        "network_diffs": diff_entries(expected_network,
                                      outcome.primary_network_entry),
    }


def _omission_evidence(alarm: Alarm,
                       responses: Sequence[Response]) -> Dict[str, object]:
    replicas, _, _ = _split_responses(responses)
    non_empty = [r for r in replicas if r.entry != ((), ())]
    majority_entry = _majority_replica_entry(non_empty)
    _, expected_network = (
        majority_entry if (isinstance(majority_entry, tuple)
                           and len(majority_entry) == 2)
        else (majority_entry, ()))
    offender = alarm.offending_controller
    return {
        "dissenting_replicas": (offender,) if offender else (),
        "agreeing_replicas": tuple(sorted(
            r.controller_id for r in non_empty)),
        "network_diffs": diff_entries(expected_network, ()),
    }


def _sanity_evidence(outcome: ConsensusOutcome) -> Dict[str, object]:
    implied = sorted(_flow_mods_implied_by_cache(outcome.primary_cache_entry),
                     key=repr)
    actual = sorted((c for c in outcome.primary_network_entry
                     if c and c[0] == "flow_mod"), key=repr)
    return {"network_diffs": diff_entries(implied, actual)}


def explain_alarm(alarm: Alarm, responses: Sequence[Response],
                  outcome: ConsensusOutcome,
                  external: bool) -> AlarmExplanation:
    """Build the forensic explanation for one alarm, from live evidence."""
    reason = alarm.reason
    evidence: Dict[str, object] = {}
    if reason is AlarmReason.CONSENSUS_MISMATCH:
        evidence = _consensus_evidence(alarm, responses, outcome)
    elif reason is AlarmReason.PRIMARY_OMISSION:
        evidence = _omission_evidence(alarm, responses)
    elif reason is AlarmReason.SANITY_MISMATCH:
        evidence = _sanity_evidence(outcome)
        if alarm.offending_controller:
            evidence["dissenting_replicas"] = (alarm.offending_controller,)
    elif reason is AlarmReason.STALE_REPLICA:
        if alarm.offending_controller:
            evidence["dissenting_replicas"] = (alarm.offending_controller,)
    elif reason is AlarmReason.POLICY_VIOLATION:
        evidence["policy_rule"] = alarm.detail
        if alarm.offending_controller:
            evidence["dissenting_replicas"] = (alarm.offending_controller,)
    return AlarmExplanation(
        trigger_id=repr(alarm.trigger_id),
        raised_at=alarm.raised_at,
        reason=reason.value,
        failed_check=CHECK_BY_REASON[reason],
        fault_class=FAULT_CLASS_BY_REASON[reason],
        offending_controller=alarm.offending_controller or "",
        detail=alarm.detail,
        external=external,
        n_responses=len(responses),
        **evidence)


def _alarm_key(alarm: Alarm) -> Tuple:
    """Identity-free lookup key for an alarm (its canonical fields)."""
    return (repr(alarm.trigger_id), alarm.reason.value,
            alarm.offending_controller or "", alarm.detail, alarm.raised_at)


class AlarmForensics:
    """Observer that explains every alarm when the explanations are read.

    :meth:`observe_decision` keeps the evidence (the decision core drops its
    response list once a trigger is decided, so none of it changes later);
    each read explains what was kept since the last, in arrival order, which
    gives what explaining at decision time would.

    Shared by the sequential validator and all pipeline shards the same way
    the tracer is; the per-trigger storage keeps shard interleavings out of
    the exported order (one shard owns all of a trigger's alarms, so each
    per-trigger list is internally deterministic, and export sorts the
    trigger buckets globally).

    Explanations live only here — the alarm objects pass through untouched
    (observer purity, X501). Retrieval is by the alarm's canonical fields
    via :meth:`explanation_for`; alarms with identical canonical fields get
    identical explanations, so the first recorded one stands for all.
    """

    def __init__(self) -> None:
        self._unexplained: List[Tuple] = []
        self._by_trigger: Dict[str, List[AlarmExplanation]] = {}
        self._by_alarm: Dict[Tuple, AlarmExplanation] = {}

    def observe_decision(self, tau: Tuple, responses: Sequence[Response],
                         outcome: ConsensusOutcome, result,
                         external: bool) -> None:
        """Keep one decided trigger's evidence (no-op when it was clean)."""
        if result.alarms:
            self._unexplained.append(
                (tau, result.alarms, responses, outcome, external))

    def _explain(self) -> None:
        """Explain the evidence kept since the last read."""
        for tau, alarms, responses, outcome, external in self._unexplained:
            bucket = self._by_trigger.setdefault(repr(tau), [])
            for alarm in alarms:
                explanation = explain_alarm(alarm, responses, outcome,
                                            external)
                bucket.append(explanation)
                self._by_alarm.setdefault(_alarm_key(alarm), explanation)
        self._unexplained.clear()

    def explanation_for(self, alarm: Alarm) -> Optional[AlarmExplanation]:
        """The explanation recorded for this alarm, or ``None``."""
        self._explain()
        return self._by_alarm.get(_alarm_key(alarm))

    @property
    def alarm_count(self) -> int:
        self._explain()
        return sum(len(bucket) for bucket in self._by_trigger.values())

    def explanations(self) -> List[AlarmExplanation]:
        """All explanations in the deterministic export order.

        Sorted by ``(raised_at, trigger id, per-trigger sequence)`` —
        the same total order the pipeline's merged alarm stream uses, so
        explanation ids line up with alarm positions across engines.
        """
        self._explain()
        keyed = []
        for trigger, bucket in self._by_trigger.items():
            for index, explanation in enumerate(bucket):
                keyed.append(((explanation.raised_at, trigger, index),
                              explanation))
        keyed.sort(key=lambda item: item[0])
        return [explanation for _, explanation in keyed]


def explanation_id(index: int) -> str:
    """Stable id for the ``index``-th explanation of an export (0-based)."""
    return f"A{index + 1:04d}"


def export_explanations(
        explanations: Sequence[AlarmExplanation]) -> Dict[str, object]:
    """JSON-able diagnosis payload with stable per-alarm ids."""
    alarms = []
    for index, explanation in enumerate(explanations):
        record: Dict[str, object] = {"id": explanation_id(index)}
        record.update(explanation.to_dict())
        alarms.append(record)
    return {"format": "jury-diagnose", "version": 1,
            "alarm_count": len(alarms), "alarms": alarms}


def find_explanation(explanations: Sequence[AlarmExplanation],
                     query: str) -> Optional[Tuple[str, AlarmExplanation]]:
    """Resolve an alarm id (``A0001``, any case) to its explanation.

    Trigger queries go through :func:`repro.obs.trace.match_trigger_key`:
    the trace keeps every alarmed trigger.
    """
    query = query.strip().upper()
    for index, explanation in enumerate(explanations):
        if explanation_id(index) == query:
            return query, explanation
    return None


def render_explanations(
        explanations: Sequence[AlarmExplanation]) -> str:
    """Render every explanation as a human-readable report."""
    if not explanations:
        return "no alarms — nothing to diagnose"
    blocks = [explanation.render(explanation_id(index))
              for index, explanation in enumerate(explanations)]
    return "\n\n".join(blocks)
