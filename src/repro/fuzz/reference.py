"""Algorithm 1 as the paper prints it — the oracle's independent reference.

All engines in ``repro.core`` drive one ``ShardCore``, so comparing them
compares drivers. The loop is compared against this class: a dict of lists,
a simulator timer per trigger, full consensus every time. It shares the
product's *checks* (``DecisionCore._post_consensus_alarms``), nothing else:
no memo, heap, fast path, observer, WAL, checkpoint; no option selects it.
"""

from __future__ import annotations

from repro.core.alarms import ValidationResult
from repro.core.consensus import evaluate_consensus
from repro.core.latedrop import LATE_DROP_CAP, LATE_DROP_HORIZON_TIMEOUTS
from repro.core.validator import ControllerState, DecisionCore


class ReferenceValidator(DecisionCore):
    """Collect Vτ, arm θτ on first arrival, decide at 2k+2 or on expiry."""

    def __init__(self, sim, k, timeout_ms, **checks):
        self._init_core(sim, k, **checks)  # policy engine, mastership lookup
        self.timeout_ms = timeout_ms
        self.pending = {}   # τ → (first arrival, [responses], θτ timer)
        self.decided = {}   # τ → decided at: late responses are dropped
        self.results, self.alarms = [], []
        self.responses_received = self.late_responses = self.triggers_decided = 0

    def ingest(self, response):
        self.responses_received += 1
        tau, now = response.trigger_id, self.sim.now
        # A θτ that has run out fires first, also when timer and arrival tie.
        for due in [t for t, (first_at, _, _) in self.pending.items()
                    if first_at + self.timeout_ms <= now]:
            self._decide(due, True)
        if tau in self.decided:
            self.late_responses += 1
            return
        if tau not in self.pending:
            self.pending[tau] = (now, [], self.sim.schedule(
                self.timeout_ms, self._decide, tau, True))
        responses = self.pending[tau][1]
        responses.append(response)
        try:
            progress = sum(seq for _, seq in response.state_digest) \
                if response.state_digest else None
        except (TypeError, ValueError):
            progress = None  # a malformed digest moves nothing
        if response.is_cache or progress is not None:
            state = self.state.setdefault(response.controller_id,
                                          ControllerState())
            if response.is_cache:
                state.cache_updates += 1
                state.last_entry = response.entry
            state.digest_progress = max(state.digest_progress, progress or 0)
        if len(responses) >= 2 * self.k + 2:
            self._decide(tau, False)

    def _decide(self, tau, timed_out):
        first_at, responses, timer = self.pending.pop(tau)
        timer.cancel()
        now = self.sim.now
        external = len(responses) > self.k + 2 \
            or any(r.tainted for r in responses)
        outcome = evaluate_consensus(responses, self.k, external)
        alarms, _ = self._post_consensus_alarms(tau, responses, outcome,
                                                external)
        received = [r.trigger_received_at for r in responses
                    if r.trigger_received_at is not None]
        self.results.append(ValidationResult(
            trigger_id=tau, ok=not alarms, external=external, decided_at=now,
            n_responses=len(responses), timed_out=timed_out, alarms=alarms,
            detection_ms=max(0.0, now - min(received, default=first_at))))
        self.alarms.extend(alarms)
        self.triggers_decided += 1
        self.decided[tau] = now
        if len(self.decided) > LATE_DROP_CAP:
            horizon = now - LATE_DROP_HORIZON_TIMEOUTS * self.timeout_ms
            self.decided = {t: at for t, at in self.decided.items()
                            if at >= horizon}
