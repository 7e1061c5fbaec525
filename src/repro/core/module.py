"""JURY's in-controller module — one per replica.

Responsibilities (§IV, §VI):

* **Replicated-trigger injection** — unwrap (and for ODL, decapsulate) the
  taint-wrapped trigger from the replicator and run it through the local
  pipeline as a *shadow* execution whose side-effects are captured and
  dropped. Shadow processing impersonates the primary, so the control
  sequence matches the original exactly.
* **Response relay** — stream three kinds of responses to the out-of-band
  validator: captured shadow results (tainted), cache events for triggers
  this node is designated to report, and the node's actual outgoing network
  messages. Responses carry the replica's state digest for state-aware
  consensus, and their relay latency includes the long-tailed JVM jitter
  that dominates the paper's detection-time distributions.
* **Aggregation** — multiple cache writes / network messages for one trigger
  are debounced into a single response so the validator's ``2k+2`` response
  accounting holds (Algorithm 1).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

from repro.controllers.base import Controller, NetworkMessageRecord
from repro.controllers.context import TriggerContext, sort_canonicals
from repro.core.responses import Response, ResponseKind
from repro.core.selection import designated_secondaries
from repro.datastore.events import CacheEvent
from repro.net.packet import LldpPayload
from repro.openflow.encap import EncapStats, decapsulate_packet_in
from repro.openflow.messages import (
    FeaturesReply,
    FlowMod,
    PacketIn,
    PacketOut,
    RestRequest,
)


class JuryModule:
    """The per-replica controller module."""

    #: Debounce window (ms) for aggregating a trigger's cache/network writes.
    FLUSH_DEBOUNCE_MS = 1.5
    #: Maximum time to hold a network bundle open for a promised FLOW_MOD
    #: still in the egress queue. An egress *drop* (the ODL fault) leaves
    #: the promise unfulfilled and the bundle flushes without it.
    PROMISE_HOLD_MAX_MS = 300.0
    #: Hazelcast mastership request/notify bytes per shadow trigger (§VII-B.2).
    MASTERSHIP_BYTES_PER_SHADOW = 90
    #: Mastership-update processing stolen from the primary's pipeline per
    #: shadow trigger (the <11% FLOW_MOD throughput cost at k=6, Fig 4h).
    MASTERSHIP_PRIMARY_COST_MS = 0.0025

    def __init__(self, deployment, controller: Controller):
        self.deployment = deployment
        self.controller = controller
        self.sim = controller.sim
        self.encap_stats = EncapStats()
        self._rng = self.sim.fork_rng(f"jury-module/{controller.id}")
        self._cache_buffers: Dict[Tuple, Dict[str, Any]] = {}
        self._network_buffers: Dict[Tuple, Dict[str, Any]] = {}
        self.responses_sent = 0
        self.shadow_triggers = 0
        # Hook into the controller.
        controller.jury_module = self
        controller.network_tap = self._on_network_message
        controller.trigger_done_hook = self._on_trigger_done
        controller.network_promise_hook = self._on_network_promised
        controller.store.add_listener(self._on_cache_event)
        self._promised: Dict[Tuple, int] = {}
        self.validator_channel = None  # wired by the deployment

    # ------------------------------------------------------------------
    # Replicated triggers (secondary role)
    # ------------------------------------------------------------------
    def on_replicated_trigger(self, trigger) -> None:
        """Inject a replicated trigger as a shadow execution."""
        controller = self.controller
        if not controller.alive:
            return
        self.shadow_triggers += 1
        self._mastership_chatter(trigger.taint.primary_id)
        message = trigger.message
        decap_cost = 0.0
        if trigger.encapsulated:
            message, decap_cost = decapsulate_packet_in(message, self._rng)
            self.encap_stats.record(decap_cost)
        ctx = TriggerContext.replica_of(
            trigger.taint, received_at=trigger.intercepted_at,
            description="replicated")
        if decap_cost > 0:
            self.sim.schedule(decap_cost, self._inject, message, ctx)
        else:
            self._inject(message, ctx)

    def _inject(self, message: Any, ctx: TriggerContext) -> None:
        controller = self.controller
        if isinstance(message, PacketIn):
            controller.ingress_packet_in(message, ctx=ctx)
        elif isinstance(message, FeaturesReply):
            controller.shadow_switch_connect(message, ctx)
        elif isinstance(message, RestRequest):
            controller.ingress_rest(message, ctx=ctx)

    def _mastership_chatter(self, primary_id: str) -> None:
        """Secondary -> primary mastership traffic and primary-side cost.

        Shadow processing makes secondaries request/notify switch mastership
        status from the primary over the store (the ~4 Mbps/secondary of
        Hazelcast chatter in §VII-B.2); applying those updates steals a
        little of the primary's pipeline (the <11% throughput cost, Fig 4h).
        """
        store_counter = self.controller.store.cluster.counter
        store_counter.add(self.MASTERSHIP_BYTES_PER_SHADOW)
        primary = self.deployment.cluster.controllers.get(primary_id)
        if primary is not None and primary is not self.controller and primary.alive:
            primary.pipeline.hold(self.MASTERSHIP_PRIMARY_COST_MS)

    # ------------------------------------------------------------------
    # Shadow completion -> replica result
    # ------------------------------------------------------------------
    def _on_trigger_done(self, ctx: TriggerContext) -> None:
        if not ctx.shadow or ctx.taint is None:
            return
        self._send(Response(
            controller_id=self.controller.id,
            trigger_id=ctx.trigger_id,
            kind=ResponseKind.REPLICA_RESULT,
            entry=ctx.combined_canonical(),
            tainted=True,
            state_digest=ctx.entry_digest,
            trigger_received_at=ctx.received_at,
            primary_hint=ctx.taint.primary_id,
            declared_non_deterministic=ctx.non_deterministic,
        ))

    # ------------------------------------------------------------------
    # Cache-event relay (3c)
    # ------------------------------------------------------------------
    def _on_cache_event(self, node, event: CacheEvent) -> None:
        if not self.controller.alive:
            return
        tau = event.trigger_id
        if not self._designated_for(tau, event.origin):
            return
        buffer = self._cache_buffers.get(tau)
        if buffer is None:
            # The digest must reflect the state the action was computed in:
            # the writer stamps its processing-start digest on the event;
            # other relayers report that same context digest so the
            # validator's _primary_digest sees the pre-write view.
            digest = event.ctx_digest or self.controller.state_digest()
            buffer = {"events": [], "origin": event.origin, "digest": digest,
                      "last_at": self.sim.now}
            self._cache_buffers[tau] = buffer
            self.sim.schedule(self._cache_debounce_ms(), self._flush_cache, tau)
        buffer["events"].append(event.canonical())
        buffer["last_at"] = self.sim.now

    def _cache_debounce_ms(self) -> float:
        """Quiet period before a trigger's cache bundle is sealed.

        Strongly consistent stores serialize a multi-write trigger's writes
        milliseconds apart (global lock + synchronous replication), so their
        bundles need a longer quiet window than Hazelcast's.
        """
        if self.controller.profile.store == "infinispan":
            return 8.0 * max(1, len(self.deployment.controller_ids))
        return self.FLUSH_DEBOUNCE_MS

    def _designated_for(self, tau: Tuple, origin: str) -> bool:
        """Am I the origin or one of the k designated relays for τ?

        The designated set is the deterministic pseudo-random selection the
        replicator used (external triggers) or the equivalent selection
        seeded by the action id (internal triggers) — no coordination needed.
        """
        me = self.controller.id
        if me == origin:
            return True
        chosen = designated_secondaries(
            tau, self.deployment.controller_ids, self.deployment.k,
            exclude=(origin,))
        return me in chosen

    def _flush_cache(self, tau: Tuple) -> None:
        buffer = self._cache_buffers.get(tau)
        if buffer is None or not self.controller.alive:
            self._cache_buffers.pop(tau, None)
            return
        debounce = self._cache_debounce_ms()
        quiet_for = self.sim.now - buffer["last_at"]
        if quiet_for + 1e-6 < debounce:
            # Writes are still arriving for this trigger (a multi-write
            # proactive action on a slow store); keep the bundle open. The
            # minimum step guards against a zero-progress reschedule loop
            # under floating-point rounding.
            self.sim.schedule(max(0.1, debounce - quiet_for),
                              self._flush_cache, tau)
            return
        self._cache_buffers.pop(tau, None)
        self._send(Response(
            controller_id=self.controller.id,
            trigger_id=tau,
            kind=ResponseKind.CACHE_UPDATE,
            entry=sort_canonicals(buffer["events"]),
            tainted=False,
            state_digest=buffer["digest"],
            origin=buffer["origin"],
        ))

    # ------------------------------------------------------------------
    # Outgoing-network interception (4c)
    # ------------------------------------------------------------------
    def _on_network_promised(self, tau: Tuple) -> None:
        """A FLOW_MOD for τ entered the egress path; hold its bundle open."""
        self._promised[tau] = self._promised.get(tau, 0) + 1

    def _on_network_message(self, record: NetworkMessageRecord) -> None:
        message = record.message
        if _is_lldp_probe(message):
            return  # topology probes have no cache footprint by design
        tau = record.tau
        if isinstance(message, FlowMod):
            pending = self._promised.get(tau, 0)
            if pending > 1:
                self._promised[tau] = pending - 1
            else:
                self._promised.pop(tau, None)
        buffer = self._network_buffers.get(tau)
        if buffer is None:
            buffer = {"messages": [], "opened_at": self.sim.now,
                      "digest": record.ctx_digest or self.controller.state_digest()}
            self._network_buffers[tau] = buffer
            self.sim.schedule(self.FLUSH_DEBOUNCE_MS, self._flush_network, tau)
        buffer["messages"].append(message.canonical())

    def _flush_network(self, tau: Tuple) -> None:
        buffer = self._network_buffers.get(tau)
        if buffer is None:
            return
        held = self.sim.now - buffer["opened_at"]
        if self._promised.get(tau, 0) > 0 and held < self.PROMISE_HOLD_MAX_MS:
            # A FLOW_MOD for this trigger is still in the egress queue;
            # keep the bundle open a little longer.
            self.sim.schedule(self.FLUSH_DEBOUNCE_MS, self._flush_network, tau)
            return
        self._network_buffers.pop(tau, None)
        self._promised.pop(tau, None)
        self._send(Response(
            controller_id=self.controller.id,
            trigger_id=tau,
            kind=ResponseKind.NETWORK_WRITE,
            entry=sort_canonicals(buffer["messages"]),
            tainted=False,
            state_digest=buffer["digest"],
        ))

    # ------------------------------------------------------------------
    # Relay with JVM jitter
    # ------------------------------------------------------------------
    def _send(self, response: Response) -> None:
        if self.validator_channel is None:
            return
        response.sent_at = self.sim.now
        self.responses_sent += 1
        delay = self._jitter()
        self.sim.schedule(delay, self.validator_channel.send, self, response)

    def _jitter(self) -> float:
        """Long-tailed response-path latency, inflated by pipeline load."""
        profile = self.controller.profile
        utilization = self.controller.utilization()
        median = profile.jitter_median_ms * (
            1.0 + profile.jitter_load_factor * utilization * utilization)
        return median * math.exp(profile.jitter_sigma * self._rng.gauss(0.0, 1.0))

    # ------------------------------------------------------------------
    def handle_control_message(self, channel, message) -> None:
        """Validator-direction channel endpoint (no inbound traffic expected)."""


def _is_lldp_probe(message: Any) -> bool:
    return (isinstance(message, PacketOut)
            and message.packet is not None
            and isinstance(message.packet.payload, LldpPayload))
