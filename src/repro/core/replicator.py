"""JURY's trigger replicator.

One replicator sits at each switch's OVS proxy, *outside the controller
binary* (§IV-A) — a faulty controller cannot corrupt the replicated trigger.
For every external southbound trigger (PACKET_IN, FEATURES_REPLY) it

1. assigns the trigger id τ and stamps it on the message so the primary's
   JURY module attributes the primary's responses to the same trigger;
2. selects ``k`` pseudo-random secondaries (deterministically from τ, so
   every module can recompute the designated set without coordination); and
3. ships a taint-wrapped copy to each over the proxy's reliable in-order
   channels, encapsulating PACKET_INs for ODL-style secondaries (§VI-A).

Northbound REST triggers are intercepted by
:meth:`Replicator.intercept_rest`, which the deployment splices into the
:class:`~repro.controllers.northbound.NorthboundApi` delivery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.controllers.context import Taint, new_external_trigger_id
from repro.core.selection import designated_secondaries
from repro.net.ovs import ReplicatingProxy
from repro.openflow.encap import encapsulate_packet_in
from repro.openflow.messages import FeaturesReply, PacketIn, RestRequest


@dataclass
class ReplicatedTrigger:
    """Taint-wrapped copy of an external trigger, bound for a secondary."""

    taint: Taint
    message: Any
    encapsulated: bool
    intercepted_at: float

    #: Duck-typing marker so controllers can route without importing core.
    is_replicated_trigger = True

    def wire_size(self) -> int:
        inner = self.message.wire_size() if hasattr(self.message, "wire_size") else 64
        return inner + 8  # replication framing


class Replicator:
    """Per-switch trigger interception and replication."""

    def __init__(self, deployment, proxy: ReplicatingProxy):
        self.deployment = deployment
        self.proxy = proxy
        self.sim = deployment.sim
        proxy.on_switch_to_controller = self._on_switch_trigger
        self.triggers_replicated = 0
        self._connects_seen: set = set()
        #: The validation engine's observer (None when nothing observes):
        #: one seam and one head sampler, so a sampled trigger appears in
        #: the trace end to end or not at all.
        self.observer = deployment.validator.observer

    # ------------------------------------------------------------------
    def _on_switch_trigger(self, message: Any) -> None:
        if not isinstance(message, (PacketIn, FeaturesReply)):
            return
        if isinstance(message, FeaturesReply):
            if message.dpid in self._connects_seen:
                return  # one connect event per switch session; the rest are
                        # duplicate replies to per-controller FEATURES_REQUESTs
            self._connects_seen.add(message.dpid)
        primary = self.proxy.primary_id
        tau = new_external_trigger_id()
        # Stamp τ so the primary's own context uses the same trigger id.
        message.jury_tau = tau
        self._replicate(tau, primary, message,
                        via_proxy=True, intercepted_at=self.sim.now)

    def intercept_rest(self, controller_id: str, request: RestRequest) -> None:
        """Northbound interception: stamp τ and replicate the request."""
        tau = new_external_trigger_id()
        request.jury_tau = tau
        self._replicate(tau, controller_id, request,
                        via_proxy=False, intercepted_at=self.sim.now)

    # ------------------------------------------------------------------
    def _replicate(self, tau, primary: str, message: Any, via_proxy: bool,
                   intercepted_at: float) -> None:
        deployment = self.deployment
        observer = self.observer
        if observer is not None:
            observer.intercept(self.sim.now, tau,
                               "switch" if via_proxy else "rest", primary,
                               type(message).__name__)
        secondaries = designated_secondaries(
            tau, deployment.controller_ids, deployment.k, exclude=(primary,))
        taint = Taint(trigger_id=tau, primary_id=primary)
        sent_before = self.triggers_replicated
        for secondary_id in secondaries:
            controller = deployment.cluster.controllers.get(secondary_id)
            if controller is None:
                continue
            payload = message
            encapsulated = False
            if (controller.profile.replication_encapsulated
                    and isinstance(message, PacketIn)):
                payload = encapsulate_packet_in(
                    message, ovs_dpid=self.proxy.switch.dpid, ovs_port=0)
                encapsulated = True
            trigger = ReplicatedTrigger(
                taint=taint, message=payload, encapsulated=encapsulated,
                intercepted_at=intercepted_at)
            deployment.replication_counter.add(trigger.wire_size())
            self.triggers_replicated += 1
            if via_proxy and self.proxy.send_to_controller(secondary_id, trigger):
                continue
            # REST triggers (or missing proxy channels) go point-to-point.
            delay = controller.profile.control_latency.sample(
                deployment.rng)
            self.sim.schedule(delay, self._deliver_direct, controller, trigger)
        if observer is not None:
            # Sends only schedule deliveries, so nothing was observed in
            # between: the span order is intercept, replicate.
            observer.replicate(self.sim.now, tau, len(secondaries),
                               self.triggers_replicated - sent_before)

    @staticmethod
    def _deliver_direct(controller, trigger: ReplicatedTrigger) -> None:
        module = controller.jury_module
        if module is not None and controller.alive:
            module.on_replicated_trigger(trigger)
