"""Controller replica base class.

A :class:`Controller` models one node of an SDN controller cluster:

* a **southbound** interface receiving OpenFlow messages from switches via
  per-switch OVS proxies (handshake, PACKET_IN ingestion);
* a bounded **processing pipeline** (:class:`~repro.sim.station.ServiceStation`)
  whose saturation behaviour drives the paper's throughput figures;
* a **FLOW_MOD egress queue** modeling ODL's MD-SAL → OpenFlow-plugin path,
  where the FLOW_MOD-drop fault lives;
* **controller-wide cache** access with trigger attribution (every write
  carries the trigger id ``tau``), the externalization JURY validates;
* **JURY interception hooks**: taps on outgoing network messages and cache
  writes, shadow-mode side-effect suppression, and replicated-trigger
  injection.

Applications (forwarding, topology discovery, host tracking) plug in via
:class:`ControllerApp` and thread a
:class:`~repro.controllers.context.TriggerContext` through everything they do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.datastore.caches import SWITCHESDB, switch_key, switch_value
from repro.datastore.events import CacheEvent, CacheOp, cache_canonical
from repro.datastore.store import DatastoreNode
from repro.errors import CacheLockError
from repro.net.channel import ControlChannel
from repro.openflow.messages import (
    EchoReply,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    RestRequest,
)
from repro.controllers.context import (
    TriggerContext,
    external_trigger_id,
    internal_trigger_id,
)
from repro.controllers.profile import ControllerProfile
from repro.sim.simulator import Simulator
from repro.sim.station import ServiceStation


@dataclass
class NetworkMessageRecord:
    """One outgoing network message, as seen by JURY's interception tap."""

    controller_id: str
    message: Any
    tau: Optional[Tuple]
    time: float
    #: State digest of the emitting trigger's context at processing start.
    ctx_digest: Tuple = ()


class ControllerApp:
    """Base class for controller applications.

    Handlers return ``True`` when they consumed the trigger, stopping the
    dispatch chain (mirrors ONOS/ODL packet-processor chains).
    """

    name = "app"

    def __init__(self, controller: "Controller"):
        self.controller = controller

    def start(self) -> None:
        """Called once when the cluster starts; schedule periodic work here."""

    def handle_packet_in(self, message: PacketIn, ctx: TriggerContext) -> bool:
        """Process a PACKET_IN; return True if consumed."""
        return False

    def handle_rest(self, request: RestRequest, ctx: TriggerContext) -> bool:
        """Process a northbound request; return True if consumed."""
        return False

    def on_cache_event(self, event: CacheEvent) -> None:
        """Observe a cache event visible at this node."""


class Controller:
    """One controller replica in an HA cluster."""

    def __init__(
        self,
        sim: Simulator,
        controller_id: str,
        store_node: DatastoreNode,
        profile: ControllerProfile,
        election_id: Optional[int] = None,
    ):
        self.sim = sim
        self.id = controller_id
        self.store = store_node
        self.profile = profile
        # Election id used by mastership/liveness algorithms; reboots can
        # change it (the ONOS master-election fault scenario).
        self.election_id = election_id if election_id is not None else _numeric_suffix(controller_id)
        self.cluster = None  # set by ControllerCluster.add_controller
        self.apps: List[ControllerApp] = []
        self.alive = True
        self._rng = sim.fork_rng(f"controller/{controller_id}")

        self.pipeline = ServiceStation(
            sim,
            profile.pipeline_service,
            capacity=profile.pipeline_capacity,
            collapse_threshold=profile.collapse_threshold,
            name=f"{controller_id}/pipeline",
        )
        self.egress = ServiceStation(
            sim, profile.egress_service, name=f"{controller_id}/egress")
        #: Probability an egress FLOW_MOD is silently lost (fault injectable:
        #: the ODL MD-SAL -> OpenFlow-plugin drop).
        self.egress_drop_prob = 0.0

        self._switch_channels: Dict[int, ControlChannel] = {}
        # Keyed by the channel's stable uid, never id(channel): id() values
        # are process addresses, reusable after GC and different on every
        # replica — a divergence source the D103 analysis rule forbids.
        self._channel_dpid: Dict[str, int] = {}  # channel.uid -> dpid
        self._handshook: set = set()  # channel.uid we sent FEATURES_REQUEST on
        self.connected_switches: set = set()

        # Recent PACKET_IN arrival times for the utilization estimator.
        self._arrivals: deque = deque(maxlen=256)

        # JURY interception hooks (None in vanilla clusters).
        self.network_tap: Optional[Callable[[NetworkMessageRecord], None]] = None
        self.trigger_done_hook: Optional[Callable[[TriggerContext], None]] = None
        #: Called when a FLOW_MOD enters the (possibly slow) egress path, so
        #: JURY can hold the trigger's network bundle open until it emerges.
        self.network_promise_hook: Optional[Callable[[Tuple], None]] = None
        self.jury_module = None  # set by repro.core.module.JuryModule

        # Counters.
        self.packet_ins_received = 0
        self.packet_ins_dropped = 0
        self.flow_mods_sent = 0
        self.flow_mods_dropped_egress = 0
        self.packet_outs_sent = 0
        self.rest_requests = 0

        self.store.add_listener(self._on_store_event)

    # ------------------------------------------------------------------
    # Identity and mastership
    # ------------------------------------------------------------------
    def app(self, name: str) -> Optional[ControllerApp]:
        """Look up an installed application by its ``name`` attribute."""
        for candidate in self.apps:
            if candidate.name == name:
                return candidate
        return None

    def effective_id(self, ctx: TriggerContext) -> str:
        """The identity application logic should act as.

        Shadow (replicated) execution impersonates the primary so that "all
        triggers follow the exact same control sequence in the secondary
        controllers" (§IV, feature 1): mastership and role checks resolve as
        they would at the primary.
        """
        if ctx.shadow and ctx.taint is not None:
            return ctx.taint.primary_id
        return self.id

    def is_master(self, dpid: int, ctx: Optional[TriggerContext] = None) -> bool:
        """Mastership check from the effective identity's standpoint."""
        if self.cluster is None:
            return True
        acting = self.effective_id(ctx) if ctx is not None else self.id
        return self.cluster.master_of(dpid) == acting

    # ------------------------------------------------------------------
    # Southbound wiring
    # ------------------------------------------------------------------
    def attach_switch_channel(self, channel: ControlChannel) -> None:
        """Begin the OpenFlow handshake over a fresh control channel."""
        self._handshook.add(channel.uid)
        channel.send(self, Hello())
        channel.send(self, FeaturesRequest())

    def handle_control_message(self, channel: ControlChannel, message: Any) -> None:
        """Southbound dispatch (switch -> controller direction)."""
        if not self.alive:
            return
        if getattr(message, "is_replicated_trigger", False):
            module = getattr(self, "jury_module", None)
            if module is not None:
                module.on_replicated_trigger(message)
            return
        if isinstance(message, Hello):
            return
        if isinstance(message, FeaturesReply):
            self._handle_features_reply(channel, message)
        elif isinstance(message, PacketIn):
            self.ingress_packet_in(message)
        elif isinstance(message, EchoReply):
            return

    def _handle_features_reply(self, channel: ControlChannel, message: FeaturesReply) -> None:
        """Switch connect: register the channel, write the shared cache.

        The SwitchesDB write is where the ONOS database-locking fault fires:
        the primary fails to obtain the lock, omits its response, and JURY's
        validator times the trigger out (§VII-A1).
        """
        if channel.uid not in self._handshook:
            return  # broadcast reply on a channel we never handshook on
        dpid = message.dpid
        if dpid in self.connected_switches:
            return  # duplicate reply (one per controller's FEATURES_REQUEST)
        self._switch_channels[dpid] = channel
        self._channel_dpid[channel.uid] = dpid
        ctx = self._external_context(message, f"switch-connect s{dpid}")
        ctx.entry_digest = self.state_digest()
        if self.cluster is not None and self.cluster.master_of(dpid) != self.id:
            # Non-masters track the channel but the master owns the cache write.
            self.connected_switches.add(dpid)
            return
        try:
            self.cache_write(
                SWITCHESDB, switch_key(dpid),
                switch_value(dpid, message.ports, master=self.id), ctx=ctx)
        except CacheLockError:
            # "Failed to obtain lock": the connect is rejected and nothing
            # is externalized — a response omission JURY detects by timeout.
            return
        self.connected_switches.add(dpid)
        self._finish_trigger(ctx)

    def shadow_switch_connect(self, message: FeaturesReply,
                              ctx: TriggerContext) -> None:
        """Replicated FEATURES_REPLY processing at a secondary (shadow).

        Mirrors the primary's connect handling — the shared-cache switch
        write — with side-effects captured. Secondaries do not lock the
        cache (JURY prevents any side-effects of replicated execution), so
        the database-locking fault cannot recur here (§VII-A1).
        """
        dpid = message.dpid
        ctx.entry_digest = self.state_digest()
        master = self.cluster.master_of(dpid) if self.cluster is not None else None
        acting = self.effective_id(ctx)
        if master is not None and master != acting:
            self._finish_trigger(ctx)
            return
        self.cache_write(
            SWITCHESDB, switch_key(dpid),
            switch_value(dpid, message.ports, master=acting), ctx=ctx)
        self._finish_trigger(ctx)

    def channel_for(self, dpid: int) -> Optional[ControlChannel]:
        """The control channel toward switch ``dpid`` (via its proxy)."""
        return self._switch_channels.get(dpid)

    # ------------------------------------------------------------------
    # Trigger ingestion
    # ------------------------------------------------------------------
    def ingress_packet_in(self, message: PacketIn,
                          ctx: Optional[TriggerContext] = None) -> None:
        """Admit a PACKET_IN into the processing pipeline.

        ``ctx`` is supplied by JURY when injecting a replicated (tainted)
        trigger; southbound arrivals get a fresh external context.
        """
        if not self.alive:
            return
        self.packet_ins_received += 1
        self._arrivals.append(self.sim.now)
        if ctx is None:
            ctx = self._external_context(message,
                                         f"packet_in s{message.dpid}")
        accepted = self.pipeline.submit(
            (message, ctx), self._pipeline_packet_in)
        if not accepted:
            self.packet_ins_dropped += 1

    def ingress_rest(self, request: RestRequest,
                     ctx: Optional[TriggerContext] = None) -> None:
        """Admit a northbound REST request (external trigger)."""
        if not self.alive:
            return
        self.rest_requests += 1
        if ctx is None:
            ctx = self._external_context(request,
                                         f"rest {request.operation}")
        accepted = self.pipeline.submit((request, ctx), self._pipeline_rest)
        if not accepted:
            self.packet_ins_dropped += 1

    def _external_context(self, message, description: str) -> TriggerContext:
        """Context for an external trigger: the τ JURY's replicator stamped
        on ``message``, or a fresh one when no replicator saw it."""
        tau = getattr(message, "jury_tau", None) or external_trigger_id(
            self.sim)
        return TriggerContext.external_trigger(
            tau, received_at=self.sim.now, description=description)

    def run_internal(self, description: str,
                     action: Callable[[TriggerContext], None]) -> TriggerContext:
        """Run a proactive/administrative action as an internal trigger.

        This is the entry point for admin log-ins and truly proactive
        modules (§II-A2) — and therefore for T2/T3 fault injection.
        """
        ctx = TriggerContext.internal_trigger(
            internal_trigger_id(self.sim, self.id), received_at=self.sim.now,
            description=description)
        ctx.entry_digest = self.state_digest()
        action(ctx)
        self._finish_trigger(ctx)
        return ctx

    # ------------------------------------------------------------------
    # Pipeline bodies
    # ------------------------------------------------------------------
    def _pipeline_packet_in(self, work) -> float:
        message, ctx = work
        ctx.entry_digest = self.state_digest()
        cost_before = getattr(ctx, "pending_cost", 0.0)
        try:
            for app in self.apps:
                if app.handle_packet_in(message, ctx):
                    break
        except CacheLockError:  # jury: ignore[H403] — omission is the modeled fault
            pass  # omitted response; JURY times the trigger out
        self._finish_trigger(ctx)
        return getattr(ctx, "pending_cost", 0.0) - cost_before

    def _pipeline_rest(self, work) -> float:
        request, ctx = work
        ctx.entry_digest = self.state_digest()
        cost_before = getattr(ctx, "pending_cost", 0.0)
        try:
            for app in self.apps:
                if app.handle_rest(request, ctx):
                    break
        except CacheLockError:  # jury: ignore[H403] — omission is the modeled fault
            pass
        self._finish_trigger(ctx)
        return getattr(ctx, "pending_cost", 0.0) - cost_before

    def _finish_trigger(self, ctx: TriggerContext) -> None:
        if self.trigger_done_hook is not None:
            self.trigger_done_hook(ctx)

    # ------------------------------------------------------------------
    # Side-effects: cache writes and network messages
    # ------------------------------------------------------------------
    def cache_write(self, cache: str, key: Any, value: Any,
                    ctx: TriggerContext, op: Optional[CacheOp] = None) -> None:
        """Write a controller-wide cache entry attributed to ``ctx``.

        In shadow mode the write is captured and suppressed; otherwise the
        synchronous store cost is accumulated on the context so the pipeline
        stays busy for it (how Infinispan throttles ODL).
        """
        if ctx.shadow:
            effective_op = op
            if effective_op is None:
                existing = self.store.get(cache, key)
                effective_op = CacheOp.UPDATE if existing is not None else CacheOp.CREATE
            ctx.capture_cache(cache_canonical(cache, key, effective_op, value))
            return
        result = self.store.put(cache, key, value, op=op, tau=ctx.trigger_id,
                                ctx_digest=getattr(ctx, "entry_digest", ()))
        ctx.pending_cost = getattr(ctx, "pending_cost", 0.0) + result.cost_ms

    def cache_delete(self, cache: str, key: Any, ctx: TriggerContext) -> None:
        """Delete a cache entry attributed to ``ctx`` (shadow-aware)."""
        if ctx.shadow:
            ctx.capture_cache(cache_canonical(cache, key, CacheOp.DELETE, None))
            return
        result = self.store.delete(cache, key, tau=ctx.trigger_id,
                                   ctx_digest=getattr(ctx, "entry_digest", ()))
        ctx.pending_cost = getattr(ctx, "pending_cost", 0.0) + result.cost_ms

    def send_flow_mod(self, message: FlowMod, ctx: TriggerContext) -> None:
        """Queue a FLOW_MOD through the egress path (shadow-aware).

        On Hazelcast-backed controllers the rule is first backed up through
        the cluster-shared flow-backup stage, which is what caps cluster-wide
        FLOW_MOD throughput (~5K/s) independent of cluster size (Fig 4f).
        """
        if ctx.shadow:
            ctx.capture_network(message.canonical())
            return
        if self.network_promise_hook is not None:
            self.network_promise_hook(ctx.trigger_id)
        backup_factory = getattr(self.store.cluster, "flow_backup_station", None)
        if backup_factory is not None:
            backup_factory().submit((message, ctx), self._after_flow_backup)
            return
        self.egress.submit((message, ctx), self._egress_send)

    def _after_flow_backup(self, work) -> None:
        self.egress.submit(work, self._egress_send)

    def send_packet_out(self, message: PacketOut, ctx: TriggerContext) -> None:
        """Send a PACKET_OUT directly (bypasses the FLOW_MOD egress queue).

        PACKET_OUT throughput is far higher than FLOW_MOD throughput and
        unaffected by clustering (§VII-B.1) because it skips the flow
        subsystem entirely.
        """
        if ctx.shadow:
            ctx.capture_network(message.canonical())
            return
        self.packet_outs_sent += 1
        self._transmit(message, ctx)

    def _egress_send(self, work) -> None:
        message, ctx = work
        if self._rng.random() < self.egress_drop_prob:
            # The ODL FLOW_MOD-drop fault: MD-SAL accepted the write but the
            # egress call toward the network is lost (§III-B, T2).
            self.flow_mods_dropped_egress += 1
            return
        self.flow_mods_sent += 1
        self._transmit(message, ctx)

    def _transmit(self, message: OpenFlowMessage, ctx: TriggerContext) -> None:
        message.tau = ctx.trigger_id  # attribution metadata for interception
        if self.network_tap is not None:
            self.network_tap(NetworkMessageRecord(
                controller_id=self.id, message=message,
                tau=ctx.trigger_id, time=self.sim.now,
                ctx_digest=getattr(ctx, "entry_digest", ())))
        dpid = getattr(message, "dpid", None)
        channel = self._switch_channels.get(dpid) if dpid is not None else None
        if channel is not None:
            channel.send(self, message)

    # ------------------------------------------------------------------
    # Store events
    # ------------------------------------------------------------------
    def _on_store_event(self, node: DatastoreNode, event: CacheEvent) -> None:
        if not self.alive:
            return
        for app in self.apps:
            app.on_cache_event(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Estimated pipeline utilization from recent arrivals.

        Drives the load-dependent response-jitter term (detection time grows
        with PACKET_IN rate, Fig 4b).
        """
        if len(self._arrivals) < 2:
            return 0.0
        window = self.sim.now - self._arrivals[0]
        if window <= 0:
            return 1.0
        rate = len(self._arrivals) / window  # arrivals per ms
        return min(1.0, rate * self.profile.service_mean_ms)

    def state_digest(self) -> tuple:
        """This replica's network-view digest (see DatastoreNode.state_digest)."""
        return self.store.state_digest()

    def crash(self) -> None:
        """Fail-stop: the controller ceases all processing."""
        self.alive = False

    def reboot(self, election_id: Optional[int] = None) -> None:
        """Restart after a crash, optionally with a new election id.

        A reboot that *lowers* the election id is the trigger condition of
        the ONOS master-election fault (§III-B).
        """
        self.alive = True
        if election_id is not None:
            self.election_id = election_id
            if self.cluster is not None:
                self.cluster.announce_election_id(self.id, election_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Controller({self.id!r}, {self.profile.name}, alive={self.alive})"


def _numeric_suffix(controller_id: str) -> int:
    digits = "".join(ch for ch in controller_id if ch.isdigit())
    return int(digits) if digits else 0
