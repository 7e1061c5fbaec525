"""Cluster manager: membership, mastership, and topology wiring.

Supports the HA configurations the paper experiments with (§VI):

* ``ANY_CONTROLLER_ONE_MASTER`` (ONOS): every switch connects to every
  controller; exactly one is its master. Secondary connections carry the
  mastership request/notify chatter measured in §VII-B.2.
* ``SINGLE_CONTROLLER`` (ODL): the network is partitioned; each switch
  connects only to its one governing controller (JURY's OVS still holds
  channels to the others for replication).
* ``ACTIVE_PASSIVE``: all switches connect to a single active controller;
  the rest are passive replicas that take over on failover.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.controllers.base import Controller
from repro.errors import ClusterError
from repro.net.channel import ByteCounter, ControlChannel
from repro.net.ovs import ReplicatingProxy
from repro.net.topology import Topology
from repro.sim.latency import Fixed
from repro.sim.simulator import Simulator


class HaMode(enum.Enum):
    """HA connection-management configurations [4]."""

    ANY_CONTROLLER_ONE_MASTER = "any_controller_one_master"
    SINGLE_CONTROLLER = "single_controller"
    ACTIVE_PASSIVE = "active_passive"


class ControllerCluster:
    """A set of controller replicas wired to one topology."""

    #: Mastership beacon modelling (§VII-B.2: secondaries send ~4 Mbps of
    #: Hazelcast mastership chatter each under replicated load).
    MASTERSHIP_BEACON_BYTES = 120
    MASTERSHIP_BEACON_PERIOD_MS = 5.0

    def __init__(self, sim: Simulator, ha_mode: HaMode = HaMode.ANY_CONTROLLER_ONE_MASTER,
                 name: str = "cluster"):
        self.sim = sim
        self.ha_mode = ha_mode
        self.name = name
        self.controllers: Dict[str, Controller] = {}
        self.election_ids: Dict[str, int] = {}
        self.mastership: Dict[int, str] = {}
        self.topology: Optional[Topology] = None
        self.proxies: Dict[int, ReplicatingProxy] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_controller(self, controller: Controller) -> None:
        """Join a replica to the cluster."""
        if controller.id in self.controllers:
            raise ClusterError(f"duplicate controller {controller.id}")
        self.controllers[controller.id] = controller
        self.election_ids[controller.id] = controller.election_id
        controller.cluster = self

    @property
    def size(self) -> int:
        return len(self.controllers)

    def controller_ids(self) -> List[str]:
        """Replica ids in join order."""
        return list(self.controllers)

    def alive_controllers(self) -> List[Controller]:
        """Replicas currently alive."""
        return [c for c in self.controllers.values() if c.alive]

    def election_id_of(self, controller_id: str) -> int:
        """The cluster registry's view of a replica's election id."""
        return self.election_ids.get(controller_id, 0)

    def announce_election_id(self, controller_id: str, election_id: int) -> None:
        """Update the registry after a reboot (peers' *beliefs* may lag)."""
        self.election_ids[controller_id] = election_id

    # ------------------------------------------------------------------
    # Mastership
    # ------------------------------------------------------------------
    def master_of(self, dpid: int) -> Optional[str]:
        """The controller currently governing switch ``dpid``.

        Mastership does NOT silently fail over here: an undetected crash
        leaves the dead controller as master until :meth:`crash` (or an
        operator) reassigns — exactly the window JURY's omission detection
        covers.
        """
        return self.mastership.get(dpid)

    def _failover(self, dpid: int) -> Optional[str]:
        alive = self.alive_controllers()
        if not alive:
            return None
        new_master = min(alive, key=lambda c: c.election_id).id
        self.mastership[dpid] = new_master
        proxy = self.proxies.get(dpid)
        if proxy is not None:
            proxy.set_primary(new_master)
        return new_master

    def set_master(self, dpid: int, controller_id: str) -> None:
        """Force mastership (tests, failover drills)."""
        if controller_id not in self.controllers:
            raise ClusterError(f"unknown controller {controller_id}")
        self.mastership[dpid] = controller_id
        proxy = self.proxies.get(dpid)
        if proxy is not None:
            proxy.set_primary(controller_id)

    def crash(self, controller_id: str) -> None:
        """Fail-stop a replica and fail its switches over."""
        controller = self.controllers.get(controller_id)
        if controller is None:
            raise ClusterError(f"unknown controller {controller_id}")
        controller.crash()
        for dpid, master in list(self.mastership.items()):
            if master == controller_id:
                self._failover(dpid)

    # ------------------------------------------------------------------
    # Topology wiring
    # ------------------------------------------------------------------
    def connect_topology(self, topology: Topology,
                         control_counter: Optional[ByteCounter] = None) -> None:
        """Create per-switch proxies and control channels, assign masters.

        In ``ANY_CONTROLLER_ONE_MASTER`` every controller gets a channel and
        performs the handshake; otherwise only the master does (the other
        channels exist solely for JURY replication).
        """
        if not self.controllers:
            raise ClusterError("add controllers before connecting a topology")
        self.topology = topology
        ids = self.controller_ids()
        for index, (dpid, switch) in enumerate(sorted(topology.switches.items())):
            if self.ha_mode == HaMode.ACTIVE_PASSIVE:
                master = ids[0]  # one active controller; the rest are passive
            else:
                master = ids[index % len(ids)]
            self.wire_switch(switch, master, control_counter=control_counter)

    def wire_switch(self, switch, master: str,
                    control_counter: Optional[ByteCounter] = None) -> "ReplicatingProxy":
        """Wire one switch to the cluster through a fresh OVS proxy.

        Used by :meth:`connect_topology` and by scenarios that connect a new
        switch at runtime (e.g. the database-locking fault, which fires on
        the FEATURES_REPLY of a fresh connect).
        """
        dpid = switch.dpid
        self.mastership[dpid] = master
        proxy = ReplicatingProxy(self.sim, switch, primary_id=master)
        self.proxies[dpid] = proxy
        switch_channel = ControlChannel(
            self.sim, switch, proxy, latency=Fixed(0.05),
            name=f"s{dpid}-proxy", counter=control_counter)
        switch.connect_control(switch_channel)
        proxy.connect_switch(switch_channel)
        for controller_id in self.controller_ids():
            controller = self.controllers[controller_id]
            channel = ControlChannel(
                self.sim, proxy, controller,
                latency=controller.profile.control_latency,
                name=f"s{dpid}-{controller_id}", counter=control_counter)
            proxy.connect_controller(controller_id, channel)
            handshakes = (
                self.ha_mode == HaMode.ANY_CONTROLLER_ONE_MASTER
                or controller_id == master
            )
            if handshakes:
                controller.attach_switch_channel(channel)
        return proxy

    def start(self) -> None:
        """Start controller applications and background chatter."""
        if self._started:
            return
        self._started = True
        for controller in self.controllers.values():
            for app in controller.apps:
                app.start()
        if (self.ha_mode == HaMode.ANY_CONTROLLER_ONE_MASTER
                and self.size > 1):
            self.sim.schedule(self.MASTERSHIP_BEACON_PERIOD_MS, self._mastership_beacons)

    def _mastership_beacons(self) -> None:
        """Periodic mastership request/notify chatter on the store channel."""
        counter = self._store_counter()
        if counter is not None:
            for controller in self.alive_controllers():
                non_mastered = sum(
                    1 for dpid in controller.connected_switches
                    if self.mastership.get(dpid) != controller.id)
                if non_mastered:
                    counter.add(self.MASTERSHIP_BEACON_BYTES * non_mastered)
        self.sim.schedule(self.MASTERSHIP_BEACON_PERIOD_MS, self._mastership_beacons)

    def _store_counter(self) -> Optional[ByteCounter]:
        for controller in self.controllers.values():
            return controller.store.cluster.counter
        return None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def controller(self, controller_id: str) -> Controller:
        """Look up a replica by id."""
        try:
            return self.controllers[controller_id]
        except KeyError:
            raise ClusterError(f"unknown controller {controller_id}") from None

    def proxy_of(self, dpid: int) -> ReplicatingProxy:
        """The OVS proxy fronting switch ``dpid``."""
        try:
            return self.proxies[dpid]
        except KeyError:
            raise ClusterError(f"no proxy for switch {dpid}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ControllerCluster(n={self.size}, mode={self.ha_mode.value}, "
                f"switches={len(self.proxies)})")
