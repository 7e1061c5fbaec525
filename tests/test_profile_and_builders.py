"""Tests for controller profiles and cluster builder helpers."""

from repro.controllers.odl import build_odl_cluster
from repro.controllers.onos import build_onos_cluster
from repro.controllers.profile import (
    ONOS_PROFILE,
    odl_profile,
    onos_profile,
)
from repro.sim.simulator import Simulator


def test_profile_factories_accept_overrides():
    profile = onos_profile(lldp_period_ms=42.0, jitter_sigma=0.5)
    assert profile.lldp_period_ms == 42.0
    assert profile.jitter_sigma == 0.5
    # Other fields keep their defaults.
    assert profile.store == "hazelcast"


def test_profile_factories_return_fresh_objects():
    a = onos_profile()
    b = onos_profile()
    a.lldp_period_ms = 1.0
    assert b.lldp_period_ms != 1.0
    assert ONOS_PROFILE.lldp_period_ms != 1.0


def test_onos_and_odl_profiles_differ_where_it_matters():
    onos, odl = onos_profile(), odl_profile()
    assert onos.store == "hazelcast"
    assert odl.store == "infinispan"
    assert odl.jitter_median_ms > onos.jitter_median_ms
    assert odl.replication_encapsulated and not onos.replication_encapsulated
    assert odl.flow_reconcile_delay_ms == 0.0
    assert onos.flow_reconcile_delay_ms > 0.0


def test_cluster_builders_give_each_controller_its_own_profile():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=3, profile=onos_profile())
    profiles = [c.profile for c in cluster.controllers.values()]
    # Object distinctness, not state keyed by identity:
    assert len({id(p) for p in profiles}) == 3  # jury: ignore[D103]
    profiles[0].jitter_median_ms = 999.0
    assert profiles[1].jitter_median_ms != 999.0


def test_builders_assign_sequential_ids_and_election_ids():
    sim = Simulator(seed=1)
    cluster, _ = build_odl_cluster(sim, n=4)
    assert cluster.controller_ids() == ["c1", "c2", "c3", "c4"]
    eids = [cluster.controller(cid).election_id
            for cid in cluster.controller_ids()]
    assert eids == [1, 2, 3, 4]


def test_onos_app_stack():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=1)
    controller = cluster.controller("c1")
    names = [app.name for app in controller.apps]
    assert names == ["topology", "hosttracker", "forwarding"]


def test_odl_app_stack_depends_on_proactive_flag():
    sim = Simulator(seed=1)
    cluster, _ = build_odl_cluster(sim, n=1)
    names = [app.name for app in cluster.controller("c1").apps]
    assert "forwarding" in names  # the paper's custom reactive module

    sim2 = Simulator(seed=2)
    cluster2, _ = build_odl_cluster(sim2, n=1,
                                    profile=odl_profile(proactive=True))
    names2 = [app.name for app in cluster2.controller("c1").apps]
    assert "proactive" in names2
    assert "forwarding" not in names2
