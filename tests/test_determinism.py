"""Whole-experiment determinism: the property everything else rests on.

Same seed ⇒ byte-identical outcomes, across the full stack (topology,
cluster, JURY, workload). This is what makes one-shot benchmark runs
reproducible measurements and shadow execution a meaningful reference.
"""

from repro.api import Jury
from repro.config import JuryConfig
from repro.workloads.traffic import TrafficDriver


def run_fingerprint(seed, k=4):
    experiment = Jury.experiment(JuryConfig(kind="onos", n=5, k=k, switches=8,
                                  seed=seed, timeout_ms=250.0))
    experiment.warmup()
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=1200.0, duration_ms=600.0)
    driver.start()
    experiment.run(1200.0)
    validator = experiment.validator
    switches = experiment.topology.switches.values()
    return (
        validator.triggers_decided,
        validator.triggers_alarmed,
        validator.responses_received,
        round(sum(r.detection_ms for r in validator.results), 6),
        tuple(sorted((s.dpid, len(s.table), s.packet_ins_sent)
                     for s in switches)),
        driver.connections_opened,
        experiment.store.counter.bytes,
    )


def test_same_seed_identical_run():
    # At k=4 every replica sits on each jury; at k=2 the jury is drawn
    # from τ, so the second run matches only if it numbers τ as the first.
    for k in (4, 2):
        assert run_fingerprint(777, k) == run_fingerprint(777, k), f"k={k}"


def test_different_seed_different_run():
    assert run_fingerprint(777) != run_fingerprint(778)


def test_replica_stores_converge_identically():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=5, k=4, switches=8,
                                  seed=779, timeout_ms=200.0))
    experiment.warmup()
    hosts = experiment.topology.host_list()
    for i in range(5):
        hosts[i].open_connection(hosts[(i + 4) % 8])
    experiment.run(2000.0)
    # After quiescing, all replicas hold byte-identical cache contents.
    contents = []
    for controller in experiment.cluster.controllers.values():
        snapshot = {cache: tuple(sorted(entries.items(), key=repr))
                    for cache, entries in controller.store.caches.items()}
        contents.append(repr(sorted(snapshot.items())))
    assert len(set(contents)) == 1
