"""Unit tests for the validator's staleness (out-of-sync replica) monitor."""

from repro.core.alarms import AlarmReason
from repro.core.backends.shardcore import digest_progress
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.sim.simulator import Simulator


def digest(total):
    return (("c1", total),)


def replica(cid, progress, tau):
    return Response(cid, tau, ResponseKind.REPLICA_RESULT, ((), ()),
                    tainted=True, state_digest=digest(progress),
                    primary_hint="c1")


def test_digest_progress_parsing():
    assert digest_progress((("c1", 3), ("c2", 4))) == 7
    assert digest_progress(()) is None
    assert digest_progress((1,)) is None  # malformed


def test_stale_replica_flagged():
    sim = Simulator()
    validator = Validator(sim, k=2, timeout=StaticTimeout(10.0))
    validator.staleness_threshold = 50
    tau = ("ext", 1)
    validator.ingest(replica("c2", 500, tau))
    validator.ingest(replica("c3", 10, tau))  # 490 writes behind
    sim.run()
    stale = [a for a in validator.alarms
             if a.reason == AlarmReason.STALE_REPLICA]
    assert len(stale) == 1
    assert stale[0].offending_controller == "c3"


def test_small_lag_not_flagged():
    sim = Simulator()
    validator = Validator(sim, k=2, timeout=StaticTimeout(10.0))
    validator.staleness_threshold = 50
    tau = ("ext", 2)
    validator.ingest(replica("c2", 500, tau))
    validator.ingest(replica("c3", 470, tau))  # within threshold
    sim.run()
    assert not any(a.reason == AlarmReason.STALE_REPLICA
                   for a in validator.alarms)


def test_staleness_monitor_disabled():
    sim = Simulator()
    validator = Validator(sim, k=2, timeout=StaticTimeout(10.0))
    validator.staleness_threshold = None
    tau = ("ext", 3)
    validator.ingest(replica("c2", 500, tau))
    validator.ingest(replica("c3", 1, tau))
    sim.run()
    assert not any(a.reason == AlarmReason.STALE_REPLICA
                   for a in validator.alarms)


def test_stale_alarms_rate_limited():
    sim = Simulator()
    validator = Validator(sim, k=2, timeout=StaticTimeout(10.0))
    validator.staleness_threshold = 50
    validator.staleness_cooldown_ms = 1000.0
    for i in range(5):
        tau = ("ext", 100 + i)
        validator.ingest(replica("c2", 500, tau))
        validator.ingest(replica("c3", 10, tau))
    sim.run()
    stale = [a for a in validator.alarms
             if a.reason == AlarmReason.STALE_REPLICA]
    assert len(stale) == 1  # cooldown suppresses repeats


def test_progress_is_monotonic_per_controller():
    sim = Simulator()
    validator = Validator(sim, k=2, timeout=StaticTimeout(10.0))
    tau = ("ext", 200)
    validator.ingest(replica("c2", 500, tau))
    # An older (lower) digest from the same node must not regress its state.
    validator.ingest(Response("c2", ("ext", 201), ResponseKind.REPLICA_RESULT,
                              ((), ()), tainted=True,
                              state_digest=digest(100), primary_hint="c1"))
    assert validator.state["c2"].digest_progress == 500
    sim.run()
