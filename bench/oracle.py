"""Ground truth behind ``failed`` / ``attempted`` and ``alarm_stream_sha256``.

A trigger *fails* when the engine never decided it (still pending after the
final drain) or decided it wrongly against what the generator planted:

* stream workloads — the alarmed trigger ids must equal the generator's
  corrupted ids exactly; silent-secondary triggers must decide un-alarmed
  (they are in no alarm set) and every other trigger must decide clean;
* the deployment workload — the run is fault-free, so an alarm on a trigger
  whose full response set was judged is wrong. The one alarm a fault-free
  deployment can legitimately raise is a *θτ race* (the paper's Fig 4d
  false-alarm mode): the primary's response was still in flight when the
  timer fired, the trigger was judged on an incomplete set, and the late
  response was then dropped. That is the configured timeout doing what it
  says, so :func:`theta_race_ids` expects those alarms instead of failing
  the run on roughly one seed in five.

``python -m bench.oracle`` runs the self-test: it plants one wrong verdict
and one dropped decision and checks that both are counted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Set, Tuple


@dataclass(frozen=True)
class Verdict:
    """What the oracle found for one run."""

    attempted: int
    undecided: int
    missed_alarms: int      #: planted faults the engine did not alarm on
    spurious_alarms: int    #: alarmed triggers nothing was planted on
    alarm_stream_sha256: str

    @property
    def failed(self) -> int:
        return self.undecided + self.missed_alarms + self.spurious_alarms

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def alarm_stream_sha256(alarms: Iterable) -> str:
    """SHA-256 of the engine's canonical alarm stream."""
    from repro.core.alarms import canonical_alarm_stream
    return hashlib.sha256(canonical_alarm_stream(alarms)).hexdigest()


def theta_race_ids(alarms: Iterable, full_count: int,
                   late_responses: int) -> Set[Tuple]:
    """Trigger ids alarmed only because θτ expired on an incomplete set.

    A race alarm is a sanity mismatch or primary omission raised on fewer
    than ``full_count`` responses. Each one needs a matching late response
    (the missing one, dropped after the decision); alarms beyond
    ``late_responses`` mean responses were lost, not late, and stay wrong.
    """
    from repro.core.alarms import AlarmReason

    races = [alarm.trigger_id for alarm in alarms
             if alarm.reason in (AlarmReason.SANITY_MISMATCH,
                                 AlarmReason.PRIMARY_OMISSION)
             and 0 < len(alarm.responses) < full_count]
    return set(races[:late_responses])


def judge(attempted: int, decided: int, pending: int,
          alarmed_ids: Set[Tuple], expected_alarm_ids: Set[Tuple],
          sha256: str) -> Verdict:
    """Compare one run's outcome with the planted ground truth.

    ``attempted`` is how many triggers were offered; ``decided`` and
    ``pending`` are the engine's own counters after the final drain. A
    trigger the engine lost entirely (neither decided nor pending) counts
    as undecided too.
    """
    undecided = max(pending, attempted - decided)
    return Verdict(
        attempted=attempted,
        undecided=undecided,
        missed_alarms=len(expected_alarm_ids - alarmed_ids),
        spurious_alarms=len(alarmed_ids - expected_alarm_ids),
        alarm_stream_sha256=sha256)


def judge_engine(engine, attempted: int,
                 expected_alarm_ids: Set[Tuple]) -> Verdict:
    """:func:`judge` read off a Validator / ValidationPipeline."""
    alarms = engine.alarms
    return judge(attempted, engine.triggers_decided, engine.pending_count,
                 {alarm.trigger_id for alarm in alarms}, expected_alarm_ids,
                 alarm_stream_sha256(alarms))


def self_test() -> None:
    """Plant one wrong verdict and one dropped decision; both must count."""
    from repro.core.timeouts import StaticTimeout
    from repro.core.validator import Validator
    from repro.sim.simulator import Simulator

    from bench.streams import ResponseStream

    def run(drop_trigger: int = -1):
        stream = ResponseStream(seed=15, corrupt_rate=0.05)
        sim = Simulator(seed=0)
        engine = Validator(sim, stream.k, timeout=StaticTimeout(250.0),
                           keep_results=False)
        arrivals = stream.take(400) + stream.flush()
        for time_ms, _, response in arrivals:
            if response.trigger_id == ("ext", drop_trigger):
                continue  # the engine never hears of this trigger
            sim.run(until=time_ms)
            engine.ingest(response)
        sim.run(until=sim.now + 300.0)
        return stream, engine

    stream, engine = run()
    expected = {("ext", index) for index in stream.corrupted}
    clean = judge_engine(engine, 400, expected)
    if not clean.correct or clean.failed_share != 0.0:
        raise AssertionError(f"clean run judged wrong: {clean}")

    # One wrong verdict: the oracle is told a clean trigger was corrupted.
    planted = next(i for i in range(400) if i not in stream.corrupted)
    wrong = judge_engine(engine, 400, expected | {("ext", planted)})
    if wrong.missed_alarms != 1 or wrong.failed_share <= clean.failed_share:
        raise AssertionError(f"planted wrong verdict not counted: {wrong}")

    # One dropped decision: a trigger's responses never reach the engine.
    stream, engine = run(drop_trigger=planted)
    dropped = judge_engine(engine, 400, expected)
    if dropped.undecided != 1 or dropped.failed_share <= 0.0:
        raise AssertionError(f"dropped decision not counted: {dropped}")


if __name__ == "__main__":
    from bench.paths import add_src
    add_src()
    self_test()
    print("oracle self-test ok")
