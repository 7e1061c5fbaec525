"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_equal_timestamps_fire_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(3.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 2)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the window edge
    sim.run()
    assert fired == [1, 2]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []


def test_cancel_twice_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 4.0


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_pending_counts_uncancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending == 1


def test_same_seed_same_trace():
    def trace(seed):
        sim = Simulator(seed=seed)
        values = []
        for i in range(20):
            sim.schedule(sim.rng.uniform(0, 100), values.append, i)
        sim.run()
        return values

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_fork_rng_streams_are_independent_and_stable():
    sim_a = Simulator(seed=3)
    sim_b = Simulator(seed=3)
    assert sim_a.fork_rng("x").random() == sim_b.fork_rng("x").random()
    assert sim_a.fork_rng("x").random() != sim_a.fork_rng("y").random()


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_events_fired_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 4


# ----------------------------------------------------------------------
# Kernel contract under (time, seq, event) heap entries
# ----------------------------------------------------------------------

def test_nan_time_is_rejected_and_queue_order_survives():
    """NaN compares False both ways: it passed ``time < now`` and sat
    unordered in the heap (5, NaN, 1, 3 fired as 1, 3, NaN, 5, the clock
    going to NaN and then backwards)."""
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, 5)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), fired.append, "nan")
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(3.0, fired.append, 3)
    assert sim.pending == 3
    sim.run()
    assert fired == [1, 3, 5]
    assert sim.now == 5.0


def test_ten_thousand_same_instant_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10_000):
        sim.schedule_at(7.0, fired.append, i)
    sim.run()
    assert fired == list(range(10_000))
    assert sim.events_fired == 10_000


class _Incomparable:
    """A callback (and argument) that refuses every rich comparison."""

    def __init__(self, log):
        self.log = log

    def __call__(self, arg):
        self.log.append(arg)

    def _refuse(self, other):
        raise AssertionError("the heap compared an event's payload")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __hash__ = object.__hash__


def test_callbacks_and_arguments_are_never_compared():
    sim = Simulator()
    log = []
    callbacks = [_Incomparable(log) for _ in range(50)]
    # Same instant and interleaved instants: ties go to seq, never further.
    for i, callback in enumerate(callbacks):
        sim.schedule_at(2.0 if i % 2 else 1.0, callback, callback)
    sim.run()
    assert log == callbacks[0::2] + callbacks[1::2]


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    first.cancel()
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_fired == 2


def test_cancelled_events_are_skipped_by_step_run_and_max_events():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(t), fired.append, t) for t in range(1, 7)]
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending == 4
    assert sim.step()                    # skips t=1, fires t=2
    assert fired == [2] and sim.now == 2.0
    sim.run(max_events=1)                # skips t=3, fires t=4
    assert fired == [2, 4] and sim.pending == 2
    handles[4].cancel()
    handles[5].cancel()
    assert sim.pending == 0
    assert not sim.step()                # only cancelled entries were left
    assert sim.now == 4.0 and sim.events_fired == 2


def test_run_until_fires_the_event_at_the_edge_and_parks_the_clock_there():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "edge")
    sim.schedule_at(5.000001, fired.append, "after")
    sim.run(until=5.0)
    assert fired == ["edge"] and sim.now == 5.0 and sim.pending == 1
    sim.run(until=4.0)                   # never moves the clock backwards
    assert sim.now == 5.0
    sim.run(until=6.0)
    assert fired == ["edge", "after"] and sim.now == 6.0


def test_event_handle_reports_its_firing_time():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.schedule(2.5, lambda: None).time == 12.5
    assert sim.schedule_at(11, lambda: None).time == 11


def test_class_level_schedule_at_patch_also_sees_schedule(monkeypatch):
    """``bench/layers.py`` tags every event by patching ``schedule_at`` on
    the class; ``schedule`` must keep dispatching through it."""
    seen = []
    original = Simulator.schedule_at

    def spy(self, time, callback, *args):
        seen.append((time, args))
        return original(self, time, callback, *args)

    monkeypatch.setattr(Simulator, "schedule_at", spy)
    sim = Simulator()
    sim.run(until=3.0)
    fired = []
    sim.schedule(2.0, fired.append, "relative")
    sim.schedule_at(4.0, fired.append, "absolute")
    sim.run()
    assert seen == [(5.0, ("relative",)), (4.0, ("absolute",))]
    assert fired == ["absolute", "relative"]
