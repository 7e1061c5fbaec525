"""The ground-truth check behind ``failed`` / ``attempted``."""

from bench.oracle import judge, self_test


def test_self_test_sees_planted_wrong_verdict_and_dropped_decision():
    self_test()


def test_judge_counts_each_kind_of_failure():
    clean = judge(100, 100, 0, {("ext", 1)}, {("ext", 1)}, "x")
    assert clean.correct and clean.failed == 0 and clean.failed_share == 0.0
    missed = judge(100, 100, 0, set(), {("ext", 1)}, "x")
    assert (missed.missed_alarms, missed.failed) == (1, 1)
    spurious = judge(100, 100, 0, {("ext", 1), ("ext", 2)}, {("ext", 1)}, "x")
    assert (spurious.spurious_alarms, spurious.failed) == (1, 1)
    pending = judge(100, 97, 3, set(), set(), "x")
    assert pending.undecided == 3 and not pending.correct
    lost = judge(100, 98, 0, set(), set(), "x")
    assert lost.undecided == 2 and lost.failed_share == 0.02
    assert not judge(0, 0, 0, set(), set(), "x").correct
