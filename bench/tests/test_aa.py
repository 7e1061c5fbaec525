"""The A/A arithmetic: spreads, gaps and the verdict."""

import statistics

from bench.aa import analyse, spread, worse_by


def _runs(values, metric="triggers_per_s", sha="a" * 64):
    return [{"seed": i, "failed": 0, "attempted": 10,
             "alarm_stream_sha256": sha, "metrics": {metric: v}}
            for i, v in enumerate(values)]


CONTRACT = {"end_to_end": [{"name": "triggers_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.10}]}


def test_spread_is_interquartile_distance_over_median():
    values = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              100.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)


def test_worse_by_follows_the_metric_direction():
    assert worse_by(100.0, 90.0, "higher") == 0.10
    assert worse_by(100.0, 90.0, "lower") == -0.10
    assert worse_by(100.0, 110.0, "lower") == 0.10


def test_analyse_flags_a_gap_beyond_the_bound():
    steady = [100.0, 101.0, 99.0, 100.0]
    good = analyse([{"w": _runs(steady)}, {"w": _runs(steady)}], CONTRACT)
    assert good["ok"] and good["rows"][0]["within_bound"]
    slow = [v * 0.85 for v in steady]
    bad = analyse([{"w": _runs(steady)}, {"w": _runs(slow)}], CONTRACT)
    assert not bad["ok"] and not bad["rows"][0]["within_bound"]


def test_analyse_flags_a_digest_that_does_not_repeat():
    steady = [100.0, 101.0, 99.0, 100.0]
    result = analyse([{"w": _runs(steady)},
                      {"w": _runs(steady, sha="b" * 64)}], CONTRACT)
    assert not result["ok"]
