#!/usr/bin/env python3
"""Adaptive validation timeouts (§VIII future work, implemented here).

The paper: "JURY relies on validation timeouts for raising alarms ... A
lower timeout can raise numerous false alarms, while a higher value may
result in increased detection times ... Adaptive timeouts can significantly
reduce the number of false alarms in networks with high churn. We leave
determination of adaptive timeouts for future work."

This example runs the same churny workload three times — generous static
timeout, too-tight static timeout, and the adaptive policy — and prints the
false-alarm/detection-latency trade-off, plus a breakdown of the
too-tight timeout's alarms.

Run:  python examples/adaptive_timeouts.py
"""

from collections import Counter

from repro.core.timeouts import AdaptiveTimeout
from repro.api import Jury
from repro.config import JuryConfig
from repro.harness import format_table
from repro.workloads import TrafficDriver


def run(label, seed=150, timeout=None, timeout_ms=250.0):
    experiment = Jury.experiment(JuryConfig(kind="onos", n=7, k=6, switches=24,
                                  seed=seed, timeout_ms=timeout_ms))
    if timeout is not None:
        experiment.validator.timeout = timeout
    experiment.warmup()
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=4000.0, duration_ms=1200.0,
                           host_join_rate_per_s=10.0,
                           link_churn_rate_per_s=2.0)
    driver.start()
    experiment.run(1800.0)
    validator = experiment.validator
    stats = experiment.detection_stats()
    return {
        "label": label,
        "fp": validator.false_positive_rate(),
        "median": stats.median,
        "p95": stats.p95,
        "final_timeout": validator.timeout.current(),
        "alarms": validator.alarms,
    }


def main() -> None:
    results = [
        run("static 250 ms", timeout_ms=250.0),
        run("static 30 ms (too tight)", timeout_ms=30.0),
        run("adaptive (q95 x 1.4)", timeout=AdaptiveTimeout(
            initial_ms=30.0, window=200, quantile=0.95, margin=1.4)),
    ]
    print(format_table(
        "Timeout policies under churn (4K PACKET_IN/s, host joins, "
        "link flaps)",
        ["policy", "false alarms", "median det ms", "p95 det ms",
         "final timeout"],
        [[r["label"], f"{100 * r['fp']:.2f}%", f"{r['median']:.0f}",
          f"{r['p95']:.0f}", f"{r['final_timeout']:.0f} ms"]
         for r in results]))

    alarms = results[1]["alarms"]
    if alarms:
        print("\nAlarm breakdown for the too-tight timeout:")
        reasons = Counter(alarm.reason.value for alarm in alarms)
        for reason, count in sorted(reasons.items()):
            print(f"  {reason}: {count}")
        print("\nLast alarms:")
        for alarm in alarms[-3:]:
            print(f"  [{alarm.raised_at:9.1f} ms] {alarm.reason.value:<20} "
                  f"controller={alarm.offending_controller or '?':<4} "
                  f"{alarm.detail}")

    assert results[1]["fp"] > results[0]["fp"]
    assert results[2]["fp"] < results[1]["fp"] / 3
    print("\nOK: adaptive timeouts quell the tight-timeout false alarms.")


if __name__ == "__main__":
    main()
