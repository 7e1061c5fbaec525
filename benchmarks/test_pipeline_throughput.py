"""Sequential vs. sharded validation pipeline: same alarms, same work.

`repro.harness.bench.compare` runs one synthetic 2k+2 response workload
through the sequential :class:`~repro.core.validator.Validator` and through
the N-shard :class:`~repro.core.pipeline.ValidationPipeline`, measures
sustained ingest+decide throughput and per-chunk decision latency, and
writes the result to ``BENCH_validator_pipeline.json`` (sequential and
sharded ops/s, p50/p99 latency, speedup, shard/queue/batch counters).

What is asserted is correctness: both engines decide every trigger and
their canonical alarm streams are byte-identical. The speedup is reported,
not gated. Both engines drive the same decision core, and on this
never-advancing-clock loop N=4 measured a median 1.15× over the sequential
validator (ten runs; range 0.95–1.39×) — whether sharding pays at all is
ROADMAP open item 2, to be settled on a ``BENCHMARK.json`` workload.
"""

from __future__ import annotations

import pathlib

from repro.harness.bench import compare, write_payload

from conftest import run_once

TRIGGERS = 8_000
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_validator_pipeline.json"


def test_pipeline_vs_sequential_throughput(benchmark):
    payload = run_once(benchmark, lambda: compare(
        triggers=TRIGGERS, k=6, seed=0, fault_rate=0.02, shards=4))
    write_payload(payload, OUTPUT)

    sequential = payload["sequential"]
    pipeline = payload["pipeline"]
    print(f"\nsequential: {sequential['ops_per_s']:,.0f} triggers/s "
          f"(p50 {sequential['p50_ms']:.4f} ms, p99 {sequential['p99_ms']:.4f} ms)")
    print(f"pipeline N=4: {pipeline['ops_per_s']:,.0f} triggers/s "
          f"(p50 {pipeline['p50_ms']:.4f} ms, p99 {pipeline['p99_ms']:.4f} ms)")
    print(f"speedup: {payload['speedup']:.2f}x -> {OUTPUT.name}")

    assert payload["alarm_streams_identical"] is True, \
        "pipeline and sequential alarm streams must be byte-identical"
    assert sequential["decided"] == pipeline["decided"] == TRIGGERS
