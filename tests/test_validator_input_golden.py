"""Golden digests of what a deployment hands its validator.

The alarm stream of a fault-free ONOS run is empty, so its digest cannot
tell an optimisation of the layers *below* the validator from a behaviour
change. The validator's **input** can: every response with its arrival
time, as the ingest records of a :class:`WriteAheadLog` attached to the
validator, plus the number of simulator events that produced it. The constants below were recorded on
the commit before cache-event canonical forms were memoised and the
simulator heap switched to ``(time, seq, event)`` entries; any change to
canonicalisation, bundle ordering, secondary selection or event order
moves them. (Recorded with CPython 3.11 on Linux x86-64; the digests cover
``repr`` of floats drawn through ``math.exp``, so a platform whose libm
rounds differently would need them re-recorded on that same parent commit.)

One field has been re-recorded since, and only that one: ``events fired``,
when the sequential validator's simulator timer per trigger became one
coalesced θτ wakeup (32 043 → 32 024, 22 790 → 22 774, 14 791 → 14 796).
Response count, input digest, triggers decided, alarms and the alarm-stream
digest are the original recording's.

``Response.__repr__`` prints only controller, trigger id, kind and taint, so
the input digest never saw an entry. The last column, the *field-complete*
input digest, hashes every constructor field of every response
(``__reduce__``); it was added later, recorded on the commit before the WAL
replaced the validator-stream tap, and is stable across ``PYTHONHASHSEED``.

Each case's simulator numbers its own trigger ids, so the digests do not
depend on which tests ran earlier.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Jury, JuryConfig
from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import (
    WriteAheadLog,
    replay_stream,
    wal_ingests,
)
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.faults.injector import default_policy_engine
from repro.workloads.traffic import TrafficDriver

#: (kind, k, seed, PACKET_IN/s) → (responses, input sha-256, events fired,
#: triggers decided, alarms, canonical alarm stream sha-256, field-complete
#: input sha-256). All cases: n=5, 8 switches, linear, θτ=250 ms, default
#: policies, WAL attached before warm-up, traffic for 400 ms, run for
#: 1200 ms.
GOLDEN = {
    # k = n−1: every peer relays, designated_secondaries never samples.
    ("onos", 4, 15, 1000.0): (
        5801,
        "8f6d190564d01281bda8067a43cc280a6b9ed90f66d3c151fbc7924c5e4745ef",
        32024, 850, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1ee5acbff7eaf2bf2c4a6d88f828cd169ac12a1d7b51ddf775d3679e6c0afec6"),
    # k < n−1: the seeded sample decides who relays.
    ("onos", 2, 15, 1000.0): (
        3463,
        "e61994863e148a191af8ad9fca10034513bdead72478df5b2de9e6de5ca38b2f",
        22774, 854, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ea0c7000334c18c33bfe9431beca6f5466b54a349b323a16660c786ee5d30dbf"),
    # Strongly consistent store under load: θτ races raise real alarms.
    ("odl", 4, 4, 600.0): (
        2426,
        "311feb04b59788a9f2e9cafa5266a6190ccdf5a1f28b9b2509da621e458e8644",
        14796, 296, 19,
        "cad64b3d11ddc39ffb3f45f552ee9624e72e2cbda98eedd5e33f28982c4a968c",
        "b7fc43fa3ecc2e3ecf5a725cfe59f6b5f9dc8b6214b32ef3320c9ef9f86d5923"),
}


def _live(kind: str, k: int, seed: int, rate: float, wal: WriteAheadLog):
    """Run one golden case live with ``wal`` recording its validator."""
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=5, k=k, switches=8, topology="linear", timeout_ms=250.0,
        seed=seed, policies=("default",)))
    experiment.jury.validator.wal = wal
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=rate, duration_ms=400.0).start()
    experiment.run(1200.0)
    return experiment


def _observe(kind: str, k: int, seed: int, rate: float):
    wal = WriteAheadLog()
    experiment = _live(kind, k, seed, rate, wal)
    records = wal_ingests(wal.records())
    digest, fields = hashlib.sha256(), hashlib.sha256()
    for _, time_ms, response in records:
        digest.update(repr((time_ms, response)).encode())
        fields.update(repr((time_ms, response.__reduce__()[1])).encode())
    validator = experiment.jury.validator
    alarms = canonical_alarm_stream(validator.alarms)
    return (len(records), digest.hexdigest(),
            experiment.sim.events_fired, validator.triggers_decided,
            len(validator.alarms), hashlib.sha256(alarms).hexdigest(),
            fields.hexdigest())


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-k{c[1]}")
def test_validator_input_matches_golden(case):
    observed = _observe(*case)
    assert observed == GOLDEN[case]
    # The ODL case exists so that one pinned alarm stream is not empty.
    assert case[0] != "odl" or observed[4] > 0


def test_on_disk_wal_of_a_live_run_replays_to_the_golden_alarms(tmp_path):
    """A file-backed WAL is a faithful recording: the ODL case, written to
    disk and read back, replays into a fresh sequential validator and a
    serial 4-shard pipeline with the live run's golden alarm stream."""
    case = ("odl", 4, 4, 600.0)
    path = str(tmp_path / "odl.wal")
    with WriteAheadLog(path) as wal:
        experiment = _live(*case, wal)
    records = wal_ingests(WriteAheadLog.read(path))
    assert len(records) == GOLDEN[case][0]
    lookup = experiment.cluster.master_of

    def make(shards):
        def build(sim):
            kwargs = dict(timeout=StaticTimeout(250.0),
                          policy_engine=default_policy_engine(),
                          mastership_lookup=lookup)
            if shards is None:
                return Validator(sim, case[1], **kwargs)
            return ValidationPipeline(sim, case[1], shards=shards, **kwargs)
        return build

    for shards in (None, 4):
        engine = replay_stream(records, make(shards))
        stream = canonical_alarm_stream(engine.alarms)
        assert hashlib.sha256(stream).hexdigest() == GOLDEN[case][5], \
            f"shards={shards}: on-disk WAL replay diverged from the live run"
