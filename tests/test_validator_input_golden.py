"""Golden digests of what a deployment hands its validator.

The alarm stream of a fault-free ONOS run is empty, so its digest cannot
tell an optimisation of the layers *below* the validator from a behaviour
change. The validator's **input** can: every response with its arrival
time, tapped by :class:`ValidatorStreamRecorder`, plus the number of
simulator events that produced it. The constants below were recorded on
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

Each case resets the process-global trigger-id counters first, so the
digests do not depend on which tests ran earlier.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Jury, JuryConfig
from repro.controllers.context import reset_trigger_ids
from repro.core.alarms import canonical_alarm_stream
from repro.workloads.recorder import ValidatorStreamRecorder
from repro.workloads.traffic import TrafficDriver

#: (kind, k, seed, PACKET_IN/s) → (responses, input sha-256, events fired,
#: triggers decided, alarms, canonical alarm stream sha-256). All cases:
#: n=5, 8 switches, linear, θτ=250 ms, default policies, tap attached
#: before warm-up, traffic for 400 ms, run for 1200 ms.
GOLDEN = {
    # k = n−1: every peer relays, designated_secondaries never samples.
    ("onos", 4, 15, 1000.0): (
        5801,
        "8f6d190564d01281bda8067a43cc280a6b9ed90f66d3c151fbc7924c5e4745ef",
        32024, 850, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # k < n−1: the seeded sample decides who relays.
    ("onos", 2, 15, 1000.0): (
        3463,
        "e61994863e148a191af8ad9fca10034513bdead72478df5b2de9e6de5ca38b2f",
        22774, 854, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Strongly consistent store under load: θτ races raise real alarms.
    ("odl", 4, 4, 600.0): (
        2426,
        "311feb04b59788a9f2e9cafa5266a6190ccdf5a1f28b9b2509da621e458e8644",
        14796, 296, 19,
        "cad64b3d11ddc39ffb3f45f552ee9624e72e2cbda98eedd5e33f28982c4a968c"),
}


def _observe(kind: str, k: int, seed: int, rate: float):
    reset_trigger_ids()
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=5, k=k, switches=8, topology="linear", timeout_ms=250.0,
        seed=seed, policies=("default",)))
    recorder = ValidatorStreamRecorder(experiment.jury)
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=rate, duration_ms=400.0).start()
    experiment.run(1200.0)
    digest = hashlib.sha256()
    for record in recorder.records:
        digest.update(repr((record.time_ms, record.response)).encode())
    validator = experiment.jury.validator
    alarms = canonical_alarm_stream(validator.alarms)
    return (len(recorder.records), digest.hexdigest(),
            experiment.sim.events_fired, validator.triggers_decided,
            len(validator.alarms), hashlib.sha256(alarms).hexdigest())


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-k{c[1]}")
def test_validator_input_matches_golden(case):
    observed = _observe(*case)
    assert observed == GOLDEN[case]
    # The ODL case exists so that one pinned alarm stream is not empty.
    assert case[0] != "odl" or observed[4] > 0
