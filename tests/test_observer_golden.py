"""Golden pins for everything the observer stack records.

Every export an operator reads off a run — the canonical trace, the JSON
trace payload, per-trigger span emission order, the metrics dump and the
Prometheus text, alarm explanations, the replica-health snapshot, the
flight-recorder payload and the periodic snapshot-sink records — is hashed
with sha-256 and compared with digests recorded on the commit *before*
engines, replicator, checkpoints and (since deleted) execution backends
started reporting through the one :class:`~repro.obs.observer.Observer`
(CPython 3.11, Linux x86-64).

Two setups:

* **streams** — the sequential ``Validator`` and a serial N=4 pipeline,
  each with the full observer stack at head-sampling rates 1 and 8, fed
  ``tests/test_one_engine.py``'s soak stream with corrupted relays, silent
  secondaries and stragglers either side of θτ; the serial N=4 pipeline
  also at rate 64, the production-shaped sampling rate (that digest was
  recorded later, on the commit that introduced the one observer);
* **deployments** — an ONOS n=5 k=2 deployment with trace, metrics,
  diagnose, health, flight, a 100 ms snapshot sink and automatic
  checkpoints, at ``pipeline`` None and 2 (and None at head-sampling
  rate 8), running traffic and a planted link-failure fault.

Exactly one digest differs from the recording, on purpose: the
snapshot-sink records of the sequential deployment (``deploy-seq/*``
``sink``). On the recording commit the sink was driven only by the
pipeline's flush path, so with ``pipeline=None`` it never took a snapshot
and its digest was :data:`EMPTY`; the sequential validator now ticks it
after every engine step. A change that means to keep what observers record
must leave every digest here alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Jury, JuryConfig
from repro.controllers.context import reset_trigger_ids
from repro.core.checkpoint import replay_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.faults.base import run_scenario
from repro.faults.injector import default_policy_engine
from repro.faults.synthetic import LinkFailureFault
from repro.obs.diagnose import AlarmForensics, export_explanations
from repro.obs.export import SnapshotSink, prometheus_text
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry, dump_metrics
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import HeadSampler
from repro.obs.trace import Tracer
from repro.workloads.traffic import TrafficDriver
from tests.test_one_engine import SOAK_K, TIMEOUT_MS, _faulty_soak_stream

#: Every how-many spans_for() keys (sorted) the emission-order pin samples.
SPANS_STRIDE = 23

#: sha-256 of the empty string: what a sink that never fired exports.
EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = {
    "validator/1": {
        "canonical":
            "03261ac4c96a98b6cb7c2fd9f175461ad07e88c0eb76d7266c0fd525935698b5",
        "payload":
            "d983d7ab62f615f95486e8e703ef4b8a206a9288b206e1bf0dd2cdd37adf76e9",
        "spans_for":
            "8871a23d36ae888db1d5d9545b6cffc9f37c5eb8744ed7de7d6547c67444f147",
        "metrics":
            "19019e5486e5ca154ae46af7d45cf3513cf54e04f9e9c3f22854efcec29f83c2",
        "prometheus":
            "e430dcc59c970f1dd75b9d4e05242a453087c425d34d0542c2dfec30f004cffd",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "d05285ce3232b3d28a0a9f0d2fb615f78dc919a5e73e163f5d5acfbe174c12fb",
        "flight":
            "e61288f68be9c05cba77fec623abde659ad7b3530bfca3da674e85ae773253fc",
        "sink": EMPTY,
    },
    "validator/8": {
        "canonical":
            "3a508d94c93313ab10fcdc125514f797b6486241ba6d9548926b39484ba83208",
        "payload":
            "9baaf1300bbdcd81dfbfa1138c7fd364931482130f7b31a7f44251111e3f0020",
        "spans_for":
            "091dd12e0da3fccd8e181dc3832d4b38601b5e1f5021fc9e357d6eeae82397cf",
        "metrics":
            "bbe2f1a83d8d0898518e30d428068a0eea2ba75a7a27b682e22b7f16be3b8ad6",
        "prometheus":
            "15a9987e10f6bce3e88bbbde468df7640c8ca816a3b2656cd0b832d60753186d",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "282b00ad163a0128c2e6bf18d85dce088084a368cecf35067e4e8472d7283742",
        "flight":
            "b8e381a324981c055ced75f07759499ef8aa94c1515e3e2a376b8b9340f92994",
        "sink": EMPTY,
    },
    "serial N=4/1": {
        "canonical":
            "03261ac4c96a98b6cb7c2fd9f175461ad07e88c0eb76d7266c0fd525935698b5",
        "payload":
            "7959949592fee75f484caf919d2ce616d300487523956052c5d31d3169880dc7",
        "spans_for":
            "eb31b66753a76e3fa3f0877eaeb3ff2639ee85ed22754e527425660e94133113",
        "metrics":
            "7beb973726444684c8c7b4ff8c4b4d8b097db832aae03dcd70980d84982f3fc7",
        "prometheus":
            "f539e37274e90690924c4a00eba430ef6ef23a387aa25aa0887974a1ae10eec2",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "d05285ce3232b3d28a0a9f0d2fb615f78dc919a5e73e163f5d5acfbe174c12fb",
        "flight":
            "f5e13f404180c3d44b02198d1efe99f7ffd8e0a4d2ffc43bd19b2744ff3c5a23",
        "sink":
            "07e8cd0259bbc96f448aeef01f45eeb07260642df063bc18a5d0e47be05de58f",
    },
    "serial N=4/8": {
        "canonical":
            "3a508d94c93313ab10fcdc125514f797b6486241ba6d9548926b39484ba83208",
        "payload":
            "542e7b08cb1f0efefa6f6ef7c33eb0e4ed736d090fee85730690708538ef8270",
        "spans_for":
            "10fc8aae9cd89fea024b104459b38cfa81caf934b04981acc4388de440a95d62",
        "metrics":
            "106380c5cfab2d1e398fdf58abfa0ae855819548fb43bdd6d9ac79bcde7239ee",
        "prometheus":
            "f16a69cc10cd018a5367054bf35146dda03d313dd62e21f17254d8bab23f737b",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "282b00ad163a0128c2e6bf18d85dce088084a368cecf35067e4e8472d7283742",
        "flight":
            "c7463242c85679a6764c26e0bd02b6d4f9f56396384c72fa65010a98cb36d8af",
        "sink":
            "3d47380b32710cefe4b4a221eb79528c90d2a6ac5c4c9c86c5acbe0b9bef61a5",
    },
    "serial N=4/64": {
        "canonical":
            "86daae46823a0b27132884ecdf16af8185a61450f3307104c68e82306465b37d",
        "payload":
            "6e6e31d6f34b95b80b6fdeca72463393c40dbe8ec1a2030cc5a1635b61116a81",
        "spans_for":
            "4b5d940fdf5ad701a3f6744a4ee1afc8d636de215e7dc5935af2cf0a1951ce25",
        "metrics":
            "4b91c508833b4bfb1b2f9a3591552b15158c126d7d78e6ff31c5afe827db961d",
        "prometheus":
            "dc99e755989aeb5529858f25c3af6b612d8613c1e3a8777085eb159876c74b70",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "4b9460d9eb711487467bc5f54673add9828ddae24b123d7aaa4304a2e9b6f5d1",
        "flight":
            "43cc2c3e65338db77d956d7a8afd8d9a646535b93a923b6bad17d4d316714b7d",
        "sink":
            "b54cde2da68b54b7dff1af23a68241a2ef07dd50dbbb8ddd3823a205f5ac492d",
    },
    "deploy-seq/1": {
        "canonical":
            "d658286c6983405f298702642b9ec87afcb2cdb7d1498b8b70b9042c948fd87d",
        "payload":
            "31c362f0d8eda275f2fd3ed73e80311c58527cf310f409f2dd9d771d2cfd6fd2",
        "spans_for":
            "ce677d1ac98e40cd7650cc44b0b966b4345d0dae7af778ef6ab99d3333ad8b0e",
        "metrics":
            "af3a602207b9a45d270360f51e915133d0f0310120d97ba39bd7bf7fe2fcd3d3",
        "prometheus":
            "9dc6a7b8e4f5bda0c8fd184602cd5333e966d40a688dda5a81f44127ba0210fa",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "5e7d483e9503c07c570f4b8cc200c31f6cb7dd40cdcd2e13bc593f771ec98ac2",
        "flight":
            "8b324d9ddf2efd221352779aa1f8936029b1b5fe9b6a7ebd76ace99e4c68bace",
        "sink":
            "c23b96ab373d61c10f6cdfc6cf87d14ab99a2bc7e5eb1752ee8877c082e65c4f",
    },
    "deploy-seq/8": {
        "canonical":
            "8c90467185d36c0bc5dc9740010585f8a2745c0fc715779ecd35c12aedf102c5",
        "payload":
            "2f27f2790c69cf614fef6bc375afac67fad57aeee926f696259cd934521d24e8",
        "spans_for":
            "6ca7ef6b17fc6aefa0b8a7b969de8bf47c8a9ce452a302ca1cfdafa99089dc83",
        "metrics":
            "e7827e55fbaee45ae0571ce733341b8bbc0895149cb8934db4a05bdac3a3538f",
        "prometheus":
            "adf15570304edf5236f7e0e1f320f47845517aefbdcd5842d524068ad018e381",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "219f04d72da5098fbecc9bb80c2ce689bf277071f4f71187a260aee6974faebd",
        "flight":
            "233f290132e7f1ad9aa9a10f6a74a94c8cd59eaf2cf853eb01ee34abd0c4cacf",
        "sink":
            "baa53eea7e4d0473c02d7bd00bcc103340e8d83feb93d22d16337c371142c672",
    },
    "deploy-pipe2/1": {
        "canonical":
            "d658286c6983405f298702642b9ec87afcb2cdb7d1498b8b70b9042c948fd87d",
        "payload":
            "64720cb4594fc0cb85f64369b73700248da2c153023a1cea47ddb61f5f34cbb6",
        "spans_for":
            "7f590f54b4c0c3f6d38f7d3f35df88d64da9008a4808fef60c3ec76254df2370",
        "metrics":
            "95657da9a84b6dba129c221388743af766ad37e49da3a5116877d7b1e252c152",
        "prometheus":
            "3407b43aa345a687572dfa1bddfa91f42183e938989bdcd6a0e9b4143571138b",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "5e7d483e9503c07c570f4b8cc200c31f6cb7dd40cdcd2e13bc593f771ec98ac2",
        "flight":
            "6857cf8f24f3cd7baae581d2dedb9dcecfdc2e564aca6120a424c7d11b302bd5",
        "sink":
            "881ac429bc7dcaf303acbcd1f40c35a9b69698df3598baeb327495feeee30489",
    },
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _digests(tmp_path, now, tracer, metrics, forensics, health, recorder,
             sink):
    """One sha-256 per export, in an order that reads without mutating."""
    keys = sorted(tracer.trigger_keys())[::SPANS_STRIDE]
    keys += [key for key in tracer.trigger_keys() if "engine" in key]
    emission = "\n".join(
        f"{key}:" + "\n".join(s.canonical_line() for s in tracer.spans_for(key))
        for key in keys)
    path = tmp_path / "metrics.json"
    dump_metrics(metrics, str(path))
    return {
        "canonical": _sha(tracer.canonical()),
        "payload": _sha(_json(tracer.to_payload())),
        "spans_for": _sha(emission),
        "metrics": _sha(path.read_bytes()),
        "prometheus": _sha(prometheus_text(
            registry=metrics, health_reports=health.evaluate(now))),
        "explanations": _sha(_json(export_explanations(
            forensics.explanations()))),
        "health": _sha(_json(health.snapshot(now))),
        "flight": _sha(recorder.to_json(now, metrics=metrics)),
        "sink": _sha(sink.to_jsonl()) if sink is not None else EMPTY,
    }


# ----------------------------------------------------------------------
# (a) Engines fed the faulty soak stream
# ----------------------------------------------------------------------

def _stream_run(tmp_path, engine_label, rate):
    reset_trigger_ids()
    stack = dict(tracer=Tracer(), metrics=MetricsRegistry(),
                 forensics=AlarmForensics(), health=ReplicaHealthTracker(),
                 recorder=FlightRecorder(capacity=4096))
    sink = None

    def make(sim):
        nonlocal sink
        common = dict(timeout=StaticTimeout(TIMEOUT_MS),
                      policy_engine=default_policy_engine(),
                      sampler=HeadSampler(rate), checkpoint_every=40, **stack)
        if engine_label == "validator":
            return Validator(sim, SOAK_K, **common)
        sink = SnapshotSink(100.0, registry=stack["metrics"],
                            health=stack["health"])
        assert engine_label == "serial N=4"
        return ValidationPipeline(sim, SOAK_K, shards=4, snapshot_sink=sink,
                                  **common)

    engine = replay_stream(_faulty_soak_stream(), make,
                           settle_ms=4 * TIMEOUT_MS)
    assert engine.alarms and engine.triggers_decided
    return _digests(tmp_path, engine.sim.now, sink=sink, **stack)


STREAM_CASES = [("validator", 1), ("validator", 8),
                ("serial N=4", 1), ("serial N=4", 8), ("serial N=4", 64)]


@pytest.mark.parametrize("engine_label,rate", STREAM_CASES)
def test_stream_observer_exports_match_golden(tmp_path, engine_label, rate):
    observed = _stream_run(tmp_path, engine_label, rate)
    assert observed == GOLDEN[f"{engine_label}/{rate}"]


# ----------------------------------------------------------------------
# (b) ONOS deployment, traffic plus a planted fault
# ----------------------------------------------------------------------

def _deployment_run(tmp_path, pipeline, rate):
    reset_trigger_ids()
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=2, switches=6, topology="linear", seed=7,
        timeout_ms=250.0, policies=("default",), with_northbound=True,
        pipeline=pipeline, trace=True, metrics=True, diagnose=True,
        health=True, flight=True, obs_sample=rate,
        snapshot_interval_ms=100.0, checkpoint_every=16))
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=300.0, duration_ms=400.0).start()
    experiment.run(400.0)
    assert run_scenario(experiment, LinkFailureFault(1, 2)).detected
    jury = experiment.jury
    assert jury.last_checkpoint is not None
    observed = _digests(tmp_path, experiment.sim.now, jury.tracer,
                        jury.metrics, jury.forensics, jury.health,
                        jury.recorder, jury.snapshot_sink)
    return observed


DEPLOY_CASES = [("deploy-seq", None, 1), ("deploy-seq", None, 8),
                ("deploy-pipe2", 2, 1)]


@pytest.mark.parametrize("label,pipeline,rate", DEPLOY_CASES)
def test_deployment_observer_exports_match_golden(tmp_path, label, pipeline,
                                                  rate):
    observed = _deployment_run(tmp_path, pipeline, rate)
    assert observed == GOLDEN[f"{label}/{rate}"]
