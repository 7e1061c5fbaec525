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
after every engine step. The ``payload``, ``spans_for``, ``metrics``,
``prometheus``, ``flight`` and ``sink`` digests of ``serial N=4/{1,8,64}``
and ``deploy-pipe2/1`` (24 in all) were re-recorded when the pipeline
checkpoint body stopped carrying per-shard Ψ views: those exports hold the
checkpoint's ``body_bytes`` and 12-hex sha tag, and with both masked they
were byte-equal before and after. A change that means to keep what
observers record must leave every digest here alone.
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
            "7c239c4f08e509f6983b31879931db02617a599a64d3d05e8b289558bddc559a",
        "spans_for":
            "c0d8698be01e85fbfa6e592f33426d533e4fc8cdd615a39cc06863b4723322c3",
        "metrics":
            "19376b57ff7807c89c10f45cf9f5751d794cf65b53d9488110e7f2646ef74215",
        "prometheus":
            "c664fad6929467b0ac6fdf3006655747b005a8130e2c1fd55f0876787bacf527",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "d05285ce3232b3d28a0a9f0d2fb615f78dc919a5e73e163f5d5acfbe174c12fb",
        "flight":
            "a5879970f601467c87e40c243c8383ea7da9304a8e9a2e30e40b8c57bb02123c",
        "sink":
            "106552433957e714c753acc999b72f0aaf5fc48a0ed3fa0ad7a68b5cd5facb75",
    },
    "serial N=4/8": {
        "canonical":
            "3a508d94c93313ab10fcdc125514f797b6486241ba6d9548926b39484ba83208",
        "payload":
            "9fa579f148886aaa8be925763b38495dd6d60962b521722813ffaacf157cf56e",
        "spans_for":
            "b7848cb2e7ad9a046bb470c1d157e036939c26c4cbccefa6a7feedcf46266a86",
        "metrics":
            "e58cf2e5fe99a25d41851f11c7f3dc687ef5d8e329d8d502cd8c64519c868bb3",
        "prometheus":
            "d894745b80132b326b678c5ceacd0a0bc0cae10d5b5ce73703fc1628e4c896eb",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "282b00ad163a0128c2e6bf18d85dce088084a368cecf35067e4e8472d7283742",
        "flight":
            "3114e972bdc04d21785e081ea3b1c9f1478ce1d86b484318622ebe7889636400",
        "sink":
            "f166707963530fa581b9612b188e417b86f3611fe60637f7428b4d2b47a69b26",
    },
    "serial N=4/64": {
        "canonical":
            "86daae46823a0b27132884ecdf16af8185a61450f3307104c68e82306465b37d",
        "payload":
            "94839fa523459a96140b21868397219772892d7c6c1731cb3da81ca613023f07",
        "spans_for":
            "a0e9afc19504a7b05a65a8ec28daaad36407281c202a8598cbf0634c9243bd55",
        "metrics":
            "3f564a78d3a57e9761c34b05c1ecaa0bae4dbad946743ef0327407f64603e4bb",
        "prometheus":
            "41d9cb026559a10e1399d2a7eb7989586e5e9d964ec6c4d7b1283e0c83a05127",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "4b9460d9eb711487467bc5f54673add9828ddae24b123d7aaa4304a2e9b6f5d1",
        "flight":
            "373b49f878c89f767f847d182c8d1c7033a9422bbb6bde5dd958830b22a02baa",
        "sink":
            "f8fd0b0da2f3bf87bbb8a1e690a5407577358f328d30f7fe52d26f097b7ed60d",
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
            "69c4c8122bca400efa69ea675efd4d150df63bf254242d4713a9cc7f991c4893",
        "spans_for":
            "62bea555d3d61f87b864a01d321ab9280d64ab06c2aa558a14021e0d6a7153ad",
        "metrics":
            "fe183f6a29a9ba50652620b1a536c3fced53d2bd3632e727d0b8a344f313135c",
        "prometheus":
            "36c3957dbc510ffe7ff0cdeb82cf01adbd4ddf8216afd6568c3f366cff95d228",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "5e7d483e9503c07c570f4b8cc200c31f6cb7dd40cdcd2e13bc593f771ec98ac2",
        "flight":
            "bd2668a492f37860c964d4a7ae5216a813c6cf6a8c39a8fe16c4ba224a594cff",
        "sink":
            "6345f6b88b4d25501751ed1ae01fe398d1ee85c5dee6b9ff673e2a57e92ae258",
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
