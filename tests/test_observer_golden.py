"""Golden pins for everything the observer stack records.

Every export an operator reads off a run — the canonical trace, the JSON
trace payload, per-trigger span emission order, the metrics dump and the
Prometheus text, alarm explanations, the replica-health snapshot and the
flight-recorder payload — is hashed with sha-256 and compared with digests recorded on the commit *before*
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
* **deployments** — an ONOS n=5 k=2 deployment with ``observe=True``
  (trace, metrics, forensics, health, flight recorder) and automatic
  checkpoints, at head-sampling rates 1 and 8, running traffic and a
  planted link-failure fault.

A ``sink`` digest (the records of a periodic snapshot sink) was pinned
per case too, until the sink was deleted; it only read the registry and
the health tracker, and no other digest moved when it went. The
``payload``, ``spans_for``, ``metrics``, ``prometheus`` and ``flight``
digests of ``serial N=4/{1,8,64}`` (15 in all) were re-recorded when the pipeline checkpoint body stopped
carrying per-shard Ψ views: those exports hold the
checkpoint's ``body_bytes`` and 12-hex sha tag, and with both masked they
were byte-equal before and after. The same five digests of all seven
cases (35 in all) were re-recorded when the checkpoint body dropped its
trigger-id positions, once trigger ids were numbered per simulator; with
the sha tag and body size masked they too were byte-equal before and
after. A change that means to keep what observers record must leave
every digest here alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Jury, JuryConfig
from repro.core.checkpoint import replay_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.faults.base import run_scenario
from repro.faults.injector import default_policy_engine
from repro.faults.synthetic import LinkFailureFault
from repro.obs.diagnose import AlarmForensics, export_explanations
from repro.obs.export import prometheus_text
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import HeadSampler
from repro.obs.trace import Tracer
from repro.workloads.traffic import TrafficDriver
from tests.test_one_engine import SOAK_K, TIMEOUT_MS, _faulty_soak_stream

#: Every how-many spans_for() keys (sorted) the emission-order pin samples.
SPANS_STRIDE = 23

GOLDEN = {
    "validator/1": {
        "canonical":
            "03261ac4c96a98b6cb7c2fd9f175461ad07e88c0eb76d7266c0fd525935698b5",
        "payload":
            "478a73bc925002daed05633684a5bc8b289ae2da7221659cd947e0206b6e7065",
        "spans_for":
            "f41ef50d679a5a1803646b67831b69e1c75fba6efb48408ad7c155569e4d3cac",
        "metrics":
            "e2da509461f01a1d171ccfb59e9096c3230baff68de5218dcebc0e25ca27ef08",
        "prometheus":
            "bd195387caa82003b07f68641a1ea40970d34028bde8770f8b3f8cf6455021c0",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "d05285ce3232b3d28a0a9f0d2fb615f78dc919a5e73e163f5d5acfbe174c12fb",
        "flight":
            "573d8e28f5eb225c8dbab8bc33810506148ee295eb9678e08cdd997d95ac1acb",
    },
    "validator/8": {
        "canonical":
            "3a508d94c93313ab10fcdc125514f797b6486241ba6d9548926b39484ba83208",
        "payload":
            "dcde4694e45072ee3ffe28a97bbfcf7376c6c7fd93e3df6aeadaf5f1d86694ed",
        "spans_for":
            "68a33f9979148e612b5624b8c579de18b20ef559eb1ffc831b355a5e8b869e18",
        "metrics":
            "64e520cd620dce98ed6e9674bce34f99657a0e7c9d679793d3350e5eda4fc613",
        "prometheus":
            "30931c0b443fe221faa1d30933ab7660c53a67724b5b477ae487b03460800338",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "282b00ad163a0128c2e6bf18d85dce088084a368cecf35067e4e8472d7283742",
        "flight":
            "a155baf4244b1c3203f69e174efed83bc535b79eaac97db93aaa5b5406454780",
    },
    "serial N=4/1": {
        "canonical":
            "03261ac4c96a98b6cb7c2fd9f175461ad07e88c0eb76d7266c0fd525935698b5",
        "payload":
            "3e1ad2430233647b84025a05caaf5cf52566e9fa6982a62c5fffba2f2d854904",
        "spans_for":
            "7f395464a1a1354462a1adcc880078b59f03bdfb8300df50d6edddbfdb7ccc17",
        "metrics":
            "bacf13f4b8c940d8e53bc45efcb23002b29ac505553efe50902ea7761fedb887",
        "prometheus":
            "eb6d67ecd912b2fb605309719435a5e889395913d94fd5c105c105dce067e4dd",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "d05285ce3232b3d28a0a9f0d2fb615f78dc919a5e73e163f5d5acfbe174c12fb",
        "flight":
            "b6c2361ca26d3eb8f9a315ed3d23fc88c96001353a6769d4b74c72f5515f8d5b",
    },
    "serial N=4/8": {
        "canonical":
            "3a508d94c93313ab10fcdc125514f797b6486241ba6d9548926b39484ba83208",
        "payload":
            "2d6e64648ec575ceb065177b0451a96ffca49900aee9fb60586b9d61ee275ec3",
        "spans_for":
            "de65bc9aa089e7596b479cf9624a5e33e7492cfda76b7cfdd953ab19802b95a3",
        "metrics":
            "0ec36780cbca2167c0a916e4b81190b626cbfa02f3a3ea875f8b06ae848a5b1a",
        "prometheus":
            "78498ec2d18df5f4a5e5f7e693c21ed716a99fcbd4c7764566ec62d931a0f549",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "282b00ad163a0128c2e6bf18d85dce088084a368cecf35067e4e8472d7283742",
        "flight":
            "a2f41a02243219f3d943abd90515b89d6c31d4aaf0bec462c68cd179d3d10fee",
    },
    "serial N=4/64": {
        "canonical":
            "86daae46823a0b27132884ecdf16af8185a61450f3307104c68e82306465b37d",
        "payload":
            "b2b4a15d80e03eb7ecc69429ddba3c503c85b4df0c2c6fc6b5227215c5d9f965",
        "spans_for":
            "0c50bda44911a80079c6822c0801c3f042259577d1f137acb9ec1778bdbc59fb",
        "metrics":
            "7d3d96f6830d71bd22bd8dd1f097396a4338edd71f326ffdbb502d671800cf5d",
        "prometheus":
            "0623719da16ba7c572bcb9552f732199f1fecce9b85f8446877380b536dbb597",
        "explanations":
            "22c0a27d5331b7495f3c4226a0e27aa227951d1367d748f45e54219474ed76c8",
        "health":
            "4b9460d9eb711487467bc5f54673add9828ddae24b123d7aaa4304a2e9b6f5d1",
        "flight":
            "efe29712418a116abaa1f77d8e296bb41959eff12798b0d41db5521a42c1bfbc",
    },
    "deploy-seq/1": {
        "canonical":
            "d658286c6983405f298702642b9ec87afcb2cdb7d1498b8b70b9042c948fd87d",
        "payload":
            "6603224270e835eaa73156ee80b363c7b7873dd538a98df5e6a717502917daca",
        "spans_for":
            "259acd97604e58c762da130a5eac7c3a4c5e036ce7be42c00f763ed6a17dc042",
        "metrics":
            "b7d0b61ebc90e4f6cb524673ff6252e40af2cf8de3c1fd7061007671fbda5041",
        "prometheus":
            "d422adcdd94030c098b69cc2a054519780f4dc1d3f960fec78dc620977411461",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "5e7d483e9503c07c570f4b8cc200c31f6cb7dd40cdcd2e13bc593f771ec98ac2",
        "flight":
            "e7c8fe2312bacc1d2ddcdeab895f8addefd0013e821ebc35b5cd30ac1ee05090",
    },
    "deploy-seq/8": {
        "canonical":
            "8c90467185d36c0bc5dc9740010585f8a2745c0fc715779ecd35c12aedf102c5",
        "payload":
            "5dea93c6bc0a8d11c5ef451ed79c2a64711ebcfbc596b17914d0dea795dd3cab",
        "spans_for":
            "671809cd9b77afd218e73b4776922474ad99b4d8d0801163857128712fb6c8f4",
        "metrics":
            "54a9f938c231b0b89378af4100b72361a38ecd01fccda8879df689b29b894cc2",
        "prometheus":
            "8fd182f0dd37a9637c5767eaa649d046ed49a907855100443dd525d5beb9d788",
        "explanations":
            "7febc258cb027d046f75325f4663f79a5e57f561182525331a344c1b4cb50f7a",
        "health":
            "219f04d72da5098fbecc9bb80c2ce689bf277071f4f71187a260aee6974faebd",
        "flight":
            "cfec6efae0b0fdff93dcb1ea57ad95ee19853c539fbf5827d2da161a408de65a",
    },
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _digests(now, tracer, metrics, forensics, health, recorder):
    """One sha-256 per export, in an order that reads without mutating."""
    keys = sorted(tracer.trigger_keys())[::SPANS_STRIDE]
    keys += [key for key in tracer.trigger_keys() if "engine" in key]
    emission = "\n".join(
        f"{key}:" + "\n".join(s.canonical_line() for s in tracer.spans_for(key))
        for key in keys)
    return {
        "canonical": _sha(tracer.canonical()),
        "payload": _sha(_json(tracer.to_payload())),
        "spans_for": _sha(emission),
        "metrics": _sha(metrics.to_json() + "\n"),
        "prometheus": _sha(prometheus_text(
            registry=metrics, health_reports=health.evaluate(now))),
        "explanations": _sha(_json(export_explanations(
            forensics.explanations()))),
        "health": _sha(_json(health.snapshot(now))),
        "flight": _sha(recorder.to_json(now, metrics=metrics)),
    }


# ----------------------------------------------------------------------
# (a) Engines fed the faulty soak stream
# ----------------------------------------------------------------------

def _stream_run(engine_label, rate):
    stack = dict(tracer=Tracer(), metrics=MetricsRegistry(),
                 forensics=AlarmForensics(), health=ReplicaHealthTracker(),
                 recorder=FlightRecorder(capacity=4096))

    def make(sim):
        common = dict(timeout=StaticTimeout(TIMEOUT_MS),
                      policy_engine=default_policy_engine(),
                      sampler=HeadSampler(rate), checkpoint_every=40, **stack)
        if engine_label == "validator":
            return Validator(sim, SOAK_K, **common)
        assert engine_label == "serial N=4"
        return ValidationPipeline(sim, SOAK_K, shards=4, **common)

    engine = replay_stream(_faulty_soak_stream(), make,
                           settle_ms=4 * TIMEOUT_MS)
    assert engine.alarms and engine.triggers_decided
    return _digests(engine.sim.now, **stack)


STREAM_CASES = [("validator", 1), ("validator", 8),
                ("serial N=4", 1), ("serial N=4", 8), ("serial N=4", 64)]


@pytest.mark.parametrize("engine_label,rate", STREAM_CASES)
def test_stream_observer_exports_match_golden(engine_label, rate):
    observed = _stream_run(engine_label, rate)
    assert observed == GOLDEN[f"{engine_label}/{rate}"]


# ----------------------------------------------------------------------
# (b) ONOS deployment, traffic plus a planted fault
# ----------------------------------------------------------------------

def _deployment_run(rate):
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=2, switches=6, topology="linear", seed=7,
        timeout_ms=250.0, policies=("default",), with_northbound=True,
        observe=True, obs_sample=rate, checkpoint_every=16))
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=300.0, duration_ms=400.0).start()
    experiment.run(400.0)
    assert run_scenario(experiment, LinkFailureFault(1, 2)).detected
    jury = experiment.jury
    assert jury.last_checkpoint is not None
    observer = jury.observer
    return _digests(experiment.sim.now, observer.tracer,
                    observer.metrics, observer.forensics, observer.health,
                    observer.recorder)


#: The ids keep the engine column ("None": the sequential validator) the
#: cases were recorded under, when a deployment could build a pipeline too.
DEPLOY_CASES = [pytest.param("deploy-seq", 1, id="deploy-seq-None-1"),
                pytest.param("deploy-seq", 8, id="deploy-seq-None-8")]


@pytest.mark.parametrize("label,rate", DEPLOY_CASES)
def test_deployment_observer_exports_match_golden(label, rate):
    observed = _deployment_run(rate)
    assert observed == GOLDEN[f"{label}/{rate}"]
