"""``jury-repro report``: one run, one artifact, one rendering.

What is pinned:

* **The report matches the commands it replaced.** The ``trace``,
  ``metrics`` and ``health`` sections of ``report -n 5 -k 2 --switches 6
  --seed 7``, and the ``alarms`` section of ``report --fault link-failure
  -n 5 -k 4 --switches 6 --seed 7``, hash to the digests recorded from the
  removed ``trace --output``, ``metrics``, ``health`` and ``diagnose``
  commands on the same arguments (``--format json`` payloads without
  their ``command`` key; each digest is sha-256 over sorted-key JSON).
  The ``cluster.jury`` summary of the traffic run carries the numbers the
  removed ``validate`` and ``detection`` commands printed for the same
  arguments (rates, triggers, alarms, detection count and percentiles),
  in the JSON and in the human text.
* **Human output is a pure function of the payload.** ``report --input
  R.json`` prints byte-identical text to the live run that wrote
  ``R.json``, with and without a QUERY, and two live runs print
  byte-identical JSON.
* **The Prometheus exposition lints clean** (``report --format prom``:
  ``tests/test_cli.py::test_metrics_prom_format_lints_clean`` and
  ``test_health_prom_format_lints_clean``).
* **A ``--config`` file keeps its experiment** and gets ``observe``
  turned on over it; its checkpoints fill the ``checkpoint`` section.
* **Reading a report changes nothing.** Once an SLO is breached,
  ``JuryDeployment.report()`` twice, or ``prometheus_text()`` and then
  ``report()``, at one simulated instant give equal payloads.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.cli import build_parser
from repro.harness.reporting import render_result

PARENT_DIGESTS = {
    "trace": "45b61c1fa797d9da0c35b083f50432828208ea0eec9976c7ac1614514c9eccfd",
    "metrics":
        "6182f7236c9e9457dbb707366a1786f303c88fe8427bbbd7413698ee9e87b096",
    "health": "71ec6a30072c1fd73d0738579d3d398d7acaecf357c48cc7ad44c263cf8b4166",
    "alarms": "d0d81a5943141500ea3b74066e58feea58e57f1912058005d9cf0c3ae4ce91c0",
}

_TRAFFIC = ["-n", "5", "-k", "2", "--switches", "6", "--seed", "7"]
_FAULT = ["--fault", "link-failure", "-n", "5", "-k", "4",
          "--switches", "6", "--seed", "7"]


def _sha(section) -> str:
    return hashlib.sha256(
        json.dumps(section, sort_keys=True).encode()).hexdigest()


def _run(argv, fmt="human"):
    """Run ``report`` as a fresh process would; ``(exit code, stdout)``."""
    args = build_parser().parse_args(["report"] + argv + ["--format", fmt])
    out = io.StringIO()
    code = render_result(args.fn(args), "human" if fmt == "prom" else fmt,
                         out=out, err=io.StringIO())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Each live run once, its human text, and the report it wrote."""
    root = tmp_path_factory.mktemp("report")
    runs = {}
    for name, argv, query in (("traffic", _TRAFFIC, None),
                              ("fault", _FAULT, None),
                              ("fault-query", _FAULT, "A0002")):
        path = root / f"{name}.json"
        code, text = _run(argv + ([query] if query else [])
                          + ["--output", str(path)])
        assert code == 0
        runs[name] = (text, path, query)
    return runs


def test_report_sections_match_parent_commands(saved):
    traffic = json.loads(saved["traffic"][1].read_text(encoding="utf-8"))
    fault = json.loads(saved["fault"][1].read_text(encoding="utf-8"))
    assert {name: _sha(traffic[name])
            for name in ("trace", "metrics", "health")} == {
        name: PARENT_DIGESTS[name] for name in ("trace", "metrics", "health")}
    assert _sha(fault["alarms"]) == PARENT_DIGESTS["alarms"]


def test_cluster_summary_carries_the_validation_verdict(saved):
    text, path, _ = saved["traffic"]
    jury = json.loads(path.read_text(encoding="utf-8"))["cluster"]["jury"]
    assert (jury["packet_in_rate_per_s"], jury["flow_mod_rate_per_s"]) == (
        980.0, 599.375)
    assert (jury["triggers_decided"], jury["triggers_alarmed"]) == (2628, 0)
    detection = jury["detection_ms"]
    assert detection["count"] == 965
    assert [round(detection[q], 2) for q in ("median", "p95", "p99")] == [
        19.01, 50.58, 76.11]
    assert ("JURY: k=2, 2628 decided, 0 alarmed, 0 pending, FP=0.000%, "
            "timeout=250.0 ms\n"
            "window: 980.0 PACKET_IN/s, 599.4 FLOW_MOD/s\n"
            "detection: 965 full-consensus triggers, median 19.01 ms, "
            "p95 50.58 ms, p99 76.11 ms\n") in text
    # A fault scenario opens no measurement window: no rates to report.
    fault = json.loads(saved["fault"][1].read_text(encoding="utf-8"))
    assert "packet_in_rate_per_s" not in fault["cluster"]["jury"]
    assert fault["cluster"]["jury"]["detection_ms"]["count"] > 0


@pytest.mark.parametrize("name", ["traffic", "fault", "fault-query"])
def test_input_renders_the_live_text_byte_identically(saved, name):
    text, path, query = saved[name]
    argv = ["--input", str(path)] + ([query] if query else [])
    assert _run(argv) == (0, text)


def test_query_shows_the_timeline_and_every_explanation(saved):
    text, _, _ = saved["fault-query"]
    assert "trigger ('ext', 118) — lifecycle" in text
    assert "verdict: alarm:consensus_mismatch" in text
    assert "A0002  ALARM consensus_mismatch  trigger ('ext', 118)" in text
    assert "A0001" not in text
    by_trigger = _run(["--input", str(saved["fault"][1]), "ext:118"])
    assert by_trigger == (0, text)


def test_two_live_json_runs_are_byte_identical(saved):
    first = _run(_FAULT, fmt="json")
    assert first == _run(_FAULT, fmt="json")
    assert first[1] == saved["fault"][1].read_text(encoding="utf-8")


def test_config_file_gets_every_observer_and_its_checkpoint(tmp_path):
    # --config keeps the file's experiment and turns ``observe`` on over
    # it; the deployment's last checkpoint is a section.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "k": 2, "switches": 4, "seed": 3,
                                  "checkpoint_every": 50}))
    path = tmp_path / "R.json"
    code, text = _run(["--config", str(config), "--rate", "500",
                       "--duration", "300", "--output", str(path)])
    assert code == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    described = payload["config"]
    assert described["checkpoint_every"] == 50
    assert described["observe"] is True
    checkpoint = payload["checkpoint"]
    assert len(checkpoint["sha256"]) == 64
    assert checkpoint["meta"]["triggers_decided"] > 0
    assert f"checkpoint: {checkpoint['sha256'][:12]}…" in text


def _breached_deployment():
    from repro import Jury, JuryConfig
    from repro.faults.base import run_scenario
    from repro.faults.synthetic import LinkFailureFault

    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=4, switches=6, seed=7, observe=True,
        timeout_ms=20))
    run_scenario(experiment, LinkFailureFault())
    return experiment.jury


@pytest.mark.parametrize("first", ["report", "prometheus_text"])
def test_reading_a_breached_report_twice_changes_nothing(first):
    # Each read evaluates the SLOs; a breach is fed to the flight recorder
    # once per rule and evaluation time, so a second read at the same
    # instant neither records it again nor dumps again.
    jury = _breached_deployment()
    baseline = _breached_deployment().report()
    assert any(not status["ok"] for status in baseline["health"]["slo"])
    assert baseline["flight"]["dumps"][-1]["reason"] == "slo-breach"
    getattr(jury, first)()
    assert json.dumps(jury.report(), sort_keys=True) == json.dumps(
        baseline, sort_keys=True)
