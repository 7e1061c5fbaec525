"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.faults import CATALOG


def test_list_faults(capsys):
    assert main(["list-faults"]) == 0
    out = capsys.readouterr().out
    assert "crash" in out
    assert "odl-flow-mod-drop" in out
    for name in CATALOG:
        assert name in out


def test_list_faults_lists_exactly_the_catalog(capsys):
    assert main(["list-faults", "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)["faults"]
    assert [row["name"] for row in listed] == sorted(CATALOG)
    for row in listed:
        fault = CATALOG[row["name"]]
        assert row["class"] == fault.fault_class.value
        assert row["controller"] == fault.kind


def test_report_summarizes_the_validation_run(capsys):
    argv = ["report", "--nodes", "3", "-k", "2", "--switches", "4",
            "--rate", "500", "--duration", "400", "--seed", "3"]
    code = main(argv + ["--format", "json"])
    jury = json.loads(capsys.readouterr().out)["cluster"]["jury"]
    assert code == 0
    assert jury["triggers_decided"] > 0 and jury["triggers_alarmed"] == 0
    assert jury["false_positive_rate"] == 0.0
    assert jury["packet_in_rate_per_s"] > 0 < jury["flow_mod_rate_per_s"]
    detection = jury["detection_ms"]
    assert 0 < detection["count"] <= jury["triggers_decided"]
    assert 0 < detection["median"] <= detection["p95"] <= detection["p99"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"{jury['triggers_decided']} decided, 0 alarmed" in out
    assert f"FLOW_MOD/s\ndetection: {detection['count']} " in out
    assert f"p99 {detection['p99']:.2f} ms" in out


@pytest.mark.parametrize("timeout", ["-5", "0", "nan"])
def test_validate_refuses_a_timeout_that_is_not_positive(timeout, capsys):
    # The validation run is `report`'s; the refusal is JuryConfig's.
    code = main(["report", "--timeout", timeout, "--duration", "200"])
    assert code == 2
    assert "timeout_ms" in capsys.readouterr().err


def test_faults_command_detects(capsys):
    code = main(["faults", "crash", "--nodes", "5", "-k", "4",
                 "--switches", "6", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "YES" in out
    assert "primary_omission" in out


def test_faults_command_unknown_name(capsys):
    code = main(["faults", "no-such-fault"])
    assert code == 2
    assert "unknown fault" in capsys.readouterr().err


def test_throughput_command(capsys):
    code = main(["throughput", "--cluster-sizes", "1", "2",
                 "--switches", "6", "--rate", "800", "--duration", "400",
                 "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=1" in out and "n=2" in out


def test_throughput_honours_a_config_file(tmp_path, monkeypatch, capsys):
    # The file's kind, switches and seed hold; the sweep sets n, and the
    # cluster runs without JURY (k=None).
    config = tmp_path / "odl.json"
    config.write_text(json.dumps(
        {"kind": "odl", "n": 3, "k": 2, "switches": 4, "seed": 7}))
    built = []
    experiment = cli.Jury.experiment

    class _Jury:
        @staticmethod
        def experiment(jury_config):
            built.append(jury_config)
            return experiment(jury_config)

    monkeypatch.setattr(cli, "Jury", _Jury)
    code = main(["throughput", "--config", str(config), "--cluster-sizes",
                 "1", "--duration", "100", "--rate", "200"])
    assert code == 0
    assert capsys.readouterr().out.startswith("odl cluster throughput")
    assert [(c.kind, c.n, c.k, c.switches, c.seed) for c in built] == [
        ("odl", 1, None, 4, 7)]


class _Built(Exception):
    """Stops a command right after it chose its experiment's config."""


@pytest.mark.parametrize("argv,kind", [
    (["faults", "--config", "{config}", "odl-flow-mod-drop"], "odl"),
    (["faults", "--controller", "odl", "onos-pending-add"], "onos"),
    (["report", "--controller", "odl", "--fault", "onos-pending-add"],
     "onos"),
    (["report", "--config", "{config}", "--fault", "odl-flow-mod-drop"],
     "odl"),
    (["report", "--controller", "odl"], "odl"),
], ids=["faults-config", "faults-controller", "report-controller",
        "report-config", "report-no-fault"])
def test_a_catalog_fault_runs_on_its_catalog_kind(tmp_path, monkeypatch,
                                                  argv, kind):
    # The catalog's kind overrides --controller and the file's kind; the
    # rest of a --config file still defines the experiment.
    config = tmp_path / "onos.json"
    config.write_text(json.dumps(
        {"kind": "onos", "n": 5, "k": 2, "switches": 6, "seed": 7}))
    built = []

    class _Jury:
        @staticmethod
        def experiment(jury_config):
            built.append(jury_config)
            raise _Built

    monkeypatch.setattr(cli, "Jury", _Jury)
    with pytest.raises(_Built):
        main([arg.format(config=config) for arg in argv])
    (jury_config,) = built
    assert jury_config.kind == kind
    if "--config" in argv:
        assert (jury_config.n, jury_config.k, jury_config.seed) == (5, 2, 7)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Observability: one `report` command (trace, metrics, diagnose, health)
# ----------------------------------------------------------------------

_SMALL = ["--nodes", "3", "-k", "2", "--switches", "4",
          "--rate", "500", "--duration", "300", "--seed", "3"]

_FAULT = ["report", "--fault", "link-failure", "--nodes", "5", "-k", "4",
          "--switches", "6", "--seed", "4"]


def _assert_prom_lints_clean(out):
    from tests.prom_lint import lint_prometheus_text
    # Every registry family carries a HELP line right before its TYPE (the
    # health/SLO families, ``jury_*``, declare only their TYPE).
    lines = out.strip("\n").splitlines()
    for index, line in enumerate(lines):
        if line.startswith("# TYPE ") and not line.startswith("# TYPE jury_"):
            family = line.split()[2]
            assert lines[index - 1].startswith(f"# HELP {family} ")
    assert lint_prometheus_text(out.strip("\n") + "\n") == []


def test_trace_unknown_trigger_exits_nonzero(capsys):
    code = main(["report", "ext:999999"] + _SMALL)
    assert code == 2
    assert "no traced trigger" in capsys.readouterr().err


def test_metrics_prom_format_lints_clean(capsys):
    code = main(["report", "--format", "prom"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE validator_responses_total counter" in out
    assert ("# HELP validator_responses_total "
            "Responses ingested by the validator.") in out
    _assert_prom_lints_clean(out)


def test_diagnose_live_fault_names_class(capsys):
    import json
    code = main(_FAULT + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["alarms"]
    assert payload["alarm_count"] > 0
    classes = {alarm["fault_class"] for alarm in payload["alarms"]}
    assert classes == {"T1"}


def test_diagnose_unknown_alarm_exits_nonzero(capsys):
    code = main(_FAULT + ["ZZZZ"])
    assert code == 2
    assert "no traced trigger or alarm matches 'ZZZZ'" \
        in capsys.readouterr().err


def test_diagnose_unknown_fault_exits_nonzero(capsys):
    code = main(["report", "--fault", "no-such-fault"])
    assert code == 2
    assert "unknown fault" in capsys.readouterr().err


def test_diagnose_offline_round_trip(tmp_path, capsys):
    import json
    saved = tmp_path / "REPORT.json"
    code = main(_FAULT + ["--output", str(saved), "--format", "json"])
    live = json.loads(capsys.readouterr().out)
    assert code == 0 and saved.exists()
    code = main(["report", "--input", str(saved), "--format", "json"])
    offline = json.loads(capsys.readouterr().out)
    assert code == 0
    assert offline == live
    assert offline["alarms"]["alarm_count"] > 0


def test_report_missing_input_exits_nonzero(tmp_path, capsys):
    code = main(["report", "--input", str(tmp_path / "missing.json")])
    assert code == 2
    assert "report" in capsys.readouterr().err


def test_report_flight_section_records_alarm_dumps(capsys):
    import json
    code = main(_FAULT + ["--format", "json"])
    flight = json.loads(capsys.readouterr().out)["flight"]
    assert code == 0
    assert flight["format"] == "jury-flight"
    assert flight["events_recorded"] > 0
    assert any(dump["reason"] == "alarm" for dump in flight["dumps"]), \
        "the fault's alarms must have triggered a dump"
    code = main(_FAULT)
    assert code == 0
    assert "flight recorder:" in capsys.readouterr().out


def test_health_human_and_json(capsys):
    import json
    code = main(["report"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "replica health" in out
    assert "slo" in out.lower()
    code = main(["report", "--format", "json"] + _SMALL)
    payload = json.loads(capsys.readouterr().out)["health"]
    assert code == 0
    assert payload["replicas"]
    assert {report["controller_id"] for report in
            payload["replicas"].values()} == set(payload["replicas"])


def test_health_prom_format_lints_clean(capsys):
    code = main(["report", "--format", "prom"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "jury_replica_health_score" in out
    assert "jury_slo_ok" in out
    _assert_prom_lints_clean(out)
