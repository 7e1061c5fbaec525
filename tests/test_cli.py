"""Tests for the command-line interface."""

import pytest

from repro.cli import FAULTS, build_parser, main


def test_list_faults(capsys):
    assert main(["list-faults"]) == 0
    out = capsys.readouterr().out
    assert "crash" in out
    assert "odl-flow-mod-drop" in out
    for name in FAULTS:
        assert name in out


def test_validate_command(capsys):
    code = main(["validate", "--nodes", "3", "-k", "2", "--switches", "4",
                 "--rate", "500", "--duration", "400", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "triggers validated" in out
    assert "false-positive rate" in out


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


def test_detection_command_renders_cdf(capsys):
    code = main(["detection", "--nodes", "3", "-k", "2", "--switches", "4",
                 "--rate", "600", "--duration", "500", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p95=" in out
    assert "k=2" in out  # CDF legend


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Observability commands: trace / metrics / diagnose / health
# ----------------------------------------------------------------------

_SMALL = ["--nodes", "3", "-k", "2", "--switches", "4",
          "--rate", "500", "--duration", "300", "--seed", "3"]


def test_trace_unknown_trigger_exits_nonzero(capsys):
    code = main(["trace", "ext:999999"] + _SMALL)
    assert code == 2
    assert "no traced trigger" in capsys.readouterr().err


def test_metrics_prom_format_lints_clean(capsys):
    from repro.obs.export import lint_prometheus_text
    code = main(["metrics", "--format", "prom"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE validator_responses_total counter" in out
    assert ("# HELP validator_responses_total "
            "Responses ingested by the validator.") in out
    # Every declared family carries a HELP line right before its TYPE.
    lines = out.strip("\n").splitlines()
    for index, line in enumerate(lines):
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert lines[index - 1].startswith(f"# HELP {family} ")
    assert lint_prometheus_text(out.strip("\n") + "\n") == []


def test_diagnose_live_fault_names_class(capsys):
    import json
    code = main(["diagnose", "--fault", "link-failure", "--nodes", "5",
                 "-k", "4", "--switches", "6", "--seed", "4",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["alarm_count"] > 0
    classes = {alarm["fault_class"] for alarm in payload["alarms"]}
    assert classes == {"T1"}


def test_diagnose_unknown_alarm_exits_nonzero(capsys):
    code = main(["diagnose", "ZZZZ", "--fault", "link-failure",
                 "--nodes", "5", "-k", "4", "--switches", "6",
                 "--seed", "4"])
    assert code == 2
    assert "no alarm matches" in capsys.readouterr().err


def test_diagnose_unknown_fault_exits_nonzero(capsys):
    code = main(["diagnose", "--fault", "no-such-fault"])
    assert code == 2
    assert "unknown fault" in capsys.readouterr().err


def test_diagnose_offline_round_trip(tmp_path, capsys):
    import json
    log = tmp_path / "alarms.jsonl"
    code = main(["diagnose", "--fault", "link-failure", "--nodes", "5",
                 "-k", "4", "--switches", "6", "--seed", "4",
                 "--record-alarm-log", str(log), "--format", "json"])
    live = json.loads(capsys.readouterr().out)
    assert code == 0 and log.exists()
    code = main(["diagnose", "--alarm-log", str(log), "--format", "json"])
    offline = json.loads(capsys.readouterr().out)
    assert code == 0
    assert offline["alarm_count"] == live["alarm_count"]
    assert [a["fault_class"] for a in offline["alarms"]] \
        == [a["fault_class"] for a in live["alarms"]]


def test_diagnose_missing_alarm_log_exits_nonzero(tmp_path, capsys):
    code = main(["diagnose", "--alarm-log", str(tmp_path / "missing.jsonl")])
    assert code == 2
    assert "diagnose" in capsys.readouterr().err


def test_diagnose_flight_output_then_attach(tmp_path, capsys):
    import json
    flight = tmp_path / "FLIGHT.json"
    fault_args = ["diagnose", "--fault", "link-failure", "--nodes", "5",
                  "-k", "4", "--switches", "6", "--seed", "4"]
    code = main(fault_args + ["--flight-output", str(flight)])
    capsys.readouterr()
    assert code == 0 and flight.exists()
    payload = json.loads(flight.read_text())
    assert payload["format"] == "jury-flight"
    assert payload["events_recorded"] > 0
    assert any(dump["reason"] == "alarm" for dump in payload["dumps"]), \
        "the fault's alarms must have triggered a dump"
    # Attach the dump to a fresh diagnosis, human and JSON.
    code = main(fault_args + ["--flight", str(flight), "--format", "json"])
    attached = json.loads(capsys.readouterr().out)
    assert code == 0
    assert attached["flight"]["events_recorded"] \
        == payload["events_recorded"]
    code = main(fault_args + ["--flight", str(flight)])
    assert code == 0
    assert "flight recorder:" in capsys.readouterr().out


def test_diagnose_flight_flag_misuse_is_usage_error(tmp_path, capsys):
    code = main(["diagnose", "--flight", str(tmp_path / "missing.json")])
    assert code == 2
    capsys.readouterr()
    log = tmp_path / "alarms.jsonl"
    log.write_text("")
    code = main(["diagnose", "--alarm-log", str(log),
                 "--flight-output", str(tmp_path / "f.json")])
    assert code == 2
    assert "cannot be combined" in capsys.readouterr().err


def test_health_human_and_json(capsys):
    import json
    code = main(["health"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "replica health" in out
    assert "slo" in out.lower()
    code = main(["health", "--format", "json"] + _SMALL)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["replicas"]
    assert {report["controller_id"] for report in
            payload["replicas"].values()} == set(payload["replicas"])


def test_health_prom_format_lints_clean(capsys):
    from repro.obs.export import lint_prometheus_text
    code = main(["health", "--format", "prom"] + _SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "jury_replica_health_score" in out
    assert "jury_slo_ok" in out
    assert lint_prometheus_text(out.strip("\n") + "\n") == []


def test_health_jsonl_output(tmp_path, capsys):
    import json
    path = tmp_path / "health.jsonl"
    code = main(["health", "--output", str(path)] + _SMALL)
    capsys.readouterr()
    assert code == 0
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert record["kind"] == "health"
    assert record["replicas"]
