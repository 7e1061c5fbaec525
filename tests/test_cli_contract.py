"""The CLI's uniform contract, pinned across every subcommand.

Three invariants (see the ``repro.cli`` module docstring):

1. every subcommand's handler returns a
   :class:`~repro.harness.reporting.CommandResult` whose ``data`` payload
   is JSON-serializable — so ``--format json`` always prints valid JSON;
2. the exit-code contract is uniform: 0 ok, 1 findings-or-failure,
   2 usage/config error (the fuzzer's documented exception: a surviving
   counterexample is a broken repo invariant and exits 2, pinned in
   ``test_fuzz_cli.py``);
3. usage errors — unknown names, bad ``--config`` files — exit 2 with the
   message on stderr, never a traceback.

Each command runs ONCE (parse → handler), then both render paths are
checked off the same result, so the suite stays affordable even though it
walks the whole command surface.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness.reporting import CommandResult, render_result

REPO_ROOT = Path(__file__).resolve().parents[1]
POLICY_CLEAN = str(REPO_ROOT / "tests" / "fixtures" / "policies" / "clean.xml")

_SMALL = ["--nodes", "3", "-k", "2", "--switches", "4",
          "--rate", "500", "--duration", "300", "--seed", "3"]

CLEAN_PY = textwrap.dedent("""
    def handler(sim):
        return sim.now
""")

DIRTY_PY = textwrap.dedent("""
    import time

    def handler(seen, channel):
        seen.add(id(channel))
        return time.time()
""")


def _commands(tmp_path: Path):
    """Every subcommand with a small, deterministic invocation."""
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_PY)
    return {
        "faults": ["faults", "crash", "--nodes", "5", "-k", "4",
                   "--switches", "6", "--seed", "4"],
        "throughput": ["throughput", "--cluster-sizes", "1",
                       "--switches", "4", "--rate", "500",
                       "--duration", "300", "--seed", "5"],
        "report": ["report"] + _SMALL,
        "report-fault": ["report", "--fault", "link-failure", "--nodes", "5",
                         "-k", "4", "--switches", "6", "--seed", "4"],
        "fuzz": ["fuzz", "--seed", "8", "--runs", "1", "--no-shrink"],
        "list-faults": ["list-faults"],
        "analyze": ["analyze", str(clean)],
        "analyze-xml": ["analyze", "--fail-on", "warning", POLICY_CLEAN],
    }


@pytest.fixture(scope="module")
def contract_results(tmp_path_factory):
    """Run every subcommand once; later tests assert off the shared results."""
    tmp_path = tmp_path_factory.mktemp("cli-contract")
    parser = build_parser()
    results = {}
    for name, argv in _commands(tmp_path).items():
        args = parser.parse_args(argv)
        results[name] = args.fn(args)
    return results


def _command_names():
    # Names only — the fixture owns the tmp_path-dependent argv.
    return list(_commands(Path("/tmp")).keys())


@pytest.mark.parametrize("name", _command_names())
def test_every_command_returns_a_command_result(contract_results, name):
    result = contract_results[name]
    assert isinstance(result, CommandResult), \
        f"{name} returned {type(result).__name__}"
    assert result.command, f"{name} left CommandResult.command empty"
    assert result.exit_code in (0, 1, 2), \
        f"{name} exited {result.exit_code}, outside the 0/1/2 contract"


@pytest.mark.parametrize("name", _command_names())
def test_every_command_succeeds_on_its_happy_path(contract_results, name):
    result = contract_results[name]
    assert result.exit_code == 0, \
        f"{name} failed its smoke invocation: {result.errors}"


@pytest.mark.parametrize("name", _command_names())
def test_json_format_prints_valid_json(contract_results, name):
    result = contract_results[name]
    out, err = io.StringIO(), io.StringIO()
    code = render_result(result, fmt="json", out=out, err=err)
    assert code == result.exit_code
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict), f"{name} JSON payload is not an object"


@pytest.mark.parametrize("name", _command_names())
def test_human_format_renders_without_error(contract_results, name):
    result = contract_results[name]
    out, err = io.StringIO(), io.StringIO()
    code = render_result(result, fmt="human", out=out, err=err)
    assert code == result.exit_code
    # prom-capable commands aside, every success prints something readable.
    assert out.getvalue().strip() or result.data == {}


# ----------------------------------------------------------------------
# Exit 1: findings-or-failure
# ----------------------------------------------------------------------

def test_findings_exit_1(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_PY)
    assert main(["analyze", "--fail-on", "error", str(dirty)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# Exit 2: usage/config errors, message on stderr, no traceback
# ----------------------------------------------------------------------

def _bad_config_missing(tmp_path):
    return ["report", "--config", str(tmp_path / "missing.json")]


def _bad_config_unknown_key(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"k": 2, "swiches": 4}))
    return ["report", "--config", str(path)]


def _bad_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    return ["report", "--config", str(path)]


def _report_input_not_a_report(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"format": "jury-trace", "spans": []}))
    return ["report", "--input", str(path)]


def _report_input_with_fault(tmp_path):
    return ["report", "--input", str(tmp_path / "R.json"),
            "--fault", "link-failure"]


@pytest.mark.parametrize("make_argv,needle", [
    (lambda _: ["faults", "no-such-fault"], "unknown fault"),
    (lambda _: ["report", "--fault", "no-such-fault"], "unknown fault"),
    (lambda tmp: ["report", "--input", str(tmp / "missing.json")],
     "report:"),
    (_report_input_not_a_report, "not a jury-report file"),
    (_report_input_with_fault, "cannot be combined with --fault"),
    (lambda _: ["analyze", "no_such_dir_zzz"], ""),
    (lambda _: ["analyze", str(Path(POLICY_CLEAN).parent)],
     "no Python file under the paths"),
    (_bad_config_missing, "--config"),
    (_bad_config_unknown_key, "did you mean 'switches'"),
    (_bad_config_invalid_json, "invalid JSON"),
    (lambda _: ["report", "--pipeline", "2"], "--pipeline"),
    (lambda _: ["soak", "--pipeline", "2"], "--pipeline"),
], ids=["unknown-fault", "unknown-report-fault", "report-missing-input",
        "report-non-report-input", "report-input-with-fault",
        "missing-analyze-path", "analyze-nothing-to-scan",
        "config-missing-file", "config-unknown-key", "config-invalid-json",
        "removed-validate-pipeline", "removed-soak-pipeline"])
def test_usage_errors_exit_2_with_stderr_message(tmp_path, capsys,
                                                 make_argv, needle):
    try:
        code = main(make_argv(tmp_path))
    except SystemExit as exc:  # argparse rejects an unknown option itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert needle in captured.err
    assert "Traceback" not in captured.err


def test_removed_bench_command_exits_2(capsys):
    # The perf harness is `python -m bench`; the CLI has no bench command.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "validator"])
    assert exc.value.code == 2
    assert "bench" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "metrics", "diagnose",
                                     "health", "validate", "detection",
                                     "analyze-policy"])
def test_removed_observability_commands_exit_2(capsys, command):
    # `report` replaced the first six (it carries the validation summary
    # and the detection times) and `analyze PATH... POLICY.xml` is the
    # policy gate; there is no alias.
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["report", "--backend", "processes"],
    ["fuzz", "--runs", "1", "--backend", "processes"],
    ["soak", "--backend", "processes"],
], ids=["experiment", "fuzz", "soak"])
def test_removed_backend_option_exits_2(capsys, argv):
    # Shards always run in process; no command selects a backend.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err
