"""The example scripts run end-to-end and their internal assertions hold.

Examples are user-facing documentation; breaking them silently would be
worse than a failing unit test. Each example asserts its own claims, so a
clean exit is the contract.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = run_example("quickstart.py", capsys)
    assert "no false alarms" in out
    assert "triggers validated" in out


def test_policy_enforcement_example(capsys):
    out = run_example("policy_enforcement.py", capsys)
    assert "Policy enforcement results" in out
    assert "no alarms" in out


@pytest.mark.slow
def test_fault_detection_demo_example(capsys):
    out = run_example("fault_detection_demo.py", capsys)
    assert "16/16 faults detected" in out


@pytest.mark.slow
def test_adaptive_timeouts_example(capsys):
    out = run_example("adaptive_timeouts.py", capsys)
    assert "adaptive timeouts quell" in out
