"""The three experiment scripts run end to end with their defaults."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["ball_experiments.py", "inequality_sweep.py"])
def test_script_runs(name):
    assert run_script(name).strip()


def test_moment_curve_report_prints_json():
    report = json.loads(run_script("moment_curve_report.py"))
    assert isinstance(report, dict) and report
