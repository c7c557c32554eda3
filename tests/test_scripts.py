"""Smoke runs of the scripts under scripts/, each on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["expansion_growth.py", "--max-depth", "1"],
    ["line_census_survey.py", "--samples", "5"],
    ["theta_sum_experiment.py", "--trials", "3"],
    pytest.param(["theta_sum_experiment.py", "--union", "2"], id="theta_sum_experiment.py-union"),
    ["ab_pairs.py", "--help"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    # from the repo root with the source tree on the path, as the scripts' usage says
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "scripts/" + argv[0], *argv[1:]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
