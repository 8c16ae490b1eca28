"""Smoke tests of scripts/: each runs in a fresh interpreter at a small
size, exits 0 and prints its key result line."""

import os
import subprocess
import sys

import pytest

import rmlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rmlab.__file__)))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


@pytest.mark.parametrize("script, args, expected", [
    ("flagship_pipeline.py", [], "(5, -6, 5)"),
    ("acceleration_profile.py", ["--depth", "3"], "raw agreement profile"),
    ("poisson_convergence.py", ["--levels", "2"],
     "level 2: error valuation 2"),
], ids=["flagship_pipeline", "acceleration_profile", "poisson_convergence"])
def test_script_runs(script, args, expected):
    out = subprocess.run([sys.executable, os.path.join(SCRIPTS, script)]
                         + args, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert expected in out.stdout
