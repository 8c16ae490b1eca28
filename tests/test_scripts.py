"""Smoke tests of scripts/ and of the README's quick start: each runs in a
fresh interpreter at a small size, exits 0 and prints its key result
line."""

import os
import subprocess
import sys

import pytest

import rmlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rmlab.__file__)))
ROOT = os.path.dirname(SRC)
SCRIPTS = os.path.join(ROOT, "scripts")


def run_python(args):
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=300)


@pytest.mark.parametrize("script, args, expected", [
    ("flagship_pipeline.py", [], ["series certified to ", "(5, -6, 5)"]),
    ("poisson_convergence.py", ["--levels", "2"],
     ["level 2: error valuation 2"]),
], ids=["flagship_pipeline", "poisson_convergence"])
def test_script_runs(script, args, expected):
    out = run_python([os.path.join(SCRIPTS, script)] + args)
    assert out.returncode == 0, out.stderr
    for text in expected:
        assert text in out.stdout


def test_poisson_script_rejects_unsupported_field():
    # (60, 13): narrow class number 4, which the series does not support
    out = run_python([os.path.join(SCRIPTS, "poisson_convergence.py"),
                      "--disc", "60", "--p", "13", "--levels", "1"])
    assert out.returncode == 2
    assert out.stderr == "error: only narrow class number 1 or 2 supported\n"


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_poisson_script_refuses_levels_below_one(levels):
    out = run_python([os.path.join(SCRIPTS, "poisson_convergence.py"),
                      "--levels", levels])
    assert out.returncode == 2
    assert out.stderr == (f"error: --levels {levels} gives no level; it "
                          "must be at least 1\n")
    assert out.stdout == ""


def test_flagship_script_refuses_budget_before_the_series():
    out = run_python([os.path.join(SCRIPTS, "flagship_pipeline.py"),
                      "--prec", "6"])
    assert out.returncode == 2
    assert out.stderr == ("error: --prec 6 leaves a recognition budget of "
                          "0; it must be at least 1\n")
    assert "series computed" not in out.stdout


@pytest.mark.parametrize("args, message", [
    (["--nmax", "1"], "not enough known coefficients to overdetermine"),
], ids=["nmax1"])
def test_flagship_script_refuses_a_series_too_short_to_fit(args, message):
    out = run_python([os.path.join(SCRIPTS, "flagship_pipeline.py")] + args)
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"
    assert "series computed" not in out.stdout


def test_readme_quick_start():
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    out = run_python(["-c", block])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(5, -6, 5)"
