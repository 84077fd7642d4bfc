"""The experiment scripts, run as a user runs them, with default arguments."""

import subprocess
import sys
from pathlib import Path

from .conftest import checkout_env

REPO = Path(__file__).resolve().parents[1]


def run_script(name):
    return subprocess.run([sys.executable, str(REPO / "scripts" / name)],
                          capture_output=True, text=True, env=checkout_env())


def test_verify_reduction_finds_no_violation():
    proc = run_script("verify_reduction.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    per_game = [line for line in lines if line.startswith("seed ")]
    assert len(per_game) == 30 and all(": ok (" in line for line in per_game)
    assert lines[-1].startswith("checked 2550 strategy pairs in ")
    assert lines[-1].endswith("; violations: 0")


def test_blackwell_sweep_golden_stdout():
    proc = run_script("blackwell_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (REPO / "tests" / "golden" / "blackwell_sweep.out").read_text()
