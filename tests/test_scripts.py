"""The experiment scripts, run as a user runs them, with default arguments,
and one game of the parent-vs-change sweep."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from smpg.serialize import load_game

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


def test_sweep_on_g2_matches_the_golden_bytes(tmp_path):
    """The parent-vs-change sweep, on g2 only: every run exits 0, and its
    records at beta 1/3 carry the pinned verify and pipeline bytes."""
    spec = importlib.util.spec_from_file_location("sweep", REPO / "scripts" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    codes = sweep.sweep_game("g2", load_game(REPO / "games" / "g2.json"), tmp_path)
    assert len(codes) == 2 + 4 * (4 + 2 * 2)
    assert set(codes.values()) == {0}

    golden = REPO / "tests" / "golden" / "g2_beta_1_3"
    out = tmp_path / "g2"
    for run, pinned in (("verify-star-b1_3-from-a", "verify_star_a.out"),
                        ("verify-star-b1_3-from-b", "verify_star_b.out"),
                        ("verify-star2-b1_3-from-a", "verify_star2.out"),
                        ("pipeline-b1_3", "pipeline.out")):
        record = (out / f"{run}.txt").read_text()
        assert record == f"exit 0\n--- stdout\n{(golden / pinned).read_text()}--- stderr\n", run
    assert ((out / "pipeline-b1_3" / "discounted_values.json").read_bytes()
            == (golden / "pipeline_discounted_values.json").read_bytes())
