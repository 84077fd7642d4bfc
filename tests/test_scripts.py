"""The experiment scripts, run as a user runs them, with default arguments,
and a slice of the parent-vs-change sweep."""

import hashlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from smpg.serialize import load_game

from .conftest import checkout_env

REPO = Path(__file__).resolve().parents[1]


def run_script(name):
    return subprocess.run([sys.executable, str(REPO / "scripts" / name)],
                          capture_output=True, text=True, env=checkout_env())


@pytest.mark.parametrize("workload", ["reduction-n3", "si-n40", "eval-n40"])
def test_traced_benchmark_ops_pass_the_output_gate(workload):
    """The benchmark's traced run wraps library functions by name and reads
    their arguments and results (bench/tracing.py): the chain's dense
    matrix and solve_columns' rows of Fractions, and on eval-n40 the CLI
    path through cli.main, serialize.load_game and game.build_game.  A
    library change that breaks that contract makes the traced ops fail,
    and the run says so."""
    proc = subprocess.run([sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload,
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_paired_ab_runs_one_tree_against_itself():
    """The paired timing script imports the same src tree under both
    package names, runs two reduction-n3 ops on each side and checks them,
    then reports the collections that started inside each side's timed
    ops, each side's op time at the benchmark's tail rank (with two ops,
    the slower) and its ops with a full collection, each side's retained
    and held memory per held input and each tree's code lines, which
    scripts/loc.py totals alike.  An input holds at least what its op
    retains: the held pass also counts the input itself."""
    src = str(REPO / "src")
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "paired_ab.py"),
                           "--parent", src, "--change", src, "--workload", "reduction-n3",
                           "--ops", "2"], capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    parent, change, ratio, collections, tail, retained, held, size = proc.stdout.splitlines()
    assert parent.startswith("parent: median op ") and parent.endswith("(2 ops, reduction-n3, seed 0)")
    assert change.startswith("change: median op ")
    assert ratio.startswith("change/parent per-op ratio: median ")
    assert re.fullmatch(r"collections in timed ops: parent \d+ gen-0 \d+ gen-2, "
                        r"change \d+ gen-0 \d+ gen-2", collections)
    tail_ms = re.fullmatch(r"tail op \(10 ops beyond, bench/run\.py's rank\): parent (\d+\.\d{3}) ms, "
                           r"change (\d+\.\d{3}) ms; ops with a gen-2 collection: "
                           r"parent ([0-2]), change ([0-2])", tail)
    assert tail_ms
    assert float(parent.split()[3]) <= float(tail_ms[1])  # the slower of two ops
    match = re.fullmatch(r"retained per input: parent (\d+\.\d) KB, change (\d+\.\d) KB "
                         r"\(16 inputs held, tracemalloc\)", retained)
    assert match and abs(float(match[1]) - float(match[2])) <= 1  # one tree on both sides
    held_kb = re.fullmatch(r"held per input: parent (\d+\.\d) KB, change (\d+\.\d) KB "
                           r"\(16 inputs held, tracemalloc\)", held)
    assert held_kb and abs(float(held_kb[1]) - float(held_kb[2])) <= 1
    assert all(float(held_kb[i]) > float(match[i]) for i in (1, 2))
    total = run_script("loc.py").stdout.splitlines()[-1].removeprefix("total ")
    assert size == f"code lines: parent {total}, change {total} (+0, scripts/loc.py)"


def test_paired_ab_names_the_first_op_whose_bytes_differ(tmp_path):
    """A copied tree whose reports carry one more key passes every output
    check, but its canonical bytes differ from the parent's on the first
    op, and the script exits 1 naming that op."""
    changed = tmp_path / "src"
    shutil.copytree(REPO / "src" / "smpg", changed / "smpg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    serialize = changed / "smpg" / "serialize.py"
    text = serialize.read_text()
    key = '        "pairs_checked": report.pairs_checked,\n'
    assert text.count(key) == 1
    serialize.write_text(text.replace(key, key + '        "extra": 1,\n'))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "paired_ab.py"),
                           "--parent", str(REPO / "src"), "--change", str(changed),
                           "--workload", "reduction-n3", "--ops", "2"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 1
    assert proc.stderr == "paired_ab: op 0: the canonical output bytes differ\n"
    assert proc.stdout == ""


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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOC_SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    text = """a string
that is code"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 1
'''


def test_loc_counts_code_lines_only():
    """Blank, comment and docstring lines are not code; every line of a
    string that is not a docstring, and of a bracketed expression, is."""
    assert load_script("loc").code_lines(LOC_SAMPLE) == 8


def test_loc_prints_each_module_and_the_total():
    proc = run_script("loc.py")
    assert proc.returncode == 0, proc.stderr
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    package = REPO / "src" / "smpg"
    assert [name for name, _ in modules] == sorted(p.name for p in package.glob("*.py"))
    assert total == ["total", str(sum(int(count) for _, count in modules))]


def test_sweep_on_g2_matches_the_golden_bytes(tmp_path):
    """The parent-vs-change sweep, on g2 only: every run exits 0 but the
    recoveries and the oracle call from perturbed values, which exit 1, and
    its records at beta 1/3 carry the pinned verify and pipeline bytes."""
    sweep = load_script("sweep")
    codes = sweep.sweep_game("g2", load_game(REPO / "games" / "g2.json"), tmp_path)
    assert len(codes) == 2 + 3 + 4 * (6 + 2 * 4)
    perturbed = {run for run in codes if run.startswith(("recover-perturbed-", "oracle-perturbed"))}
    assert len(perturbed) == 5
    assert {codes[run] for run in perturbed} == {1}
    assert {code for run, code in codes.items() if run not in perturbed} == {0}

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


def test_sweep_records_every_malformed_case(tmp_path):
    """The sweep's malformed-input runs: one record per MALFORMED case of
    tests/test_cli.py, each ending in a report (exit 1) or a usage message
    (exit 2), with no input path left in the record."""
    sweep = load_script("sweep")
    codes = sweep.sweep_malformed(tmp_path)
    assert list(codes) == list(sweep.MALFORMED)
    assert set(codes.values()) <= {1, 2}
    for case in codes:
        assert str(tmp_path) not in (tmp_path / "malformed" / f"{case}.txt").read_text()


def directory_digest(root: Path) -> str:
    """sha256 over every file under root: its relative path and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_sweep_slice_matches_the_committed_digests(tmp_path):
    """Six games of the sweep, every run on each (brute force, strategy
    iteration, recovery, both checks, the pipeline, the recovery oracle),
    hashed per game and compared with digests recorded while the oracle
    still evaluated every strategy pair.  A mismatch means some CLI or
    oracle byte changed: rerun scripts/sweep.py in both checkouts and
    diff -r the outputs."""
    sweep = load_script("sweep")
    pinned = json.loads((REPO / "tests" / "golden" / "sweep_slice.json").read_text())
    games = sweep.sweep_games()
    digests = {}
    for name in pinned:
        sweep.sweep_game(name, games[name], tmp_path)
        digests[name] = directory_digest(tmp_path / name)
    assert digests == pinned
