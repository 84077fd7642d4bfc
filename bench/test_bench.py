"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

# small enough that each traced run does one to ten ops
TRACE_SECONDS = {"si-n40": 1.0, "eval-n40": 0.5, "reduction-n3": 1.1}
WORK_COUNTS = ("linalg.rows", "linalg.max_bits", "solvers.si.rounds",
               "solvers.pairs_checked", "evaluate.mean_values.distinct_ratio")


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_their_work_counts(name):
    first, second = (_values(run.run(WORKLOADS[name], 7, TRACE_SECONDS[name], trace=True))
                     for _ in range(2))
    for counted in WORK_COUNTS + tuple(n for n in first if n.endswith(".calls")):
        assert first[counted] == second[counted], counted
    assert first["trace.op_s_total"] > 0


def _first_op(name, seed=7):
    wl = WORKLOADS[name]
    lib = run.import_smpg()
    run.WORK.mkdir(exist_ok=True)
    inp = wl.make_input(lib, seed, 0, run.WORK)
    output = wl.op(lib, inp)
    assert wl.check(lib, inp, output) == []
    return wl, lib, inp, output


def _corrupt_si(lib, solution):
    values = solution.values.values
    bumped = lib.evaluate.ValueVector(solution.values.state_order,
                                      (values[0] + Fraction(1, 1000),) + values[1:])
    return dataclasses.replace(solution, values=bumped, certificate=None)


def _corrupt_eval(_lib, output):
    code, text = output
    values = json.loads(text)
    first = next(iter(values))
    values[first] = str(Fraction(values[first]) + Fraction(1, 1000))
    return code, json.dumps(values)


def _corrupt_reduction(_lib, output):
    star, star2, solution = output
    state = next(iter(star))
    star = dict(star, **{state: dataclasses.replace(star[state], value=star[state].value + 1)})
    return star, star2, solution


CORRUPT = {"si-n40": _corrupt_si, "eval-n40": _corrupt_eval, "reduction-n3": _corrupt_reduction}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_corrupted_output_fails_its_check(name):
    wl, lib, inp, output = _first_op(name)
    gate = run.Gate(wl, seed=7)
    gate.judge(lib, inp, CORRUPT[name](lib, output), None)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_a_digest_mismatch_fails_at_the_default_seed():
    wl, lib, inp, output = _first_op("eval-n40", seed=run.DEFAULT_SEED)
    gate = run.Gate(dataclasses.replace(wl, canonical=lambda lib, out: out[1] + " "),
                    run.DEFAULT_SEED)
    gate.judge(lib, inp, output, None)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_corrupted_ops_are_counted_not_dropped():
    wl = WORKLOADS["eval-n40"]
    corrupting = dataclasses.replace(
        wl, op=lambda lib, inp: _corrupt_eval(lib, wl.op(lib, inp)))
    result = run.run(corrupting, 7, 0.3, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_refuses_to_run_under_optimize():
    script = Path(run.__file__)
    done = subprocess.run(
        [sys.executable, "-O", str(script), "--workload", "eval-n40", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
