"""Help and usage bytes of the command line, pinned against goldens.

Each case runs ``main`` on one argv and compares the exit code, stdout and
stderr with ``tests/golden/cli_usage/<case>.txt`` byte for byte.  argparse
wraps help to the terminal width, so every case runs at ``COLUMNS=80``.
The files hold no paths: the upper-case placeholders below stand for input
files, and none of these messages names one.
"""

import json
from pathlib import Path

import pytest

from smpg.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "cli_usage"

CASES = {
    # the top level
    "help": ["-h"],
    "empty": [],
    "unknown-command": ["frobnicate"],
    # -h for every command and subcommand
    "validate-help": ["validate", "-h"],
    "eval-help": ["eval", "-h"],
    "transform-help": ["transform", "-h"],
    "transform-beta-recurrent-help": ["transform", "beta-recurrent", "-h"],
    "transform-mirror-help": ["transform", "mirror", "-h"],
    "solve-help": ["solve", "-h"],
    "recover-help": ["recover", "-h"],
    "verify-help": ["verify", "-h"],
    "verify-star-help": ["verify", "star", "-h"],
    "verify-star2-help": ["verify", "star2", "-h"],
    "pipeline-help": ["pipeline", "-h"],
    "generate-help": ["generate", "-h"],
    "simulate-help": ["simulate", "-h"],
    # a missing argument
    "validate-missing": ["validate"],
    "eval-missing": ["eval", "GAME"],
    "transform-missing": ["transform"],
    "transform-beta-recurrent-missing": ["transform", "beta-recurrent", "GAME"],
    "transform-mirror-missing": ["transform", "mirror", "GAME"],
    "solve-missing": ["solve"],
    "recover-missing": ["recover", "GAME"],
    "verify-missing": ["verify"],
    "verify-star-missing": ["verify", "star", "GAME", "--beta", "1/2"],
    "verify-star2-missing": ["verify", "star2"],
    "pipeline-missing": ["pipeline", "GAME"],
    "generate-missing": ["generate"],
    "simulate-missing": ["simulate", "GAME", "--strategy", "PAIR"],
    # an unknown flag
    "validate-unknown-flag": ["validate", "GAME", "--bogus"],
    "eval-unknown-flag": ["eval", "GAME", "--strategy", "PAIR", "--criterion", "mean", "--bogus"],
    "transform-unknown-flag": ["transform", "--bogus"],
    "transform-beta-recurrent-unknown-flag": [
        "transform", "beta-recurrent", "GAME", "--beta", "1/2", "--start", "a",
        "--out", "OUT", "--bogus"],
    "transform-mirror-unknown-flag": [
        "transform", "mirror", "GAME", "--map", "MAP", "--out", "OUT", "--bogus"],
    "solve-unknown-flag": ["solve", "GAME", "--criterion", "mean", "--bogus"],
    "recover-unknown-flag": ["recover", "GAME", "--values", "VALUES", "--beta", "1/2", "--bogus"],
    "verify-unknown-flag": ["verify", "--bogus"],
    "verify-star-unknown-flag": [
        "verify", "star", "GAME", "--beta", "1/2", "--start", "a", "--bogus"],
    "verify-star2-unknown-flag": ["verify", "star2", "GAME", "--bogus"],
    "pipeline-unknown-flag": ["pipeline", "GAME", "--beta", "1/2", "--out-dir", "OUT", "--bogus"],
    "generate-unknown-flag": ["generate", "--config", "CONFIG", "--out", "OUT", "--bogus"],
    "simulate-unknown-flag": [
        "simulate", "GAME", "--strategy", "PAIR", "--start", "a", "--horizon", "1",
        "--plays", "1", "--seed", "0", "--bogus"],
    # an unknown subcommand
    "transform-bogus": ["transform", "bogus"],
    "verify-bogus": ["verify", "bogus"],
    # bad values
    "eval-bad-criterion": ["eval", "GAME", "--strategy", "PAIR", "--criterion", "median"],
    "solve-bad-criterion": ["solve", "GAME", "--criterion", "median"],
    "recover-bad-criterion": [
        "recover", "GAME", "--values", "VALUES", "--criterion", "median", "--beta", "1/2"],
    "solve-bad-method": ["solve", "GAME", "--method", "lp", "--criterion", "mean"],
    "solve-bad-cap": ["solve", "GAME", "--criterion", "mean", "--cap", "1.5"],
    "verify-star-bad-cap": [
        "verify", "star", "GAME", "--beta", "1/2", "--start", "a", "--cap", "many"],
    "verify-star2-bad-cap": ["verify", "star2", "GAME", "--cap", "1e3"],
    "pipeline-bad-cap": ["pipeline", "GAME", "--beta", "1/2", "--out-dir", "OUT", "--cap", "x"],
    "simulate-bad-horizon": [
        "simulate", "GAME", "--strategy", "PAIR", "--start", "a", "--horizon", "ten",
        "--plays", "1", "--seed", "0"],
    "eval-bad-beta": [
        "eval", "GAME", "--strategy", "PAIR", "--criterion", "discounted", "--beta", "half"],
    "transform-beta-recurrent-bad-beta": [
        "transform", "beta-recurrent", "GAME", "--beta", "1/0", "--start", "a", "--out", "OUT"],
    "solve-bad-beta": ["solve", "GAME", "--criterion", "discounted", "--beta", "0.5"],
    "recover-bad-beta": ["recover", "GAME", "--values", "VALUES", "--beta", "1//2"],
    "verify-star-bad-beta": ["verify", "star", "GAME", "--beta", "", "--start", "a"],
    "verify-star2-bad-beta": ["verify", "star2", "GAME", "--beta", "b", "--start", "a"],
    "pipeline-bad-beta": ["pipeline", "GAME", "--beta", "1/-2", "--out-dir", "OUT"],
    # usage errors that the handlers raise
    "eval-discounted-without-beta": [
        "eval", "GAME", "--strategy", "PAIR", "--criterion", "discounted"],
    "solve-discounted-without-beta": ["solve", "GAME", "--criterion", "discounted"],
    "solve-si-mean": ["solve", "GAME", "--method", "si", "--criterion", "mean"],
    "recover-mean": [
        "recover", "GAME", "--values", "VALUES", "--criterion", "mean", "--beta", "1/2"],
    "verify-star2-map-and-beta": ["verify", "star2", "GAME", "--map", "MAP", "--beta", "1/2"],
    "verify-star2-neither": ["verify", "star2", "GAME", "--beta", "1/2"],
    "verify-star2-mirror-map": ["verify", "star2", "GAME", "--map", "MIRROR_MAP"],
}


def input_files(directory: Path) -> dict:
    """Real files for the placeholders that a handler reads."""
    pair = directory / "pair.json"
    pair.write_text(json.dumps({"max": {"a": "X"}, "min": {"b": "Y"}}))
    values = directory / "values.json"
    values.write_text(json.dumps({"a": "0", "b": "0"}))
    return {
        "GAME": str(REPO / "games" / "g2.json"),
        "PAIR": str(pair),
        "VALUES": str(values),
        "MIRROR_MAP": str(REPO / "tests" / "golden" / "g2_beta_1_3" / "mirror.map.json"),
    }


def record(code: int, out: str, err: str) -> str:
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("case", CASES)
def test_usage_bytes_match_the_golden(case, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    files = input_files(tmp_path)
    code = main([files.get(arg, arg) for arg in CASES[case]])
    captured = capsys.readouterr()
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert record(code, captured.out, captured.err) == expected
