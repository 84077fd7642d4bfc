"""Command line surface: exit codes, canonical output, artifact files."""

import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from smpg.cli import main
from smpg.serialize import canonical_dumps

from .conftest import checkout_env, raw_g1, raw_g2

REPO = Path(__file__).resolve().parents[1]


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def g2_file(tmp_path):
    return write(tmp_path / "g2.json", raw_g2())


@pytest.fixture
def g2_pair_file(tmp_path):
    return write(tmp_path / "pair.json", {"max": {"a": "X"}, "min": {"b": "Y"}})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_sizes(capsys, g2_file):
    code, out, err = run(capsys, "validate", g2_file)
    assert code == 0 and err == ""
    assert json.loads(out) == {"valid": True, "states": 2, "actions": 2,
                               "transitions": 2}


def test_validate_rejects_sink_with_json_error(capsys, tmp_path):
    raw = raw_g2()
    del raw["transitions"][1]
    path = write(tmp_path / "bad.json", raw)
    code, out, err = run(capsys, "validate", path)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "SinkState"
    assert payload["state"] == "b"


def test_validate_rejects_boolean_rationals(capsys, tmp_path):
    raw = raw_g2()
    raw["actions"][0]["reward"] = True
    raw["transitions"][0]["prob"] = True
    code, out, err = run(capsys, "validate", write(tmp_path / "bool.json", raw))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["value"] == "True"


def test_unreadable_input_ends_in_json_error(capsys, tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"states": "\xe9"}')
    for path in (tmp_path / "missing.json", tmp_path, undecodable):
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["path"] == str(path)


@pytest.mark.parametrize("literal", ['"' + "7" * 5000 + '"', "7" * 5000],
                         ids=["string", "integer"])
def test_overlong_rational_ends_in_json_error(tmp_path, literal):
    """A reward past the interpreter's 4,300-digit int-string limit, written
    as a string or as a JSON integer, ends in a ParseError report."""
    raw = raw_g2()
    raw["actions"][0]["reward"] = "REWARD"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw).replace('"REWARD"', literal))
    proc = run_module("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "ParseError"


def test_deeply_nested_json_ends_in_json_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_module("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "ParseError"
    assert payload["path"] == str(path)


def test_value_past_digit_limit_ends_in_json_error(tmp_path, g2_pair_file):
    """Rewards of 3,000 digits are read, but the mean value of the two-cycle
    has about 6,000 and cannot be written out: a report, not a traceback."""
    raw = raw_g2()
    raw["actions"][0]["reward"] = "1" + "3" * 2999 + "/7"
    raw["actions"][1]["reward"] = "1/2" + "9" * 2999
    proc = run_module("eval", write(tmp_path / "long.json", raw),
                      "--strategy", g2_pair_file, "--criterion", "mean")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "RationalTooLong"
    assert payload["digits"] > payload["limit"]
    assert "3333" not in proc.stderr


def test_error_message_past_digit_limit_ends_in_json_error(tmp_path):
    """Two self-loops of probability 1/(10^3000 + 1) and 1/(10^3000 + 3) are
    read, but their sum has about 6,000 digits: the ProbabilitySumMismatch
    report gives its digit count in the message and the payload."""
    raw = raw_g1()
    raw["transitions"] = [
        {"from": "s0", "action": "A", "to": "s0", "prob": f"1/{10**3000 + k}"} for k in (1, 3)]
    proc = run_module("validate", write(tmp_path / "long.json", raw))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "ProbabilitySumMismatch"
    assert payload["total"] == "<a rational with 6001 digits>"
    assert payload["message"].endswith("sum to <a rational with 6001 digits>")


def test_eval_discounted_golden_bytes(capsys, g2_file, g2_pair_file):
    code, out, _ = run(capsys, "eval", g2_file, "--strategy", g2_pair_file,
                       "--criterion", "discounted", "--beta", "1/2")
    assert code == 0
    assert out == '{\n  "a": "1/3",\n  "b": "-1/3"\n}\n'


def test_eval_mean_on_two_cycle(capsys, g2_file, g2_pair_file):
    code, out, _ = run(capsys, "eval", g2_file, "--strategy", g2_pair_file,
                       "--criterion", "mean")
    assert code == 0
    assert json.loads(out) == {"a": "0", "b": "0"}


def test_eval_discounted_without_beta_is_usage_error(capsys, g2_file,
                                                     g2_pair_file):
    code, out, err = run(capsys, "eval", g2_file, "--strategy", g2_pair_file,
                         "--criterion", "discounted")
    assert code == 2 and out == ""
    assert "--beta" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_transform_eval_mean_reproduces_discounted_value(capsys, tmp_path,
                                                         g2_file,
                                                         g2_pair_file):
    out_game = str(tmp_path / "reset.json")
    code, out, _ = run(capsys, "transform", "beta-recurrent", g2_file,
                       "--beta", "1/2", "--start", "a", "--out", out_game)
    assert code == 0
    written = json.loads(out)["written"]
    assert written == {"game": out_game, "map": str(tmp_path / "reset.map.json")}

    code, out, _ = run(capsys, "eval", out_game, "--strategy", g2_pair_file,
                       "--criterion", "mean")
    assert code == 0
    assert json.loads(out) == {"a": "1/3", "b": "1/3"}


def test_verify_star_golden_bytes_and_repeatability(capsys, g2_file):
    code, first, _ = run(capsys, "verify", "star", g2_file,
                         "--beta", "1/2", "--start", "a")
    assert code == 0
    assert first == ('{\n'
                     '  "pairs_checked": 1,\n'
                     '  "value": "1/3",\n'
                     '  "violations": []\n'
                     '}\n')
    code, second, _ = run(capsys, "verify", "star", g2_file,
                          "--beta", "1/2", "--start", "a")
    assert code == 0 and second == first


def test_verify_star2_routes_agree(capsys, tmp_path, g2_file):
    out_game = str(tmp_path / "reset.json")
    map_file = str(tmp_path / "reset.map.json")
    run(capsys, "transform", "beta-recurrent", g2_file, "--beta", "1/2",
        "--start", "a", "--out", out_game)

    code, direct, _ = run(capsys, "verify", "star2", g2_file,
                          "--beta", "1/2", "--start", "a")
    assert code == 0
    code, mapped, _ = run(capsys, "verify", "star2", out_game,
                          "--map", map_file)
    assert code == 0
    assert direct == mapped
    report = json.loads(direct)
    assert report["violations"] == [] and report["value"] == "0"


def test_verify_star2_rejects_mixed_inputs(capsys, tmp_path, g2_file):
    map_file = str(tmp_path / "reset.map.json")
    out_game = str(tmp_path / "reset.json")
    run(capsys, "transform", "beta-recurrent", g2_file, "--beta", "1/2",
        "--start", "a", "--out", out_game)
    code, _, err = run(capsys, "verify", "star2", out_game,
                       "--map", map_file, "--beta", "1/2")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "verify", "star2", g2_file, "--beta", "1/2")
    assert code == 2


def test_mirror_solve_is_zero_everywhere(capsys, tmp_path, g2_file):
    reset = str(tmp_path / "reset.json")
    doubled = str(tmp_path / "doubled.json")
    run(capsys, "transform", "beta-recurrent", g2_file, "--beta", "1/2",
        "--start", "a", "--out", reset)
    code, _, _ = run(capsys, "transform", "mirror", reset,
                     "--map", str(tmp_path / "reset.map.json"),
                     "--out", doubled)
    assert code == 0

    code, out, _ = run(capsys, "solve", doubled, "--criterion", "mean")
    assert code == 0
    solution = json.loads(out)
    assert solution["criterion"] == "mean"
    assert solution["values"] == {"a1": "0", "b1": "0", "a2": "0", "b2": "0"}
    assert solution["certificate"]["lower"] == solution["certificate"]["upper"]
    assert solution["strategy"] == {
        "max": {"a1": "X", "b2": "Y'"},
        "min": {"b1": "Y", "a2": "X'"},
    }


def test_solve_si_matches_oracle_method(capsys, g2_file):
    code, oracle_out, _ = run(capsys, "solve", g2_file,
                              "--criterion", "discounted", "--beta", "1/2")
    assert code == 0
    code, si_out, _ = run(capsys, "solve", g2_file, "--method", "si",
                          "--criterion", "discounted", "--beta", "1/2")
    assert code == 0
    assert json.loads(oracle_out)["values"] == json.loads(si_out)["values"]
    assert json.loads(si_out)["values"] == {"a": "1/3", "b": "-1/3"}


def test_solve_si_rejects_mean_criterion(capsys, g2_file):
    code, _, err = run(capsys, "solve", g2_file, "--method", "si",
                       "--criterion", "mean")
    assert code == 2 and "si" in err


def test_pipeline_writes_consistent_artifacts(capsys, tmp_path, g2_file):
    art = tmp_path / "chain"
    code, out, _ = run(capsys, "pipeline", g2_file, "--beta", "7/8",
                       "--out-dir", str(art))
    assert code == 0
    solution = json.loads(out)
    assert solution["values"] == {"a": "0", "b": "0"}

    for state in ("a", "b"):
        for stem in (f"reset_{state}", f"mirror_{state}"):
            assert (art / f"{stem}.json").exists()
            assert (art / f"{stem}.map.json").exists()
            code, _, _ = run(capsys, "validate", str(art / f"{stem}.json"))
            assert code == 0
        witness = json.loads((art / f"witness_{state}.json").read_text())
        assert set(witness) == {"max", "min"}

    values = json.loads((art / "discounted_values.json").read_text())
    assert values == {"a": "1/15", "b": "-1/15"}
    stored = json.loads((art / "solution.json").read_text())
    assert stored == solution

    # the recorded discounted values drive recovery on the source game
    code, out, _ = run(capsys, "recover", g2_file,
                       "--values", str(art / "discounted_values.json"),
                       "--beta", "7/8")
    assert code == 0
    assert json.loads(out) == {"max": {"a": "X"}, "min": {"b": "Y"}}


def test_recover_rejects_mean_criterion(capsys, g2_file, tmp_path):
    values = write(tmp_path / "v.json", {"a": "0", "b": "0"})
    code, _, err = run(capsys, "recover", g2_file, "--values", values,
                       "--criterion", "mean", "--beta", "1/2")
    assert code == 2


def test_generate_is_deterministic_on_disk(capsys, tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "states": 3,
        "actions_per_state": [1, 2],
        "transitions_per_action": [1, 3],
        "reward_bound": 4,
        "denominator_bound": 4,
        "max_states_fraction": "1/2",
        "seed": 7,
    })
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    code, out, _ = run(capsys, "generate", "--config", cfg,
                       "--out", str(first))
    assert code == 0 and json.loads(out)["states"] == 3
    run(capsys, "generate", "--config", cfg, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    code, _, _ = run(capsys, "validate", str(first))
    assert code == 0


def test_saved_games_are_canonical_fixpoints(capsys, tmp_path, g2_file):
    reset = tmp_path / "reset.json"
    run(capsys, "transform", "beta-recurrent", g2_file, "--beta", "1/2",
        "--start", "a", "--out", str(reset))
    body = reset.read_text()
    assert body == canonical_dumps(json.loads(body))


def test_simulate_golden_bytes(capsys, tmp_path):
    g1 = write(tmp_path / "g1.json", raw_g1())
    pair = write(tmp_path / "pair.json", {"max": {"s0": "A"}, "min": {}})
    code, out, _ = run(capsys, "simulate", g1, "--strategy", pair,
                       "--start", "s0", "--horizon", "100", "--plays", "5",
                       "--seed", "0")
    assert code == 0
    assert out == '{\n  "estimate": 4.0,\n  "stderr": 0.0\n}\n'


@pytest.mark.parametrize("horizon, plays", [("0", "5"), ("100", "0")])
def test_simulate_rejects_nonpositive_counts_with_json_error(capsys, tmp_path, horizon, plays):
    g1 = write(tmp_path / "g1.json", raw_g1())
    pair = write(tmp_path / "pair.json", {"max": {"s0": "A"}, "min": {}})
    code, out, err = run(capsys, "simulate", g1, "--strategy", pair, "--start", "s0",
                         "--horizon", horizon, "--plays", plays, "--seed", "0")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert (payload["horizon"], payload["plays"]) == (int(horizon), int(plays))


def test_generate_small_config_golden_bytes(capsys, tmp_path):
    out = tmp_path / "game.json"
    code, _, _ = run(capsys, "generate", "--config",
                     str(REPO / "games" / "generator_small.json"), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" / "generator_small_game.json").read_bytes()


@pytest.mark.parametrize("field, value", [
    ("states", 2.9),
    ("actions_per_state", [True, 2]),
    ("states", "1"),
    ("seed", 1.5),
    ("actions_per_state", [1, 2, 99]),
    ("transitions_per_action", [1]),
    ("extra", 1),
])
def test_generate_rejects_non_integer_config_fields(capsys, tmp_path, field, value):
    raw = json.loads((REPO / "games" / "generator_small.json").read_text())
    raw[field] = value
    cfg = write(tmp_path / "cfg.json", raw)
    code, out, err = run(capsys, "generate", "--config", cfg,
                         "--out", str(tmp_path / "game.json"))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["field"] == field
    assert not (tmp_path / "game.json").exists()



def malformed_inputs(tmp_path) -> dict:
    """Paths for the placeholders in UNWRITABLE and MALFORMED."""
    golden = REPO / "tests" / "golden" / "g2_beta_1_3"
    reset_map = json.loads((golden / "reset.map.json").read_text())
    return {
        "G2": str(REPO / "games" / "g2.json"),
        "CONFIG": str(REPO / "games" / "generator_small.json"),
        "RESET": str(golden / "reset.json"),
        "RESET_MAP": str(golden / "reset.map.json"),
        "MIRROR_MAP": str(golden / "mirror.map.json"),
        "BOGUS_MAP": write(tmp_path / "bogus.map.json", {**reset_map, "kind": "bogus"}),
        "A_DIR": str(tmp_path),
        "A_FILE": write(tmp_path / "file.json", {}),
        "LIST": write(tmp_path / "list.json", []),
        "EXTRA_VALUES": write(tmp_path / "extra.json", {"a": "0", "b": "0", "c": "0"}),
        "OUT": str(tmp_path / "out.json"),
        "NO_DIR/game.json": str(tmp_path / "missing" / "game.json"),
        "NO_DIR/map.json": str(tmp_path / "missing" / "map.json"),
    }


# argv with placeholders, and the placeholder of the path that cannot be written
UNWRITABLE = {
    "pipeline-out-dir-is-a-file": (
        ["pipeline", "G2", "--beta", "1/2", "--out-dir", "A_FILE"], "A_FILE"),
    "transform-beta-recurrent-out": (
        ["transform", "beta-recurrent", "G2", "--beta", "1/2", "--start", "a",
         "--out", "NO_DIR/game.json"], "NO_DIR/game.json"),
    "generate-out": (["generate", "--config", "CONFIG", "--out", "NO_DIR/game.json"],
                     "NO_DIR/game.json"),
    "transform-mirror-map-out": (
        ["transform", "mirror", "RESET", "--map", "RESET_MAP", "--out", "OUT",
         "--map-out", "NO_DIR/map.json"], "NO_DIR/map.json"),
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_unwritable_output_ends_in_json_error(capsys, tmp_path, case):
    argv, target = UNWRITABLE[case]
    files = malformed_inputs(tmp_path)
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["path"] == files[target]
    assert payload["message"].startswith(f"cannot write {files[target]}: ")


MALFORMED = {
    "game-path-is-a-directory": ["validate", "A_DIR"],
    "game-file-is-a-list": ["validate", "LIST"],
    "strategy-file-is-a-list": ["eval", "G2", "--strategy", "LIST", "--criterion", "mean"],
    "value-file-is-a-list": ["recover", "G2", "--values", "LIST", "--beta", "1/2"],
    "value-file-has-an-extra-state": ["recover", "G2", "--values", "EXTRA_VALUES", "--beta", "1/2"],
    "config-is-a-list": ["generate", "--config", "LIST", "--out", "OUT"],
    "map-is-a-list": ["transform", "mirror", "RESET", "--map", "LIST", "--out", "OUT"],
    "mirror-map-to-mirror": ["transform", "mirror", "RESET", "--map", "MIRROR_MAP", "--out", "OUT"],
    "mirror-map-to-star2": ["verify", "star2", "RESET", "--map", "MIRROR_MAP"],
    "unknown-map-kind-to-mirror": ["transform", "mirror", "RESET", "--map", "BOGUS_MAP", "--out", "OUT"],
    "unknown-map-kind-to-star2": ["verify", "star2", "RESET", "--map", "BOGUS_MAP"],
    **{f"unwritable-{case}": argv for case, (argv, _) in UNWRITABLE.items()},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_never_raises(capsys, tmp_path, case):
    """Malformed input ends in a JSON report and exit 1, or in a usage
    message and exit 2, never in an exception: a seed list for a fuzzer."""
    files = malformed_inputs(tmp_path)
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in MALFORMED[case]))
    assert out == ""
    if code == 1:
        payload = json.loads(err)
        assert isinstance(payload["error"], str) and isinstance(payload["message"], str)
    else:
        assert code == 2 and err.startswith("usage")

# What the wrapper that installers generate for a console script does:
# import the declared object, name the program, exit with its return value.
# The entry-point value is the first argument; the CLI arguments follow it.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv.pop(1)
main = EntryPoint(name="smpg", value=value, group="console_scripts").load()
sys.argv[0] = "smpg"
sys.exit(main())
"""


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "smpg.cli", *argv],
                          capture_output=True, text=True, env=checkout_env())


def test_console_script_is_installed(tmp_path):
    """The `smpg` script declared in pyproject.toml runs the CLI."""
    g2 = str(REPO / "games" / "g2.json")
    proc = run_module("validate", g2)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True

    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "smpg" in scripts
    value = scripts["smpg"]
    entry = EntryPoint(name="smpg", value=value, group="console_scripts")
    assert callable(entry.load())

    # a valid game exits 0, a missing file exits 1: main's return value
    # must become the exit code, with the same bytes as the module run
    # (whose g2 output was checked above to say "valid": true)
    for argv, code in ((["validate", g2], 0),
                       (["validate", str(tmp_path / "missing.json")], 1)):
        script = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER, value, *argv],
            capture_output=True, text=True, env=checkout_env())
        module = run_module(*argv)
        assert script.returncode == module.returncode == code
        assert script.stdout == module.stdout
        assert script.stderr == module.stderr


@pytest.mark.skipif(shutil.which("smpg") is None,
                    reason="smpg console script not installed on PATH")
def test_installed_smpg_script_matches_module():
    g2 = str(REPO / "games" / "g2.json")
    script = subprocess.run(["smpg", "validate", g2],
                            capture_output=True, text=True)
    module = run_module("validate", g2)
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


def test_solve_bytes_survive_optimize_flag():
    """Exactness checks raise rather than assert, so -O changes no byte."""
    argv = ["-m", "smpg.cli", "solve", str(REPO / "games" / "g2.json"),
            "--method", "si", "--criterion", "discounted", "--beta", "1/2"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv],
                                       capture_output=True, text=True, env=checkout_env())
                        for flags in ((), ("-O",)))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["values"] == {"a": "1/3", "b": "-1/3"}
