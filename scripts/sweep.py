"""Run the command line over a fixed set of games and record every answer.

For seeded 1-4-state games plus games/g1.json and games/g2.json, at beta in
{0, 1/3, 1/2, 9/10}, the sweep records the exit code, stdout and stderr of
`eval` on the first strategy pair (both criteria), `solve` by brute force
(both criteria) and by strategy iteration, `recover` from the brute-force
discounted values and from the same values with 1 added at the first state,
`verify star` and `verify star2` from every start state, `transform
beta-recurrent` from every start state followed by `transform mirror` on the
reset game and map it wrote, and `pipeline`, with the files the transforms
and the pipeline write.  It also calls the exhaustive recovery
oracle in-process on each game with three mean-payoff claims: the
brute-force mean values, the same with 1 added at the first state, and the
first pair's mean values; each record holds the witness pair or the error
report, as the command line writes them.
Each game's runs go to their own directory under --out, one `<run>.txt` per
run.  The malformed inputs of tests/test_cli.py (its MALFORMED table, which
holds the PINNED and UNWRITABLE cases) go to --out/malformed: each case runs
on its own freshly written inputs, and its record holds the exit code and
the error report or usage message.  Two checkouts give the same answers
exactly when `diff -r` finds no difference between their output
directories:

    PYTHONPATH=src python scripts/sweep.py --out /tmp/sweep
"""

import argparse
import contextlib
import io
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

from smpg.cli import main as smpg
from smpg.errors import GameError
from smpg.evaluate import ValueVector
from smpg.game import MAX, MIN, Game, StrategyPair, enumerate_strategies
from smpg.generate import GeneratorConfig, generate_game
from smpg.serialize import (
    canonical_dumps,
    load_game,
    save_game,
    strategy_pair_to_json_dict,
    values_to_json_dict,
    write_json,
)
from smpg.solvers import DISCOUNTED, MEAN, brute_force_solve, evaluate_pair, reference_recovery_oracle

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))  # the malformed cases are listed once, in tests/test_cli.py
from tests.test_cli import MALFORMED, malformed_inputs
BETAS = ("0", "1/3", "1/2", "9/10")
SEEDS = range(8)  # seeded games per state count


def oracle(game: Game, claim: tuple[Fraction, ...]) -> int:
    """The exhaustive recovery oracle on a claim, reported as the command
    line reports an answer: the witness pair on stdout and exit 0, or the
    error report on stderr and exit 1."""
    try:
        pair = reference_recovery_oracle(game, ValueVector(game.state_order, claim))
    except GameError as exc:
        print(canonical_dumps(exc.to_json_dict()), end="", file=sys.stderr)
        return 1
    print(canonical_dumps(strategy_pair_to_json_dict(pair)), end="")
    return 0


def run(out: Path, name: str, call):
    """Make the call ``call()`` in-process, which returns an exit code, and
    write out/<name>.txt; returns the exit code, or "traceback" when the call
    raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = call()
        except Exception as exc:  # a crash is an answer too; record it and go on
            code = "traceback"
            stderr.write(f"{type(exc).__name__}: {exc}\n")
    text = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    (out / f"{name}.txt").write_text(text.replace(str(out), "OUT"))
    return code


def sweep_game(name: str, game: Game, out: Path) -> dict:
    """Every run on one game, written under out/<name>; returns the exit code
    of each run by run name."""
    out = out / name
    out.mkdir(parents=True)
    save_game(out / "game.json", game)
    first = StrategyPair(next(enumerate_strategies(game, MAX)), next(enumerate_strategies(game, MIN)))
    write_json(out / "pair.json", strategy_pair_to_json_dict(first))
    g, pair = str(out / "game.json"), str(out / "pair.json")
    runs = [("eval-mean", ["eval", g, "--strategy", pair, "--criterion", "mean"]),
            ("solve-oracle-mean", ["solve", g, "--criterion", "mean"])]
    for beta in BETAS:
        b = "b" + beta.replace("/", "_")
        claims = values_to_json_dict(brute_force_solve(game, DISCOUNTED, Fraction(beta)).values)
        write_json(out / f"values-{b}.json", claims)
        first_state = game.state_order[0]
        claims[first_state] = str(Fraction(claims[first_state]) + 1)
        write_json(out / f"values-{b}-perturbed.json", claims)
        runs += [
            (f"eval-discounted-{b}",
             ["eval", g, "--strategy", pair, "--criterion", "discounted", "--beta", beta]),
            (f"solve-oracle-discounted-{b}", ["solve", g, "--criterion", "discounted", "--beta", beta]),
            (f"solve-si-{b}", ["solve", g, "--method", "si", "--criterion", "discounted", "--beta", beta]),
            (f"recover-{b}", ["recover", g, "--values", str(out / f"values-{b}.json"), "--beta", beta]),
            (f"recover-perturbed-{b}",
             ["recover", g, "--values", str(out / f"values-{b}-perturbed.json"), "--beta", beta]),
            (f"pipeline-{b}", ["pipeline", g, "--beta", beta, "--out-dir", str(out / f"pipeline-{b}")]),
        ]
        for s in game.state_order:
            reset, doubled = str(out / f"reset-{b}-from-{s}.json"), str(out / f"mirror-{b}-from-{s}.json")
            runs += [(f"verify-star-{b}-from-{s}", ["verify", "star", g, "--beta", beta, "--start", s]),
                     (f"verify-star2-{b}-from-{s}", ["verify", "star2", g, "--beta", beta, "--start", s]),
                     (f"transform-beta-recurrent-{b}-from-{s}",
                      ["transform", "beta-recurrent", g, "--beta", beta, "--start", s, "--out", reset]),
                     (f"transform-mirror-{b}-from-{s}",
                      ["transform", "mirror", reset, "--map", reset.removesuffix(".json") + ".map.json",
                       "--out", doubled])]
    truth = brute_force_solve(game, MEAN).values.values
    mean_claims = {"true": truth, "perturbed": (truth[0] + 1, *truth[1:]),
                   "first-pair": evaluate_pair(game, first, MEAN).values}
    calls = {run_name: partial(smpg, argv) for run_name, argv in runs}
    calls.update((f"oracle-{claim}", partial(oracle, game, values)) for claim, values in mean_claims.items())
    return {run_name: run(out, run_name, call) for run_name, call in calls.items()}


def sweep_malformed(out: Path) -> dict:
    """Every malformed-input case, written under out/malformed; returns the
    exit code of each run by case name."""
    out = out / "malformed"
    codes = {}
    for case, argv in MALFORMED.items():
        (out / case).mkdir(parents=True)
        files = malformed_inputs(out / case)
        codes[case] = run(out, case, partial(smpg, [files.get(arg, arg) for arg in argv]))
    return codes


def sweep_games() -> dict[str, Game]:
    """g1, g2 and the seeded games, by the name of their output directory."""
    games = {name: load_game(REPO / "games" / f"{name}.json") for name in ("g1", "g2")}
    for states in range(1, 5):
        for seed in SEEDS:
            games[f"n{states}-seed{seed}"] = generate_game(GeneratorConfig(
                states=states, actions_per_state=(1, 2), transitions_per_action=(1, 3),
                reward_bound=4, denominator_bound=4, max_states_fraction=Fraction(1, 2), seed=seed))
    return games


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="a directory that does not exist yet")
    args = parser.parse_args()
    start = time.perf_counter()
    games = sweep_games()
    codes = [code for name, game in games.items() for code in sweep_game(name, game, args.out).values()]
    malformed = sweep_malformed(args.out)
    nonzero = sum(code != 0 for code in codes)
    print(f"{len(codes)} runs on {len(games)} games ({nonzero} with a nonzero exit) "
          f"and {len(malformed)} on malformed inputs in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
