"""The benchmark's workloads: seeded inputs, the one timed call per op, and
exact checks of each op's output.

Every function takes ``lib``, the imported ``smpg`` package, and calls the
library only through module attributes (``lib.solvers.verify_star``, ...),
so the traced run sees every call after it patches those attributes.

Input ``i`` of a run depends only on (workload, seed, i): the same seed gives
the same op sequence, and no input repeats within a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

MAX = "max"


@dataclass(frozen=True)
class Input:
    index: int
    game: Any  # a freshly generated smpg Game: its lazy properties are still unset
    beta: Fraction
    argv: tuple[str, ...] = ()  # eval-n40 only: the CLI arguments
    pair: Any = None  # eval-n40 only: the StrategyPair written to the pair file


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Typical op time at the commit that added the benchmark.  It only sizes
    # the traced run's fixed op count; it is not a measurement.
    nominal_op_s: float
    make_input: Callable[[Any, int, int, Path], Input]
    op: Callable[[Any, Input], Any]  # the only timed call
    check: Callable[[Any, Input, Any], list[str]]  # problems; empty when exact
    canonical: Callable[[Any, Any], str]  # canonical JSON, for the digest gate


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds go through SHA-512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def _generate(lib, rng, states, actions, fanout):
    return lib.generate.generate_game(lib.generate.GeneratorConfig(
        states=states, actions_per_state=actions, transitions_per_action=fanout,
        reward_bound=5, denominator_bound=6, max_states_fraction=Fraction(1, 2),
        seed=rng.getrandbits(63)))


# ---------------------------------------------------------------- exact checks


def _menus(game) -> dict[str, list[str]]:
    menus: dict[str, list[str]] = {}
    for state, action in game.outgoing:
        menus.setdefault(state, []).append(action)
    return menus


def _pair_count(game) -> int:
    count = 1
    for actions in _menus(game).values():
        count *= len(actions)
    return count


def _choice(pair) -> dict[str, str]:
    return {**pair.max_strategy.choices, **pair.min_strategy.choices}


def _expected(game, state, action, values) -> Fraction:
    return sum((p * values[t] for t, p in game.outgoing[(state, action)]), Fraction(0))


def _state_keys(game, values) -> list[str]:
    expected = {s.id for s in game.states}
    if set(values) != expected:
        return [f"value states {sorted(values)} != game states {sorted(expected)}"]
    return []


def discounted_residual(game, beta, values, choice) -> list[str]:
    """(I - beta P) v = (1 - beta) r for the chain the choice induces."""
    problems = _state_keys(game, values)
    for s in game.states if not problems else ():
        action = choice[s.id]
        lhs = values[s.id] - beta * _expected(game, s.id, action, values)
        if lhs != (1 - beta) * game.actions[action]:
            problems.append(f"discounted residual at {s.id}: {lhs} != (1-b) r")
    return problems


def one_step_optimal(game, beta, values) -> list[str]:
    """No action improves on the values by one step for the state's owner."""
    problems = _state_keys(game, values)
    for s in game.states if not problems else ():
        for action in _menus(game)[s.id]:
            q = (1 - beta) * game.actions[action] + beta * _expected(game, s.id, action, values)
            if (q > values[s.id]) if s.owner == MAX else (q < values[s.id]):
                problems.append(f"action {action} improves state {s.id}: {q} vs {values[s.id]}")
    return problems


def mean_gains(game, gains, choice) -> list[str]:
    """Gains are invariant under P, and an absorbing state's gain is its reward."""
    problems = _state_keys(game, gains)
    for s in game.states if not problems else ():
        action = choice[s.id]
        if gains[s.id] != _expected(game, s.id, action, gains):
            problems.append(f"gain at {s.id} not invariant under P")
        if game.outgoing[(s.id, action)] == ((s.id, 1),) and gains[s.id] != game.actions[action]:
            problems.append(f"absorbing state {s.id} gains {gains[s.id]}, not its reward")
    return problems


# ---------------------------------------------------------------------- si-n40

SI_BETA = Fraction(99, 100)


def _si_input(lib, seed, index, directory):
    game = _generate(lib, _rng("si-n40", seed, index), 40, (1, 3), (2, 4))
    lib.serialize.save_game(directory / f"game{index}.json", game)
    return Input(index, game, SI_BETA)


def _si_op(lib, inp):
    return lib.solvers.strategy_iteration_discounted(inp.game, inp.beta)


def _si_check(lib, inp, solution):
    values = solution.values.as_dict()
    return (discounted_residual(inp.game, inp.beta, values, _choice(solution.optimal_pair))
            + one_step_optimal(inp.game, inp.beta, values))


def _si_canonical(lib, solution):
    return lib.serialize.canonical_dumps(lib.serialize.solution_to_json_dict(solution))


# -------------------------------------------------------------------- eval-n40

EVAL_BETA = Fraction(99, 100)


def _eval_input(lib, seed, index, directory):
    rng = _rng("eval-n40", seed, index)
    game = _generate(lib, rng, 40, (1, 3), (1, 2))
    menus = _menus(game)
    choices = {MAX: {}, "min": {}}
    for s in game.states:
        choices[s.owner][s.id] = rng.choice(menus[s.id])
    pair_json = {"max": choices[MAX], "min": choices["min"]}
    game_path = directory / f"game{index}.json"
    pair_path = directory / f"pair{index}.json"
    lib.serialize.save_game(game_path, game)
    pair_path.write_text(json.dumps(pair_json))
    argv = ["eval", str(game_path), "--strategy", str(pair_path)]
    # even ops take the mean path, odd ops the discounted one
    argv += ["--criterion", "mean"] if index % 2 == 0 else [
        "--criterion", "discounted", "--beta", str(EVAL_BETA)]
    pair = lib.serialize.strategy_pair_from_json_dict(pair_json)
    return Input(index, game, EVAL_BETA, tuple(argv), pair)


def _eval_op(lib, inp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(inp.argv))
    return code, out.getvalue()


def _eval_check(lib, inp, output):
    code, text = output
    if code != 0:
        return [f"eval exited with {code}"]
    values = {s: Fraction(v) for s, v in json.loads(text).items()}
    if "mean" in inp.argv:
        return mean_gains(inp.game, values, _choice(inp.pair))
    return discounted_residual(inp.game, inp.beta, values, _choice(inp.pair))


def _eval_canonical(lib, output):
    return output[1]


# ---------------------------------------------------------------- reduction-n3

REDUCTION_BETAS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))


def _reduction_input(lib, seed, index, directory):
    game = _generate(lib, _rng("reduction-n3", seed, index), 3, (2, 2), (1, 3))
    lib.serialize.save_game(directory / f"game{index}.json", game)
    return Input(index, game, REDUCTION_BETAS[index % len(REDUCTION_BETAS)])


def _reduction_op(lib, inp):
    solvers = lib.solvers
    star, star2 = {}, {}
    for state in inp.game.state_order:
        star[state] = solvers.verify_star(inp.game, inp.beta, state)
        reset_game, reset_map = lib.transforms.beta_recurrent(inp.game, inp.beta, state)
        star2[state] = solvers.verify_star2(reset_game, reset_map)
    solution = solvers.strategic_via_recovery(
        inp.game, inp.beta, solvers.reference_recovery_oracle)
    return star, star2, solution


def _reduction_check(lib, inp, output):
    star, star2, solution = output
    game = inp.game
    pairs = _pair_count(game)
    problems = []
    for state in (s.id for s in game.states):
        for label, report, expected in (("star", star[state], pairs),
                                        ("star2", star2[state], pairs * pairs)):
            if report.violations:
                problems.append(f"verify {label} from {state}: {len(report.violations)} violations")
            if report.pairs_checked != expected:
                problems.append(f"verify {label} from {state} checked "
                                f"{report.pairs_checked} pairs, expected {expected}")
        if star2[state].value != 0:
            problems.append(f"mirrored game from {state} has value {star2[state].value}")
    # verify star's values are the optimal discounted values; the recovered
    # pair must attain them, and its mean gains must be consistent
    optimal = {s: report.value for s, report in star.items()}
    choice = _choice(solution.optimal_pair)
    problems += discounted_residual(game, inp.beta, optimal, choice)
    problems += one_step_optimal(game, inp.beta, optimal)
    problems += mean_gains(game, solution.values.as_dict(), choice)
    return problems


def _reduction_canonical(lib, output):
    star, star2, solution = output
    ser = lib.serialize
    return ser.canonical_dumps({
        "star": {s: ser.report_to_json_dict(r) for s, r in star.items()},
        "star2": {s: ser.report_to_json_dict(r) for s, r in star2.items()},
        "solution": ser.solution_to_json_dict(solution),
    })


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "si-n40",
        "dense big-integer elimination dominates: discounted strategy iteration on 40-state games",
        0.32, _si_input, _si_op, _si_check, _si_canonical),
    Workload(
        "eval-n40",
        "the CLI per-request path: eval of a seeded pair on an unrelated 40-state game, mean and discounted",
        0.03, _eval_input, _eval_op, _eval_check, _eval_canonical),
    Workload(
        "reduction-n3",
        "the paper's restart, mirror and recovery chain on 3-state games: many tiny chains, no big systems",
        0.55, _reduction_input, _reduction_op, _reduction_check, _reduction_canonical),
)}
