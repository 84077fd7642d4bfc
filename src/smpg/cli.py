"""Command line interface.

``COMMANDS`` maps each command to its help string, its handler and its
argument specs, and ``transform`` and ``verify`` to nested tables; an
argument that several commands share is one spec.  Usage and help list the
arguments in table order.

``build_parser`` builds the argparse tree once per process, on the first
``main`` call, and every later call parses with the same tree.  Building it
took about half of a small ``eval`` request, and each build left some 600
argparse objects in reference cycles (one ``HelpFormatter`` per argument
among them) for the cyclic collector.  Parsing leaves the tree as it is.

Exit codes: 0 on success, 1 on domain errors, unreadable and unwritable
paths among them (a machine readable JSON object goes to stderr), and on
verification violations, 2 on usage errors, which come before any read.
A failed write deletes the files its run wrote.  All primary output is
canonical JSON on stdout, byte-identical across runs with the same inputs
and seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import GameError, ParseError
from .evaluate import simulate_mean_payoff
from .game import DEFAULT_ENUMERATION_CAP, format_rational, game_to_json_dict, parse_rational
from .generate import config_from_json_dict, generate_game
from .serialize import (
    MIRROR_KIND,
    canonical_dumps,
    load_game,
    load_json,
    make_dir,
    mirror_map_to_json_dict,
    reduction_from_json_dict,
    report_to_json_dict,
    reset_map_to_json_dict,
    save_game,
    simulation_to_json_dict,
    solution_to_json_dict,
    strategy_pair_from_json_dict,
    strategy_pair_to_json_dict,
    values_from_json_dict,
    values_to_json_dict,
    write_json,
)
from .solvers import (
    DISCOUNTED,
    MEAN,
    brute_force_solve,
    evaluate_pair,
    greedy_recovery_discounted,
    reference_recovery_oracle,
    strategic_via_recovery,
    strategy_iteration_discounted,
    verify_star,
    verify_star2,
)
from .transforms import beta_recurrent, mirror


class UsageError(Exception):
    pass


def _rational_arg(text):
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(obj) -> None:
    sys.stdout.write(canonical_dumps(obj))


def _need_beta(args) -> None:
    if args.criterion == DISCOUNTED and args.beta is None:
        raise UsageError("--criterion discounted needs --beta")


def _writer():
    """write_json for one run's files; a failed write deletes the earlier ones."""
    written = []

    def write(path, obj) -> None:
        try:
            write_json(path, obj)
        except ParseError:
            for done in written:
                Path(done).unlink(missing_ok=True)
            raise
        written.append(path)
    return write


def _write_transform(args, game, map_to_json_dict, reduction) -> int:
    """Write the game to --out and its map to --map-out, <out>.map.json by default."""
    map_out = args.map_out or args.out.removesuffix(".json") + ".map.json"
    write = _writer()
    write(args.out, game_to_json_dict(game))
    write(map_out, map_to_json_dict(reduction))
    _emit({"written": {"game": args.out, "map": map_out}})
    return 0


def _report(report) -> int:
    """Emit a verification report; exit 1 when it lists violations."""
    _emit(report_to_json_dict(report))
    return 0 if report.ok else 1


def _sizes(game) -> dict:
    return {"states": len(game.states), "actions": len(game.actions),
            "transitions": len(game.transitions)}


def _cmd_validate(args) -> int:
    _emit({"valid": True, **_sizes(load_game(args.game))})
    return 0


def _cmd_eval(args) -> int:
    _need_beta(args)
    game = load_game(args.game)
    pair = strategy_pair_from_json_dict(load_json(args.strategy))
    vector = evaluate_pair(game, pair, args.criterion, args.beta)
    _emit(values_to_json_dict(vector))
    return 0


def _cmd_transform_beta_recurrent(args) -> int:
    transformed, reduction = beta_recurrent(load_game(args.game), args.beta, args.start)
    return _write_transform(args, transformed, reset_map_to_json_dict, reduction)


def _cmd_transform_mirror(args) -> int:
    game = load_game(args.game)
    doubled, reduction = mirror(game, reduction_from_json_dict(load_json(args.map), game))
    return _write_transform(args, doubled, mirror_map_to_json_dict, reduction)


def _cmd_solve(args) -> int:
    _need_beta(args)
    if args.method == "si" and args.criterion != DISCOUNTED:
        raise UsageError("--method si supports only --criterion discounted")
    game = load_game(args.game)
    if args.method == "si":
        solution = strategy_iteration_discounted(game, args.beta)
    else:
        solution = brute_force_solve(game, args.criterion, args.beta, cap=args.cap)
    _emit(solution_to_json_dict(solution))
    return 0


def _cmd_recover(args) -> int:
    if args.criterion != DISCOUNTED:
        raise UsageError("recover supports only --criterion discounted")
    game = load_game(args.game)
    claimed = values_from_json_dict(load_json(args.values), game)
    pair = greedy_recovery_discounted(game, args.beta, claimed)
    _emit(strategy_pair_to_json_dict(pair))
    return 0


def _cmd_verify_star(args) -> int:
    return _report(verify_star(load_game(args.game), args.beta, args.start, cap=args.cap))


def _cmd_verify_star2(args) -> int:
    if args.map is not None and (args.beta is not None or args.start is not None):
        raise UsageError("give either --map or --beta/--start, not both")
    if args.map is None and (args.beta is None or args.start is None):
        raise UsageError("star2 needs --map, or --beta and --start")
    game = load_game(args.game)
    if args.map is None:
        reset_game, reduction = beta_recurrent(game, args.beta, args.start)
    else:
        raw = load_json(args.map)
        if isinstance(raw, dict) and raw.get("kind") == MIRROR_KIND:
            raise UsageError("star2 needs a reset-transform map")
        reset_game, reduction = game, reduction_from_json_dict(raw, game)
    return _report(verify_star2(reset_game, reduction, cap=args.cap))


def _cmd_pipeline(args) -> int:
    game = load_game(args.game)
    out_dir = Path(args.out_dir)
    make_dir(out_dir)
    write = _writer()
    recovered = {}

    def on_stage(state, reduction, witness, value):
        write(out_dir / f"reset_{state}.json", game_to_json_dict(reduction.reset_game))
        write(out_dir / f"reset_{state}.map.json", reset_map_to_json_dict(reduction))
        write(out_dir / f"mirror_{state}.json", game_to_json_dict(reduction.doubled))
        write(out_dir / f"mirror_{state}.map.json", mirror_map_to_json_dict(reduction))
        write(out_dir / f"witness_{state}.json", strategy_pair_to_json_dict(witness))
        recovered[state] = format_rational(value)

    oracle = lambda g, claimed, evaluator: reference_recovery_oracle(g, claimed, cap=args.cap,
                                                                     evaluator=evaluator)
    solution = strategic_via_recovery(game, args.beta, oracle, on_stage=on_stage)
    write(out_dir / "discounted_values.json", recovered)
    write(out_dir / "solution.json", solution_to_json_dict(solution))
    _emit(solution_to_json_dict(solution))
    return 0


def _cmd_generate(args) -> int:
    config = config_from_json_dict(load_json(args.config))
    game = generate_game(config)
    save_game(args.out, game)
    _emit({"written": args.out, **_sizes(game)})
    return 0


def _cmd_simulate(args) -> int:
    game = load_game(args.game)
    pair = strategy_pair_from_json_dict(load_json(args.strategy))
    result = simulate_mean_payoff(game, pair, args.start, args.horizon, args.plays, args.seed)
    _emit(simulation_to_json_dict(result))
    return 0


def _arg(name: str, **options):
    """An argument spec: the name and the options of one add_argument call."""
    return name, options


# the argument specs that several commands share
GAME = _arg("game")
STRATEGY = _arg("--strategy", required=True)
CRITERION = _arg("--criterion", choices=(MEAN, DISCOUNTED), required=True)
BETA = _arg("--beta", type=_rational_arg)
BETA_REQUIRED = _arg("--beta", type=_rational_arg, required=True)
START = _arg("--start", required=True)
CAP = _arg("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
OUT = _arg("--out", required=True)
MAP_OUT = _arg("--map-out")

# name: (help, handler, argument specs in usage order), or for a command
# with subcommands, name: (help, the subparsers' dest, a nested table)
COMMANDS = {
    "validate": ("check a game file and exit", _cmd_validate, [GAME]),
    "eval": ("value of a fixed strategy pair", _cmd_eval, [GAME, STRATEGY, CRITERION, BETA]),
    "transform": ("game transforms", "transform", {
        "beta-recurrent": ("reset transform", _cmd_transform_beta_recurrent,
                           [GAME, BETA_REQUIRED, START, OUT, MAP_OUT]),
        "mirror": ("mirrored double game", _cmd_transform_mirror,
                   [GAME, _arg("--map", required=True), OUT, MAP_OUT]),
    }),
    "solve": ("optimal values and strategies", _cmd_solve,
              [GAME, _arg("--method", choices=("oracle", "si"), default="oracle"),
               CRITERION, BETA, CAP]),
    "recover": ("strategy pair from claimed values", _cmd_recover,
                [GAME, _arg("--values", required=True),
                 _arg("--criterion", choices=(MEAN, DISCOUNTED), default=DISCOUNTED),
                 BETA_REQUIRED]),
    "verify": ("reduction identities, pair by pair", "check", {
        "star": ("reset transform identity", _cmd_verify_star, [GAME, BETA_REQUIRED, START, CAP]),
        "star2": ("mirrored double game identity", _cmd_verify_star2,
                  [GAME, _arg("--map"), BETA, _arg("--start"), CAP]),
    }),
    "pipeline": ("full reduction chain with artifacts", _cmd_pipeline,
                 [GAME, BETA_REQUIRED, _arg("--out-dir", required=True), CAP]),
    "generate": ("seeded random game", _cmd_generate, [_arg("--config", required=True), OUT]),
    "simulate": ("Monte Carlo mean-payoff estimate", _cmd_simulate,
                 [GAME, STRATEGY, START, _arg("--horizon", type=int, required=True),
                  _arg("--plays", type=int, required=True),
                  _arg("--seed", type=int, required=True)]),
}


def _add_commands(parser, dest: str, table: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, target, specs) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(specs, dict):
            _add_commands(p, target, specs)
            continue
        for arg, options in specs:
            p.add_argument(arg, **options)
        p.set_defaults(handler=target)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every ``main`` call: read it,
    never change it."""
    parser = argparse.ArgumentParser(
        prog="smpg",
        description="Exact solvers and verified reductions for zero-sum stochastic games.")
    _add_commands(parser, "command", COMMANDS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except GameError as exc:
        sys.stderr.write(canonical_dumps(exc.to_json_dict()))
        return 1


if __name__ == "__main__":
    sys.exit(main())
