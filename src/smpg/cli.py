"""Command line interface.

Exit codes: 0 on success, 1 on domain errors (a machine readable JSON
object goes to stderr) and on verification violations, 2 on usage errors.
All primary output is canonical JSON on stdout, byte-identical across runs
with the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import GameError, MissingKindAnnotation, ParseError
from .evaluate import simulate_mean_payoff
from .game import DEFAULT_ENUMERATION_CAP, format_rational, game_to_json_dict, parse_rational
from .generate import config_from_json_dict, generate_game
from .serialize import (
    canonical_dumps,
    load_game,
    load_json,
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


def _default_map_path(out: str) -> str:
    return (out[:-5] if out.endswith(".json") else out) + ".map.json"


def _cmd_validate(args) -> int:
    game = load_game(args.game)
    _emit({
        "valid": True,
        "states": len(game.states),
        "actions": len(game.actions),
        "transitions": len(game.transitions),
    })
    return 0


def _cmd_eval(args) -> int:
    game = load_game(args.game)
    pair = strategy_pair_from_json_dict(load_json(args.strategy))
    if args.criterion == DISCOUNTED and args.beta is None:
        raise UsageError("--criterion discounted needs --beta")
    vector = evaluate_pair(game, pair, args.criterion, args.beta)
    _emit(values_to_json_dict(vector))
    return 0


def _cmd_transform_beta_recurrent(args) -> int:
    game = load_game(args.game)
    transformed, reduction = beta_recurrent(game, args.beta, args.start)
    map_out = args.map_out or _default_map_path(args.out)
    save_game(args.out, transformed)
    write_json(map_out, reset_map_to_json_dict(reduction))
    _emit({"written": {"game": args.out, "map": map_out}})
    return 0


def _cmd_transform_mirror(args) -> int:
    game = load_game(args.game)
    doubled, reduction = mirror(game, reduction_from_json_dict(load_json(args.map), game))
    map_out = args.map_out or _default_map_path(args.out)
    save_game(args.out, doubled)
    write_json(map_out, mirror_map_to_json_dict(reduction))
    _emit({"written": {"game": args.out, "map": map_out}})
    return 0


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    if args.criterion == DISCOUNTED and args.beta is None:
        raise UsageError("--criterion discounted needs --beta")
    if args.method == "si":
        if args.criterion != DISCOUNTED:
            raise UsageError("--method si supports only --criterion discounted")
        solution = strategy_iteration_discounted(game, args.beta)
    else:
        solution = brute_force_solve(game, args.criterion, args.beta, cap=args.cap)
    _emit(solution_to_json_dict(solution))
    return 0


def _cmd_recover(args) -> int:
    game = load_game(args.game)
    if args.criterion != DISCOUNTED:
        raise UsageError("recover supports only --criterion discounted")
    claimed = values_from_json_dict(load_json(args.values), game)
    pair = greedy_recovery_discounted(game, args.beta, claimed)
    _emit(strategy_pair_to_json_dict(pair))
    return 0


def _cmd_verify_star(args) -> int:
    game = load_game(args.game)
    report = verify_star(game, args.beta, args.start, cap=args.cap)
    _emit(report_to_json_dict(report))
    return 0 if report.ok else 1


def _cmd_verify_star2(args) -> int:
    game = load_game(args.game)
    if args.map is not None:
        if args.beta is not None or args.start is not None:
            raise UsageError("give either --map or --beta/--start, not both")
        try:
            reduction = reduction_from_json_dict(load_json(args.map), game)
        except MissingKindAnnotation as exc:
            if "kind" in exc.payload:  # a mirror map, not a reset map
                raise UsageError("star2 needs a reset-transform map") from exc
            raise
        reset_game = game
    else:
        if args.beta is None or args.start is None:
            raise UsageError("star2 needs --map, or --beta and --start")
        reset_game, reduction = beta_recurrent(game, args.beta, args.start)
    report = verify_star2(reset_game, reduction, cap=args.cap)
    _emit(report_to_json_dict(report))
    return 0 if report.ok else 1


def _cmd_pipeline(args) -> int:
    game = load_game(args.game)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recovered = {}

    def on_stage(state, reduction, witness, value):
        save_game(out_dir / f"reset_{state}.json", reduction.reset_game)
        write_json(out_dir / f"reset_{state}.map.json", reset_map_to_json_dict(reduction))
        save_game(out_dir / f"mirror_{state}.json", reduction.doubled)
        write_json(out_dir / f"mirror_{state}.map.json", mirror_map_to_json_dict(reduction))
        write_json(out_dir / f"witness_{state}.json", strategy_pair_to_json_dict(witness))
        recovered[state] = format_rational(value)

    oracle = lambda g, claimed: reference_recovery_oracle(g, claimed, cap=args.cap)
    solution = strategic_via_recovery(game, args.beta, oracle, on_stage=on_stage)
    write_json(out_dir / "discounted_values.json", recovered)
    write_json(out_dir / "solution.json", solution_to_json_dict(solution))
    _emit(solution_to_json_dict(solution))
    return 0


def _cmd_generate(args) -> int:
    config = config_from_json_dict(load_json(args.config))
    game = generate_game(config)
    save_game(args.out, game)
    _emit({
        "written": args.out,
        "states": len(game.states),
        "actions": len(game.actions),
        "transitions": len(game.transitions),
    })
    return 0


def _cmd_simulate(args) -> int:
    game = load_game(args.game)
    pair = strategy_pair_from_json_dict(load_json(args.strategy))
    result = simulate_mean_payoff(game, pair, args.start, args.horizon, args.plays, args.seed)
    _emit(simulation_to_json_dict(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpg",
        description="Exact solvers and verified reductions for zero-sum stochastic games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file and exit")
    p.add_argument("game")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("eval", help="value of a fixed strategy pair")
    p.add_argument("game")
    p.add_argument("--strategy", required=True)
    p.add_argument("--criterion", choices=(MEAN, DISCOUNTED), required=True)
    p.add_argument("--beta", type=_rational_arg)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("transform", help="game transforms")
    tsub = p.add_subparsers(dest="transform", required=True)
    t = tsub.add_parser("beta-recurrent", help="reset transform")
    t.add_argument("game")
    t.add_argument("--beta", type=_rational_arg, required=True)
    t.add_argument("--start", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--map-out")
    t.set_defaults(handler=_cmd_transform_beta_recurrent)
    t = tsub.add_parser("mirror", help="mirrored double game")
    t.add_argument("game")
    t.add_argument("--map", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--map-out")
    t.set_defaults(handler=_cmd_transform_mirror)

    p = sub.add_parser("solve", help="optimal values and strategies")
    p.add_argument("game")
    p.add_argument("--method", choices=("oracle", "si"), default="oracle")
    p.add_argument("--criterion", choices=(MEAN, DISCOUNTED), required=True)
    p.add_argument("--beta", type=_rational_arg)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("recover", help="strategy pair from claimed values")
    p.add_argument("game")
    p.add_argument("--values", required=True)
    p.add_argument("--criterion", choices=(MEAN, DISCOUNTED), default=DISCOUNTED)
    p.add_argument("--beta", type=_rational_arg, required=True)
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("verify", help="reduction identities, pair by pair")
    vsub = p.add_subparsers(dest="check", required=True)
    v = vsub.add_parser("star", help="reset transform identity")
    v.add_argument("game")
    v.add_argument("--beta", type=_rational_arg, required=True)
    v.add_argument("--start", required=True)
    v.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    v.set_defaults(handler=_cmd_verify_star)
    v = vsub.add_parser("star2", help="mirrored double game identity")
    v.add_argument("game")
    v.add_argument("--map")
    v.add_argument("--beta", type=_rational_arg)
    v.add_argument("--start")
    v.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    v.set_defaults(handler=_cmd_verify_star2)

    p = sub.add_parser("pipeline", help="full reduction chain with artifacts")
    p.add_argument("game")
    p.add_argument("--beta", type=_rational_arg, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("generate", help="seeded random game")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("simulate", help="Monte Carlo mean-payoff estimate")
    p.add_argument("game")
    p.add_argument("--strategy", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--plays", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_simulate)

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
