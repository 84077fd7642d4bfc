"""JSON interchange for games, strategies, values, maps and reports.

All rationals serialize as lowest-terms "p/q" (or "n") strings.  Output is
canonical: sorted object keys, two-space indent, trailing newline, so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GameError, MissingKindAnnotation, ParseError
from .evaluate import SimulationResult, ValueVector
from .game import (
    MAX,
    MIN,
    Game,
    PositionalStrategy,
    StrategyPair,
    build_game,
    format_rational,
    game_to_json_dict,
    parse_rational,
    validate_game,
)
from .solvers import Solution, VerificationReport
from .transforms import Reduction

# the "kind" tag of the two map files
RESET_KIND = "beta-recurrent"
MIRROR_KIND = "mirror"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}", path=str(path)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=str(path)) from exc
    except ValueError as exc:  # an integer past the int-string digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}", path=str(path)) from exc
    except RecursionError as exc:
        raise ParseError(f"JSON in {path} is nested too deeply", path=str(path)) from exc


def _unwritable(path, exc: OSError) -> ParseError:
    return ParseError(f"cannot write {path}: {exc}", path=str(path))


def write_json(path, obj) -> None:
    text = canonical_dumps(obj)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def make_dir(path) -> None:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def load_game(path) -> Game:
    return validate_game(load_json(path))


def save_game(path, game: Game) -> None:
    write_json(path, game_to_json_dict(game))


def strategy_pair_to_json_dict(pair: StrategyPair) -> dict:
    return {"max": dict(pair.max_strategy.choices),
            "min": dict(pair.min_strategy.choices)}


def strategy_pair_from_json_dict(raw: dict) -> StrategyPair:
    if not isinstance(raw, dict) or "max" not in raw or "min" not in raw:
        raise ParseError('strategy file needs "max" and "min" objects')
    for side in (MAX, MIN):
        if not isinstance(raw[side], dict):
            raise ParseError(f'strategy "{side}" must be an object of state: action')
    return StrategyPair(
        PositionalStrategy(MAX, {str(s): str(a) for s, a in raw[MAX].items()}),
        PositionalStrategy(MIN, {str(s): str(a) for s, a in raw[MIN].items()}))


def values_to_json_dict(vector: ValueVector) -> dict:
    return {s: format_rational(v) for s, v in vector.as_dict().items()}


def values_from_json_dict(raw: dict, game: Game) -> ValueVector:
    if not isinstance(raw, dict):
        raise ParseError("value file must be an object of state: rational")
    parsed = {str(s): parse_rational(v) for s, v in raw.items()}
    missing = [s for s in game.state_order if s not in parsed]
    if missing:
        raise ParseError(f"value file missing states {missing}", states=missing)
    extra = [s for s in parsed if s not in game.state_index]
    if extra:
        raise ParseError(f"value file has unknown states {extra}", states=extra)
    return ValueVector(game.state_order, tuple(parsed[s] for s in game.state_order))


def reset_map_to_json_dict(reduction: Reduction) -> dict:
    """The reset transform's map file.  Its ``splits`` list every source
    transition with its first-kind and second-kind mass."""
    beta = reduction.beta
    return {
        "kind": RESET_KIND,
        "beta": format_rational(beta),
        "s0": reduction.s0,
        "state_map": {s: s for s in reduction.game.state_order},
        "action_map": {a: a for a in reduction.game.actions},
        "splits": [
            {
                "index": index,
                "from": t.source,
                "action": t.action,
                "to": t.target,
                "first_mass": format_rational(beta * t.prob),
                "second_mass": format_rational((1 - beta) * t.prob),
            }
            for index, t in enumerate(reduction.game.transitions)
        ],
    }


def mirror_map_to_json_dict(reduction: Reduction) -> dict:
    """The mirror's map file, for inspection: state and action ids of the
    two copies.  No command reads it back."""
    return {
        "kind": MIRROR_KIND,
        "beta": format_rational(reduction.beta),
        "s0": reduction.s0,
        "state_map": {s: list(ids) for s, ids in reduction.state_map.items()},
        "action_map": {a: list(ids) for a, ids in reduction.action_map.items()},
    }


_JSON_TYPES = {str: "a string", int: "an integer", dict: "an object", list: "an array"}


def _field(raw: dict, key: str, kind: type, where: str):
    value = raw.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f'{where} "{key}" must be {_JSON_TYPES[kind]}', field=key)
    return value


def reduction_from_json_dict(raw, reset_game: Game) -> Reduction:
    """Read a reset map and check it against the reset game it belongs to.

    The source game is rebuilt from the splits with p = first + second, and
    every split must carry exactly beta * p and (1 - beta) * p.  A mirror
    map, a start state outside the game, splits that do not assemble into
    a game and masses off that ratio raise MissingKindAnnotation; any
    malformed shape raises ParseError.  Whether the reduction reproduces
    ``reset_game`` is left to ``mirror``.
    """
    if not isinstance(raw, dict):
        raise ParseError("transform map must be a JSON object")
    kind = _field(raw, "kind", str, "transform map")
    if kind == MIRROR_KIND:
        raise MissingKindAnnotation(
            "mirror needs the split record of a reset transform", kind=kind)
    if kind != RESET_KIND:
        raise ParseError(f"unknown transform kind {kind!r}", kind=kind)
    beta = parse_rational(raw.get("beta"))
    s0 = _field(raw, "s0", str, "transform map")
    for key in ("state_map", "action_map"):
        ids = _field(raw, key, dict, "transform map")
        if not all(isinstance(v, str) for v in ids.values()):
            raise ParseError(f'transform map "{key}" must map ids to ids', field=key)
    splits = []
    for split in _field(raw, "splits", list, "transform map"):
        if not isinstance(split, dict):
            raise ParseError("each split must be an object")
        _field(split, "index", int, "split")
        ends = tuple(_field(split, key, str, "split") for key in ("from", "action", "to"))
        splits.append((ends, parse_rational(split.get("first_mass")),
                       parse_rational(split.get("second_mass"))))

    if s0 not in reset_game.state_index:
        raise MissingKindAnnotation(f"reset state {s0!r} missing from the game", s0=s0)
    try:
        source = build_game(reset_game.states, reset_game.actions,
                            [(*ends, first + second) for ends, first, second in splits])
    except GameError as exc:
        raise MissingKindAnnotation(
            f"split record does not assemble into a game: {exc}") from exc
    reduction = Reduction(source, beta, s0)
    if any(first != reduction.beta * (first + second) for _, first, second in splits):
        raise MissingKindAnnotation("split record does not describe this game")
    return reduction


def report_to_json_dict(report: VerificationReport) -> dict:
    return {
        "pairs_checked": report.pairs_checked,
        "violations": list(report.violations),
        "value": format_rational(report.value),
    }


def solution_to_json_dict(solution: Solution) -> dict:
    out = {
        "criterion": solution.criterion,
        "values": values_to_json_dict(solution.values),
        "strategy": strategy_pair_to_json_dict(solution.optimal_pair),
    }
    if solution.beta is not None:
        out["beta"] = format_rational(solution.beta)
    if solution.certificate is not None:
        order = solution.certificate.state_order
        out["certificate"] = {
            "lower": {s: format_rational(v) for s, v in zip(order, solution.certificate.lower)},
            "upper": {s: format_rational(v) for s, v in zip(order, solution.certificate.upper)},
        }
    return out


def simulation_to_json_dict(result: SimulationResult) -> dict:
    return {"estimate": result.estimate, "stderr": result.stderr}
