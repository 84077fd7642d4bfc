"""Seeded random game generation.

The generator is deterministic for a fixed config: a stdlib Mersenne
Twister seeded from the config drives every draw in a fixed order, so the
same config always yields the byte-identical game.  Probabilities come
from random positive integer weights normalised exactly, so every row sums
to one by construction and generated games always validate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import ParseError
from .game import MAX, MIN, Game, State, build_game, parse_rational


@dataclass(frozen=True)
class GeneratorConfig:
    states: int
    actions_per_state: tuple[int, int]
    transitions_per_action: tuple[int, int]
    reward_bound: int
    denominator_bound: int
    max_states_fraction: Fraction
    seed: int

    def __post_init__(self):
        if self.states < 1:
            raise ParseError("generator needs at least one state", states=self.states)
        for name, (low, high) in (("actions_per_state", self.actions_per_state),
                                  ("transitions_per_action", self.transitions_per_action)):
            if not 1 <= low <= high:
                raise ParseError(f"bad {name} range [{low}, {high}]", field=name)
        if self.reward_bound < 0 or self.denominator_bound < 1:
            raise ParseError("bad reward or denominator bound")
        if not 0 <= self.max_states_fraction <= 1:
            raise ParseError("max_states_fraction outside [0, 1]",
                             value=str(self.max_states_fraction))


def config_from_json_dict(raw: dict) -> GeneratorConfig:
    def integer(field: str, *index: int) -> int:
        value = raw[field]
        for k in index:
            value = value[k]
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ParseError(f"{field} must be a JSON integer, not {value!r}",
                         field=field, value=repr(value))

    def pair(field: str) -> tuple[int, int]:
        value = raw[field]
        if not isinstance(value, list) or len(value) != 2:
            raise ParseError(f"{field} must be a list of two integers, not {value!r}",
                             field=field, value=repr(value))
        return integer(field, 0), integer(field, 1)

    if not isinstance(raw, dict):
        raise ParseError("generator config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(GeneratorConfig)})
    if unknown:
        raise ParseError(f"unknown generator config field {unknown[0]!r}", field=unknown[0])
    try:
        return GeneratorConfig(
            states=integer("states"),
            actions_per_state=pair("actions_per_state"),
            transitions_per_action=pair("transitions_per_action"),
            reward_bound=integer("reward_bound"),
            denominator_bound=integer("denominator_bound"),
            max_states_fraction=parse_rational(raw["max_states_fraction"]),
            seed=integer("seed"),
        )
    except KeyError as exc:
        field = exc.args[0]
        raise ParseError(f"missing generator config field {field!r}", field=field) from exc


def generate_game(config: GeneratorConfig) -> Game:
    """Draw a game; the same config always produces the identical game."""
    rng = random.Random(config.seed)
    n = config.states
    # floor(n * fraction + 1/2): exact round-half-up in rationals
    max_owned = int(n * config.max_states_fraction + Fraction(1, 2))
    owners = [MIN] * n
    for i in rng.sample(range(n), max_owned):
        owners[i] = MAX
    states = [State(f"s{i}", owners[i]) for i in range(n)]

    actions: dict[str, Fraction] = {}
    transitions = []
    counter = 0
    for i in range(n):
        for _ in range(rng.randint(*config.actions_per_state)):
            action = f"a{counter}"
            counter += 1
            actions[action] = Fraction(
                rng.randint(-config.reward_bound, config.reward_bound),
                rng.randint(1, config.denominator_bound))
            fanout = rng.randint(*config.transitions_per_action)
            targets = [rng.randrange(n) for _ in range(fanout)]
            weights = [rng.randint(1, config.denominator_bound) for _ in range(fanout)]
            total = sum(weights)
            for target, weight in zip(targets, weights):
                transitions.append((f"s{i}", action, f"s{target}", Fraction(weight, total)))
    return build_game(states, actions, transitions)
