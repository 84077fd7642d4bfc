"""Seeded random game generation."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpg.errors import ParseError
from smpg.game import MAX, game_to_json_dict, validate_game
from smpg.generate import (
    GeneratorConfig,
    config_from_json_dict,
    generate_game,
)


def config(seed, **over):
    base = dict(
        states=3,
        actions_per_state=(1, 2),
        transitions_per_action=(1, 3),
        reward_bound=4,
        denominator_bound=4,
        max_states_fraction=F(1, 2),
        seed=seed,
    )
    base.update(over)
    return GeneratorConfig(**base)


def test_same_seed_same_game():
    assert generate_game(config(11)) == generate_game(config(11))


def test_different_seeds_differ():
    assert generate_game(config(0)) != generate_game(config(1))


def test_config_json_round_trip():
    """The committed generator config parses to the config it spells out."""
    path = Path(__file__).resolve().parents[1] / "games" / "generator_small.json"
    assert config_from_json_dict(json.loads(path.read_text())) == config(7)


@pytest.mark.parametrize(
    "over",
    [
        {"states": 0},
        {"actions_per_state": (0, 2)},
        {"actions_per_state": (3, 2)},
        {"transitions_per_action": (2, 1)},
        {"reward_bound": -1},
        {"denominator_bound": 0},
        {"max_states_fraction": F(3, 2)},
        {"max_states_fraction": F(-1, 2)},
    ],
)
def test_config_rejects_bad_ranges(over):
    with pytest.raises(ParseError):
        config(0, **over)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_games_validate_and_respect_bounds(seed):
    cfg = config(seed, states=(seed % 5) + 1)
    g = generate_game(cfg)
    # passes full validation and round-trips
    assert validate_game(game_to_json_dict(g)) == g
    assert len(g.states) == cfg.states
    owned = sum(1 for s in g.states if s.owner == MAX)
    want = min(cfg.states, max(0, int(cfg.states * cfg.max_states_fraction
                                      + F(1, 2))))
    assert owned == want
    for reward in g.actions.values():
        assert abs(reward) <= cfg.reward_bound
        assert reward.denominator <= cfg.denominator_bound
    for state in g.state_order:
        menu = g.available_actions[state]
        assert cfg.actions_per_state[0] <= len(menu) <= cfg.actions_per_state[1]
        for action in menu:
            fanout = len(g.outgoing[(state, action)])
            assert 1 <= fanout <= cfg.transitions_per_action[1]
