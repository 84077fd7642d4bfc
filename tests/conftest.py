import os
from fractions import Fraction as F
from pathlib import Path

import pytest

import smpg
from smpg.game import MAX, MIN, PositionalStrategy, StrategyPair, validate_game


def raw_g1():
    return {
        "states": [{"id": "s0", "owner": "max"}],
        "actions": [{"id": "A", "reward": "4"}],
        "transitions": [{"from": "s0", "action": "A", "to": "s0", "prob": "1"}],
    }


def raw_g2():
    return {
        "states": [{"id": "a", "owner": "max"}, {"id": "b", "owner": "min"}],
        "actions": [{"id": "X", "reward": "1"}, {"id": "Y", "reward": "-1"}],
        "transitions": [
            {"from": "a", "action": "X", "to": "b", "prob": "1"},
            {"from": "b", "action": "Y", "to": "a", "prob": "1"},
        ],
    }


def raw_g1b():
    raw = raw_g1()
    raw["actions"].append({"id": "B", "reward": "0"})
    raw["transitions"].append({"from": "s0", "action": "B", "to": "s0", "prob": "1"})
    return raw


@pytest.fixture
def g1():
    return validate_game(raw_g1())


@pytest.fixture
def g2():
    return validate_game(raw_g2())


@pytest.fixture
def g1b():
    """One max state, a reward-4 loop A and a reward-0 loop B."""
    return validate_game(raw_g1b())


def pair_of(max_choices: dict, min_choices: dict) -> StrategyPair:
    return StrategyPair(PositionalStrategy(MAX, max_choices),
                        PositionalStrategy(MIN, min_choices))


@pytest.fixture
def g2_pair():
    return pair_of({"a": "X"}, {"b": "Y"})


def checkout_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(smpg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part)
    return env
