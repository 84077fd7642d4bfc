"""Restart transform and the mirrored double game."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpg.errors import (
    InvalidBeta,
    MissingKindAnnotation,
    ParseError,
    StrategyDomainMismatch,
    UnknownState,
)
from smpg.evaluate import mean_values, recurrent_stationary
from smpg.game import (
    MAX,
    MIN,
    check_pair,
    enumerate_strategies,
    induced_chain,
    strategy_pair_to_json_dict,
    validate_game,
)
from smpg.generate import GeneratorConfig, generate_game
from smpg.serialize import canonical_dumps, reduction_from_json_dict, reset_map_to_json_dict
from smpg.solvers import verify_star2
from smpg.transforms import (
    Reduction,
    beta_recurrent,
    decompose_mirror_strategies,
    mirror,
)

from .conftest import pair_of, raw_g2


def small_config(seed):
    return GeneratorConfig(
        states=(seed % 3) + 1,
        actions_per_state=(1, 2),
        transitions_per_action=(1, 2),
        reward_bound=3,
        denominator_bound=3,
        max_states_fraction=F(1, 2),
        seed=seed,
    )


def transitions_as_dict(g):
    return {(t.source, t.action, t.target): t.prob for t in g.transitions}


# ------------------------------------------------------------ restart game


def test_restart_two_cycle_frozen(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    assert gb.state_order == g2.state_order
    assert gb.owner == g2.owner
    assert gb.actions == g2.actions
    assert transitions_as_dict(gb) == {
        ("a", "X", "a"): F(1, 2),
        ("a", "X", "b"): F(1, 2),
        ("b", "Y", "a"): F(1),
    }
    assert tm == Reduction(g2, F(1, 2), "a")
    assert tm.beta == F(1, 2) and tm.s0 == "a"
    got = [
        (s["from"], s["action"], s["to"], s["first_mass"], s["second_mass"])
        for s in reset_map_to_json_dict(tm)["splits"]
    ]
    assert got == [
        ("a", "X", "b", "1/2", "1/2"),
        ("b", "Y", "a", "1/2", "1/2"),
    ]


def test_restart_of_self_loop_at_start_is_identity(g1):
    gb, _ = beta_recurrent(g1, F(1, 3), "s0")
    assert transitions_as_dict(gb) == {("s0", "A", "s0"): F(1)}


def test_restart_beta_zero_sends_everything_home(g2):
    gb, tm = beta_recurrent(g2, F(0), "a")
    assert transitions_as_dict(gb) == {
        ("a", "X", "a"): F(1),
        ("b", "Y", "a"): F(1),
    }
    # zero-mass first parts are dropped from the game but kept in the map file
    assert all(s["first_mass"] == "0" for s in reset_map_to_json_dict(tm)["splits"])


def test_splits_hold_both_masses_of_every_source_transition(g2):
    """At beta = 0 every first mass is 0 and the reset game keeps only the
    edges to s0; at beta = 1/3 the two masses of each split add up to p."""
    zero = Reduction(g2, F(0), "a")
    assert [t for t, _, _ in zero.splits] == list(g2.transitions)
    assert {first for _, first, _ in zero.splits} == {F(0)}
    assert {t.target for t in zero.reset_game.transitions} == {"a"}
    third = Reduction(g2, F(1, 3), "a")
    assert [t for t, _, _ in third.splits] == list(g2.transitions)
    for t, first, second in third.splits:
        assert (first, second) == (t.prob / 3, 2 * t.prob / 3)
        assert first + second == t.prob


def test_restart_rejects_bad_inputs(g2):
    with pytest.raises(InvalidBeta):
        beta_recurrent(g2, F(1), "a")
    with pytest.raises(UnknownState):
        beta_recurrent(g2, F(1, 2), "zz")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]),
)
def test_restart_chain_is_unichain_containing_start(seed, beta):
    g = generate_game(small_config(seed))
    s0 = g.state_order[seed % len(g.state_order)]
    gb, _ = beta_recurrent(g, beta, s0)
    for smax in enumerate_strategies(gb, MAX):
        for smin in enumerate_strategies(gb, MIN):
            chain = induced_chain(gb, pair_of(smax.choices, smin.choices))
            dec = recurrent_stationary(chain)
            assert len(dec.classes) == 1
            assert chain.state_order.index(s0) in dec.classes[0]


# ------------------------------------------------------------ double game


def test_mirror_single_state_chain_rows(g1):
    gb, tm = beta_recurrent(g1, F(1, 3), "s0")
    doubled, _ = mirror(gb, tm)
    assert doubled.state_order == ("s01", "s02")
    assert doubled.owner == {"s01": MAX, "s02": MIN}
    chain = induced_chain(doubled, pair_of({"s01": "A"}, {"s02": "A'"}))
    assert chain.matrix == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))
    assert chain.rewards == (F(4), F(-4))


def test_mirror_two_cycle_frozen(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    doubled, mm = mirror(gb, tm)
    assert doubled.state_order == ("a1", "b1", "a2", "b2")
    assert doubled.owner == {"a1": MAX, "b1": MIN, "a2": MIN, "b2": MAX}
    assert doubled.actions == {"X": F(1), "Y": F(-1), "X'": F(-1), "Y'": F(1)}
    assert transitions_as_dict(doubled) == {
        # copy 1 keeps the within-copy halves, restarts cross to a2
        ("a1", "X", "b1"): F(1, 2),
        ("a1", "X", "a2"): F(1, 2),
        ("b1", "Y", "a1"): F(1, 2),
        ("b1", "Y", "a2"): F(1, 2),
        # copy 2 mirrors with primed actions, restarts cross to a1
        ("a2", "X'", "b2"): F(1, 2),
        ("a2", "X'", "a1"): F(1, 2),
        ("b2", "Y'", "a2"): F(1, 2),
        ("b2", "Y'", "a1"): F(1, 2),
    }
    assert mm is tm
    assert mm.state_map == {"a": ("a1", "a2"), "b": ("b1", "b2")}
    assert mm.action_map == {"X": ("X", "X'"), "Y": ("Y", "Y'")}


def test_mirror_zero_value_on_two_cycle(g2, g2_pair):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    doubled, _ = mirror(gb, tm)
    pair = pair_of({"a1": "X", "b2": "Y'"}, {"b1": "Y", "a2": "X'"})
    v = mean_values(induced_chain(doubled, pair))
    assert set(v.values) == {F(0)}


def test_mirror_prime_names_escape_collisions():
    raw = raw_g2()
    raw["actions"] = [{"id": "X", "reward": "1"}, {"id": "X'", "reward": "-1"}]
    raw["transitions"][1]["action"] = "X'"
    g = validate_game(raw)
    gb, tm = beta_recurrent(g, F(1, 2), "a")
    doubled, mm = mirror(gb, tm)
    assert mm.action_map == {"X": ("X", "X''"), "X'": ("X'", "X'''")}
    assert doubled.actions["X''"] == F(-1)
    assert doubled.actions["X'''"] == F(1)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(1, 4), F(1, 2), F(2, 3)]),
)
def test_mirror_cross_copy_mass_is_restart_mass(seed, beta):
    g = generate_game(small_config(seed))
    s0 = g.state_order[seed % len(g.state_order)]
    gb, tm = beta_recurrent(g, beta, s0)
    doubled, _ = mirror(gb, tm)
    copy_of = {s: s[-1] for s in doubled.state_order}
    for (state, action), targets in doubled.outgoing.items():
        crossing = sum(p for t, p in targets if copy_of[t] != copy_of[state])
        assert crossing == 1 - beta


def test_mirror_requires_restart_annotations(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    raw = reset_map_to_json_dict(tm)
    with pytest.raises(MissingKindAnnotation):
        mirror(gb, reduction_from_json_dict(dict(raw, kind="mirror"), gb))
    # an empty split record does not assemble; a missing one does not parse
    with pytest.raises(MissingKindAnnotation):
        mirror(gb, reduction_from_json_dict(dict(raw, splits=[]), gb))
    with pytest.raises(ParseError):
        reduction_from_json_dict({k: v for k, v in raw.items() if k != "splits"}, gb)
    # tampered masses no longer rebuild the given game; beta 1/3 keeps the
    # two halves unequal so the swap actually changes them
    gb3, tm3 = beta_recurrent(g2, F(1, 3), "a")
    raw3 = reset_map_to_json_dict(tm3)
    for split in raw3["splits"]:
        split["first_mass"], split["second_mass"] = split["second_mass"], split["first_mass"]
    with pytest.raises(MissingKindAnnotation):
        mirror(gb3, reduction_from_json_dict(raw3, gb3))
    # a reduction of another reset game does not describe this one, and
    # verify_star2 makes the same check without building the double game
    with pytest.raises(MissingKindAnnotation):
        mirror(gb3, tm)
    with pytest.raises(MissingKindAnnotation):
        verify_star2(gb3, tm)
    assert "doubled" not in tm.__dict__


# ------------------------------------------------- strategy correspondence


def test_decompose_two_cycle_pair(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    _, mm = mirror(gb, tm)
    pair = pair_of({"a1": "X", "b2": "Y'"}, {"b1": "Y", "a2": "X'"})
    one, two = decompose_mirror_strategies(pair, mm)
    assert one.max_strategy.choices == {"a": "X"}
    assert one.min_strategy.choices == {"b": "Y"}
    # copy two swaps the roles and drops the primes
    assert two.max_strategy.choices == {"a": "X"}
    assert two.min_strategy.choices == {"b": "Y"}


def test_decompose_rejects_foreign_and_misplaced_actions(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    _, mm = mirror(gb, tm)
    with pytest.raises(StrategyDomainMismatch):
        decompose_mirror_strategies(
            pair_of({"a1": "X", "b2": "Y"}, {"b1": "Y", "a2": "X'"}), mm)
    with pytest.raises(StrategyDomainMismatch):
        decompose_mirror_strategies(
            pair_of({"zz": "X", "b2": "Y'"}, {"b1": "Y", "a2": "X'"}), mm)


def test_decompose_rejects_pairs_that_do_not_fit_the_double_game(g2):
    """A pair missing a doubled state, or a maximizer choosing at a
    min-owned copy-1 state, is not a pair of the double game."""
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    _, mm = mirror(gb, tm)
    with pytest.raises(StrategyDomainMismatch):
        decompose_mirror_strategies(pair_of({"a1": "X"}, {"b1": "Y", "a2": "X'"}), mm)
    with pytest.raises(StrategyDomainMismatch):
        decompose_mirror_strategies(
            pair_of({"a1": "X", "b1": "Y", "b2": "Y'"}, {"b1": "Y", "a2": "X'"}), mm)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_decompose_is_injective_onto_source_pairs(seed):
    """Distinct doubled pairs split into distinct (copy-1, copy-2) pairs,
    and each half is a pair of the source game."""
    g = generate_game(small_config(seed))
    s0 = g.state_order[seed % len(g.state_order)]
    gb, tm = beta_recurrent(g, F(1, 2), s0)
    doubled, mm = mirror(gb, tm)
    split = []
    for smax in enumerate_strategies(doubled, MAX):
        for smin in enumerate_strategies(doubled, MIN):
            halves = decompose_mirror_strategies(pair_of(smax.choices, smin.choices), mm)
            for half in halves:
                check_pair(g, half)
            split.append(canonical_dumps([strategy_pair_to_json_dict(half) for half in halves]))
    assert len(set(split)) == len(split)
