"""Criteria evaluation under fixed strategies.

Oracles here are computed independently of the implementation: closed-form
geometric sums, tiny stationary systems solved by hand, and Monte Carlo runs.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpg.errors import InvalidBeta, NotUnichain, ParseError, UnknownState
from smpg.evaluate import (
    discounted_values,
    mean_values,
    recurrent_stationary,
    simulate_mean_payoff,
    unichain_stationary,
    verify_stationary_recursion,
)
from smpg.game import MAX, MIN, InducedChain, enumerate_strategies, induced_chain, validate_game
from smpg.generate import GeneratorConfig, generate_game
from smpg.solvers import brute_force_solve, MEAN, strategy_iteration_discounted, verify_star2
from smpg.transforms import beta_recurrent

from .conftest import checkout_env, pair_of


def small_config(seed, states_mod=3, fanout=(1, 3)):
    return GeneratorConfig(
        states=(seed % states_mod) + 1,
        actions_per_state=(1, 2),
        transitions_per_action=fanout,
        reward_bound=4,
        denominator_bound=4,
        max_states_fraction=F(1, 2),
        seed=seed,
    )


def first_pair(g):
    return pair_of(
        next(iter(enumerate_strategies(g, MAX))).choices,
        next(iter(enumerate_strategies(g, MIN))).choices,
    )


# ---------------------------------------------------------------- discounted


def test_discounted_two_cycle_matches_geometric_series(g2, g2_pair):
    # Rewards alternate +1, -1 forever, so the normalized series telescopes:
    # (1-b) * (1 - b + b^2 - ...) = (1-b)/(1+b).
    chain = induced_chain(g2, g2_pair)
    for beta in (F(1, 3), F(1, 2), F(9, 10)):
        expected = (1 - beta) / (1 + beta)
        v = discounted_values(chain, beta)
        assert v.at("a") == expected
        assert v.at("b") == -expected


def test_discounted_constant_loop_is_reward(g1):
    chain = induced_chain(g1, pair_of({"s0": "A"}, {}))
    for beta in (F(0), F(1, 2), F(99, 100)):
        assert discounted_values(chain, beta).at("s0") == 4


def test_discounted_beta_zero_is_immediate_reward(g2, g2_pair):
    v = discounted_values(induced_chain(g2, g2_pair), F(0))
    assert v.at("a") == 1 and v.at("b") == -1


def test_discounted_rejects_bad_beta(g1):
    chain = induced_chain(g1, pair_of({"s0": "A"}, {}))
    for beta in (F(1), F(3, 2), F(-1, 10)):
        with pytest.raises(InvalidBeta):
            discounted_values(chain, beta)


def test_bad_beta_past_digit_limit_reports_its_digit_count(g1):
    chain = induced_chain(g1, pair_of({"s0": "A"}, {}))
    with pytest.raises(InvalidBeta) as info:
        discounted_values(chain, F(10**5000 + 1, 7))
    report = info.value.to_json_dict()
    assert report["beta"] == "<a rational with 5001 digits>"
    assert report["message"] == "discount factor <a rational with 5001 digits> outside [0, 1)"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]),
)
def test_discounted_satisfies_fixed_point_equation(seed, beta):
    g = generate_game(small_config(seed))
    chain = induced_chain(g, first_pair(g))
    v = discounted_values(chain, beta)
    n = len(chain.state_order)
    for i in range(n):
        step = sum(chain.matrix[i][j] * v.values[j] for j in range(n))
        assert v.values[i] == (1 - beta) * chain.rewards[i] + beta * step


# ---------------------------------------------------------------- mean payoff


def test_mean_two_cycle_is_zero(g2, g2_pair):
    v = mean_values(induced_chain(g2, g2_pair))
    assert v.values == (F(0), F(0))


def test_mean_of_reset_two_cycle_matches_hand_stationary(g2, g2_pair):
    # Reset chain at beta=1/2 from state a:
    #   a: 1/2 -> b, 1/2 -> a     b: 1 -> a
    # Balance pi_a = pi_a/2 + pi_b with pi_a + pi_b = 1 gives (2/3, 1/3),
    # so the gain is 2/3 * 1 + 1/3 * (-1) = 1/3 everywhere.
    gb, _ = beta_recurrent(g2, F(1, 2), "a")
    v = mean_values(induced_chain(gb, g2_pair))
    assert v.values == (F(1, 3), F(1, 3))


def test_mean_splits_by_absorbing_class():
    # t moves to one of two loops with equal probability; its long-run
    # reward is the average of the two loop rewards.
    raw = {
        "states": [
            {"id": "t", "owner": "max"},
            {"id": "u", "owner": "max"},
            {"id": "w", "owner": "max"},
        ],
        "actions": [
            {"id": "go", "reward": "5"},
            {"id": "lo", "reward": "0"},
            {"id": "hi", "reward": "6"},
        ],
        "transitions": [
            {"from": "t", "action": "go", "to": "u", "prob": "1/2"},
            {"from": "t", "action": "go", "to": "w", "prob": "1/2"},
            {"from": "u", "action": "lo", "to": "u", "prob": "1"},
            {"from": "w", "action": "hi", "to": "w", "prob": "1"},
        ],
    }
    g = validate_game(raw)
    chain = induced_chain(g, pair_of({"t": "go", "u": "lo", "w": "hi"}, {}))
    v = mean_values(chain)
    assert v.as_dict() == {"t": F(3), "u": F(0), "w": F(6)}


def test_recurrent_decomposition_two_loops():
    raw = {
        "states": [
            {"id": "t", "owner": "max"},
            {"id": "u", "owner": "max"},
            {"id": "w", "owner": "max"},
        ],
        "actions": [{"id": "m", "reward": "0"}],
        "transitions": [
            {"from": "t", "action": "m", "to": "u", "prob": "1/2"},
            {"from": "t", "action": "m", "to": "w", "prob": "1/2"},
            {"from": "u", "action": "m", "to": "u", "prob": "1"},
            {"from": "w", "action": "m", "to": "w", "prob": "1"},
        ],
    }
    g = validate_game(raw)
    chain = induced_chain(g, pair_of({"t": "m", "u": "m", "w": "m"}, {}))
    dec = recurrent_stationary(chain)
    assert dec.classes == ((1,), (2,))
    assert dec.transient == (0,)
    # each class carries its own distribution over just its members
    assert [d.state_order for d in dec.stationary] == [("u",), ("w",)]
    assert [d.mass for d in dec.stationary] == [(F(1),), (F(1),)]
    with pytest.raises(NotUnichain):
        unichain_stationary(chain)


# Corrupts one exact result on the mean path at a time and prints the error
# mean_values ends in, or "accepted".
CORRUPTED_SOLVES = """\
import dataclasses, types
from fractions import Fraction as F
from smpg import evaluate, linalg
from smpg.game import InducedChain

# t moves to u and to w with mass 1/2 each; u and w are absorbing
rows = ((2, ((1, 1), (2, 1))), (1, ((1, 1),)), (1, ((2, 1),)))

def attempt(stage):
    try:
        evaluate.mean_values(InducedChain(("t", "u", "w"), rows, (F(0), F(1), F(2))))
        print(stage, "accepted")
    except Exception as exc:
        print(stage, type(exc).__name__, str(exc))

evaluate.linalg = types.SimpleNamespace(
    solve=lambda m, b: [-x for x in linalg.solve(m, b)], solve_columns=linalg.solve_columns)
attempt("stationary")
evaluate.linalg = types.SimpleNamespace(
    solve=linalg.solve,
    solve_columns=lambda m, b: [[2 * x for x in row] for row in linalg.solve_columns(m, b)])
attempt("absorption")
evaluate.linalg = linalg
decompose = evaluate.recurrent_stationary
evaluate.recurrent_stationary = lambda chain: dataclasses.replace(decompose(chain), transient=())
attempt("gain")
print(__debug__)
"""


@pytest.mark.parametrize("flags, debug", [((), "True"), (("-O",), "False")])
def test_mean_invariants_survive_optimize_flag(flags, debug):
    """A negative stationary mass, absorption probabilities that do not sum
    to one and a state left without a gain raise domain errors, also with
    asserts stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPTED_SOLVES],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "stationary ProbabilityOutOfRange mass -1 at 'u' outside [0, 1]",
        "absorption ProbabilitySumMismatch absorption from 't' sums to 2, not 1",
        "gain ProbabilitySumMismatch state 't' reaches no recurrent class",
        debug]


def test_unichain_stationary_zeroes_transient_states():
    raw = {
        "states": [{"id": "t", "owner": "max"}, {"id": "u", "owner": "max"}],
        "actions": [{"id": "m", "reward": "0"}],
        "transitions": [
            {"from": "t", "action": "m", "to": "u", "prob": "1"},
            {"from": "u", "action": "m", "to": "u", "prob": "1"},
        ],
    }
    g = validate_game(raw)
    chain = induced_chain(g, pair_of({"t": "m", "u": "m"}, {}))
    assert unichain_stationary(chain).mass == (F(0), F(1))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shift=st.integers(min_value=-6, max_value=6),
)
def test_mean_shifts_with_constant_reward_offset(seed, shift):
    g = generate_game(small_config(seed))
    chain = induced_chain(g, first_pair(g))
    shifted = dataclasses.replace(chain, rewards=tuple(r + shift for r in chain.rewards))
    base = mean_values(chain).values
    moved = mean_values(shifted).values
    assert moved == tuple(x + shift for x in base)


def test_discounted_approaches_mean_near_one():
    # Mean payoff is the Abel limit of the normalized discounted values;
    # at beta = 1 - 1e-6 the float gap should be far below 1e-3.
    for seed in range(400, 410):
        cfg = GeneratorConfig(
            states=4,
            actions_per_state=(1, 2),
            transitions_per_action=(1, 3),
            reward_bound=5,
            denominator_bound=4,
            max_states_fraction=F(1, 2),
            seed=seed,
        )
        g = generate_game(cfg)
        chain = induced_chain(g, first_pair(g))
        near = discounted_values(chain, 1 - F(1, 10**6))
        exact = mean_values(chain)
        for a, b in zip(near.values, exact.values):
            assert abs(float(a) - float(b)) <= 1e-3


# ------------------------------------------------- stationary via recursion


def test_stationary_recursion_on_reset_two_cycle(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(1, 2), "a")
    chain = induced_chain(gb, g2_pair)
    mu = verify_stationary_recursion(chain, F(1, 2), "a")
    assert mu.mass == (F(2, 3), F(1, 3))


def test_stationary_recursion_beta_zero_is_point_mass(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(0), "a")
    chain = induced_chain(gb, g2_pair)
    mu = verify_stationary_recursion(chain, F(0), "a")
    assert mu.mass == (F(1), F(0))


def test_stationary_recursion_rejects_chain_without_reset_mass(g2, g2_pair):
    chain = induced_chain(g2, g2_pair)
    with pytest.raises(NotUnichain):
        verify_stationary_recursion(chain, F(1, 2), "a")


def test_stationary_recursion_rejects_unknown_start(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(1, 2), "a")
    chain = induced_chain(gb, g2_pair)
    with pytest.raises(UnknownState):
        verify_stationary_recursion(chain, F(1, 2), "zz")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]),
)
def test_stationary_recursion_matches_direct_stationary(seed, beta):
    g = generate_game(small_config(seed))
    s0 = g.state_order[seed % len(g.state_order)]
    gb, _ = beta_recurrent(g, beta, s0)
    chain = induced_chain(gb, first_pair(gb))
    mu = verify_stationary_recursion(chain, beta, s0)
    assert mu.mass == unichain_stationary(chain).mass


def _g2_evaluations(g2, g2_pair):
    """Every evaluation path on g2 at beta = 1/2, each from fresh chains."""
    beta = F(1, 2)
    gb, reduction = beta_recurrent(g2, beta, "a")
    return (discounted_values(induced_chain(g2, g2_pair), beta),
            mean_values(induced_chain(g2, g2_pair)),
            unichain_stationary(induced_chain(g2, g2_pair)),
            verify_stationary_recursion(induced_chain(gb, g2_pair), beta, "a"),
            strategy_iteration_discounted(g2, beta),
            verify_star2(gb, reduction))


def test_evaluation_never_reads_the_dense_matrix(monkeypatch, g2, g2_pair):
    expected = _g2_evaluations(g2, g2_pair)

    def refuse(chain):
        raise AssertionError("the dense transition matrix was read")

    monkeypatch.setattr(InducedChain, "matrix", property(refuse))
    with pytest.raises(AssertionError):
        induced_chain(g2, g2_pair).matrix
    assert _g2_evaluations(g2, g2_pair) == expected


# ------------------------------------------------------------- simulation


def test_simulate_constant_loop_is_exact(g1):
    pair = pair_of({"s0": "A"}, {})
    res = simulate_mean_payoff(g1, pair, "s0", horizon=50, plays=8, seed=0)
    assert res.estimate == 4.0
    assert res.stderr == 0.0


def test_simulate_two_cycle_near_zero(g2, g2_pair):
    res = simulate_mean_payoff(g2, g2_pair, "a", horizon=1000, plays=4, seed=1)
    assert abs(res.estimate) <= 1 / 1000
    assert res.stderr == 0.0


def test_simulate_is_deterministic_per_seed(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(1, 2), "a")
    a = simulate_mean_payoff(gb, g2_pair, "a", horizon=200, plays=16, seed=7)
    b = simulate_mean_payoff(gb, g2_pair, "a", horizon=200, plays=16, seed=7)
    c = simulate_mean_payoff(gb, g2_pair, "a", horizon=200, plays=16, seed=8)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)
    assert a.estimate != c.estimate


def test_simulate_rejects_unknown_start(g1):
    with pytest.raises(UnknownState):
        simulate_mean_payoff(g1, pair_of({"s0": "A"}, {}), "zz", 10, 1, 0)


@pytest.mark.parametrize("horizon, plays", [(0, 1), (10, 0), (-1, -1)])
def test_simulate_rejects_nonpositive_counts(g1, horizon, plays):
    with pytest.raises(ParseError) as info:
        simulate_mean_payoff(g1, pair_of({"s0": "A"}, {}), "s0", horizon, plays, 0)
    assert info.value.payload == {"horizon": horizon, "plays": plays}


def test_simulate_tracks_exact_mean_on_stochastic_chains():
    # Small version of the calibration run: estimates should land within
    # five standard errors of the exact optimal mean payoff.
    hits = 0
    for i, seed in enumerate(range(700, 706)):
        cfg = GeneratorConfig(
            states=(i % 3) + 3,
            actions_per_state=(1, 2),
            transitions_per_action=(3, 4),
            reward_bound=3,
            denominator_bound=3,
            max_states_fraction=F(1, 2),
            seed=seed,
        )
        g = generate_game(cfg)
        pair = first_pair(g)
        start = g.state_order[0]
        exact = mean_values(induced_chain(g, pair)).at(start)
        res = simulate_mean_payoff(g, pair, start, horizon=10_000, plays=100,
                                   seed=5000 + i)
        band = 5 * res.stderr if res.stderr > 0 else 1e-9
        if abs(res.estimate - float(exact)) <= band:
            hits += 1
    assert hits >= 5
