"""Criteria evaluation under fixed strategies.

Oracles here are computed independently of the implementation: closed-form
geometric sums, tiny stationary systems solved by hand, and Monte Carlo runs.
"""

import dataclasses
import itertools
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smpg import linalg
from smpg.errors import (
    GameError,
    InvalidBeta,
    NotUnichain,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumMismatch,
    UnknownState,
    rational_text,
)
from smpg.evaluate import (
    Distribution,
    ValueVector,
    _decomposition,
    attractor,
    common_rows,
    discounted_values,
    mean_values,
    recurrent_stationary,
    simulate_mean_payoff,
    stationary_residual,
    unichain_stationary,
)
from smpg.game import (
    MAX,
    MIN,
    InducedChain,
    enumerate_strategies,
    induced_chain,
    scale,
    validate_game,
)
from smpg.generate import GeneratorConfig, generate_game
from smpg.solvers import brute_force_solve, MEAN, strategy_iteration_discounted, verify_star2
from smpg.transforms import Reduction, beta_recurrent

from .conftest import checkout_env, pair_of
from .test_linalg import gauss_jordan


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


def two_loops_chain():
    """t moves to the self-loops u and w with mass 1/2 each: two classes."""
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
    return induced_chain(g, pair_of({"t": "m", "u": "m", "w": "m"}, {}))


def test_recurrent_decomposition_two_loops():
    chain = two_loops_chain()
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
TWO_CLASSES = ("t", "u", "w"), ((2, ((1, 1), (2, 1))), (1, ((1, 1),)), (1, ((2, 1),))), (F(0), F(1), F(2))
# t moves to u, which is absorbing: one class, no absorption system
ONE_CLASS = ("t", "u"), ((1, ((1, 1),)), (1, ((1, 1),))), (F(0), F(1))

def attempt(stage, chain=TWO_CLASSES):
    try:
        # a fresh chain each time: a chain keeps its decomposition
        evaluate.mean_values(InducedChain(*chain))
        print(stage, "accepted")
    except Exception as exc:
        print(stage, type(exc).__name__, str(exc))

# solve_scaled with y times factor on the systems with this many columns:
# one for a stationary distribution, one per class for absorption
def scaled_by(factor, columns):
    def solve_scaled(m, b):
        det, y = linalg.solve_scaled(m, b)
        if len(b[0]) == columns:
            y = [[factor * e for e in row] for row in y]
        return det, y
    return types.SimpleNamespace(solve_scaled=solve_scaled)

evaluate.linalg = scaled_by(-1, 1)
attempt("stationary")
evaluate.linalg = scaled_by(2, 2)
attempt("absorption")
evaluate.linalg = linalg
decompose = evaluate.recurrent_stationary
evaluate.recurrent_stationary = lambda chain: dataclasses.replace(decompose(chain), transient=())
attempt("gain")
attempt("one-class gain", ONE_CLASS)
print(__debug__)
"""


@pytest.mark.parametrize("flags, debug", [((), "True"), (("-O",), "False")])
def test_mean_invariants_survive_optimize_flag(flags, debug):
    """A negative stationary mass, absorption probabilities that do not sum
    to one and a state left without a gain, on a chain with two classes and
    on one with a single class, raise domain errors, also with asserts
    stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPTED_SOLVES],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "stationary ProbabilityOutOfRange mass -1 at 'u' outside [0, 1]",
        "absorption ProbabilitySumMismatch absorption from 't' sums to 2, not 1",
        "gain ProbabilitySumMismatch state 't' reaches no recurrent class",
        "one-class gain ProbabilitySumMismatch state 't' reaches no recurrent class",
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


def occupation(source_chain, beta, s0):
    """The one solution of the restart-occupation recursion mu = (1 - beta)
    e0 + beta Q^T mu, Q the source chain's matrix, e0 the point mass at
    index s0: (I - beta Q^T) mu = (1 - beta) e0, solved in Fractions."""
    q = source_chain.matrix
    n = len(q)
    system = [[F(i == j) - beta * q[j][i] for j in range(n)] for i in range(n)]
    return tuple(x for x, in gauss_jordan(system, [[(1 - beta) * (i == s0)] for i in range(n)]))


def test_stationary_recursion_on_reset_two_cycle(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(1, 2), "a")
    mu = occupation(induced_chain(g2, g2_pair), F(1, 2), 0)
    assert mu == unichain_stationary(induced_chain(gb, g2_pair)).mass == (F(2, 3), F(1, 3))


def test_stationary_recursion_beta_zero_is_point_mass(g2, g2_pair):
    gb, _ = beta_recurrent(g2, F(0), "a")
    mu = occupation(induced_chain(g2, g2_pair), F(0), 0)
    assert mu == unichain_stationary(induced_chain(gb, g2_pair)).mass == (F(1), F(0))


def test_stationary_recursion_rejects_chain_without_reset_mass(g2, g2_pair):
    """The recursion's solution is the law of the reset chain, not of the
    source chain, which has no reset mass: a and b swap, law (1/2, 1/2)."""
    chain = induced_chain(g2, g2_pair)
    assert occupation(chain, F(1, 2), 0) != unichain_stationary(chain).mass


def test_stationary_residual_is_zero_at_the_law_of_a_one_class_chain(g2, g2_pair):
    common, rows = common_rows(induced_chain(g2, g2_pair).rows)  # a and b swap: law (1/2, 1/2)
    for x in ([1, 1], [3, 3]):
        assert stationary_residual(common, 2, zip(range(2), x, rows)) == [0, 0]


def test_stationary_residual_is_not_zero_at_a_wrong_law(g2, g2_pair):
    common, rows = common_rows(induced_chain(g2, g2_pair).rows)
    assert any(stationary_residual(common, 2, zip(range(2), [2, 1], rows)))


def test_attractor_misses_the_other_closed_class():
    """On t -> {u, w} with self-loops at u and w, mass on u alone is
    stationary, so the residual is 0; w never reaches u, so only the
    attractor of u, which misses w, tells that the chain has a second
    closed class."""
    chain = two_loops_chain()
    common, rows = common_rows(chain.rows)
    assert stationary_residual(common, 3, zip(range(3), [0, 1, 0], rows)) == [0, 0, 0]
    assert attractor([[[j for j, _ in entries]] for _, entries in chain.rows], 1) == {0, 1}


def _reaching(succ, start):
    """The states whose forward breadth-first search over ``succ`` meets ``start``."""
    out = set()
    for origin in range(len(succ)):
        seen, frontier = {origin}, [origin]
        while frontier:
            frontier = [j for i in frontier for j in succ[i] if j not in seen]
            seen.update(frontier)
        if start in seen:
            out.add(origin)
    return out


successor_lists = st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
             min_size=n, max_size=n),
    st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(successor_lists)
def test_attractor_of_one_action_per_state_is_plain_reachability(chain):
    """With one action per state the attractor is the plain reverse search
    of the states that reach ``start``."""
    succ, start = chain
    assert attractor([[targets] for targets in succ], start) == _reaching(succ, start)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                      min_size=1, max_size=2), min_size=n, max_size=n),
    st.integers(0, n - 1))))
def test_attractor_is_where_every_choice_of_actions_reaches_start(menus):
    """A state is in the attractor exactly when the chain of every choice of
    one action per state reaches ``start`` from it."""
    menus, start = menus
    everywhere = set(range(len(menus)))
    for choice in itertools.product(*menus):
        everywhere &= _reaching(choice, start)
    assert attractor(menus, start) == everywhere


def test_value_vector_guards_its_length_and_its_states():
    with pytest.raises(UnknownState) as info:
        ValueVector(("a", "b", "c"), (F(0), F(1)))
    assert info.value.to_json_dict() == {"error": "UnknownState",
                                         "message": "2 values for 3 states", "states": 3}
    with pytest.raises(UnknownState) as info:
        ValueVector(("a",), (F(0),)).at("z")
    assert info.value.to_json_dict() == {"error": "UnknownState",
                                         "message": "no state 'z' in value vector", "state": "z"}


def test_both_value_vector_constructors_make_one_vector():
    """A vector made from its integer view, in lowest terms or not, equals
    the one made from its Fractions, with the same hash, repr and view, and
    makes no Fraction until read; its length is guarded alike."""
    states, values = ("a", "b", "c"), (F(-3, 4), F(5, 6), F(0))
    d, y = scale(values)
    for made in (ValueVector.from_scaled(states, d, y),
                 ValueVector.from_scaled(states, 7 * d, [7 * v for v in y])):
        assert made.scaled == (d, y) and "values" not in made.__dict__
        plain = ValueVector(states, values)
        assert (made, hash(made), repr(made)) == (plain, hash(plain), repr(plain))
        assert made.scaled == plain.scaled
    with pytest.raises(UnknownState) as info:
        ValueVector.from_scaled(states, 1, (0, 1))
    assert info.value.payload == {"states": 3} and str(info.value) == "2 values for 3 states"


@st.composite
def discounted_chains(draw):
    """A chain on one to five states, rewards in [-5, 5] over denominators up
    to 12, and a beta in [0, 99/100] over denominators up to 100."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        targets = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        nums = [draw(st.integers(1, 6)) for _ in targets]
        rows.append((sum(nums), tuple(zip(targets, nums))))
    rewards = draw(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=n, max_size=n))
    beta = draw(st.fractions(0, F(99, 100), max_denominator=100))
    return InducedChain(tuple(f"s{i}" for i in range(n)), tuple(rows), tuple(rewards)), beta


@settings(max_examples=200, deadline=None)
@given(discounted_chains())
def test_discounted_integer_view_is_the_scale_of_its_values(drawn):
    """discounted_values keeps its integer view in lowest terms, that view
    is game.scale of its values, and the values solve (I - beta P) v =
    (1 - beta) r by a Fraction Gauss-Jordan reference."""
    chain, beta = drawn
    got = discounted_values(chain, beta)
    d, y = got.scaled
    assert d > 0 and gcd(d, *y) == 1
    assert got.scaled == scale(got.values)
    n = len(chain.rows)
    matrix = [[int(i == j) - beta * F(dict(entries).get(j, 0), den) for j in range(n)]
              for i, (den, entries) in enumerate(chain.rows)]
    assert [[v] for v in got.values] == gauss_jordan(matrix, [[(1 - beta) * r] for r in chain.rewards])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(0), F(1, 4), F(1, 2), F(9, 10)]),
)
def test_stationary_recursion_matches_direct_stationary(seed, beta):
    """The reset-chain occupation lemma: the stationary law of a pair's
    chain on the reset game is the recursion's solution on its source chain."""
    g = generate_game(small_config(seed))
    start = seed % len(g.state_order)
    gb, _ = beta_recurrent(g, beta, g.state_order[start])
    pair = first_pair(g)
    assert (occupation(induced_chain(g, pair), beta, start)
            == unichain_stationary(induced_chain(gb, pair)).mass)


def _g2_evaluations(g2, g2_pair):
    """Every evaluation path on g2 at beta = 1/2, each from fresh chains."""
    beta = F(1, 2)
    gb, reduction = beta_recurrent(g2, beta, "a")
    return (discounted_values(induced_chain(g2, g2_pair), beta),
            mean_values(induced_chain(g2, g2_pair)),
            unichain_stationary(induced_chain(g2, g2_pair)),
            unichain_stationary(induced_chain(gb, g2_pair)),
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


def test_simulate_row_whose_float_partial_sums_reach_one_early():
    # 1 - 10^-20 rounds to 1.0, so the cumulative row of s0 is [1.0, 1.0]:
    # every draw falls below its first entry and the walk never leaves s0
    assert float(1 - F(1, 10**20)) == 1.0
    game = validate_game({
        "states": [{"id": "s0", "owner": "max"}, {"id": "s1", "owner": "max"}],
        "actions": [{"id": "A", "reward": "2"}, {"id": "B", "reward": "-7"}],
        "transitions": [
            {"from": "s0", "action": "A", "to": "s0", "prob": f"{10**20 - 1}/{10**20}"},
            {"from": "s0", "action": "A", "to": "s1", "prob": f"1/{10**20}"},
            {"from": "s1", "action": "B", "to": "s1", "prob": "1"},
        ],
    })
    res = simulate_mean_payoff(game, pair_of({"s0": "A", "s1": "B"}, {}), "s0",
                               horizon=500, plays=8, seed=3)
    assert (res.estimate, res.stderr) == (2.0, 0.0)


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


# ----------------------------------------------- integer distributions


def fraction_guard(state_order, mass):
    """Distribution's guard from when it held Fraction masses, verbatim: the
    reference for the integer guard."""
    if len(state_order) != len(mass):
        raise ProbabilitySumMismatch(f"{len(mass)} masses for "
                                     f"{len(state_order)} states",
                                     states=len(state_order))
    for state, p in zip(state_order, mass):
        if not 0 <= p <= 1:
            raise ProbabilityOutOfRange(f"mass {rational_text(p)} at {state!r} outside [0, 1]",
                                        state=state, prob=p)
    total = sum(mass)
    if total != 1:
        raise ProbabilitySumMismatch(f"mass sums to {rational_text(total)}, not 1", total=total)


@st.composite
def scaled_distributions(draw):
    """(states, den, nums): a distribution over up to four states, scaled by
    a factor that may be negative or 1, then maybe with one numerator moved,
    and sometimes with a numerator too many or too few."""
    n = draw(st.integers(0, 4))
    den = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=max(n - 1, 0), max_size=max(n - 1, 0))))
    nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])][:n]
    factor = draw(st.sampled_from([1, 2, 3, 6, -1, -2, -5]))
    den, nums = factor * den, [factor * num for num in nums]
    if nums and draw(st.booleans()):
        nums[draw(st.integers(0, n - 1))] += draw(st.integers(-3 * abs(den), 3 * abs(den)))
    length = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    nums = (nums + [draw(st.integers(-20, 20))] * length)[:length]
    return tuple(f"s{i}" for i in range(n)), den, tuple(nums)


raw_distributions = st.tuples(
    st.integers(0, 4).map(lambda n: tuple(f"s{i}" for i in range(n))),
    st.integers(-30, 30).filter(bool),
    st.lists(st.integers(-40, 40), max_size=5).map(tuple))


def guard_outcome(build):
    try:
        result = build()
    except GameError as exc:
        return type(exc), str(exc), exc.payload, exc.to_json_dict()
    return "accepted", result


@settings(max_examples=400, deadline=None)
@given(drawn=st.one_of(scaled_distributions(), raw_distributions))
def test_integer_guard_matches_the_fraction_guard(drawn):
    """The integer guard gives the Fraction guard's verdict on num / den,
    with the same exception class, message and payload, and keeps what it
    accepts in lowest common terms."""
    states, den, nums = drawn
    mass = tuple(F(num, den) for num in nums)
    got = guard_outcome(lambda: Distribution(states, den, nums))
    expected = guard_outcome(lambda: fraction_guard(states, mass))
    if expected[0] != "accepted":
        assert got == expected
        return
    assert got[0] == "accepted"
    dist = got[1]
    assert dist.mass == mass and all(type(p) is F for p in dist.mass)
    assert dist.denominator > 0 and gcd(dist.denominator, *dist.numerators) == 1
    assert dist == Distribution(states, 7 * den, tuple(7 * num for num in nums))


def test_zero_denominator_is_out_of_range():
    with pytest.raises(ProbabilityOutOfRange) as raised:
        Distribution(("a",), 0, (0,))
    assert raised.value.payload == {"denominator": 0}


def reference_stationary(chain, members):
    """pi^T P = pi^T on one class with the last balance row replaced by
    sum(pi) = 1, in Fractions, solved by plain Gauss-Jordan."""
    pos = {i: a for a, i in enumerate(members)}
    k = len(members)
    a = [[F(0)] * k for _ in range(k)]
    for col, i in enumerate(members):
        a[col][col] -= 1
        den, entries = chain.rows[i]
        for j, num in entries:
            a[pos[j]][col] += F(num, den)
    a[-1] = [F(1)] * k
    return tuple(x for x, in gauss_jordan(a, [[0]] * (k - 1) + [[1]]))


def test_recurrent_stationary_matches_gauss_jordan():
    """Every class's stationary masses equal a Fraction Gauss-Jordan solve,
    on seeded chains with one action fan-out of 1 or 2, so that many of them
    split into several recurrent classes."""
    multichain = 0
    for seed in range(80):
        g = generate_game(GeneratorConfig(
            states=2 + seed % 5, actions_per_state=(1, 2), transitions_per_action=(1, 2),
            reward_bound=4, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
        chain = induced_chain(g, first_pair(g))
        dec = recurrent_stationary(chain)
        multichain += len(dec.classes) > 1
        for members, dist in zip(dec.classes, dec.stationary):
            assert dist.state_order == tuple(chain.state_order[i] for i in members)
            assert dist.mass == reference_stationary(chain, members)
    assert multichain >= 10


# ------------------------------------------------------ one-class chains


def parent_mean_values(chain: InducedChain) -> ValueVector:
    """mean_values from before one-class chains skipped the absorption
    system, verbatim: the reference for the fast path."""
    decomposition = _decomposition(chain)
    class_gains = []
    for members, dist in zip(decomposition.classes, decomposition.stationary):
        # sum(num_i r_i) / den as one integer sum over the lcm of the r_i denominators
        common, rewards = scale([chain.rewards[i] for i in members])
        total = sum(num * r for num, r in zip(dist.numerators, rewards))
        class_gains.append(F(total, dist.denominator * common))
    gains: list[F | None] = [None] * len(chain.state_order)
    home = {}
    for c, (members, gain) in enumerate(zip(decomposition.classes, class_gains)):
        for i in members:
            gains[i] = gain
            home[i] = c

    transient = decomposition.transient
    if transient:
        # absorption probabilities: (I - P_TT) X = B, one column per class,
        # each row times its denominator
        pos = {i: a for a, i in enumerate(transient)}
        matrix = []
        rhs_rows = []
        for a, i in enumerate(transient):
            den, entries = chain.rows[i]
            row = [0] * len(transient)
            row[a] = den
            into = [0] * len(class_gains)
            for j, num in entries:
                if j in pos:
                    row[pos[j]] -= num
                else:
                    into[home[j]] += num
            matrix.append(row)
            rhs_rows.append(into)
        det, y = linalg.solve_scaled(matrix, rhs_rows)
        # gain_i = sum_k y_ik g_k / det, over the lcm of the class gains' denominators
        common, scaled = scale(class_gains)
        for i, probs in zip(transient, y):
            total = sum(probs)
            if total != det:
                total = F(total, det)
                raise ProbabilitySumMismatch(
                    f"absorption from {chain.state_order[i]!r} sums to {rational_text(total)}, not 1",
                    state=chain.state_order[i], total=total)
            gains[i] = F(sum(p * g for p, g in zip(probs, scaled)), det * common)

    # by identity: ``None in gains`` would call Fraction.__eq__ on every gain
    state = next((s for s, g in zip(chain.state_order, gains) if g is None), None)
    if state is not None:
        raise ProbabilitySumMismatch(f"state {state!r} reaches no recurrent class", state=state)
    return ValueVector(chain.state_order, tuple(gains))


def pair_chains(g, limit=None):
    """The chains of g's strategy pairs, the first ``limit`` of them."""
    pairs = itertools.product(enumerate_strategies(g, MAX), enumerate_strategies(g, MIN))
    for smax, smin in itertools.islice(pairs, limit):
        yield induced_chain(g, pair_of(smax.choices, smin.choices))


def reduction_of(seed, states, beta):
    g = generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 2), transitions_per_action=(1, 3),
        reward_bound=4, denominator_bound=4, max_states_fraction=F(1, 2), seed=seed))
    return g, Reduction(g, beta, g.states[seed % states].id)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    states=st.integers(min_value=1, max_value=4),
    beta=st.sampled_from([F(0), F(1, 3), F(1, 2), F(9, 10)]),
)
def test_mean_values_match_the_absorption_reference(seed, states, beta):
    """On seeded games and on their reset and doubled games, mean_values
    equals the absorption-based reference on every chain, and its integer
    view equals game.scale of its values."""
    g, reduction = reduction_of(seed, states, beta)
    for game in (g, reduction.reset_game, reduction.doubled):
        for chain in pair_chains(game, limit=16):
            got = mean_values(chain)
            assert got == parent_mean_values(chain)
            assert got.scaled == scale(got.values)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([F(0), F(1, 3), F(9, 10)]),
)
def test_reduction_chains_have_one_recurrent_class(seed, beta):
    """Every strategy pair's chain on the reset game and on the doubled game
    has exactly one recurrent class: each state sends mass 1 - beta to a
    start state, and the starts reach each other."""
    _, reduction = reduction_of(seed, 2 + seed % 2, beta)
    for game in (reduction.reset_game, reduction.doubled):
        for chain in pair_chains(game):
            assert len(recurrent_stationary(chain).classes) == 1


def fraction_discounted_system(chain, beta):
    """The integer system discounted_values solves, from Fraction products:
    row i of I - beta P times c den_i, beta = b/c, and its right-hand side
    (1 - beta) r_i c den_i times T, the lcm of the reward denominators,
    every entry checked integral."""
    c, n = beta.denominator, len(chain.rows)
    common = lcm(*(r.denominator for r in chain.rewards))
    matrix, rhs_rows = [], []
    for i, ((den, entries), r) in enumerate(zip(chain.rows, chain.rewards)):
        p = {j: F(num, den) for j, num in entries}
        row = [(int(i == j) - beta * p.get(j, 0)) * c * den for j in range(n)]
        rhs = (1 - beta) * r * c * den * common
        assert all(x.denominator == 1 for x in (*row, rhs))
        matrix.append([x.numerator for x in row])
        rhs_rows.append([rhs.numerator])
    return matrix, rhs_rows


def reward_scaled_system(chain, beta):
    """The system discounted_values solved before it dropped each row's
    reward factor: each row's scale from the Fraction product t = (c - b)
    den r, kept as the reference for the values."""
    b, c = beta.numerator, beta.denominator
    matrix, rhs_rows = [], []
    for i, ((den, entries), r) in enumerate(zip(chain.rows, chain.rewards)):
        t = (c - b) * den * r
        row = [0] * len(chain.rows)
        for j, num in entries:
            row[j] = -b * num * t.denominator
        row[i] += c * den * t.denominator
        matrix.append(row)
        rhs_rows.append([t.numerator])
    return matrix, rhs_rows


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    states=st.integers(min_value=1, max_value=4),
    # 0; 1/2, 1/3 and 3/4, whose c - b or c share a factor with rewards over 2, 3 and 4
    beta=st.sampled_from([F(0), F(1, 2), F(1, 3), F(3, 4), F(9, 10)]),
)
@example(seed=1, states=3, beta=F(0))
@example(seed=1, states=3, beta=F(1, 3))
@example(seed=1, states=3, beta=F(1, 2))
def test_discounted_system_is_the_fraction_products_integers(seed, states, beta):
    """On seeded games and their reset and doubled games (whose second copy
    negates every reward), discounted_values hands linalg.solve_scaled
    exactly the matrix and right-hand side the Fraction products give, and
    its values solve the system it solved before (``reward_scaled_system``)."""
    g, reduction = reduction_of(seed, states, beta)
    negative = shared = False
    seen = []
    solve = linalg.solve_scaled

    def solve_scaled(matrix, rhs_rows):
        seen.append((matrix, rhs_rows))
        return solve(matrix, rhs_rows)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("smpg.evaluate.linalg.solve_scaled", solve_scaled)
        for game in (g, reduction.reset_game, reduction.doubled):
            for chain in pair_chains(game, limit=8):
                seen.clear()
                got = discounted_values(chain, beta)
                assert seen == [fraction_discounted_system(chain, beta)]
                assert [[v] for v in got.values] == gauss_jordan(*reward_scaled_system(chain, beta))
                negative |= any(r < 0 for r in chain.rewards)
                shared |= any(gcd(r.denominator, beta.denominator) > 1 for r in chain.rewards)
    if (seed, states, beta) == (1, 3, F(1, 2)):  # rewards -3/4: both are reached
        assert negative and shared


def counted_solves(monkeypatch, chain, evaluation=mean_values):
    """The right-hand-side column counts of the eliminations that
    ``evaluation(chain)`` runs."""
    calls = []
    solve = linalg.solve_scaled

    def solve_scaled(matrix, rhs_rows):
        calls.append(len(rhs_rows[0]))
        return solve(matrix, rhs_rows)

    monkeypatch.setattr("smpg.evaluate.linalg.solve_scaled", solve_scaled)
    evaluation(chain)
    return calls


def test_one_class_chain_solves_only_its_stationary_system(monkeypatch):
    # t moves to the absorbing u: one stationary solve, no absorption system
    chain = InducedChain(("t", "u"), ((1, ((1, 1),)), (1, ((1, 1),))), (F(0), F(3, 2)))
    assert counted_solves(monkeypatch, chain) == [1]
    assert mean_values(chain).values == (F(3, 2), F(3, 2))


def test_two_class_chain_solves_two_stationary_and_one_absorption_system(monkeypatch):
    assert counted_solves(monkeypatch, two_loops_chain()) == [1, 1, 2]
