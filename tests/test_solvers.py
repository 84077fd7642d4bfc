"""Solving, recovery, and the two verification drivers."""

from fractions import Fraction as F
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smpg.evaluate
import smpg.solvers
from smpg.errors import (
    CombinatorialLimitExceeded,
    DeterminacyViolation,
    InconsistentValues,
    InvalidBeta,
    NoConsistentStrategy,
    UnknownState,
)
from smpg.evaluate import ValueVector, mean_values
from smpg.game import (
    MAX,
    MIN,
    StrategyPair,
    enumerate_strategies,
    game_to_json_dict,
    induced_chain,
    validate_game,
)
from smpg.generate import GeneratorConfig, generate_game
from smpg.solvers import (
    Certificate,
    DISCOUNTED,
    MEAN,
    Solution,
    brute_force_solve,
    evaluate_pair,
    greedy_recovery_discounted,
    reference_recovery_oracle,
    strategic_via_recovery,
    strategy_iteration_discounted,
    verify_star,
    verify_star2,
    _first_extreme,
    _Lookahead,
)
from smpg.transforms import beta_recurrent, decompose_mirror_strategies, mirror

from .conftest import pair_of


def test_brute_force_loop_choice_mean(g1b):
    sol = brute_force_solve(g1b, MEAN)
    assert sol.values.as_dict() == {"s0": F(4)}
    assert sol.optimal_pair.max_strategy.choices == {"s0": "A"}
    assert sol.certificate.lower == sol.certificate.upper == (F(4),)


def test_brute_force_loop_choice_discounted(g1b):
    sol = brute_force_solve(g1b, DISCOUNTED, beta=F(1, 2))
    assert sol.values.as_dict() == {"s0": F(4)}
    assert sol.beta == F(1, 2)


def test_brute_force_two_cycle(g2):
    assert brute_force_solve(g2, MEAN).values.values == (F(0), F(0))
    sol = brute_force_solve(g2, DISCOUNTED, beta=F(1, 2))
    assert sol.values.as_dict() == {"a": F(1, 3), "b": F(-1, 3)}


def test_brute_force_requires_beta_for_discounted(g2):
    with pytest.raises(InvalidBeta):
        brute_force_solve(g2, DISCOUNTED)


def test_brute_force_respects_pair_cap(g1b):
    with pytest.raises(CombinatorialLimitExceeded):
        brute_force_solve(g1b, MEAN, cap=1)


def test_solution_rejects_mismatched_certificate(g1b):
    values = ValueVector(("s0",), (F(4),))
    pair = pair_of({"s0": "A"}, {})
    cert = Certificate(("s0",), (F(3),), (F(4),))
    with pytest.raises(DeterminacyViolation):
        Solution(MEAN, None, values, pair, cert)


def test_mismatched_certificate_past_digit_limit_is_still_a_violation(g1b):
    # a value too long to write out must not turn the violation into a
    # formatting error; the payload carries the digit count instead
    huge = F(10**5000 + 1, 3)
    values = ValueVector(("s0",), (huge,))
    pair = pair_of({"s0": "A"}, {})
    cert = Certificate(("s0",), (F(3),), (huge,))
    with pytest.raises(DeterminacyViolation) as info:
        Solution(MEAN, None, values, pair, cert)
    assert info.value.payload["digits"] == 5001


def test_evaluate_pair_dispatches_and_validates(g1b):
    pair = pair_of({"s0": "B"}, {})
    assert evaluate_pair(g1b, pair, MEAN).values == (F(0),)
    assert evaluate_pair(g1b, pair, DISCOUNTED, beta=F(1, 2)).values == (F(0),)
    with pytest.raises(InvalidBeta):
        evaluate_pair(g1b, pair, DISCOUNTED)
    with pytest.raises(ValueError):
        evaluate_pair(g1b, pair, "average")


def test_strategy_iteration_on_fixtures(g1b, g2):
    sol = strategy_iteration_discounted(g1b, F(1, 2))
    assert sol.values.as_dict() == {"s0": F(4)}
    assert sol.optimal_pair.max_strategy.choices == {"s0": "A"}
    sol2 = strategy_iteration_discounted(g2, F(1, 2))
    assert sol2.values.as_dict() == {"a": F(1, 3), "b": F(-1, 3)}


def test_strategy_iteration_matches_brute_force_on_seeded_games():
    for seed in range(40, 55):
        cfg = GeneratorConfig(
            states=(seed % 4) + 1,
            actions_per_state=(1, 3),
            transitions_per_action=(1, 3),
            reward_bound=4,
            denominator_bound=4,
            max_states_fraction=F(1, 2),
            seed=seed,
        )
        g = generate_game(cfg)
        for beta in (F(1, 2), F(9, 10)):
            si = strategy_iteration_discounted(g, beta)
            bf = brute_force_solve(g, DISCOUNTED, beta=beta)
            assert si.values.values == bf.values.values


def test_greedy_recovery_picks_improving_loop(g1b):
    claimed = ValueVector(("s0",), (F(4),))
    pair = greedy_recovery_discounted(g1b, F(1, 2), claimed)
    assert pair.max_strategy.choices == {"s0": "A"}
    assert pair.min_strategy.choices == {}


def test_greedy_recovery_rejects_wrong_values(g1b):
    with pytest.raises(InconsistentValues):
        greedy_recovery_discounted(g1b, F(1, 2), ValueVector(("s0",), (F(3),)))
    with pytest.raises(InconsistentValues) as info:
        greedy_recovery_discounted(g1b, F(1, 2), ValueVector(("s0",), (F(10**5000 + 1, 3),)))
    report = info.value.to_json_dict()
    assert report["claimed"] == "<a rational with 5001 digits>"
    assert report["message"] == ("greedy pair re-evaluates to 4 at 's0', "
                                 "claimed <a rational with 5001 digits>")


def test_greedy_recovery_rejects_unknown_state(g1b):
    with pytest.raises(UnknownState):
        greedy_recovery_discounted(g1b, F(1, 2), ValueVector(("zz",), (F(4),)))


def test_greedy_recovery_reproduces_optimal_play_on_seeded_games():
    for seed in range(60, 72):
        cfg = GeneratorConfig(
            states=(seed % 3) + 1,
            actions_per_state=(1, 3),
            transitions_per_action=(1, 3),
            reward_bound=4,
            denominator_bound=4,
            max_states_fraction=F(1, 2),
            seed=seed,
        )
        g = generate_game(cfg)
        bf = brute_force_solve(g, DISCOUNTED, beta=F(2, 3))
        pair = greedy_recovery_discounted(g, F(2, 3), bf.values)
        got = evaluate_pair(g, pair, DISCOUNTED, beta=F(2, 3))
        assert got.values == bf.values.values


def test_reference_oracle_finds_first_consistent_pair(g1b):
    pair = reference_recovery_oracle(g1b, ValueVector(("s0",), (F(4),)))
    assert pair.max_strategy.choices == {"s0": "A"}


def test_reference_oracle_rejects_unattained_values(g1b):
    with pytest.raises(NoConsistentStrategy):
        reference_recovery_oracle(g1b, ValueVector(("s0",), (F(7),)))
    # a claim too long to write out is still reported as unattained
    with pytest.raises(NoConsistentStrategy) as info:
        reference_recovery_oracle(g1b, ValueVector(("s0",), (F(1, 10**5000),)))
    assert info.value.payload == {"claimed": ["<a rational with 5001 digits>"]}


def test_reference_oracle_requires_a_saddle_point(g1b):
    # In the doubled loop-choice game the pair (A, B') attains mean 2
    # everywhere, but MIN improves by switching to A', so a claim of 2 has
    # a value-matching pair and still no equilibrium witness.
    gb, tm = beta_recurrent(g1b, F(1, 2), "s0")
    doubled, _ = mirror(gb, tm)
    attained = mean_values(induced_chain(
        doubled, pair_of({"s01": "A"}, {"s02": "B'"}))).values
    assert attained == (F(2), F(2))
    with pytest.raises(NoConsistentStrategy):
        reference_recovery_oracle(doubled,
                                  ValueVector(doubled.state_order, attained))


def test_verify_star_two_cycle(g2):
    report = verify_star(g2, F(1, 2), "a")
    assert report.pairs_checked == 1
    assert report.violations == ()
    assert report.value == F(1, 3)
    assert report.ok


def test_verify_star_respects_cap(g1b):
    with pytest.raises(CombinatorialLimitExceeded):
        verify_star(g1b, F(1, 2), "s0", cap=1)


def test_verify_star2_two_cycle(g2):
    gb, tm = beta_recurrent(g2, F(1, 2), "a")
    report = verify_star2(gb, tm)
    assert report.pairs_checked == 1
    assert report.violations == ()
    assert report.value == F(0)


def test_strategic_via_recovery_on_fixtures(g1b, g2):
    sol = strategic_via_recovery(g1b, F(1, 2), reference_recovery_oracle)
    assert sol.criterion == MEAN
    assert sol.beta == F(1, 2)
    assert sol.values.as_dict() == {"s0": F(4)}
    assert sol.optimal_pair.max_strategy.choices == {"s0": "A"}
    # the recovered pair is reported with its mean payoff, which for the
    # two-cycle is zero from both ends
    sol2 = strategic_via_recovery(g2, F(1, 2), reference_recovery_oracle)
    assert sol2.values.as_dict() == {"a": F(0), "b": F(0)}
    assert sol2.values.values == brute_force_solve(g2, MEAN).values.values


def test_strategic_via_recovery_reports_each_stage(g2):
    seen = []

    def spy(state, reduction, witness, value):
        seen.append((state, len(reduction.doubled.state_order), value))

    strategic_via_recovery(g2, F(1, 2), reference_recovery_oracle,
                           on_stage=spy)
    assert [(s, n) for s, n, _ in seen] == [("a", 4), ("b", 4)]
    assert [v for _, _, v in seen] == [F(1, 3), F(-1, 3)]


def test_brute_force_missing_beta_says_so(g2):
    with pytest.raises(InvalidBeta) as info:
        brute_force_solve(g2, DISCOUNTED)
    assert str(info.value) == "discounted criterion needs a beta"
    assert info.value.payload == {"beta": None}


def _choices_key(pair):
    return (tuple(sorted(pair.max_strategy.choices.items())),
            tuple(sorted(pair.min_strategy.choices.items())))


def _three_state_game():
    return generate_game(GeneratorConfig(
        states=3, actions_per_state=(2, 2), transitions_per_action=(1, 3),
        reward_bound=5, denominator_bound=6, max_states_fraction=F(1, 2), seed=7))


@pytest.mark.parametrize("make_game", [
    pytest.param(lambda g2: g2, id="g2"),
    pytest.param(lambda g2: _three_state_game(), id="three-states"),
])
def test_verify_star2_builds_and_decomposes_each_chain_once(monkeypatch, g2, make_game):
    game = make_game(g2)
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    expected = verify_star2(gb, reduction)

    built = []  # (game, pair, chain); holding the chains keeps their ids unique
    decomposed = []
    real_chain = smpg.solvers.induced_chain
    real_decompose = smpg.evaluate.recurrent_stationary

    def spy_chain(on, pair):
        chain = real_chain(on, pair)
        built.append((on, pair, chain))
        return chain

    def spy_decompose(chain):
        decomposed.append(chain)
        return real_decompose(chain)

    monkeypatch.setattr(smpg.solvers, "induced_chain", spy_chain)
    monkeypatch.setattr(smpg.evaluate, "recurrent_stationary", spy_decompose)
    report = verify_star2(gb, reduction)
    assert report == expected

    doubled_pairs = [pair for on, pair, _ in built if on is reduction.doubled]
    source_pairs = [pair for on, pair, _ in built if on is gb]
    assert len(doubled_pairs) + len(source_pairs) == len(built)
    assert len(doubled_pairs) == report.pairs_checked
    # one gb chain per distinct source pair the doubled pairs restrict to
    restricted = {_choices_key(half) for pair in doubled_pairs
                  for half in decompose_mirror_strategies(pair, reduction)}
    assert sorted(_choices_key(p) for p in source_pairs) == sorted(restricted)
    # every chain built is decomposed, and exactly once
    assert sorted(map(id, decomposed)) == sorted(id(chain) for _, _, chain in built)


def _full_table_selection(game, criterion, beta):
    """Reference for the pair scan, computed from the whole value table and
    its row minima and column maxima: brute force's pair (first row at the
    lower value, first column at the upper value) and the oracle's rule
    (first pair in row order with entry == claim == row_min[i] == col_max[j]).
    None stands for the error each solver raises."""
    max_strats = list(enumerate_strategies(game, MAX))
    min_strats = list(enumerate_strategies(game, MIN))
    table = [[evaluate_pair(game, StrategyPair(sigma, tau), criterion, beta).values
              for tau in min_strats] for sigma in max_strats]
    n = len(game.states)
    row_min = [tuple(min(entry[s] for entry in row) for s in range(n)) for row in table]
    col_max = [tuple(max(row[j][s] for row in table) for s in range(n))
               for j in range(len(min_strats))]

    lower = tuple(max(row[s] for row in row_min) for s in range(n))
    upper = tuple(min(col[s] for col in col_max) for s in range(n))
    best_max = next((i for i, row in enumerate(row_min) if row == lower), None)
    best_min = next((j for j, col in enumerate(col_max) if col == upper), None)
    brute_force = None
    if lower == upper and best_max is not None and best_min is not None:
        brute_force = (lower, StrategyPair(max_strats[best_max], min_strats[best_min]))

    def oracle(claim):
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                if entry == claim and entry == row_min[i] and entry == col_max[j]:
                    return StrategyPair(max_strats[i], min_strats[j])
        return None

    return brute_force, table[0][0], oracle


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=3),
    doubled=st.booleans(),
    discounted=st.sampled_from([None, F(1, 2), F(9, 10)]),
)
def test_pair_scan_selects_as_the_full_table(seed, states, doubled, discounted):
    game = generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 3), transitions_per_action=(1, 3),
        reward_bound=4, denominator_bound=4, max_states_fraction=F(1, 2), seed=seed))
    if doubled and states < 3:
        # the kind of game the pipeline hands its oracle
        game, _ = mirror(*beta_recurrent(game, F(1, 2), game.state_order[0]))

    criterion = MEAN if discounted is None else DISCOUNTED
    expected, first_values, oracle = _full_table_selection(game, criterion, discounted)
    try:
        solution = brute_force_solve(game, criterion, discounted)
        got = (solution.values.values, solution.optimal_pair)
    except DeterminacyViolation:
        got = None
    assert got == expected

    if criterion == DISCOUNTED:
        _, first_values, oracle = _full_table_selection(game, MEAN, None)
    truth = brute_force_solve(game, MEAN).values.values
    perturbed = (truth[0] + F(1, 7),) + truth[1:]
    for claim in (truth, perturbed, first_values):
        try:
            got = reference_recovery_oracle(game, ValueVector(game.state_order, claim))
        except NoConsistentStrategy:
            got = None
        assert got == oracle(claim)


def _with_tied_copies(game):
    """The game with a copy of every action under the id ``<id>~``: the same
    reward and transitions, so every action ties with its copy, and the two
    sit apart in sorted order when other actions come between them."""
    raw = game_to_json_dict(game)
    raw["actions"] += [{**a, "id": a["id"] + "~"} for a in raw["actions"]]
    raw["transitions"] += [{**t, "action": t["action"] + "~"} for t in raw["transitions"]]
    return validate_game(raw)


def _reference_lookahead(game, beta, values, state, maximize):
    """The first action in sorted order with the extreme Fraction q, and q."""
    best = None
    for action in game.available_actions[state]:
        q = (1 - beta) * game.actions[action] + beta * sum(
            (p * values[game.state_index[t]] for t, p in game.outgoing[(state, action)]), F(0))
        if best is None or (q > best[1] if maximize else q < best[1]):
            best = (action, q)
    return best


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=6),
    beta=st.sampled_from([F(0), F(1, 2), F(99, 100)]),
    ties=st.booleans(),
    data=st.data(),
)
def test_integer_lookahead_matches_fraction_reference(seed, states, beta, ties, data):
    game = generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 3), transitions_per_action=(1, 3),
        reward_bound=5, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
    if ties:
        game = _with_tied_copies(game)
    values = tuple(data.draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=10**12),
        min_size=states, max_size=states)))
    lookahead = _Lookahead(game, beta)
    d, y = lookahead.scale(values)
    assert [F(yj, d) for yj in y] == list(values)
    for state in game.state_order:
        q = lookahead.q(state, (d, y))
        unit = lookahead.unit[state] * d
        assert list(q) == list(game.available_actions[state])
        for maximize in (True, False):
            action, reference_q = _reference_lookahead(game, beta, values, state, maximize)
            chosen = _first_extreme(q, maximize)
            assert (chosen, F(q[chosen], unit)) == (action, reference_q)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=4),
    beta=st.sampled_from([F(0), F(1, 3), F(9, 10), F(99, 100)]),
)
def test_strategy_iteration_values_equal_brute_force(seed, states, beta):
    game = generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 3), transitions_per_action=(1, 3),
        reward_bound=5, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
    si = strategy_iteration_discounted(game, beta)
    assert si.values == brute_force_solve(game, DISCOUNTED, beta).values
    assert evaluate_pair(game, si.optimal_pair, DISCOUNTED, beta) == si.values


def test_strategy_iteration_certificate_catches_shifted_values(monkeypatch, g2):
    """Values shifted by a constant k move every q by beta k, so strategy
    iteration switches as before; the one-step equations v = q no longer
    hold (v moves by k), and the certificate must say so."""
    real = smpg.solvers.discounted_values
    monkeypatch.setattr(
        smpg.solvers, "discounted_values",
        lambda chain, beta: ValueVector(chain.state_order,
                                        tuple(v + 1 for v in real(chain, beta).values)))
    with pytest.raises(DeterminacyViolation) as info:
        strategy_iteration_discounted(g2, F(1, 2))
    # true values 1/3 at a, -1/3 at b; q(X) = 1/2 * 1 + 1/2 * (-1/3 + 1)
    assert info.value.payload == {"state": "a", "value": F(4, 3), "one_step": F(5, 6)}


def _seeded_40_state_game():
    return generate_game(GeneratorConfig(
        states=40, actions_per_state=(2, 3), transitions_per_action=(2, 4),
        reward_bound=5, denominator_bound=6, max_states_fraction=F(1, 2), seed=0))


@pytest.mark.parametrize("make_game, beta, evaluations", [
    pytest.param(lambda g2: g2, F(1, 2), 1, id="g2"),
    # the evaluation count before each pair was evaluated once: 12
    pytest.param(lambda g2: _seeded_40_state_game(), F(99, 100), 9, id="40-states"),
])
def test_strategy_iteration_evaluates_each_pair_once(monkeypatch, g2, make_game, beta,
                                                     evaluations):
    game = make_game(g2)
    rows = []
    real = smpg.solvers.discounted_values

    def spy(chain, beta):
        rows.append(chain.rows)
        return real(chain, beta)

    monkeypatch.setattr(smpg.solvers, "discounted_values", spy)
    solution = strategy_iteration_discounted(game, beta)
    assert all(before != after for before, after in zip(rows, rows[1:]))
    assert len(rows) == evaluations
    assert rows[-1] == induced_chain(game, solution.optimal_pair).rows


def test_strategy_iteration_raises_on_a_repeated_pair(monkeypatch):
    """A lookahead that alternates between the two loops of a one-state game
    makes the switch rule cycle; strategy iteration must raise, not hang."""
    game = validate_game({
        "states": [{"id": "s", "owner": "max"}],
        "actions": [{"id": "A", "reward": "0"}, {"id": "B", "reward": "1"}],
        "transitions": [{"from": "s", "action": "A", "to": "s", "prob": "1"},
                        {"from": "s", "action": "B", "to": "s", "prob": "1"}],
    })
    picks = cycle(["B", "A"])
    calls = []

    def alternate(q, maximize):
        calls.append(q)
        if len(calls) > 10:  # fail the test rather than hang it
            raise AssertionError("strategy iteration kept switching")
        return next(picks)

    monkeypatch.setattr(smpg.solvers, "_first_extreme", alternate)
    with pytest.raises(DeterminacyViolation) as info:
        strategy_iteration_discounted(game, F(1, 2))
    assert info.value.payload == {"max": {"s": "A"}, "min": {}}
    assert len(calls) == 2


def _small_generated_game(seed, states):
    return generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 2), transitions_per_action=(1, 3),
        reward_bound=4, denominator_bound=4, max_states_fraction=F(1, 2), seed=seed))


small_reductions = given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=3),
    beta=st.sampled_from([F(0), F(1, 3), F(9, 10)]),
)


@settings(max_examples=40, deadline=None)
@small_reductions
def test_verify_star_holds_from_every_start(seed, states, beta):
    game = _small_generated_game(seed, states)
    for s0 in game.state_order:
        assert verify_star(game, beta, s0).violations == ()


@settings(max_examples=40, deadline=None)
@small_reductions
def test_verify_star2_holds_on_every_reset_game(seed, states, beta):
    game = _small_generated_game(seed, states)
    for s0 in game.state_order:
        assert verify_star2(*beta_recurrent(game, beta, s0)).violations == ()


@settings(max_examples=40, deadline=None)
@small_reductions
def test_pipeline_assembles_the_brute_force_discounted_values(seed, states, beta):
    game = _small_generated_game(seed, states)
    assembled = []
    strategic_via_recovery(game, beta, reference_recovery_oracle,
                           on_stage=lambda state, reduction, witness, value:
                           assembled.append(value))
    assert tuple(assembled) == brute_force_solve(game, DISCOUNTED, beta).values.values
