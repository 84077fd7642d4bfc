"""Solving, recovery, and the two verification drivers."""

import gc
import json
import weakref
from collections import Counter
from fractions import Fraction as F
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smpg.evaluate
import smpg.game
import smpg.solvers
import smpg.transforms
from smpg.errors import (
    CombinatorialLimitExceeded,
    DeterminacyViolation,
    GameError,
    InconsistentValues,
    InvalidBeta,
    NoConsistentStrategy,
    NotUnichain,
    StrategyDomainMismatch,
    UnknownState,
)
from smpg.evaluate import (
    Distribution,
    ValueVector,
    mean_values,
    stationary_residual,
    unichain_stationary,
)
from smpg.game import (
    DEFAULT_ENUMERATION_CAP,
    MAX,
    MIN,
    Game,
    State,
    StrategyPair,
    build_game,
    enumerate_strategies,
    format_rational,
    game_to_json_dict,
    induced_chain,
    pair_actions,
    scale,
    strategy_pair_to_json_dict,
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
    _aligned,
    _first_extreme,
    _Lookahead,
    _mirror,
    _source,
    _star2_scan,
    _with_parts,
)
from smpg.serialize import canonical_dumps, report_to_json_dict
from smpg.transforms import Reduction, beta_recurrent, decompose_mirror_strategies, mirror

from .conftest import pair_of
from .test_acceptance import mirror_instances


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


def _independent_last_state_game():
    """a and b swap through X and Y (a may also loop on W); c plays Z to a
    or to itself.  Nothing reaches c, so its value moves no other state's
    one-step lookahead.  True values at beta = 1/2: 1/3, -1/3 and 13/9."""
    return validate_game({
        "states": [{"id": "a", "owner": "max"}, {"id": "b", "owner": "min"},
                   {"id": "c", "owner": "max"}],
        "actions": [{"id": "W", "reward": "0"}, {"id": "X", "reward": "1"},
                    {"id": "Y", "reward": "-1"}, {"id": "Z", "reward": "2"}],
        "transitions": [{"from": "a", "action": "W", "to": "a", "prob": "1"},
                        {"from": "a", "action": "X", "to": "b", "prob": "1"},
                        {"from": "b", "action": "Y", "to": "a", "prob": "1"},
                        {"from": "c", "action": "Z", "to": "a", "prob": "1/2"},
                        {"from": "c", "action": "Z", "to": "c", "prob": "1/2"}]})


def _count_discounted_solves(monkeypatch):
    calls = []
    real = smpg.solvers.discounted_values

    def spy(chain, beta):
        calls.append(chain)
        return real(chain, beta)

    monkeypatch.setattr(smpg.solvers, "discounted_values", spy)
    return calls


def test_greedy_recovery_certifies_true_values_without_a_solve(monkeypatch):
    game = _independent_last_state_game()
    calls = _count_discounted_solves(monkeypatch)
    pair = greedy_recovery_discounted(game, F(1, 2), ValueVector(game.state_order,
                                                                 (F(1, 3), F(-1, 3), F(13, 9))))
    assert strategy_pair_to_json_dict(pair) == {"max": {"a": "X", "c": "Z"}, "min": {"b": "Y"}}
    assert calls == []


def test_greedy_recovery_checks_the_last_state_too(monkeypatch):
    """The claim satisfies the one-step equations everywhere but at the last
    state: the pair is solved once, to report that state as before."""
    game = _independent_last_state_game()
    calls = _count_discounted_solves(monkeypatch)
    with pytest.raises(InconsistentValues) as info:
        greedy_recovery_discounted(game, F(1, 2), ValueVector(game.state_order,
                                                              (F(1, 3), F(-1, 3), F(22, 9))))
    assert info.value.to_json_dict() == {
        "error": "InconsistentValues", "message": "greedy pair re-evaluates to 13/9 at 'c', "
                                                  "claimed 22/9",
        "state": "c", "claimed": "22/9", "reevaluated": "13/9"}
    assert info.value.payload == {"state": "c", "claimed": F(22, 9), "reevaluated": F(13, 9)}
    assert len(calls) == 1


def test_strategy_iteration_certificate_checks_the_last_state_too(monkeypatch):
    """Values shifted at the last state only leave every switch as it was
    (nothing reaches c); the stop rule must still see the broken equation."""
    game = _independent_last_state_game()
    real = smpg.solvers.discounted_values
    monkeypatch.setattr(
        smpg.solvers, "discounted_values",
        lambda chain, beta: ValueVector(chain.state_order, tuple(
            v + (i == 2) for i, v in enumerate(real(chain, beta).values))))
    with pytest.raises(DeterminacyViolation) as info:
        strategy_iteration_discounted(game, F(1, 2))
    assert str(info.value) == "strategy iteration stopped at a non-equilibrium: state 'c'"
    # q(Z) = 1/2 * 2 + 1/2 * (1/2 * 1/3 + 1/2 * 22/9)
    assert info.value.payload == {"state": "c", "value": F(22, 9), "one_step": F(61, 36)}


def test_greedy_recovery_fails_when_a_faulty_solve_agrees_with_a_wrong_claim(monkeypatch):
    """A claim off the one-step equations is never the greedy pair's value;
    an evaluation that says it is anyway must still end in a domain error,
    never in a returned pair or a StopIteration."""
    game = _independent_last_state_game()
    claim = ValueVector(game.state_order, (F(1, 3), F(-1, 3), F(22, 9)))
    monkeypatch.setattr(smpg.solvers, "discounted_values", lambda chain, beta: claim)
    with pytest.raises(GameError) as info:
        greedy_recovery_discounted(game, F(1, 2), claim)
    assert isinstance(info.value, InconsistentValues)
    assert info.value.payload["state"] == "c"


def test_greedy_recovery_rejects_unknown_state(g1b):
    with pytest.raises(UnknownState):
        greedy_recovery_discounted(g1b, F(1, 2), ValueVector(("zz",), (F(4),)))


@pytest.mark.parametrize("recover", [
    pytest.param(lambda game, claim: greedy_recovery_discounted(game, F(1, 2), claim), id="greedy"),
    pytest.param(reference_recovery_oracle, id="oracle"),
])
@pytest.mark.parametrize("states, message, payload", [
    pytest.param(("a", "a", "b"), "claimed values repeat states ['a']", {"states": ["a"]},
                 id="repeated"),
    pytest.param(("b", "c", "a"), "claimed values missing states [], unknown states ['c']",
                 {"missing": [], "unknown": ["c"]}, id="extra"),
    pytest.param(("c", "b"), "claimed values missing states ['a'], unknown states ['c']",
                 {"missing": ["a"], "unknown": ["c"]}, id="missing-and-extra"),
])
def test_a_claim_in_another_order_names_each_state_once(g2, recover, states, message, payload):
    """A claim in another state order than the game's must hold each of the
    game's states once and no other: UnknownState names the states it
    repeats, or those it misses and those the game does not have."""
    claim = ValueVector(states, (F(5), F(1, 3), F(-1, 3))[:len(states)])
    with pytest.raises(UnknownState) as info:
        recover(g2, claim)
    assert info.value.to_json_dict() == {"error": "UnknownState", "message": message, **payload}


def test_an_aligned_claim_comes_back_as_itself(g2):
    """A claim already in the game's state order comes back as the same
    object, with its integer view if made; another order is rebuilt in
    the game's order."""
    claim = ValueVector(g2.state_order, (F(0), F(0)))
    assert _aligned(g2, claim) is claim
    swapped = _aligned(g2, ValueVector(("b", "a"), (F(2), F(1))))
    assert (swapped.state_order, swapped.values) == (("a", "b"), (F(1), F(2)))


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


def _doubled_three_state_game():
    """The mirrored double game of the three-state fixture at beta 1/2, with
    the all-zero claim the pipeline hands its oracle: 8 x 8 pairs."""
    game = _three_state_game()
    doubled, _ = mirror(*beta_recurrent(game, F(1, 2), game.state_order[0]))
    return doubled, ValueVector(doubled.state_order, (F(0),) * len(doubled.state_order))


def _count_pair_evaluations(monkeypatch):
    """The pairs solvers.evaluate_pair is called with from now on."""
    pairs = []
    real = smpg.solvers.evaluate_pair

    def spy(game, pair, *args):
        pairs.append(pair)
        return real(game, pair, *args)

    monkeypatch.setattr(smpg.solvers, "evaluate_pair", spy)
    return pairs


def test_reference_oracle_checks_the_cap_before_evaluating(monkeypatch):
    doubled, zero = _doubled_three_state_game()
    evaluated = _count_pair_evaluations(monkeypatch)
    with pytest.raises(CombinatorialLimitExceeded) as info:
        reference_recovery_oracle(doubled, zero, cap=63)
    assert evaluated == []
    assert info.value.to_json_dict() == {
        "error": "CombinatorialLimitExceeded", "message": "8 x 8 strategy pairs exceed cap 63",
        "count": 64, "cap": 63}
    # the pair scans raise the very same report
    with pytest.raises(CombinatorialLimitExceeded) as scan_info:
        brute_force_solve(doubled, MEAN, cap=63)
    assert scan_info.value.to_json_dict() == info.value.to_json_dict()


def test_reference_oracle_rejects_rows_and_columns_early(monkeypatch):
    """The oracle stops each row and column at its first counterexample:
    15 of the 64 pairs are evaluated, for the pair the full table picks."""
    doubled, zero = _doubled_three_state_game()
    _, _, oracle = _full_table_selection(doubled, MEAN, None)
    evaluated = _count_pair_evaluations(monkeypatch)
    assert reference_recovery_oracle(doubled, zero) == oracle(zero.values)
    assert len(evaluated) == 15


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


def test_verify_star2_violation_payloads(monkeypatch, g2):
    """A stationary distribution with half the first state's mass moved to
    the last state breaks the copy mass and the copy-stationary identity;
    the integer checks report the same violation dicts, byte for byte, as
    the Fraction checks they replaced."""
    real = smpg.solvers.unichain_stationary

    def shifted(chain):
        dist = real(chain)
        first, *middle, last = dist.numerators
        return Distribution(dist.state_order, 2 * dist.denominator,
                            (first, *(2 * num for num in middle), 2 * last + first))

    monkeypatch.setattr(smpg.solvers, "unichain_stationary", shifted)
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(*beta_recurrent(g2, F(1, 3), "a"))
    assert len(scanned) == 1  # the shifted laws fail the residual test
    pair = '"max": {"a1": "X", "b2": "Y\'"}, "min": {"a2": "X\'", "b1": "Y"}'
    assert json.dumps(list(report.violations)) == (
        '[{"kind": "component-mass", "copy": 1, "mass": "5/16", ' + pair + '}, '
        '{"kind": "component-mass", "copy": 2, "mass": "11/16", ' + pair + '}, '
        '{"kind": "copy-stationary", "copy": 1, "state": "b", "scaled": "1/4", '
        '"stationary": "5/8", ' + pair + '}, '
        '{"kind": "copy-stationary", "copy": 2, "state": "a", "scaled": "3/4", '
        '"stationary": "3/8", ' + pair + '}]')


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda g, pair: evaluate_pair(g, pair, DISCOUNTED), id="evaluate_pair"),
    pytest.param(lambda g, pair: brute_force_solve(g, DISCOUNTED), id="brute_force_solve"),
    pytest.param(lambda g, pair: strategy_iteration_discounted(g, None),
                 id="strategy_iteration_discounted"),
    pytest.param(lambda g, pair: greedy_recovery_discounted(
        g, None, ValueVector(g.state_order, (F(0), F(0)))), id="greedy_recovery_discounted"),
    pytest.param(lambda g, pair: beta_recurrent(g, None, "a"), id="beta_recurrent"),
    pytest.param(lambda g, pair: verify_star(g, None, "a"), id="verify_star"),
    pytest.param(lambda g, pair: strategic_via_recovery(g, None, reference_recovery_oracle),
                 id="strategic_via_recovery"),
])
def test_a_missing_beta_is_an_invalid_beta(g2, g2_pair, call):
    with pytest.raises(InvalidBeta) as info:
        call(g2, g2_pair)
    assert info.value.to_json_dict() == {
        "error": "InvalidBeta", "message": "discounted criterion needs a beta", "beta": None}


def test_brute_force_missing_beta_says_so(g2):
    with pytest.raises(InvalidBeta) as info:
        brute_force_solve(g2, DISCOUNTED)
    assert str(info.value) == "discounted criterion needs a beta"
    assert info.value.payload == {"beta": None}


def test_verify_star_reports_a_broken_reset_identity(monkeypatch, g2):
    """Discounted values shifted by 1/5 break the reset identity at the start state."""
    real = smpg.solvers.discounted_values

    def shifted(chain, beta):
        values = real(chain, beta)
        return ValueVector(values.state_order, tuple(v + F(1, 5) for v in values.values))

    monkeypatch.setattr(smpg.solvers, "discounted_values", shifted)
    report = verify_star(g2, F(1, 2), "a")
    assert json.dumps(list(report.violations)) == (
        '[{"kind": "reset-identity", "max": {"a": "X"}, "min": {"b": "Y"}, '
        '"mean_at_start": "1/3", "discounted_at_start": "8/15"}]')
    assert report.value == F(8, 15)


def _install_reset_rewards(game, beta, s0, rewards):
    """Put into what ``game`` keeps at (beta, s0) a reset game whose
    ``rewards`` (action id -> reward) replace the true ones, so every
    reduction check there reads it; the source game keeps its rewards."""
    reduction = Reduction(game, beta, s0)
    reset_game = reduction.reset_game
    edges = [(t.source, t.action, t.target, t.prob) for t in reset_game.transitions]
    reduction.kept["reset"] = build_game(reset_game.states, {**reset_game.actions, **rewards},
                                         edges)
    return reduction.kept["reset"]


def _poisson_rows_off(chain, beta, values, start):
    """The rows where g + h_i != r_i + sum_j P_ij h_j, with g = v(start) and
    h = v / (1 - beta), in Fractions."""
    g, h = values.values[start], [v / (1 - beta) for v in values.values]
    return [i for i, (row, r) in enumerate(zip(chain.matrix, chain.rewards))
            if g + h[i] != r + sum(p * hj for p, hj in zip(row, h))]


@pytest.mark.parametrize("action, row, mean_at_start", [
    pytest.param("Y", 1, "5/3", id="last-row"),  # stationary law (2/3, 1/3), rewards 1 and 3
    pytest.param("X", 0, "1", id="first-row"),  # rewards 2 and -1
])
def test_verify_star_solves_a_reset_chain_one_poisson_row_rejects(g2, action, row,
                                                                  mean_at_start):
    """A wrong reward at one state of the reset game breaks that state's
    row of the reset chain's Poisson equation alone, the first row or the
    last.  verify_star solves the reset chain it finds in what the fresh
    game keeps, so the violation is the one that solve finds, whichever
    row is off."""
    reset_game = _install_reset_rewards(g2, F(1, 2), "a", {action: F(row + 2)})
    pair = pair_of({"a": "X"}, {"b": "Y"})
    values = evaluate_pair(g2, pair, DISCOUNTED, F(1, 2))
    assert _poisson_rows_off(induced_chain(reset_game, pair), F(1, 2), values, 0) == [row]
    report = verify_star(g2, F(1, 2), "a")
    assert json.dumps(list(report.violations)) == (
        '[{"kind": "reset-identity", "max": {"a": "X"}, "min": {"b": "Y"}, '
        f'"mean_at_start": "{mean_at_start}", "discounted_at_start": "1/3"}}]')
    assert report.value == F(1, 3)


def _spy_mean_values(monkeypatch):
    """The chains solvers.mean_values solves from now on."""
    solved = []
    real = smpg.solvers.mean_values

    def spy(chain):
        solved.append(chain)
        return real(chain)

    monkeypatch.setattr(smpg.solvers, "mean_values", spy)
    return solved


def test_verify_star_solves_each_reset_chain_once(monkeypatch):
    """From each start state, verify_star alone solves the reset chain of
    each of the 8 source pairs once, into what the game keeps, and a
    verify_star2 after it at the same (beta, s0) solves no chain."""
    game = _three_state_game()
    solved = _spy_mean_values(monkeypatch)
    for s0 in game.state_order:
        solved.clear()
        assert verify_star(game, F(1, 3), s0).ok
        assert len({(chain.rows, chain.rewards) for chain in solved}) == len(solved) == 8
        assert verify_star2(*beta_recurrent(game, F(1, 3), s0)).ok
        assert len(solved) == 8


def test_pipeline_solves_no_doubled_chain(monkeypatch):
    """The oracle's doubled pairs and the copy-1 values come from the
    mirror certificate (``_mirror``) and the source memo: only reset-game
    chains, memoised, and the recovered pair's source chain are solved."""
    game = _three_state_game()
    expected = strategic_via_recovery(game, F(1, 3), reference_recovery_oracle)
    solved = _spy_mean_values(monkeypatch)
    assert strategic_via_recovery(game, F(1, 3), reference_recovery_oracle) == expected
    assert solved and {len(chain.state_order) for chain in solved} == {len(game.state_order)}


def _wrong_laws(monkeypatch):
    """Make solvers.unichain_stationary return a point mass where the true
    law is not one, so the mirror certificate's candidate law is wrong."""
    real = smpg.solvers.unichain_stationary

    def wrong(chain):
        dist = real(chain)
        at = next(i for i, num in enumerate(dist.numerators) if num != dist.denominator)
        return Distribution(dist.state_order, 1,
                            tuple(int(i == at) for i in range(len(chain.rows))))

    monkeypatch.setattr(smpg.solvers, "unichain_stationary", wrong)


@pytest.mark.parametrize("fault", [
    pytest.param(_wrong_laws, id="wrong-source-laws"),
    pytest.param(lambda monkeypatch: monkeypatch.setattr(
        smpg.solvers, "stationary_residual", lambda common, n, weighted: [1] * n),
        id="rejected-residual"),
])
def test_pipeline_oracle_falls_back_to_the_full_solve(monkeypatch, fault):
    """When the mirror certificate fails on every doubled pair, each pair the
    oracle tries is solved, on the chain ``_mirror`` makes from the
    double game's tables, and the pipeline finds the same witnesses, the
    same copy-1 values and the same solution.  Each run has its own equal
    game, since a game keeps its source memo from one run to the next."""
    game = _three_state_game()

    def run():
        stages = []
        solution = strategic_via_recovery(
            _three_state_game(), F(1, 3), reference_recovery_oracle,
            on_stage=lambda state, reduction, witness, value: stages.append((witness, value)))
        return stages, solution

    expected = run()
    fault(monkeypatch)
    built = []
    real_chain = smpg.solvers.InducedChain

    def spy_chain(*args):
        chain = real_chain(*args)
        if len(chain.state_order) > len(game.state_order):
            built.append(chain)
        return chain

    monkeypatch.setattr(smpg.solvers, "InducedChain", spy_chain)
    solved = _spy_mean_values(monkeypatch)
    assert run() == expected
    doubled_solved = [chain for chain in solved if len(chain.state_order) > len(game.state_order)]
    assert built and list(map(id, doubled_solved)) == list(map(id, built))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=3),
    beta=st.sampled_from([F(0), F(1, 2), F(9, 10)]),
)
def test_certificates_agree_with_the_solves_they_replace(seed, states, beta):
    """On every doubled pair the integer view ``_mirror`` gives is of the
    solved mean values; at beta 0 every reset row goes to s0 alone."""
    game = _small_generated_game(seed, states)
    for s0 in game.state_order:
        reduction = Reduction(game, beta, s0)
        doubled = reduction.doubled
        for sigma in enumerate_strategies(doubled, MAX):
            for tau in enumerate_strategies(doubled, MIN):
                pair = StrategyPair(sigma, tau)
                view = _mirror(reduction, tuple(pair_actions(doubled, pair)))[0]
                assert _view_values(view) == evaluate_pair(doubled, pair, MEAN).values


def _view_values(view):
    """The values an integer view (D, y = D v) stands for, with D > 0 checked."""
    d, y = view
    assert d > 0
    return tuple(F(v, d) for v in y)


def test_a_certified_doubled_pair_makes_no_value_vector(monkeypatch):
    """Once verify_star has filled the source memo at (beta, s0), neither
    verify_star2 there, through the records, nor the scan of its 64 doubled
    pairs, each certified, makes a ValueVector: the pair's values travel as
    an integer view."""
    game = _three_state_game()
    s0 = game.state_order[0]
    assert verify_star(game, F(1, 3), s0).ok
    made = []
    real = ValueVector.__post_init__

    def spy(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(smpg.evaluate.ValueVector, "__post_init__", spy)
    scanned = _spy_scan(monkeypatch)
    gb, reduction = beta_recurrent(game, F(1, 3), s0)
    report = verify_star2(gb, reduction)
    assert report.ok and report.pairs_checked == 64 and scanned == []
    assert _star2_scan(gb, reduction, DEFAULT_ENUMERATION_CAP) == report
    assert made == []


def _two_by_two_game():
    """A max state a and a min state b, each with two actions to the other."""
    return validate_game({
        "states": [{"id": "a", "owner": "max"}, {"id": "b", "owner": "min"}],
        "actions": [{"id": a, "reward": "0"} for a in ("X0", "X1", "Y0", "Y1")],
        "transitions": [{"from": s, "action": a, "to": t, "prob": "1"}
                        for s, t, actions in (("a", "b", ("X0", "X1")), ("b", "a", ("Y0", "Y1")))
                        for a in actions]})


def _tabled_evaluate_pair(monkeypatch, table):
    """Make solvers.evaluate_pair read the value of every pair of
    _two_by_two_game from ``table``, keyed by the pair's two actions."""
    def tabled(game, pair, criterion, beta=None):
        key = (pair.max_strategy.choices["a"], pair.min_strategy.choices["b"])
        return ValueVector(game.state_order, tuple(map(F, table[key])))

    monkeypatch.setattr(smpg.solvers, "evaluate_pair", tabled)


def test_brute_force_reports_a_game_without_a_value(monkeypatch):
    """Matching pennies: max-min 0 and min-max 1 at both states."""
    _tabled_evaluate_pair(monkeypatch, {("X0", "Y0"): (1, 1), ("X0", "Y1"): (0, 0),
                                        ("X1", "Y0"): (0, 0), ("X1", "Y1"): (1, 1)})
    with pytest.raises(DeterminacyViolation) as info:
        brute_force_solve(_two_by_two_game(), MEAN)
    assert info.value.to_json_dict() == {
        "error": "DeterminacyViolation", "message": "lower 0 != upper 1 at state a",
        "state": "a", "lower": "0", "upper": "1"}


def test_brute_force_reports_values_no_single_pair_attains(monkeypatch):
    """Each of the maximizer's strategies is best at one state only: the
    value (1, 1) exists, but no row attains it at both states."""
    _tabled_evaluate_pair(monkeypatch, {("X0", "Y0"): (1, 0), ("X0", "Y1"): (1, 0),
                                        ("X1", "Y0"): (0, 1), ("X1", "Y1"): (0, 1)})
    with pytest.raises(DeterminacyViolation) as info:
        brute_force_solve(_two_by_two_game(), MEAN)
    assert info.value.to_json_dict() == {
        "error": "DeterminacyViolation", "message": "no uniformly optimal strategy exists"}


def test_verify_star2_checks_each_pair_once(monkeypatch):
    """The 64 doubled pairs are enumerated as action tuples, valid by
    construction, so none is checked; nor is any of the 8 distinct source
    pairs, whose chains are built from their actions (Game.chain), and no
    double game is built."""
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    checked = []
    real = smpg.game.check_pair

    def spy(on, pair):
        checked.append(on)
        return real(on, pair)

    monkeypatch.setattr(smpg.game, "check_pair", spy)
    monkeypatch.setattr(smpg.transforms, "check_pair", spy)
    assert verify_star2(gb, reduction).ok
    assert "doubled" not in reduction.__dict__
    assert checked == []


def _three_state_game():
    return generate_game(GeneratorConfig(
        states=3, actions_per_state=(2, 2), transitions_per_action=(1, 3),
        reward_bound=5, denominator_bound=6, max_states_fraction=F(1, 2), seed=7))


@pytest.mark.parametrize("make_game", [
    pytest.param(lambda g2: validate_game(game_to_json_dict(g2)), id="g2"),
    pytest.param(lambda g2: _three_state_game(), id="three-states"),
])
def test_verify_star2_builds_and_decomposes_each_chain_once(monkeypatch, g2, make_game):
    """The doubled pairs are certified from the double game's tables, so no
    doubled chain is built or decomposed; each distinct source pair's chain
    is built once, from its actions (Game.chain), and decomposed once.  The
    spied run has its own equal game, since a game keeps its source memo
    from one run to the next."""
    game = make_game(g2)
    expected = verify_star2(*beta_recurrent(game, F(1, 3), game.state_order[0]))
    game = make_game(g2)
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])

    built = []  # (game, actions, chain); holding the chains keeps their ids unique
    decomposed = []
    real_chain = Game.chain
    real_decompose = smpg.evaluate.recurrent_stationary

    def spy_chain(on, actions):
        chain = real_chain(on, actions)
        built.append((on, actions, chain))
        return chain

    def spy_decompose(chain):
        decomposed.append(chain)
        return real_decompose(chain)

    monkeypatch.setattr(Game, "chain", spy_chain)
    monkeypatch.setattr(smpg.evaluate, "recurrent_stationary", spy_decompose)
    report = verify_star2(gb, reduction)
    assert report == expected

    source_pairs = [actions for on, actions, _ in built if on is gb]
    assert len(source_pairs) == len(built)  # no doubled chain
    # one gb chain per distinct source pair the doubled pairs restrict to
    doubled = reduction.doubled
    doubled_pairs = [StrategyPair(sigma, tau) for sigma in enumerate_strategies(doubled, MAX)
                     for tau in enumerate_strategies(doubled, MIN)]
    assert len(doubled_pairs) == report.pairs_checked
    restricted = {tuple(map(half.choices.__getitem__, game.state_order)) for pair in doubled_pairs
                  for half in decompose_mirror_strategies(pair, reduction)}
    assert sorted(source_pairs) == sorted(restricted)
    # the source chains are decomposed, each exactly once, and no doubled chain
    assert sorted(map(id, decomposed)) == sorted(id(chain) for on, _, chain in built if on is gb)


@pytest.mark.parametrize("make_game", [
    pytest.param(lambda g2: g2, id="g2"),
    pytest.param(lambda g2: _three_state_game(), id="three-states"),
])
def test_verify_star2_checks_each_chain_row_once(monkeypatch, g2, make_game):
    """Rows are checked once, where ``build_game`` makes them: one row per
    (state, action) of the source game and of the reset game, both made
    before ``verify_star2`` runs, which then checks no row at all, not once
    per pair and state (64 pairs of 6 states on the three-state game).  The
    double game's tables are made from the source game's rows and hold one
    row per (state, action) of the double game."""
    game = make_game(g2)
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    checked = []
    real_check = smpg.game._checked_row

    def spy_check(state, den, entries, n):
        checked.append((state, den, entries, n))
        return real_check(state, den, entries, n)

    monkeypatch.setattr(smpg.game, "_checked_row", spy_check)
    report = verify_star2(gb, reduction)
    assert report.ok
    assert checked == []
    for made in (game, gb):
        assert made.__dict__["_chain_rows"].keys() == made.outgoing.keys()
    table_rows = [(state.id, len(menu)) for state, menu in zip(reduction.menus.states,
                                                               reduction.tables[1])]
    doubled = reduction.doubled
    assert sorted(table_rows) == sorted(Counter(s for s, _ in doubled.outgoing).items())


def _shifted_mean_values(monkeypatch, gb, doubled_shift, source_shift):
    """Make solvers.mean_values add doubled_shift to state 0 of every
    doubled chain and source_shift to state 1 of every reset-game chain."""
    real = smpg.evaluate.mean_values

    def shifted(chain):
        values = real(chain)
        index, shift = ((0, doubled_shift) if len(chain.state_order) > len(gb.state_order)
                        else (1, source_shift))
        return ValueVector(values.state_order,
                           tuple(v + shift * (i == index) for i, v in enumerate(values.values)))

    monkeypatch.setattr(smpg.solvers, "mean_values", shifted)


def test_verify_star2_pins_the_integer_check_payloads(monkeypatch, g2):
    """Shifted reset-game values make a copy value non-constant, which sends
    the pair to the solve, and shifted doubled values break the mirror
    identity; wrong copy-2 rewards leave the certificate standing and break
    the mirror identity at every state.  The integer checks report them in
    the very dicts the Fraction checks gave."""
    gb, reduction = beta_recurrent(g2, F(1, 3), "a")
    _shifted_mean_values(monkeypatch, gb, F(1, 5), F(1, 7))
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert len(scanned) == 1  # a record whose values are not constant has no parts
    described = {"max": {"a1": "X", "b2": "Y'"}, "min": {"a2": "X'", "b1": "Y"}}
    assert (report.pairs_checked, report.value) == (1, F(1, 5))
    assert report.violations == (
        {"kind": "nonconstant-copy-value", "copy": 1, **described},
        {"kind": "nonconstant-copy-value", "copy": 2, **described},
        {"kind": "mirror-identity", "state": "a1", "lhs": "1/5", "rhs": "0", **described},
    )

    monkeypatch.undo()
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    _install_doubled(reduction, rewards={"a4'": F(7, 2), "a5'": F(-3, 4)})
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert len(scanned) == 1  # the wrong rewards fail the gain test
    assert (report.pairs_checked, report.value) == (64, F(1, 6))
    assert [v["kind"] for v in report.violations] == ["mirror-identity"] * 64 * 6
    assert report.violations[6] == {
        "kind": "mirror-identity", "state": "s01", "lhs": "13/24", "rhs": "3/8",
        "max": {"s01": "a0", "s11": "a2", "s22": "a4'"},
        "min": {"s02": "a0'", "s12": "a2'", "s21": "a5"}}
    assert report.violations[-6] == {
        "kind": "mirror-identity", "state": "s01", "lhs": "-1/6", "rhs": "0",
        "max": {"s01": "a1", "s11": "a3", "s22": "a5'"},
        "min": {"s02": "a1'", "s12": "a3'", "s21": "a5"}}


def _install_doubled(reduction, rewards=(), redirect=()):
    """Put a fault into the double game's tables that ``reduction``'s game
    keeps at (beta, s0), so ``_mirror``, verify_star2 and the
    double game ``mirror`` hands out, the tables' view, all read it:
    ``rewards`` maps action ids to replaced rewards, ``redirect`` maps
    (source, action, target) edges to a replaced target, merged with an
    edge that is already there.  The reach verdict is made again from the
    faulty rows.  Each call needs a fresh game: the tables are kept on it.
    Returns the faulty double game."""
    assert "mirror" not in reduction.kept and "doubled" not in reduction.__dict__
    common, rows, reward_den, true_rewards, _ = reduction.tables
    ids = list(reduction.menus.state_order)
    moved = {edge: ids.index(target) for edge, target in dict(redirect).items()}
    faulty_rows = []
    for s, menu in zip(ids, rows):
        faulty_rows.append({})
        for a, entries in menu.items():
            merged = Counter()
            for j, num in entries:
                merged[moved.get((s, a, ids[j]), j)] += num
            faulty_rows[-1][a] = tuple(sorted(merged.items()))
    values = {**{a: F(r, reward_den) for a, r in true_rewards.items()}, **dict(rewards)}
    den, nums = scale(values.values())
    start = ids.index(reduction.state_map[reduction.s0][0])
    reach = smpg.transforms.attractor([[[j for j, _ in entries] for entries in menu.values()]
                                       for menu in faulty_rows], start)
    reduction.kept["mirror"] = reduction.__dict__["tables"] = (
        common, tuple(faulty_rows), den, dict(zip(values, nums)), len(reach) == len(ids))
    return reduction.doubled


def _solved_violations(gb, reduction):
    """The violations verify_star2 reports, found by solving every chain of
    the built double game: mean_values and unichain_stationary on it and on
    its two source chains, compared in Fractions.  The laws come from
    solvers.unichain_stationary, so a fault put there reaches both sides.
    Copy k holds states (k - 1) n to k n - 1."""
    unichain_stationary = smpg.solvers.unichain_stationary
    doubled, n = reduction.doubled, len(gb.state_order)
    out = []
    for sigma in enumerate_strategies(doubled, MAX):
        for tau in enumerate_strategies(doubled, MIN):
            pair = StrategyPair(sigma, tau)
            chain = induced_chain(doubled, pair)
            values, occupation = mean_values(chain).values, unichain_stationary(chain).mass
            halves = [(mean_values(c).values, unichain_stationary(c).mass)
                      for c in (induced_chain(gb, half)
                                for half in decompose_mirror_strategies(pair, reduction))]
            expected = (halves[0][0][0] - halves[1][0][0]) / 2
            found = [{"kind": "nonconstant-copy-value", "copy": copy}
                     for copy, (vector, _) in enumerate(halves, 1) if len(set(vector)) > 1]
            found += [{"kind": "mirror-identity", "state": s, "lhs": format_rational(v),
                       "rhs": format_rational(expected)}
                      for s, v in zip(doubled.state_order, values) if v != expected]
            found += [{"kind": "component-mass", "copy": copy,
                       "mass": format_rational(sum(occupation[(copy - 1) * n:copy * n]))}
                      for copy in (1, 2) if sum(occupation[(copy - 1) * n:copy * n]) != F(1, 2)]
            found += [{"kind": "copy-stationary", "copy": copy, "state": s,
                       "scaled": format_rational(2 * occupation[(copy - 1) * n + i]),
                       "stationary": format_rational(reference[i])}
                      for copy, (_, reference) in enumerate(halves, 1)
                      for i, s in enumerate(gb.state_order)
                      if 2 * occupation[(copy - 1) * n + i] != reference[i]]
            out += [{**v, **strategy_pair_to_json_dict(pair)} for v in found]
    return tuple(out)


def _spy_doubled_solves(monkeypatch, n_source):
    """The chains on more than ``n_source`` states that reach
    recurrent_stationary, in a list that fills as verify_star2 runs."""
    solved = []
    real = smpg.evaluate.recurrent_stationary

    def spy(chain):
        if len(chain.state_order) > n_source:
            solved.append(chain)
        return real(chain)

    monkeypatch.setattr(smpg.evaluate, "recurrent_stationary", spy)
    return solved


def _spy_scan(monkeypatch):
    """The reductions whose doubled pairs verify_star2 scans one by one
    (``_star2_scan``), in a list that fills as it runs: empty when the
    source records alone certified every pair."""
    scanned = []
    real = smpg.solvers._star2_scan

    def spy(gb, reduction, cap):
        scanned.append(reduction)
        return real(gb, reduction, cap)

    monkeypatch.setattr(smpg.solvers, "_star2_scan", spy)
    return scanned


def test_the_records_value_is_the_scans_where_it_is_not_zero(monkeypatch):
    """Kept records whose values are matching pennies, 1 where the two
    players' actions have the same index and 0 elsewhere, with gains to
    match and their true residuals, pass both record tests.  The source
    max-min is 0 and the min-max 1, so the doubled max-min is (0 - 1) / 2:
    verify_star2 gives it through the records, with no violation, as the
    scan of the 16 doubled pairs does."""
    game = _two_by_two_game()
    gb, reduction = beta_recurrent(game, F(1, 2), "a")
    assert verify_star(game, F(1, 2), "a").ok
    reward_den = reduction.tables[2]
    sources = reduction.kept["sources"]
    for actions in list(sources):
        record = _with_parts(reduction, actions)
        y = int(actions[0][1] == actions[1][1])
        gain = y * record.law_den * reward_den
        (r_1, _), (r_2, _) = record.parts
        sources[actions] = record._replace(value_den=1, value_nums=(y, y),
                                           parts=((r_1, gain), (r_2, -gain)))
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert scanned == []
    assert (report.pairs_checked, report.violations, report.value) == (16, (), F(-1, 2))
    assert _star2_scan(gb, reduction, DEFAULT_ENUMERATION_CAP) == report


def _one_wrong_record(copy, residual):
    """The three-state game's reduction from its first state at beta = 1/3,
    with one kept source record, not the first that verify_star2 reads,
    made wrong in copy ``copy``'s part: the first entry of its residual, or
    its gain, one too high.  Returns (gb, reduction, the wrong record's
    actions, the record)."""
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    assert verify_star(game, F(1, 3), reduction.s0).ok
    wrong = sorted(reduction.kept["sources"])[5]
    record = _with_parts(reduction, wrong)
    parts = list(record.parts)
    r_c, g_c = parts[copy - 1]
    parts[copy - 1] = ((r_c[0] + 1, *r_c[1:]), g_c) if residual else (r_c, g_c + 1)
    reduction.kept["sources"][wrong] = record._replace(parts=tuple(parts))
    return gb, reduction, wrong, record


@pytest.mark.parametrize("copy", [1, 2])
def test_a_wrong_gain_in_one_record_reaches_the_scan(monkeypatch, copy):
    """One kept record's copy-c gain, one too high, fails the gain test, so
    verify_star2 scans every doubled pair.  The 8 pairs whose copy c plays
    that source pair stay certified and break the mirror identity at all
    6 states, each by 1 / (2 d R) more, d the record's law denominator; no
    other pair does."""
    gb, reduction, wrong, record = _one_wrong_record(copy, residual=False)
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert len(scanned) == 1 and report.pairs_checked == 64
    assert len(report.violations) == 8 * 6
    step = F(1, 2 * record.law_den * reduction.tables[2])
    for violation in report.violations:
        assert violation["kind"] == "mirror-identity"
        assert F(violation["lhs"]) - F(violation["rhs"]) == step
        half = decompose_mirror_strategies(pair_of(violation["max"], violation["min"]),
                                           reduction)[copy - 1]
        assert tuple(map(half.choices.__getitem__, gb.state_order)) == wrong
    assert len({json.dumps([v["max"], v["min"]]) for v in report.violations}) == 8


@pytest.mark.parametrize("copy", [1, 2])
def test_a_wrong_residual_in_one_record_reaches_the_scan(monkeypatch, copy):
    """One kept record's copy-c residual, one too high at its first entry,
    fails the residual test, so verify_star2 scans every doubled pair.  The
    certificate fails on the 8 pairs whose copy c plays that source pair;
    each is solved on its true chain, which meets every identity, so the
    report is the valid game's."""
    gb, reduction, _, _ = _one_wrong_record(copy, residual=True)
    expected = verify_star2(*beta_recurrent(_three_state_game(), F(1, 3), reduction.s0))
    scanned = _spy_scan(monkeypatch)
    solved = _spy_doubled_solves(monkeypatch, len(gb.state_order))
    assert verify_star2(gb, reduction) == expected
    assert len(scanned) == 1 and len(solved) == 8


def test_verify_star2_solves_a_chain_its_wrong_redirect_breaks(monkeypatch):
    """A copy-1 redirect to the wrong copy-2 state breaks the residual check
    on the 32 pairs that play it; those are solved, and report exactly the
    violations the solve finds, the others stay certified."""
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    _install_doubled(reduction, redirect={("s21", "a4", "s02"): "s22"})
    expected = _solved_violations(gb, reduction)
    solved = _spy_doubled_solves(monkeypatch, len(gb.state_order))
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert len(scanned) == 1  # the redirect fails the residual test
    assert len(solved) == 32
    assert {v["kind"] for v in expected} == {"mirror-identity", "copy-stationary"}
    assert report.violations == expected


def test_verify_star2_certifies_a_chain_with_wrong_copy_two_rewards(monkeypatch):
    """Wrong copy-2 rewards leave pi* stationary: no doubled chain is solved,
    and the certified gain reports the mirror identity as the solve does,
    with the left side above the right on some pairs and below on others."""
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    _install_doubled(reduction, rewards={"a4'": F(7, 2), "a5'": F(-3, 4)})
    expected = _solved_violations(gb, reduction)
    solved = _spy_doubled_solves(monkeypatch, len(gb.state_order))
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, reduction)
    assert len(scanned) == 1  # the residual test holds and the gain test fails
    assert solved == []
    assert {F(v["lhs"]) > F(v["rhs"]) for v in expected} == {True, False}
    assert report.violations == expected


def test_verify_star2_rejects_a_stationary_candidate_of_a_two_class_chain(monkeypatch):
    """b is transient in the reset chain from a, so pi* puts no mass on b1 or
    b2.  Rewiring them into a closed cycle of their own keeps pi* P = pi*;
    only the reach check sees the second class, and the solve ends in
    NotUnichain."""
    game = build_game([State("a", MAX), State("b", MIN)], {"X": F(1), "Y": F(0)},
                      [("a", "X", "a", F(1)), ("b", "Y", "a", F(1))])
    gb, reduction = beta_recurrent(game, F(1, 2), "a")
    doubled = _install_doubled(reduction, redirect={
        ("b1", "Y", "a1"): "b2", ("b1", "Y", "a2"): "b2",
        ("b2", "Y'", "a2"): "b1", ("b2", "Y'", "a1"): "b1"})
    chain = induced_chain(doubled, pair_of({"a1": "X", "b2": "Y'"}, {"a2": "X'", "b1": "Y"}))
    candidate = (F(1, 2), F(0), F(1, 2), F(0))  # a1, b1, a2, b2
    assert tuple(sum(candidate[i] * chain.matrix[i][j] for i in range(4))
                 for j in range(4)) == candidate
    scanned = _spy_scan(monkeypatch)
    with pytest.raises(NotUnichain):
        verify_star2(gb, reduction)
    assert len(scanned) == 1  # the reach check certifies no pair, so no record has parts


def test_mirror_evaluator_solves_every_pair_when_the_attractor_misses_a_state(monkeypatch):
    """b is transient in the reset chain from a, so pi* puts no mass on b1
    or b2 and the residual passes on every doubled pair.  Rewiring b1's Y
    into a self-loop lets the pairs that play Y keep b1 from the copy-1
    start: the attractor of a1 misses b1, so no pair is certified.  Each is
    solved to its mean values, and verify_star2 ends in the NotUnichain that
    solving every pair gives.  Without the reach half ``_mirror`` would
    certify every pair, with gain 0 at b1, whose self-loop pays 3.  The
    tables are kept per game, so each half has its own fresh game."""
    def faulty_reduction():
        game = build_game([State("a", MAX), State("b", MIN)],
                          {"X": F(1), "Y": F(3), "Z": F(2)},
                          [("a", "X", "a", F(1)), ("b", "Y", "a", F(1)), ("b", "Z", "a", F(1))])
        gb, reduction = beta_recurrent(game, F(1, 2), "a")
        doubled = _install_doubled(reduction, redirect={("b1", "Y", "a1"): "b1",
                                                        ("b1", "Y", "a2"): "b1"})
        return gb, reduction, doubled

    with pytest.MonkeyPatch.context() as no_reach:
        no_reach.setattr(smpg.transforms, "attractor",
                         lambda menus, start: set(range(len(menus))))
        gb, reduction, doubled = faulty_reduction()
        pairs = [StrategyPair(sigma, tau) for sigma in enumerate_strategies(doubled, MAX)
                 for tau in enumerate_strategies(doubled, MIN)]
        expected = [evaluate_pair(doubled, pair, MEAN) for pair in pairs]
        assert {values.at("b1") for values in expected} == {F(3), F(0)}
        solved = _spy_doubled_solves(no_reach, len(gb.state_order))
        certified = [_view_values(_mirror(reduction, tuple(pair_actions(doubled, pair)))[0])
                     for pair in pairs]
        assert solved == []
        b1 = doubled.state_index["b1"]
        assert {values[b1] for values in certified} == {F(0)}

    gb, reduction, doubled = faulty_reduction()
    assert not reduction.tables[4]  # certifiable
    solved = _spy_doubled_solves(monkeypatch, len(gb.state_order))
    assert [_view_values(_mirror(reduction, tuple(pair_actions(doubled, pair)))[0])
            for pair in pairs] == [v.values for v in expected]
    assert len(solved) == len(pairs) == 4

    scanned = _spy_scan(monkeypatch)
    with pytest.raises(NotUnichain) as info:
        verify_star2(gb, reduction)
    assert len(scanned) == 1
    assert info.value.to_json_dict() == {
        "error": "NotUnichain", "message": "chain has 2 recurrent classes", "classes": 2}


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
    # with tied copies several rows and columns qualify, and the first in
    # row order must win; the copies sort after their originals, so the
    # values and the first pair's values are the same
    tied = _with_tied_copies(game)
    for on, select in ((game, oracle), (tied, _full_table_selection(tied, MEAN, None)[2])):
        for claim in (truth, perturbed, first_values):
            try:
                got = reference_recovery_oracle(on, ValueVector(on.state_order, claim))
            except NoConsistentStrategy:
                got = None
            assert got == select(claim)


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
    d, y = ValueVector(game.state_order, values).scaled
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


def test_strategy_iteration_makes_fractions_only_for_its_returned_values(monkeypatch):
    """Each round reads only its values' integer view: of the nine vectors
    discounted_values hands strategy iteration on the seeded 40-state game,
    only the last, the one returned, ever makes its Fractions."""
    made = []
    real = smpg.solvers.discounted_values

    def spy(chain, beta):
        made.append(real(chain, beta))
        return made[-1]

    monkeypatch.setattr(smpg.solvers, "discounted_values", spy)
    solution = strategy_iteration_discounted(_seeded_40_state_game(), F(99, 100))
    assert solution.values is made[-1]
    assert ["values" in vector.__dict__ for vector in made] == [False] * 8 + [True]


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
    """The reset identity holds at every pair, and the report's value is
    the optimal discounted value at the start state."""
    game = _small_generated_game(seed, states)
    values = brute_force_solve(game, DISCOUNTED, beta).values
    for s0 in game.state_order:
        report = verify_star(game, beta, s0)
        assert report.violations == () and report.value == values.at(s0)


@settings(max_examples=40, deadline=None)
@small_reductions
def test_verify_star2_holds_on_every_reset_game(seed, states, beta):
    """Every valid reduction is certified: no doubled chain is solved, and
    the double game's value is 0."""
    game = _small_generated_game(seed, states)
    with pytest.MonkeyPatch.context() as monkeypatch:
        solved = _spy_doubled_solves(monkeypatch, states)
        scanned = _spy_scan(monkeypatch)
        for s0 in game.state_order:
            report = verify_star2(*beta_recurrent(game, beta, s0))
            assert report.violations == () and report.value == 0
    assert solved == [] and scanned == []


def _assert_the_records_report_as_the_scan(game, beta, s0):
    """verify_star2 at (beta, s0) certifies every doubled pair through the
    source records, with no scan, and its report has the bytes of the
    scan's, run on a fresh equal game."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        scanned = _spy_scan(monkeypatch)
        report = verify_star2(*beta_recurrent(game, beta, s0))
    assert scanned == []
    gb, reduction = beta_recurrent(validate_game(game_to_json_dict(game)), beta, s0)
    reference = _star2_scan(gb, reduction, DEFAULT_ENUMERATION_CAP)
    assert (canonical_dumps(report_to_json_dict(report))
            == canonical_dumps(report_to_json_dict(reference)))


def test_the_records_report_as_the_scan_on_every_acceptance_instance():
    for _, reduction, _, _ in mirror_instances():
        _assert_the_records_report_as_the_scan(reduction.game, reduction.beta, reduction.s0)


@pytest.mark.parametrize("beta", [F(0), F(1, 3), F(9, 10)])
@pytest.mark.parametrize("make_game", [
    pytest.param(lambda: _three_state_game(), id="three-states"),
    pytest.param(lambda: _interleaved_game(), id="interleaved-ids"),
])
def test_the_records_report_as_the_scan(make_game, beta):
    game = make_game()
    for s0 in game.state_order:
        _assert_the_records_report_as_the_scan(game, beta, s0)


@settings(max_examples=40, deadline=None)
@small_reductions
def test_the_records_report_as_the_scan_on_generated_games(seed, states, beta):
    game = _small_generated_game(seed, states)
    for s0 in game.state_order:
        _assert_the_records_report_as_the_scan(game, beta, s0)


@settings(max_examples=40, deadline=None)
@small_reductions
def test_pipeline_assembles_the_brute_force_discounted_values(seed, states, beta):
    game = _small_generated_game(seed, states)
    assembled = []
    strategic_via_recovery(game, beta, reference_recovery_oracle,
                           on_stage=lambda state, reduction, witness, value:
                           assembled.append(value))
    assert tuple(assembled) == brute_force_solve(game, DISCOUNTED, beta).values.values


def _reduction_op(game, beta):
    """What a reduction-n3 benchmark op runs: verify_star and verify_star2
    from every start state, then the pipeline."""
    reports = [(verify_star(game, beta, s0), verify_star2(*beta_recurrent(game, beta, s0)))
               for s0 in game.state_order]
    return reports, strategic_via_recovery(game, beta, reference_recovery_oracle)


def test_what_a_game_keeps_does_not_refer_back_to_it():
    """With the collector off, the game of a full reduction op is freed as
    soon as its last reference goes: nothing it keeps per (beta, s0) refers
    back to it, so no reference cycle holds it until a full collection."""
    game = _three_state_game()
    gc.collect()
    gc.disable()
    try:
        output = _reduction_op(game, F(1, 3))
        kept = len(game.__dict__["_reductions"])
        alive = weakref.ref(game)
        del game, output
        freed = alive() is None
    finally:
        gc.enable()
    assert kept == 3 and freed


def _counted(monkeypatch, *targets):
    """A Counter of the calls, from now on, to each (module, name) in
    ``targets``, keyed by name."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in targets:
        count(module, name)
    return counts


def test_verify_star_makes_no_mirror_parts(monkeypatch):
    """verify_star never reads a source record's mirror parts, so from
    each of the three-state game's start states it makes no double game's
    tables (no common_rows pass) and sums no residual."""
    counts = _counted(monkeypatch, (smpg.transforms, "common_rows"),
                      (smpg.solvers, "stationary_residual"))
    game = _three_state_game()
    for s0 in game.state_order:
        assert verify_star(game, F(1, 3), s0).ok
    assert (counts["common_rows"], counts["stationary_residual"]) == (0, 0)


@pytest.mark.parametrize("make_game", [
    pytest.param(lambda g2: g2, id="g2"),
    pytest.param(lambda g2: _three_state_game(), id="three-states"),
])
def test_no_computation_path_builds_the_outgoing_view(g2, make_game):
    """Every solver, evaluator and verifier reads a game's rows through
    ``Game.chain_row``: after all of them have run, neither the source game
    nor any reset game it keeps has built the Fraction view ``outgoing``."""
    game, beta = make_game(g2), F(1, 3)
    solution = strategy_iteration_discounted(game, beta)
    for criterion, at in ((DISCOUNTED, beta), (MEAN, None)):
        evaluate_pair(game, solution.optimal_pair, criterion, at)
    greedy_recovery_discounted(game, beta, solution.values)
    for s0 in game.state_order:
        assert verify_star(game, beta, s0).ok
        assert verify_star2(*beta_recurrent(game, beta, s0)).ok
    strategic_via_recovery(game, beta, reference_recovery_oracle)
    kept = game.__dict__["_reductions"]
    assert len(kept) == len(game.state_order)
    for made in (game, *(entry["reset"] for entry in kept.values())):
        assert "outgoing" not in made.__dict__


def test_a_reduction_op_solves_each_source_pair_once(monkeypatch):
    """At each (beta, s0), verify_star, verify_star2 and the pipeline share
    the reset game, the source memo and the double game's tables that
    the game keeps.  On the three-state game (8 source pairs, 3 start
    states) the op builds 3 reset games, no double game (verify_star2 and
    the pipeline's oracle read the tables' menus), and 3 sets of tables,
    one common_rows pass each; it solves each of the 3 x 8 source pairs
    once, plus the recovered pair, and sums each one's residual once per
    copy, into its kept record; no doubled chain is solved."""
    counts = _counted(monkeypatch, (smpg.transforms, "build_game"),
                      (smpg.transforms, "common_rows"),  # once per set of tables
                      (smpg.solvers, "mean_values"), (smpg.solvers, "unichain_stationary"),
                      (smpg.solvers, "stationary_residual"))  # once per (source pair, copy)
    _reduction_op(_three_state_game(), F(1, 3))
    assert counts == {"build_game": 3, "common_rows": 3, "mean_values": 25,
                      "unichain_stationary": 24, "stationary_residual": 3 * 8 * 2}


def test_what_a_game_keeps_is_its_three_records_in_integers():
    """After a full reduction op, each (beta, s0) entry a game keeps holds
    the reset game, the source memo and the tables, and nothing else; apart
    from the reset ``Game``, every leaf is an int, a bool, a str or None, in
    tuples or dicts, each source record's mirror parts included."""
    game = _three_state_game()
    _reduction_op(game, F(1, 3))

    def leaves(value):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(key)
                yield from leaves(item)
        elif isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    entries = game.__dict__["_reductions"]
    assert len(entries) == 3
    for kept in entries.values():
        assert set(kept) == {"reset", "sources", "mirror"}
        assert type(kept["reset"]) is Game
        assert {type(leaf) for leaf in leaves((kept["sources"], kept["mirror"]))} <= {
            int, bool, str, type(None)}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=1, max_value=3),
    betas=st.lists(st.sampled_from([F(0), F(1, 3), F(9, 10)]), min_size=2, max_size=2,
                   unique=True),
    data=st.data(),
)
def test_what_a_game_keeps_gives_what_a_fresh_game_gives(seed, states, betas, data):
    """One game used at two betas from every start state, by verify_star,
    verify_star2 and the pipeline in any order, each beta given as a
    Fraction or a string, answers every call as a fresh equal game does; it
    keeps one entry per (beta, s0), keyed by the beta check_beta gives."""
    game = _small_generated_game(seed, states)

    def star2(on, beta, s0):
        return verify_star2(*beta_recurrent(on, beta, s0))

    def pipeline(on, beta, s0):
        return strategic_via_recovery(on, beta, reference_recovery_oracle)

    calls = [(call, beta, s0) for beta in betas for s0 in game.state_order
             for call in (verify_star, star2)]
    calls += [(pipeline, beta, None) for beta in betas]
    for call, beta, s0 in data.draw(st.permutations(calls)):
        given_beta = data.draw(st.sampled_from([beta, str(beta)]))
        assert call(game, given_beta, s0) == call(validate_game(game_to_json_dict(game)), beta, s0)
    assert sorted(game.__dict__["_reductions"]) == sorted(
        (beta, s0) for beta in betas for s0 in game.state_order)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    states=st.integers(min_value=2, max_value=3),
    beta=st.sampled_from([F(0), F(1, 3), F(9, 10)]),
    wrong=st.booleans(),
)
def test_the_per_copy_residual_judges_as_the_whole_residual(seed, states, beta, wrong):
    """On every doubled pair ``_mirror`` certifies the pair exactly when
    the whole stationary_residual of the lemma's law pi* over the pair's
    rows is 0, and exactly when pi* P = pi* in Fractions, with the source
    laws right or wrong (_wrong_laws); the whole residual is d_2 r_1 + d_1
    r_2, summed from the two copies' kept ``_Source.parts``."""
    game = _small_generated_game(seed, states)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if wrong:
            _wrong_laws(monkeypatch)
        for s0 in game.state_order:
            reduction = Reduction(game, beta, s0)
            doubled, n = reduction.doubled, len(game.state_order)
            common, table_rows, _, _, certifiable = reduction.tables
            assert certifiable
            for sigma in enumerate_strategies(doubled, MAX):
                for tau in enumerate_strategies(doubled, MIN):
                    pair = StrategyPair(sigma, tau)
                    actions = tuple(pair_actions(doubled, pair))
                    _, chain, (one, two) = _mirror(reduction, actions)
                    assert one.constant and two.constant
                    assert one == _source(reduction, actions[:n])
                    x = [0] * len(doubled.state_order)  # 2 d_1 d_2 pi*
                    x[:n] = [num * two.law_den for num in one.law_nums]  # copy 1
                    x[n:] = [num * one.law_den for num in two.law_nums]  # copy 2
                    rows = [table_rows[i][pair.choices[s]]
                            for i, s in enumerate(doubled.state_order)]
                    residual = stationary_residual(common, len(x), zip(range(len(x)), x, rows))
                    (r_1, _), (r_2, _) = one.parts[0], two.parts[1]
                    assert [two.law_den * a + one.law_den * b
                            for a, b in zip(r_1, r_2)] == residual
                    assert (chain is None) == (not any(residual))
                    matrix = induced_chain(doubled, pair).matrix
                    assert (chain is None) == all(
                        sum(xi * row[j] for xi, row in zip(x, matrix)) == x[j]
                        for j in range(len(x)))


def _paper_double_game(game, beta, s0):
    """The mirrored double game of the reset transform of ``game`` at
    ``beta`` from ``s0``, built by ``build_game`` from the source
    transitions in Fractions, as the paper builds it: each transition of
    probability p from s under action a is, in each copy, an edge of mass
    beta p to its target in that copy (none at beta = 0) and one of mass
    (1 - beta) p to the other copy's start; copy 2 switches every owner and
    plays each action's primed twin, whose reward is negated.  The ids are
    ``Reduction.state_map`` and ``Reduction.action_map``'s."""
    reduction = Reduction(game, beta, s0)
    states, actions = reduction.state_map, reduction.action_map
    switched = {MAX: MIN, MIN: MAX}
    edges = []
    for t in game.transitions:
        for copy in (0, 1):
            s, a = states[t.source][copy], actions[t.action][copy]
            if beta:
                edges.append((s, a, states[t.target][copy], beta * t.prob))
            edges.append((s, a, states[s0][1 - copy], (1 - beta) * t.prob))
    return build_game(
        [State(states[s.id][0], s.owner) for s in game.states]
        + [State(states[s.id][1], switched[s.owner]) for s in game.states],
        {**game.actions, **{actions[a][1]: -r for a, r in game.actions.items()}}, edges)


def _assert_tables_are_the_paper_double_game(game, beta):
    """From every start state, the double game is the paper's, and every
    row and reward of the tables it is the view of has the paper's exact
    value; the tables' menus hold the paper's states, in order, and its
    sorted actions; every state reaches copy 1's start in every pair's
    chain."""
    for s0 in game.state_order:
        reference = _paper_double_game(game, beta, s0)
        reduction = Reduction(game, beta, s0)
        common, rows, reward_den, rewards, certifiable = reduction.tables
        assert certifiable
        menus = reduction.menus
        assert menus.states == reference.states
        assert menus.state_order == reference.state_order
        assert menus.available_actions == reference.available_actions
        for s, menu in zip(reference.state_order, rows):
            assert sorted(menu) == list(reference.available_actions[s])
            for a, entries in menu.items():
                assert [(reference.state_order[j], F(num, common)) for j, num in entries] == list(
                    reference.outgoing[(s, a)])
        assert {a: F(r, reward_den) for a, r in rewards.items()} == reference.actions
        assert reduction.doubled == reference
        assert game_to_json_dict(reduction.doubled) == game_to_json_dict(reference)


@settings(max_examples=30, deadline=None)
@small_reductions
def test_the_tables_from_the_source_rows_are_the_double_games(seed, states, beta):
    _assert_tables_are_the_paper_double_game(_small_generated_game(seed, states), beta)


@pytest.mark.parametrize("beta", [F(0), F(1, 3)])
@pytest.mark.parametrize("make_game", [
    pytest.param(lambda: _three_state_game(), id="three-states"),
    pytest.param(lambda: _interleaved_game(), id="interleaved-ids"),
])
def test_the_tables_are_the_paper_double_game(make_game, beta):
    _assert_tables_are_the_paper_double_game(make_game(), beta)


class _WithoutDoubleGame(Reduction):
    """A reduction whose double ``Game`` cannot be read."""

    @property
    def doubled(self):
        raise AssertionError("the double game was read")


@pytest.mark.parametrize("fault", [
    pytest.param(lambda monkeypatch: None, id="valid"),
    pytest.param(_wrong_laws, id="wrong-source-laws"),
])
def test_verify_star2_reads_only_the_tables(monkeypatch, fault):
    """verify_star2 and ``_mirror`` read the double game's tables
    and never ``Reduction.doubled``: on a valid game every pair is
    certified, and with wrong source laws every pair is solved, on chains
    made from the tables, and the report holds exactly the violations that
    solving every chain of the built double game finds.  The reduction that
    cannot read its double game is of a fresh equal game, so its tables are
    made by verify_star2 itself."""
    fault(monkeypatch)
    game = _three_state_game()
    s0 = game.state_order[0]
    expected = _solved_violations(*beta_recurrent(game, F(1, 3), s0))
    game = _three_state_game()
    gb, _ = beta_recurrent(game, F(1, 3), s0)
    solved = _spy_doubled_solves(monkeypatch, len(game.state_order))
    scanned = _spy_scan(monkeypatch)
    report = verify_star2(gb, _WithoutDoubleGame(game, F(1, 3), s0))
    assert report.pairs_checked == 64 and report.violations == expected
    assert len(solved) == len(scanned) * 64 == (0 if report.ok else 64)


@pytest.mark.parametrize("beta", [F(0), F(1, 3)])
@pytest.mark.parametrize("make_game", [
    pytest.param(lambda: _three_state_game(), id="three-states"),
    pytest.param(lambda: _interleaved_game(), id="interleaved-ids"),
])
def test_the_pipeline_builds_no_double_game(monkeypatch, make_game, beta):
    """With no on_stage to write artifacts, strategic_via_recovery never
    reads ``Reduction.doubled``: the oracle searches the tables' menus, so
    a run whose reductions cannot read their double game returns the
    unpatched run's solution.  Each run has its own equal game."""
    expected = strategic_via_recovery(make_game(), beta, reference_recovery_oracle)
    monkeypatch.setattr(smpg.solvers, "Reduction", _WithoutDoubleGame)
    assert strategic_via_recovery(make_game(), beta, reference_recovery_oracle) == expected


def _interleaved_game():
    """States s and s1, whose copy ids sort interleaved (s1, s11, s12, s2),
    and actions x and x! at s, whose primed twins sort the other way round
    (x!' before x')."""
    return build_game([State("s", MAX), State("s1", MIN)],
                      {"x": F(1), "x!": F(-2), "y": F(3), "z": F(0)},
                      [("s", "x", "s1", F(1)), ("s", "x!", "s", F(1, 2)), ("s", "x!", "s1", F(1, 2)),
                       ("s1", "y", "s", F(1)), ("s1", "z", "s1", F(1, 3)), ("s1", "z", "s", F(2, 3))])


@pytest.mark.parametrize("make_game", [
    pytest.param(lambda g2: g2, id="g2"),
    pytest.param(lambda g2: _three_state_game(), id="three-states"),
    pytest.param(lambda g2: _interleaved_game(), id="interleaved-ids"),
])
def test_the_action_tuple_scan_is_enumerate_strategies_order(monkeypatch, g2, make_game):
    """verify_star2's scan of every doubled pair (``_star2_scan``) runs
    without the double game: the evaluator gets each pair's actions as
    pair_actions reads them off the built double game, in the order
    enumerate_strategies gives over it, and a violation names the pair with
    its choices in that order too.  Every pair is made to break the mirror
    identity at every state, by one added to its values."""
    game = make_game(g2)
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    played = []

    def shifted(on, actions):
        played.append(actions)
        (d, y), chain, sources = _mirror(on, actions)
        return (d, tuple(v + d for v in y)), chain, sources

    monkeypatch.setattr(smpg.solvers, "_mirror", shifted)
    report = _star2_scan(gb, reduction, DEFAULT_ENUMERATION_CAP)
    assert "doubled" not in reduction.__dict__
    doubled = reduction.doubled
    pairs = [StrategyPair(sigma, tau) for sigma in enumerate_strategies(doubled, MAX)
             for tau in enumerate_strategies(doubled, MIN)]
    assert played == [tuple(pair_actions(doubled, pair)) for pair in pairs]
    n = len(doubled.states)
    assert report.pairs_checked == len(pairs) and len(report.violations) == n * len(pairs)
    assert [json.dumps({"max": v["max"], "min": v["min"]}) for v in report.violations[::n]] == [
        json.dumps(strategy_pair_to_json_dict(pair)) for pair in pairs]
    assert [v["state"] for v in report.violations[:n]] == list(doubled.state_order)


def test_verify_star2_checks_the_cap_before_evaluating(monkeypatch):
    """The cap is checked on the doubled strategy counts, before any pair is
    evaluated or any source record made, with the report the other pair
    scans give."""
    game = _three_state_game()
    gb, reduction = beta_recurrent(game, F(1, 3), game.state_order[0])
    evaluated, made = [], []
    monkeypatch.setattr(smpg.solvers, "_mirror", lambda reduction, actions: evaluated.append(1))
    monkeypatch.setattr(smpg.solvers, "_source", lambda reduction, actions: made.append(1))
    with pytest.raises(CombinatorialLimitExceeded) as info:
        verify_star2(gb, reduction, cap=63)
    assert evaluated == [] and made == []
    assert reduction.kept["sources"] == {}
    assert info.value.to_json_dict() == {
        "error": "CombinatorialLimitExceeded", "message": "8 x 8 strategy pairs exceed cap 63",
        "count": 64, "cap": 63}
    monkeypatch.undo()
    assert verify_star2(gb, reduction, cap=64).pairs_checked == 64


def _witness_oracle(pair):
    return lambda game, claim, evaluator: pair


def _callback_oracle(pair):
    return lambda game, claim, evaluator: evaluator(pair)


@pytest.mark.parametrize("bad, error", [
    pytest.param(pair_of({"a1": "X"}, {"a2": "X'", "b1": "Y"}), {
        "error": "StrategyDomainMismatch",
        "message": "max strategy domain ['a1'] != owned states ['a1', 'b2']",
        "player": "max", "domain": ["a1"], "owned": ["a1", "b2"]}, id="missing-state"),
    pytest.param(pair_of({"a1": "X", "b2": "Y"}, {"a2": "X'", "b1": "Y"}), {
        "error": "StrategyDomainMismatch", "message": "action 'Y' not available at state 'b2'",
        "state": "b2", "action": "Y"}, id="unavailable-action"),
])
@pytest.mark.parametrize("call", [
    pytest.param(lambda g2, bad: decompose_mirror_strategies(
        bad, Reduction(g2, F(1, 2), "a")), id="decompose_mirror_strategies"),
    pytest.param(lambda g2, bad: strategic_via_recovery(g2, F(1, 2), _callback_oracle(bad)),
                 id="pipeline-evaluator-callback"),
    pytest.param(lambda g2, bad: strategic_via_recovery(g2, F(1, 2), _witness_oracle(bad)),
                 id="pipeline-oracle-witness"),
    pytest.param(lambda g2, bad: evaluate_pair(Reduction(g2, F(1, 2), "a").doubled, bad, MEAN),
                 id="evaluate_pair"),
])
def test_check_pair_guards_every_doubled_pair_from_outside(g2, bad, error, call):
    """A malformed doubled pair that enters through a public function, or
    through a custom oracle, is rejected by check_pair with the error it
    always gave, also once verify_star2 has scanned the same reduction
    without checking its own pairs."""
    verify_star2(*beta_recurrent(g2, F(1, 2), "a"))
    with pytest.raises(StrategyDomainMismatch) as info:
        call(g2, bad)
    assert info.value.to_json_dict() == error
