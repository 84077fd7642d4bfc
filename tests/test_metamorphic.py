"""Metamorphic relations of zero-sum games, checked on every solver.

Each relation maps a game to another whose values follow exactly from the
first game's (Shapley 1953, "Stochastic games"; Chen, Cheung & Yiu 1998,
"Metamorphic testing"), so no second solver is needed:

- relabelling states and actions, which moves the sort order and with it
  the tie-breaks, permutes the values;
- swapping every owner and negating every reward negates the values;
- rewards a r + b with a > 0 map the values to a v + b under both criteria,
  since discounted values are normalised by (1 - beta).

A relation may change which optimal pair a solver returns, so only values
are compared; greedy recovery's pair must attain the mapped values.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from smpg.game import MAX, MIN, format_rational, game_to_json_dict, validate_game
from smpg.generate import GeneratorConfig, generate_game
from smpg.solvers import (
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
from smpg.transforms import beta_recurrent

BETA = F(9, 10)
SWAP = {MAX: MIN, MIN: MAX}


def _game(seed, states):
    return generate_game(GeneratorConfig(
        states=states, actions_per_state=(1, 2), transitions_per_action=(1, 2),
        reward_bound=4, denominator_bound=4, max_states_fraction=F(1, 2), seed=seed))


def _transformed(game, state_name=str, action_name=str, swap_roles=False, reward=lambda r: r):
    """The game with its states and actions renamed, its owners swapped or
    not, and its rewards mapped, through its JSON form."""
    raw = game_to_json_dict(game)
    return validate_game({
        "states": [{"id": state_name(s["id"]),
                    "owner": SWAP[s["owner"]] if swap_roles else s["owner"]}
                   for s in raw["states"]],
        "actions": [{"id": action_name(a), "reward": format_rational(reward(r))}
                    for a, r in game.actions.items()],
        "transitions": [{**t, "from": state_name(t["from"]), "to": state_name(t["to"]),
                         "action": action_name(t["action"])} for t in raw["transitions"]]})


def _solver_values(game):
    """Every solver's values on a game, each as {state: value}, and the
    two verifiers' report values from every start state."""
    values = {
        "brute-force-mean": brute_force_solve(game, MEAN).values.as_dict(),
        "brute-force-discounted": brute_force_solve(game, DISCOUNTED, BETA).values.as_dict(),
        "strategy-iteration": strategy_iteration_discounted(game, BETA).values.as_dict(),
    }
    assembled = {}
    strategic_via_recovery(game, BETA, reference_recovery_oracle,
                           on_stage=lambda s, reduction, witness, value:
                           assembled.__setitem__(s, value))
    values["pipeline"] = assembled
    values["verify-star"] = {s: verify_star(game, BETA, s).value for s in game.state_order}
    values["verify-star2"] = {s: verify_star2(*beta_recurrent(game, BETA, s)).value
                              for s in game.state_order}
    return values


def _check_relation(game, image, state_map, value_map, star2_map):
    """Every solver's values on ``image`` are the mapped values on ``game``;
    greedy recovery from them returns a pair of ``image`` that attains them."""
    source, target = _solver_values(game), _solver_values(image)
    for solver, values in source.items():
        mapped = star2_map if solver == "verify-star2" else value_map
        assert target[solver] == {state_map(s): mapped(v) for s, v in values.items()}, solver
    claimed = brute_force_solve(image, DISCOUNTED, BETA).values
    pair = greedy_recovery_discounted(image, BETA, claimed)
    assert evaluate_pair(image, pair, DISCOUNTED, BETA) == claimed


games = given(seed=st.integers(min_value=0, max_value=100_000),
              states=st.integers(min_value=1, max_value=3))


@settings(max_examples=15, deadline=None)
@games
def test_relabelling_permutes_the_values(seed, states):
    """Names in reverse of their sort order, so every tie-break moves."""
    game = _game(seed, states)
    states_by_name = {s: f"q{len(game.state_order) - i}" for i, s in enumerate(game.state_order)}
    actions_by_name = {a: f"z{len(game.actions) - i}" for i, a in enumerate(sorted(game.actions))}
    image = _transformed(game, states_by_name.__getitem__, actions_by_name.__getitem__)
    _check_relation(game, image, states_by_name.__getitem__, lambda v: v, lambda v: v)


@settings(max_examples=15, deadline=None)
@games
def test_role_swap_with_negated_rewards_negates_the_values(seed, states):
    game = _game(seed, states)
    image = _transformed(game, swap_roles=True, reward=lambda r: -r)
    _check_relation(game, image, str, lambda v: -v, lambda v: -v)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       states=st.integers(min_value=1, max_value=3),
       a=st.sampled_from([F(1, 3), F(2), F(7, 2)]),
       b=st.sampled_from([F(-5, 2), F(0), F(4)]))
def test_positive_affine_rewards_map_the_values(seed, states, a, b):
    """On the doubled game copy 2 plays the negated rewards, so b cancels
    there: verify_star2's report value maps to a v."""
    game = _game(seed, states)
    image = _transformed(game, reward=lambda r: a * r + b)
    _check_relation(game, image, str, lambda v: a * v + b, lambda v: a * v)
