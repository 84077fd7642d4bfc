"""Game transforms: the reset transform and the mirrored double game.

Both are functions of the same three things, a source game, a discount
beta and a start state s0, so one ``Reduction`` object holds those and
derives everything else.  The reset transform splits every source
transition of probability p into a scaled copy (first kind, mass beta * p,
same target) and a reset edge to s0 (second kind, mass (1 - beta) * p).

The mirrored double game chains two copies of the reset-transformed game:
first-kind transitions stay inside their copy, second-kind transitions are
redirected to the other copy's start state.  The reset game merges
parallel edges, so it alone no longer tells the two kinds apart; the
double game is therefore built from the source transitions.  The second
copy swaps the two players' roles: state owners are switched and every
action is replaced by a primed twin whose reward is negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MissingKindAnnotation, StrategyDomainMismatch, UnknownState
from .evaluate import check_beta
from .game import (
    MAX,
    MIN,
    Game,
    PositionalStrategy,
    State,
    StrategyPair,
    build_game,
)


@dataclass(frozen=True)
class Reduction:
    """The reduction of ``game`` at discount ``beta`` from start state ``s0``.

    ``state_map`` sends each source state to its (copy-1, copy-2) ids in the
    double game, ``action_map`` each source action to its (plain, primed)
    ids.  The reset game and the double game are built on first use.
    """

    game: Game
    beta: Fraction
    s0: str

    def __post_init__(self):
        object.__setattr__(self, "beta", check_beta(self.beta))
        if self.s0 not in self.game.state_index:
            raise UnknownState(f"no state {self.s0!r} in game", state=self.s0)

    @cached_property
    def reset_game(self) -> Game:
        """Same states, owners, actions and rewards; every transition split
        into its two kinds.  Zero-mass first-kind edges (beta = 0) are
        dropped."""
        raw = []
        for t in self.game.transitions:
            if self.beta > 0:
                raw.append((t.source, t.action, t.target, self.beta * t.prob))
            raw.append((t.source, t.action, self.s0, (1 - self.beta) * t.prob))
        return build_game(self.game.states, self.game.actions, raw)

    @cached_property
    def state_map(self) -> dict[str, tuple[str, str]]:
        return {s.id: (s.id + "1", s.id + "2") for s in self.game.states}

    @cached_property
    def action_map(self) -> dict[str, tuple[str, str]]:
        used = set(self.game.actions)
        out = {}
        for a in self.game.actions:
            primed = a + "'"
            while primed in used:
                primed += "'"
            used.add(primed)
            out[a] = (a, primed)
        return out

    @cached_property
    def inverse_states(self) -> dict[str, tuple[str, int]]:
        """Double-game state id -> (source state, copy)."""
        return {ids[copy - 1]: (source, copy)
                for source, ids in self.state_map.items() for copy in (1, 2)}

    @cached_property
    def inverse_actions(self) -> dict[str, tuple[str, int]]:
        """Double-game action id -> (source action, copy)."""
        return {ids[copy - 1]: (source, copy)
                for source, ids in self.action_map.items() for copy in (1, 2)}

    @cached_property
    def doubled(self) -> Game:
        """The mirrored double game of ``reset_game``."""
        state_map, action_map = self.state_map, self.action_map
        states = [State(state_map[s.id][0], s.owner) for s in self.game.states]
        states += [State(state_map[s.id][1], MIN if s.owner == MAX else MAX)
                   for s in self.game.states]
        actions = dict(self.game.actions)
        for a, reward in self.game.actions.items():
            actions[action_map[a][1]] = -reward

        start_one, start_two = state_map[self.s0]
        raw = []
        for t in self.game.transitions:
            (one, two), (plain, primed) = state_map[t.source], action_map[t.action]
            if self.beta > 0:
                first = self.beta * t.prob
                raw.append((one, plain, state_map[t.target][0], first))
                raw.append((two, primed, state_map[t.target][1], first))
            second = (1 - self.beta) * t.prob
            raw.append((one, plain, start_two, second))
            raw.append((two, primed, start_one, second))
        return build_game(states, actions, raw)


def beta_recurrent(game: Game, beta: Fraction, s0: str) -> tuple[Game, Reduction]:
    """The reset transform of ``game`` at ``beta`` from ``s0``, and the
    reduction it belongs to."""
    reduction = Reduction(game, beta, s0)
    return reduction.reset_game, reduction


def mirror(gb: Game, reduction: Reduction) -> tuple[Game, Reduction]:
    """Chain two copies of a reset-transformed game into one zero-sum whole.

    Copy 1 replays gb with first-kind transitions intact; its second-kind
    mass is redirected to the copy-2 start state.  Copy 2 does the same in
    the other direction, with state owners switched and every action
    replaced by its primed twin carrying the negated reward.  ``gb`` must be
    the reduction's reset game; MissingKindAnnotation otherwise.
    """
    if gb != reduction.reset_game:
        raise MissingKindAnnotation("split record does not describe this game")
    return reduction.doubled, reduction


def decompose_mirror_strategies(pair: StrategyPair, reduction: Reduction
                                ) -> tuple[StrategyPair, StrategyPair]:
    """Split a strategy pair of the mirrored game into two source pairs.

    The first returned pair is both players' copy-1 restrictions.  The
    second is the copy-2 restrictions with primed actions mapped back and
    the players' roles swapped: the mirrored game's minimizer acts as
    maximizer there, and vice versa.
    """
    copy1 = {MAX: {}, MIN: {}}
    copy2 = {MAX: {}, MIN: {}}
    for player, strategy in ((MAX, pair.max_strategy), (MIN, pair.min_strategy)):
        for state, action in strategy.choices.items():
            if state not in reduction.inverse_states:
                raise StrategyDomainMismatch(
                    f"state {state!r} is not a mirror state", state=state)
            source_state, copy = reduction.inverse_states[state]
            if action not in reduction.inverse_actions:
                raise StrategyDomainMismatch(
                    f"action {action!r} is not a mirror action", action=action)
            source_action, action_copy = reduction.inverse_actions[action]
            if action_copy != copy:
                raise StrategyDomainMismatch(
                    f"copy-{copy} state {state!r} plays copy-{action_copy} action {action!r}",
                    state=state, action=action)
            (copy1 if copy == 1 else copy2)[player][source_state] = source_action

    pair_one = StrategyPair(
        PositionalStrategy(MAX, copy1[MAX]), PositionalStrategy(MIN, copy1[MIN]))
    # roles swap in copy 2: owners there were switched
    pair_two = StrategyPair(
        PositionalStrategy(MAX, copy2[MIN]), PositionalStrategy(MIN, copy2[MAX]))
    return pair_one, pair_two


def compose_mirror_strategies(pair_one: StrategyPair, pair_two: StrategyPair,
                              reduction: Reduction) -> StrategyPair:
    """Inverse of decompose_mirror_strategies."""
    state_map, action_map = reduction.state_map, reduction.action_map
    max_choices = {}
    min_choices = {}
    for state, action in pair_one.max_strategy.choices.items():
        max_choices[state_map[state][0]] = action
    for state, action in pair_one.min_strategy.choices.items():
        min_choices[state_map[state][0]] = action
    for state, action in pair_two.min_strategy.choices.items():
        max_choices[state_map[state][1]] = action_map[action][1]
    for state, action in pair_two.max_strategy.choices.items():
        min_choices[state_map[state][1]] = action_map[action][1]
    return StrategyPair(PositionalStrategy(MAX, max_choices),
                        PositionalStrategy(MIN, min_choices))
