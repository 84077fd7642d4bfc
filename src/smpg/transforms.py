"""Game transforms: the reset transform and the mirrored double game.

Both are functions of the same three things, a source game, a discount
beta and a start state s0, so one ``Reduction`` object holds those and
derives everything else.  The reset transform splits every source
transition of probability p into a scaled copy (first kind, mass beta * p,
same target) and a reset edge to s0 (second kind, mass (1 - beta) * p).
``Reduction.splits`` is that table, read by the reset game and the map file.

The mirrored double game chains two copies of the reset-transformed game:
first-kind transitions stay inside their copy, second-kind transitions are
redirected to the other copy's start state.  The second copy swaps the two
players' roles: state owners are switched and every action is replaced by
a primed twin whose reward is negated.  ``Reduction.tables`` is the double
game's one description, in integers: every (state, action) row over one
common denominator, made from the source game's checked rows and beta =
b/c as ``splits`` splits them (over c den, b num stays in the copy and
(c - b) den crosses to the other copy's start), every reward over one
denominator, and whether every pair's chain reaches copy 1's start.  The
reset game merges parallel edges, so the rows are made from the source
rows, not from it.  ``Reduction.menus`` is the tables' strategy space
(``Menus``): the double game's states, in order, and each state's sorted
actions.  It is the one view of the double game on a computation path:
the verifier's scan, the recovery oracle, the check of a pair from
outside (``check_pair``) and ``decompose_mirror_strategies``, the one
place a pair of the double game splits into one source pair per copy,
all read it.  ``Reduction.doubled`` is the tables' ``Game`` view, built
only for output: ``mirror`` and the pipeline's artifacts.

What does not depend on the pair is made once per (game, beta, s0), not
once per ``Reduction``: the source game keeps, per (beta, s0), the reset
game, the source memo of the reduction checks and the tables
(``Reduction.kept``), as ``Game.chain_row`` keeps its rows, so every
``Reduction`` of it at that (beta, s0), and every verifier that makes one,
shares them.  Nothing kept refers back to the source game: a
``Reduction`` kept there would make a reference cycle through the game,
so the game would outlive its last reference until a full collection.
The menus and the double ``Game`` are not kept: each ``Reduction``
derives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import MissingKindAnnotation, UnknownState
from .evaluate import attractor, check_beta, common_rows
from .game import (
    MAX,
    MIN,
    Game,
    State,
    StrategyPair,
    build_game,
    check_pair,
    scale,
)


class Menus(NamedTuple):
    """What ``check_pair``, ``pair_actions``, ``strategy_count`` and
    ``enumerate_strategies`` read of a game, for a double game that is not
    built: its ``State``s, their ids in order and each state's action ids,
    sorted."""

    states: tuple[State, ...]
    state_order: tuple[str, ...]
    available_actions: dict[str, tuple[str, ...]]

    def states_of(self, player: str) -> tuple[str, ...]:
        return tuple(s.id for s in self.states if s.owner == player)


@dataclass(frozen=True)
class Reduction:
    """The reduction of ``game`` at discount ``beta`` from start state ``s0``.

    ``state_map`` sends each source state to its (copy-1, copy-2) ids in the
    double game, ``action_map`` each source action to its (plain, primed)
    ids.  The reset game, the tables, the double game's states and the
    double game are made on first use.
    """

    game: Game
    beta: Fraction
    s0: str

    def __post_init__(self):
        object.__setattr__(self, "beta", check_beta(self.beta))
        if self.s0 not in self.game.state_index:
            raise UnknownState(f"no state {self.s0!r} in game", state=self.s0)

    @cached_property
    def splits(self) -> tuple[tuple, ...]:
        """Each source transition t with its first-kind mass beta * p and its
        second-kind mass (1 - beta) * p, in the source game's order."""
        beta = self.beta
        return tuple((t, beta * t.prob, (1 - beta) * t.prob) for t in self.game.transitions)

    @cached_property
    def kept(self) -> dict:
        """What the source game keeps for this (beta, s0), in its
        ``__dict__``: ``"reset"``, the reset game once built,
        ``"sources"``, the source memo that ``solvers._source`` fills, and
        ``"mirror"``, the double game's ``tables``.
        Keyed by the beta ``check_beta`` gives, so equal betas share."""
        return self.game.__dict__.setdefault("_reductions", {}).setdefault(
            (self.beta, self.s0), {"sources": {}})

    @cached_property
    def reset_game(self) -> Game:
        """Same states, owners, actions and rewards; every transition split
        into its two kinds.  Zero-mass first-kind edges (beta = 0) are
        dropped.  Built once per (game, beta, s0): ``kept``."""
        kept = self.kept
        if "reset" not in kept:
            edges = []
            for t, first, second in self.splits:
                edges += [(t.source, t.action, t.target, first),
                          (t.source, t.action, self.s0, second)]
            # at beta = 0 every first-kind mass is 0, and a game has no zero-mass edge
            kept["reset"] = build_game(self.game.states, self.game.actions,
                                       [edge for edge in edges if edge[3]])
        return kept["reset"]

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
    def inverse_actions(self) -> dict[str, str]:
        """Double-game action id -> source action."""
        return {action: source for source, ids in self.action_map.items() for action in ids}

    @cached_property
    def tables(self) -> tuple:
        """The double game in integers, made once per (game, beta, s0)
        (``kept``): (L, rows, R, rewards, certifiable).  ``rows`` holds, per
        doubled state (copy 1's states in source order, then copy 2's), a
        dict action -> ((j, num), ...) with targets ascending, P = num / L
        over the one common denominator L.  A source row (den, entries)
        from ``Game.chain_row``, checked there, becomes two rows over c den,
        beta = b/c: b num stays at each target inside the copy (none at beta
        = 0) and (c - b) den goes to the other copy's start, which ends copy
        1's rows and starts copy 2's.  ``rewards`` maps every action, then
        every primed twin with the negated reward, to its numerator over
        one denominator R.  ``certifiable`` says whether every state reaches
        copy 1's start in every pair's chain (``evaluate.attractor``)."""
        kept = self.kept
        if "mirror" not in kept:
            game, b, c = self.game, self.beta.numerator, self.beta.denominator
            n, start, action_map = len(game.states), game.state_index[self.s0], self.action_map
            menus = [{} for _ in range(2 * n)]
            for s, a in game.outgoing:
                den, entries = game.chain_row(s, a)
                stay, back = tuple((j, b * num) for j, num in entries if b), (c - b) * den
                i = game.state_index[s]
                menus[i][a] = (c * den, stay + ((n + start, back),))
                menus[n + i][action_map[a][1]] = (c * den, ((start, back),) + tuple(
                    (n + j, num) for j, num in stay))
            common, scaled = common_rows(row for menu in menus for row in menu.values())
            scaled = iter(scaled)
            actions = {**game.actions, **{action_map[a][1]: -r for a, r in game.actions.items()}}
            reward_den, rewards = scale(actions.values())
            reach = attractor([[[j for j, _ in entries] for _, entries in menu.values()]
                               for menu in menus], start)
            kept["mirror"] = (common, tuple({a: next(scaled) for a in menu} for menu in menus),
                              reward_den, dict(zip(actions, rewards)), len(reach) == 2 * n)
        return kept["mirror"]

    @cached_property
    def menus(self) -> Menus:
        """The double game's strategy space, made from ``tables`` per
        ``Reduction`` and not kept: copy 1's states in source order, then
        copy 2's with every owner switched, and each state's table actions,
        sorted."""
        switched = {MAX: MIN, MIN: MAX}
        states = (*(State(self.state_map[s.id][0], s.owner) for s in self.game.states),
                  *(State(self.state_map[s.id][1], switched[s.owner]) for s in self.game.states))
        ids = tuple(s.id for s in states)
        return Menus(states, ids, {s: tuple(sorted(menu)) for s, menu in zip(ids, self.tables[1])})

    @cached_property
    def doubled(self) -> Game:
        """The mirrored double game of ``reset_game``: the ``Game`` view of
        ``tables``, for output only."""
        common, rows, reward_den, rewards, _ = self.tables
        states, ids, _ = self.menus
        return build_game(states,
                          {a: Fraction(r, reward_den) for a, r in rewards.items()},
                          [(s, a, ids[j], Fraction(num, common)) for s, menu in zip(ids, rows)
                           for a, entries in menu.items() for j, num in entries])

    def check_reset(self, gb: Game) -> None:
        """MissingKindAnnotation unless ``gb`` is this reduction's reset game."""
        if gb != self.reset_game:
            raise MissingKindAnnotation("split record does not describe this game")


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
    reduction.check_reset(gb)
    return reduction.doubled, reduction


def decompose_mirror_strategies(pair: StrategyPair, reduction: Reduction
                                ) -> tuple[StrategyPair, StrategyPair]:
    """Split a strategy pair of the mirrored game into two source pairs.

    StrategyDomainMismatch unless the pair fits the double game's
    ``menus`` (``check_pair``).  The first returned pair is both players'
    copy-1 restrictions, the second the copy-2 restrictions: at each source
    state, the source action that copy plays, primed actions mapped back,
    played by the state's owner in the source game, so the players' roles
    are swapped back.
    """
    check_pair(reduction.menus, pair)
    game, choices, inverse = reduction.game, pair.choices, reduction.inverse_actions
    return tuple(StrategyPair.from_choices(
        {s: inverse[choices[reduction.state_map[s][copy]]] for s in game.state_order}, game.owner)
        for copy in (0, 1))
