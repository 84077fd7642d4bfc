"""Game transforms: the reset transform and the mirrored double game.

Both are functions of the same three things, a source game, a discount
beta and a start state s0, so one ``Reduction`` object holds those and
derives everything else.  The reset transform splits every source
transition of probability p into a scaled copy (first kind, mass beta * p,
same target) and a reset edge to s0 (second kind, mass (1 - beta) * p).
``Reduction.splits`` is that table, read by the reset game and the map file.

The mirrored double game chains two copies of the reset-transformed game:
first-kind transitions stay inside their copy, second-kind transitions are
redirected to the other copy's start state.  The reset game merges
parallel edges, so the double game is made from the source rows, split
as ``splits`` splits them.  The second copy swaps the two players' roles:
state owners are switched and every action is replaced by a primed twin
whose reward is negated.  ``Reduction.mirrored`` holds the double game's
pieces, its states, actions and rows, and ``Reduction.doubled`` builds a
``Game`` from them only when one is asked for.  A pair of the double game
splits into one source pair per copy in one place,
``decompose_mirror_strategies``, after ``check_pair`` on the double game.

What does not depend on the pair is made once per (game, beta, s0), not
once per ``Reduction``: the source game keeps, per (beta, s0), the reset
game, the source memo of the reduction checks and the mirror evaluator's
integer tables, made from ``mirrored`` (``Reduction.kept``), as
``Game.chain_row`` keeps its rows, so every ``Reduction`` of it at that
(beta, s0), and every verifier that makes one, shares them.  Nothing kept
refers back to the source game: a ``Reduction`` or an evaluator kept
there would make a reference cycle through the game, so the game would
outlive its last reference until a full collection.  The double game is
not kept: with its rows it would more than double what a game keeps.
``verify_star2`` does not build it; ``mirror``, the pipeline's oracle and
a pair whose certificate fails do, once per ``Reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MissingKindAnnotation, UnknownState
from .evaluate import check_beta
from .game import (
    MAX,
    MIN,
    Game,
    State,
    StrategyPair,
    build_game,
    check_pair,
)


@dataclass(frozen=True)
class Reduction:
    """The reduction of ``game`` at discount ``beta`` from start state ``s0``.

    ``state_map`` sends each source state to its (copy-1, copy-2) ids in the
    double game, ``action_map`` each source action to its (plain, primed)
    ids.  The reset game, the double game's pieces and the double game are
    made on first use.
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
        ``"mirror"``, the mirror evaluator's tables (``solvers._tables``).
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
    def mirrored(self) -> tuple[list[State], dict[str, Fraction], list[tuple]]:
        """The double game's pieces: its states (copy 1 in source order,
        then copy 2 with every owner switched), its actions (every source
        action, then every primed twin with the negated reward), and each
        (state, action) with its ((target, mass), ...) in ``Game.outgoing``'s
        form, targets in state order.  A source row's masses split as
        ``splits`` splits them: beta p stays in the copy, and the row's
        second-kind masses, 1 - beta in all, go to the other copy's start."""
        game, beta, state_map, action_map = self.game, self.beta, self.state_map, self.action_map
        states = [State(state_map[s.id][0], s.owner) for s in game.states]
        states += [State(state_map[s.id][1], MIN if s.owner == MAX else MAX) for s in game.states]
        actions = {**game.actions, **{action_map[a][1]: -r for a, r in game.actions.items()}}
        starts, rows = state_map[self.s0], []
        for (s, a), out in game.outgoing.items():
            first = [(t, beta * p) for t, p in out if beta]  # none at beta = 0
            for copy in (0, 1):
                stay = tuple((state_map[t][copy], p) for t, p in first)
                back = ((starts[1 - copy], 1 - beta),)
                # copy 1's states come first, so the back edge ends its rows and starts copy 2's
                rows.append(((state_map[s][copy], action_map[a][copy]),
                             stay + back if copy == 0 else back + stay))
        return states, actions, rows

    @cached_property
    def doubled(self) -> Game:
        """The mirrored double game of ``reset_game``."""
        states, actions, rows = self.mirrored
        return build_game(states, actions, [(s, a, t, p) for (s, a), out in rows for t, p in out])

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

    StrategyDomainMismatch unless the pair fits the double game
    (``check_pair``).  The first returned pair is both players' copy-1
    restrictions, the second the copy-2 restrictions: at each source state,
    the source action that copy plays, primed actions mapped back, played
    by the state's owner in the source game, so the players' roles are
    swapped back.
    """
    check_pair(reduction.doubled, pair)
    game, choices, inverse = reduction.game, pair.choices, reduction.inverse_actions
    return tuple(StrategyPair.from_choices(
        {s: inverse[choices[reduction.state_map[s][copy]]] for s in game.state_order}, game.owner)
        for copy in (0, 1))
