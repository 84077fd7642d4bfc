"""Exact data model for finite zero-sum stochastic games.

A game is a finite directed multigraph.  Each state is owned by one of two
players (``max`` or ``min``); the owner picks an available action, the action
pays a rational reward, and the successor is drawn from the action's exact
transition probabilities.  Multi-edges and self-loops are allowed, sinks are
not.  Every probability and reward is a ``fractions.Fraction``; nothing in
this module ever rounds.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator

from .errors import (
    CombinatorialLimitExceeded,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumMismatch,
    RationalTooLong,
    SinkState,
    StrategyDomainMismatch,
    UnknownReference,
    rational_digits,
    rational_text,
)

MAX = "max"
MIN = "min"
PLAYERS = (MAX, MIN)

# Strategy enumeration refuses to run past this many strategies (or strategy
# pairs, for the pair-based solvers) unless the caller raises the cap.
DEFAULT_ENUMERATION_CAP = 10**6

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "n" (decimal integers only) into a Fraction.  JSON
    booleans are not rationals."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {text!r}", value=repr(text))
    try:
        return Fraction(text.strip())
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise ParseError(f"rational literal too long: {exc}", length=len(text)) from exc


def format_rational(value) -> str:
    """Lowest-terms "p/q", or "n" when the denominator is one.  Past the
    interpreter's int-string digit limit, raises RationalTooLong with the
    digit count, not the value."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        digits = rational_digits(value)
        raise RationalTooLong(f"a rational with {digits} digits is too long to write",
                              digits=digits, limit=sys.get_int_max_str_digits()) from exc


@dataclass(frozen=True)
class State:
    id: str
    owner: str


@dataclass(frozen=True)
class Transition:
    source: str
    action: str
    target: str
    prob: Fraction


@dataclass(frozen=True, eq=True)
class Game:
    """A validated game.  Construct through validate_game or build_game only.

    ``states`` and ``transitions`` keep canonical order (declaration order
    for states; transitions sorted by source index, action id, target
    index after parallel edges are merged).  ``actions`` maps action id to
    its reward.
    """

    states: tuple[State, ...]
    actions: dict[str, Fraction]
    transitions: tuple[Transition, ...]

    @cached_property
    def state_order(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.states)}

    @cached_property
    def owner(self) -> dict[str, str]:
        return {s.id: s.owner for s in self.states}

    @cached_property
    def available_actions(self) -> dict[str, tuple[str, ...]]:
        """Actions available at each state, sorted by action id."""
        out: dict[str, set[str]] = {s.id: set() for s in self.states}
        for t in self.transitions:
            out[t.source].add(t.action)
        return {s: tuple(sorted(acts)) for s, acts in out.items()}

    @cached_property
    def outgoing(self) -> dict[tuple[str, str], tuple[tuple[str, Fraction], ...]]:
        """(state, action) -> ((target, prob), ...) in canonical order."""
        out: dict[tuple[str, str], list[tuple[str, Fraction]]] = {}
        for t in self.transitions:
            out.setdefault((t.source, t.action), []).append((t.target, t.prob))
        return {k: tuple(v) for k, v in out.items()}

    def states_of(self, player: str) -> tuple[str, ...]:
        return tuple(s.id for s in self.states if s.owner == player)


@dataclass(frozen=True)
class PositionalStrategy:
    """A deterministic stationary strategy: one action per owned state."""

    player: str
    choices: dict[str, str]


@dataclass(frozen=True)
class StrategyPair:
    max_strategy: PositionalStrategy
    min_strategy: PositionalStrategy

    def action_at(self, game: Game, state: str) -> str:
        if game.owner[state] == MAX:
            return self.max_strategy.choices[state]
        return self.min_strategy.choices[state]


@dataclass(frozen=True)
class InducedChain:
    """The Markov chain a fixed strategy pair induces on a game.

    Each row is stored once, in integers: ``rows[i] = (den, ((j, num), ...))``
    with targets j ascending and distinct and every num positive, so that
    P_ij = num / den.  ``rewards[i]`` is the reward of the action chosen at
    state i.
    """

    state_order: tuple[str, ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    rewards: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.state_order)
        if len(self.rows) != n or len(self.rewards) != n:
            raise ProbabilitySumMismatch(f"{len(self.rows)} rows and {len(self.rewards)} "
                                         f"rewards for {n} states", states=n)
        for state, (den, entries) in zip(self.state_order, self.rows):
            if den <= 0 or any(num <= 0 for _, num in entries):
                raise ProbabilityOutOfRange(f"non-positive integer in row {state!r}", state=state)
            bounds = [-1, *(j for j, _ in entries), n]
            if (any(a >= b for a, b in zip(bounds, bounds[1:]))
                    or sum(num for _, num in entries) != den):
                raise ProbabilitySumMismatch(f"row {state!r} is not one distribution over "
                                             "ascending, distinct states", state=state)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.state_order)}

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense transition matrix, built on first read.  No evaluation
        reads it; it stays as a view for tests and the benchmark's tracing."""
        n = len(self.rows)
        dense = [[Fraction(0)] * n for _ in range(n)]
        for row, (den, entries) in zip(dense, self.rows):
            for j, num in entries:
                row[j] = Fraction(num, den)
        return tuple(map(tuple, dense))


def build_game(states, actions, transitions) -> Game:
    """Assemble a Game from already-parsed pieces, enforcing every invariant.

    Parallel transitions with the same (source, action, target) are merged
    by summing their probabilities.  Raises SinkState,
    ProbabilitySumMismatch, ProbabilityOutOfRange or UnknownReference.
    """
    state_tuple = tuple(State(s.id, s.owner) if isinstance(s, State) else State(*s) for s in states)
    seen = set()
    for s in state_tuple:
        if s.id in seen:
            raise ParseError(f"duplicate state id {s.id!r}", state=s.id)
        seen.add(s.id)
        if s.owner not in PLAYERS:
            raise ParseError(f"owner of {s.id!r} must be 'max' or 'min'", state=s.id)
    # state and action ids live in separate namespaces; collisions are legal
    action_map = dict(actions)
    index = {s.id: i for i, s in enumerate(state_tuple)}
    merged: dict[tuple[str, str, str], Fraction] = {}
    for t in transitions:
        source, action, target, prob = (t.source, t.action, t.target, t.prob) if isinstance(t, Transition) else t
        if source not in index:
            raise UnknownReference(f"transition from unknown state {source!r}", kind="state", id=source)
        if target not in index:
            raise UnknownReference(f"transition to unknown state {target!r}", kind="state", id=target)
        if action not in action_map:
            raise UnknownReference(f"transition uses unknown action {action!r}", kind="action", id=action)
        prob = Fraction(prob)
        if not 0 < prob <= 1:
            raise ProbabilityOutOfRange(
                f"probability {rational_text(prob)} of {source}-{action}->{target} outside (0, 1]",
                source=source, action=action, target=target, prob=prob)
        key = (source, action, target)
        merged[key] = merged.get(key, Fraction(0)) + prob

    sums: dict[tuple[str, str], Fraction] = {}
    for (source, action, _), prob in merged.items():
        sums[(source, action)] = sums.get((source, action), Fraction(0)) + prob
    for (source, action), total in sums.items():
        if total != 1:
            raise ProbabilitySumMismatch(
                f"probabilities of action {action!r} at state {source!r} sum to {rational_text(total)}",
                state=source, action=action, total=total)

    has_action = {source for source, _ in sums}
    for s in state_tuple:
        if s.id not in has_action:
            raise SinkState(f"state {s.id!r} has no outgoing action", state=s.id)

    canonical = sorted(merged.items(), key=lambda kv: (index[kv[0][0]], kv[0][1], index[kv[0][2]]))
    transition_tuple = tuple(Transition(s, a, t, p) for (s, a, t), p in canonical)
    return Game(state_tuple, action_map, transition_tuple)


def validate_game(raw: dict) -> Game:
    """Parse a raw game description (decoded JSON) and enforce all invariants."""
    if not isinstance(raw, dict):
        raise ParseError("game description must be a JSON object")
    for key in ("states", "actions", "transitions"):
        if key not in raw or not isinstance(raw[key], list):
            raise ParseError(f"game description needs a {key!r} array", field=key)
    try:
        states = [State(str(s["id"]), str(s["owner"]).lower()) for s in raw["states"]]
        actions = {str(a["id"]): parse_rational(a["reward"]) for a in raw["actions"]}
        transitions = [
            (str(t["from"]), str(t["action"]), str(t["to"]), parse_rational(t["prob"]))
            for t in raw["transitions"]
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed game description: {exc!r}") from exc
    if len(actions) != len(raw["actions"]):
        raise ParseError("duplicate action id")
    return build_game(states, actions, transitions)


def game_to_json_dict(game: Game) -> dict:
    return {
        "states": [{"id": s.id, "owner": s.owner} for s in game.states],
        "actions": [{"id": a, "reward": format_rational(r)} for a, r in game.actions.items()],
        "transitions": [
            {"from": t.source, "action": t.action, "to": t.target, "prob": format_rational(t.prob)}
            for t in game.transitions
        ],
    }


def check_pair(game: Game, pair: StrategyPair) -> None:
    """Raise StrategyDomainMismatch unless the pair exactly fits the game."""
    for strategy, player in ((pair.max_strategy, MAX), (pair.min_strategy, MIN)):
        if strategy.player != player:
            raise StrategyDomainMismatch(
                f"strategy labelled {strategy.player!r} used for player {player!r}", player=player)
        owned = set(game.states_of(player))
        domain = set(strategy.choices)
        if domain != owned:
            raise StrategyDomainMismatch(
                f"{player} strategy domain {sorted(domain)} != owned states {sorted(owned)}",
                player=player, domain=sorted(domain), owned=sorted(owned))
        for state, action in strategy.choices.items():
            if action not in game.available_actions[state]:
                raise StrategyDomainMismatch(
                    f"action {action!r} not available at state {state!r}",
                    state=state, action=action)


def induced_chain(game: Game, pair: StrategyPair) -> InducedChain:
    """The Markov chain obtained by fixing both players' choices."""
    check_pair(game, pair)
    rows = []
    rewards = []
    for s in game.states:
        action = pair.action_at(game, s.id)
        # targets of an action are merged and ascending (build_game)
        out = game.outgoing[(s.id, action)]
        den = lcm(*(p.denominator for _, p in out))
        rows.append((den, tuple((game.state_index[t], p.numerator * (den // p.denominator))
                                for t, p in out)))
        rewards.append(game.actions[action])
    return InducedChain(game.state_order, tuple(rows), tuple(rewards))


def strategy_count(game: Game, player: str) -> int:
    count = 1
    for s in game.states_of(player):
        count *= len(game.available_actions[s])
    return count


def enumerate_strategies(game: Game, player: str,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[PositionalStrategy]:
    """All positional strategies of one player, exactly once each.

    Order is lexicographic by (state id, action id): states sorted by id,
    the action at the first state varying slowest.  A player owning no
    states has exactly one strategy, the empty one.
    """
    if player not in PLAYERS:
        raise StrategyDomainMismatch(f"unknown player {player!r}", player=player)
    count = strategy_count(game, player)
    if count > cap:
        raise CombinatorialLimitExceeded(
            f"{count} strategies for {player} exceeds cap {cap}", count=count, cap=cap)
    owned = sorted(game.states_of(player))
    menus = [game.available_actions[s] for s in owned]

    def gen():
        for combo in itertools.product(*menus):
            yield PositionalStrategy(player, dict(zip(owned, combo)))

    return gen()
