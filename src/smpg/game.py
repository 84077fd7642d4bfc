"""Exact data model for finite zero-sum stochastic games.

A game is a finite directed multigraph.  Each state is owned by one of two
players (``max`` or ``min``); the owner picks an available action, the action
pays a rational reward, and the successor is drawn from the action's exact
transition probabilities.  Multi-edges and self-loops are allowed, sinks are
not.  Every probability and reward is a ``fractions.Fraction``; nothing in
this module ever rounds.  ``build_game`` checks the probabilities in
integers, in the loop that makes each (state, action) chain row once; every
chain reads those rows.
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

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "n" (decimal integers only, whitespace around them
    ignored) into a Fraction in one pass: the pattern captures numerator and
    denominator, and ``int`` reads each.  JSON booleans are not rationals."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ParseError(f"not a rational literal: {text!r}", value=repr(text))
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
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


def scale(values) -> tuple[int, tuple[int, ...]]:
    """The integer view (D, y) of rationals: D the lcm of their denominators
    and y = D v.  Views compare by the cross-products y_1 D_2 and y_2 D_1."""
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    return d, tuple(v.numerator * (d // den) for v, den in zip(values, dens))


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
        """(state, action) -> ((target, prob), ...) in canonical order, built
        on first read.  No computation reads it; it stays as a view for
        tests and the benchmark."""
        out: dict[tuple[str, str], list[tuple[str, Fraction]]] = {}
        for t in self.transitions:
            out.setdefault((t.source, t.action), []).append((t.target, t.prob))
        return {k: tuple(v) for k, v in out.items()}

    def chain_row(self, state: str, action: str) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The InducedChain row (den, ((j, num), ...)) of ``action`` at
        ``state``, den the lcm of its probability denominators, targets
        ascending: made and checked once by ``build_game``, only read here."""
        return self._chain_rows[(state, action)]

    def chain(self, actions) -> InducedChain:
        """The chain of the pair that plays ``actions``, one per state in
        state order, taken as valid: ``induced_chain`` checks a pair first."""
        return InducedChain(self.state_order, tuple(map(self.chain_row, self.state_order, actions)),
                            tuple(map(self.actions.__getitem__, actions)))

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

    @property
    def choices(self) -> dict[str, str]:
        """Both players' choices in one dict, merged on every read: a strategy's dict can change."""
        return {**self.max_strategy.choices, **self.min_strategy.choices}

    @classmethod
    def from_choices(cls, choices: dict[str, str], owner: dict[str, str]) -> StrategyPair:
        """The pair whose ``choices`` these are, each given to ``owner[state]``."""
        picks = {MAX: {}, MIN: {}}
        for state, action in choices.items():
            picks[owner[state]][state] = action
        return cls(PositionalStrategy(MAX, picks[MAX]), PositionalStrategy(MIN, picks[MIN]))


class _CheckedRow(tuple):
    """A chain row (den, entries) that passed _checked_row or that build_game made."""
    __slots__ = ()


def _checked_row(state: str, den: int, entries: tuple, n: int) -> _CheckedRow:
    """The row (den, entries) of ``state`` in a chain on n states, marked as checked:
    den and every num positive, targets ascending, distinct, in [0, n), nums summing to den."""
    if den <= 0 or any(num <= 0 for _, num in entries):
        raise ProbabilityOutOfRange(f"non-positive integer in row {state!r}", state=state)
    bounds = [-1, *(j for j, _ in entries), n]
    if any(a >= b for a, b in zip(bounds, bounds[1:])) or sum(num for _, num in entries) != den:
        raise ProbabilitySumMismatch(f"row {state!r} is not one distribution over "
                                     "ascending, distinct states", state=state)
    return _CheckedRow((den, entries))


@dataclass(frozen=True)
class InducedChain:
    """The Markov chain a fixed strategy pair induces on a game.

    Each row is stored once, in integers: ``rows[i] = (den, ((j, num), ...))``
    with targets j ascending and distinct and every num positive, so that
    P_ij = num / den.  ``rewards[i]`` is the reward of the action chosen at
    state i.  A row from ``Game.chain_row`` was checked where ``build_game``
    made it and needs only its last target below n here; any other row is
    checked in full.
    """

    state_order: tuple[str, ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    rewards: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.state_order)
        if len(self.rows) != n or len(self.rewards) != n:
            raise ProbabilitySumMismatch(f"{len(self.rows)} rows and {len(self.rewards)} "
                                         f"rewards for {n} states", states=n)
        for state, row in zip(self.state_order, self.rows):
            if type(row) is not _CheckedRow or row[1][-1][0] >= n:
                den, entries = row
                _checked_row(state, den, entries, n)

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

    The one input form: ``states`` is a sequence of State, ``actions`` maps
    action id to reward, ``transitions`` is a sequence of (source, action,
    target, prob) tuples.  Parallel transitions with the same (source,
    action, target) are merged by summing their probabilities, and each
    (state, action) row is kept on the game for ``Game.chain_row``.  Raises
    ParseError, SinkState, ProbabilitySumMismatch, ProbabilityOutOfRange or
    UnknownReference.
    """
    state_tuple = tuple(states)
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
    merged: dict[tuple[str, str], dict[int, Fraction]] = {}  # parallel edges summed per target
    for source, action, target, prob in transitions:
        if source not in index:
            raise UnknownReference(f"transition from unknown state {source!r}", kind="state", id=source)
        if target not in index:
            raise UnknownReference(f"transition to unknown state {target!r}", kind="state", id=target)
        if action not in action_map:
            raise UnknownReference(f"transition uses unknown action {action!r}", kind="action", id=action)
        if type(prob) is not Fraction:
            prob = Fraction(prob)
        if not 0 < prob.numerator <= prob.denominator:
            raise ProbabilityOutOfRange(
                f"probability {rational_text(prob)} of {source}-{action}->{target} outside (0, 1]",
                source=source, action=action, target=target, prob=prob)
        row, j = merged.setdefault((source, action), {}), index[target]
        row[j] = row[j] + prob if j in row else prob

    rows = {}
    for (source, action), row in merged.items():
        targets = sorted(row)
        # the sum in integers, over the lcm of the merged probabilities' denominators
        den, nums = scale([row[j] for j in targets])
        if sum(nums) != den:
            total = Fraction(sum(nums), den)
            raise ProbabilitySumMismatch(
                f"probabilities of action {action!r} at state {source!r} sum to {rational_text(total)}",
                state=source, action=action, total=total)
        # positive nums over ascending, distinct targets, summing to den: a checked row
        rows[(source, action)] = _CheckedRow((den, tuple(zip(targets, nums))))

    has_action = {source for source, _ in rows}
    for s in state_tuple:
        if s.id not in has_action:
            raise SinkState(f"state {s.id!r} has no outgoing action", state=s.id)

    canonical = sorted(merged, key=lambda key: (index[key[0]], key[1]))
    game = Game(state_tuple, action_map, tuple(
        Transition(s, a, state_tuple[j].id, merged[s, a][j]) for s, a in canonical
        for j, _ in rows[s, a][1]))
    game.__dict__["_chain_rows"] = rows
    return game


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
        seen = set()
        for a in raw["actions"]:
            action = str(a["id"])
            if action in seen:
                raise ParseError(f"duplicate action id {action!r}", action=action)
            seen.add(action)
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


def strategy_pair_to_json_dict(pair: StrategyPair) -> dict:
    return {"max": dict(pair.max_strategy.choices),
            "min": dict(pair.min_strategy.choices)}


def check_pair(game, pair: StrategyPair) -> None:
    """Raise StrategyDomainMismatch unless the pair exactly fits the game, a
    ``Game`` or any view with its ``states_of`` and ``available_actions``."""
    for strategy, player in ((pair.max_strategy, MAX), (pair.min_strategy, MIN)):
        if strategy.player != player:
            raise StrategyDomainMismatch(
                f"strategy labelled {strategy.player!r} used for player {player!r}", player=player)
        if strategy.choices.keys() != set(game.states_of(player)):
            domain, owned = sorted(strategy.choices), sorted(game.states_of(player))
            raise StrategyDomainMismatch(
                f"{player} strategy domain {domain} != owned states {owned}",
                player=player, domain=domain, owned=owned)
        for state, action in strategy.choices.items():
            if action not in game.available_actions[state]:
                raise StrategyDomainMismatch(
                    f"action {action!r} not available at state {state!r}",
                    state=state, action=action)


def pair_actions(game, pair: StrategyPair) -> list[str]:
    """The action the pair plays at each state, in state order, once
    ``check_pair`` has passed; the pair's ``choices`` are read once.
    ``game`` may be any view ``check_pair`` takes that has a ``state_order``."""
    check_pair(game, pair)
    return list(map(pair.choices.__getitem__, game.state_order))


def induced_chain(game: Game, pair: StrategyPair) -> InducedChain:
    """The Markov chain obtained by fixing both players' choices."""
    return game.chain(pair_actions(game, pair))


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
