"""Exact evaluation of induced Markov chains.

Discounted values solve (I - beta P) v = (1 - beta) r directly.  Mean
payoffs are true long-run averages: the chain is decomposed into recurrent
classes and transient states, each class gets the gain of its exact
stationary distribution, and transient states mix class gains by exact
absorption probabilities.  The Monte Carlo simulator at the bottom is the
single floating-point component of the package and is never consulted by
any exactness check.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt

from . import linalg
from .errors import (
    InvalidBeta,
    NotUnichain,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumMismatch,
    UnknownState,
)
from .game import Game, InducedChain, StrategyPair, check_pair


@dataclass(frozen=True)
class ValueVector:
    """Per-state rational values, aligned with a fixed state order."""

    state_order: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.state_order) == len(self.values)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.state_order)}

    def at(self, state: str) -> Fraction:
        if state not in self._index:
            raise UnknownState(f"no state {state!r} in value vector", state=state)
        return self.values[self._index[state]]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.state_order, self.values))


@dataclass(frozen=True)
class Distribution:
    """An exact probability distribution over an ordered set of states."""

    state_order: tuple[str, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.state_order) == len(self.mass)
        for state, p in zip(self.state_order, self.mass):
            if not 0 <= p <= 1:
                raise ProbabilityOutOfRange(f"mass {p} at {state!r} outside [0, 1]",
                                            state=state, prob=p)
        total = sum(self.mass)
        if total != 1:
            raise ProbabilitySumMismatch(f"mass sums to {total}, not 1", total=total)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.state_order)}

    def at(self, state: str) -> Fraction:
        if state not in self._index:
            raise UnknownState(f"no state {state!r} in distribution", state=state)
        return self.mass[self._index[state]]


@dataclass(frozen=True)
class RecurrentDecomposition:
    """Recurrent classes (as index tuples into the chain's state order),
    transient state indices, and one exact stationary distribution per
    class (its state_order restricted to the class)."""

    state_order: tuple[str, ...]
    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]
    stationary: tuple[Distribution, ...]


def check_beta(beta: Fraction) -> Fraction:
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise InvalidBeta(f"discount factor {beta} outside [0, 1)", beta=beta)
    return beta


def discounted_values(chain: InducedChain, beta: Fraction) -> ValueVector:
    """Normalised discounted value (1 - beta) * sum_i beta^i r_i, exactly.

    Solves the fixed point v = (1 - beta) r + beta P v.
    """
    beta = check_beta(beta)
    n = len(chain.state_order)
    matrix = [
        [(1 if i == j else 0) - beta * chain.matrix[i][j] for j in range(n)]
        for i in range(n)
    ]
    rhs = [(1 - beta) * r for r in chain.rewards]
    return ValueVector(chain.state_order, tuple(linalg.solve(matrix, rhs)))


def _strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Kosaraju; components listed in no particular order."""
    n = len(succ)
    visited = [False] * n
    finish_order: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        visited[root] = True
        while stack:
            node, ptr = stack[-1]
            if ptr < len(succ[node]):
                stack[-1] = (node, ptr + 1)
                nxt = succ[node][ptr]
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, 0))
            else:
                finish_order.append(node)
                stack.pop()
    pred: list[list[int]] = [[] for _ in range(n)]
    for node in range(n):
        for nxt in succ[node]:
            pred[nxt].append(node)
    assigned = [False] * n
    components = []
    for node in reversed(finish_order):
        if assigned[node]:
            continue
        component = [node]
        assigned[node] = True
        todo = [node]
        while todo:
            cur = todo.pop()
            for nxt in pred[cur]:
                if not assigned[nxt]:
                    assigned[nxt] = True
                    component.append(nxt)
                    todo.append(nxt)
        components.append(component)
    return components


def _class_stationary(chain: InducedChain, members: list[int]) -> list[Fraction]:
    """Stationary distribution of one closed irreducible class.

    Solves pi^T P = pi^T with the last balance row replaced by the
    normalisation sum(pi) = 1; any single row is redundant because the
    balance rows always sum to zero.
    """
    k = len(members)
    matrix = [
        [chain.matrix[members[j]][members[i]] - (1 if i == j else 0) for j in range(k)]
        for i in range(k)
    ]
    matrix[k - 1] = [Fraction(1)] * k
    rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
    pi = linalg.solve(matrix, rhs)
    assert all(p >= 0 for p in pi)
    return pi


def recurrent_stationary(chain: InducedChain) -> RecurrentDecomposition:
    """Recurrent classes, transient states and class stationary distributions.

    A strongly connected component of the support digraph is recurrent
    exactly when no edge leaves it.
    """
    n = len(chain.state_order)
    succ = [[j for j in range(n) if chain.matrix[i][j] > 0] for i in range(n)]
    components = _strongly_connected_components(succ)
    closed = []
    transient: list[int] = []
    for component in components:
        inside = set(component)
        if all(j in inside for i in component for j in succ[i]):
            closed.append(sorted(component))
        else:
            transient.extend(component)
    closed.sort(key=lambda c: c[0])
    stationary = []
    for members in closed:
        pi = _class_stationary(chain, members)
        order = tuple(chain.state_order[i] for i in members)
        stationary.append(Distribution(order, tuple(pi)))
    return RecurrentDecomposition(
        chain.state_order, tuple(tuple(c) for c in closed),
        tuple(sorted(transient)), tuple(stationary))


def _decomposition(chain: InducedChain) -> RecurrentDecomposition:
    """recurrent_stationary(chain), computed once per chain object and kept
    on the chain, the way Game keeps its derived properties."""
    cached = chain.__dict__.get("_decomposition")
    if cached is None:
        cached = chain.__dict__["_decomposition"] = recurrent_stationary(chain)
    return cached


def mean_values(chain: InducedChain) -> ValueVector:
    """Exact long-run average reward from every start state."""
    decomposition = _decomposition(chain)
    n = len(chain.state_order)
    class_gains = [
        sum((p * chain.rewards[i] for i, p in zip(members, dist.mass)), Fraction(0))
        for members, dist in zip(decomposition.classes, decomposition.stationary)
    ]
    gains: list[Fraction | None] = [None] * n
    for members, gain in zip(decomposition.classes, class_gains):
        for i in members:
            gains[i] = gain

    transient = list(decomposition.transient)
    if transient:
        # absorption probabilities: (I - P_TT) X = B, one column per class
        pos = {i: t for t, i in enumerate(transient)}
        k = len(transient)
        matrix = [
            [(1 if a == b else 0) - chain.matrix[transient[a]][transient[b]] for b in range(k)]
            for a in range(k)
        ]
        rhs_rows = []
        for i in transient:
            row = []
            for members in decomposition.classes:
                row.append(sum((chain.matrix[i][j] for j in members), Fraction(0)))
            rhs_rows.append(row)
        absorb = linalg.solve_columns(matrix, rhs_rows)
        for i in transient:
            probs = absorb[pos[i]]
            assert sum(probs) == 1
            gains[i] = sum((p * g for p, g in zip(probs, class_gains)), Fraction(0))

    assert all(g is not None for g in gains)
    return ValueVector(chain.state_order, tuple(gains))


def unichain_stationary(chain: InducedChain) -> Distribution:
    """Stationary distribution over the full state order of a unichain,
    zero on transient states.  Raises NotUnichain otherwise."""
    decomposition = _decomposition(chain)
    if len(decomposition.classes) != 1:
        raise NotUnichain(
            f"chain has {len(decomposition.classes)} recurrent classes",
            classes=len(decomposition.classes))
    mass = [Fraction(0)] * len(chain.state_order)
    for i, p in zip(decomposition.classes[0], decomposition.stationary[0].mass):
        mass[i] = p
    return Distribution(chain.state_order, tuple(mass))


def verify_stationary_recursion(chain: InducedChain, beta: Fraction, s0: str) -> Distribution:
    """Check the reset-transform occupation identity on a chain.

    A chain induced on the reset transform of some game satisfies
    P = beta Q + (1 - beta) 1 e0^T with Q the source chain's matrix.  The
    unique solution of mu = (1 - beta) e0 + beta Q^T mu must then equal the
    chain's stationary distribution.  Solves that fixed point exactly and
    asserts the match; raises NotUnichain when the chain cannot have come
    from the reset transform.
    """
    beta = check_beta(beta)
    if s0 not in chain.state_index:
        raise UnknownState(f"no state {s0!r} in chain", state=s0)
    n = len(chain.state_order)
    origin = chain.state_index[s0]

    if beta == 0:
        for i in range(n):
            for j in range(n):
                expected = Fraction(1 if j == origin else 0)
                if chain.matrix[i][j] != expected:
                    raise NotUnichain(
                        "chain is not the image of a reset transform with beta = 0",
                        state=chain.state_order[i])
        mu = [Fraction(1 if i == origin else 0) for i in range(n)]
    else:
        source = [
            [(chain.matrix[i][j] - (1 - beta) * (1 if j == origin else 0)) / beta
             for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                if source[i][j] < 0:
                    raise NotUnichain(
                        "chain is not the image of a reset transform: "
                        f"row {chain.state_order[i]} lacks the reset mass",
                        state=chain.state_order[i])
        matrix = [
            [(1 if i == j else 0) - beta * source[j][i] for j in range(n)]
            for i in range(n)
        ]
        rhs = [(1 - beta) * (1 if i == origin else 0) for i in range(n)]
        mu = linalg.solve(matrix, rhs)

    stationary = unichain_stationary(chain)
    if tuple(mu) != stationary.mass:
        raise NotUnichain(
            "occupation recursion disagrees with the stationary distribution; "
            "the chain did not come from a reset transform",
            s0=s0)
    return Distribution(chain.state_order, tuple(mu))


@dataclass(frozen=True)
class SimulationResult:
    estimate: float
    stderr: float


def simulate_mean_payoff(game: Game, pair: StrategyPair, start: str,
                         horizon: int, plays: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of the long-run average reward.

    Floating point by design and quarantined from every exactness check.
    Uses the stdlib Mersenne Twister (random.Random) seeded explicitly, so
    a fixed seed reproduces the estimate bit for bit.  Returns the mean of
    per-play averages and its standard error (sample stdev / sqrt(plays),
    zero for a single play).
    """
    check_pair(game, pair)
    if start not in game.state_index:
        raise UnknownState(f"no state {start!r} in game", state=start)
    if horizon < 1 or plays < 1:
        raise ParseError("horizon and plays must be positive", horizon=horizon, plays=plays)

    n = len(game.states)
    reward_of: list[float] = [0.0] * n
    cumulative: list[list[float]] = [[] for _ in range(n)]
    targets: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(game.states):
        action = pair.action_at(game, s.id)
        reward_of[i] = float(game.actions[action])
        acc = 0.0
        for target, prob in game.outgoing[(s.id, action)]:
            acc += float(prob)
            targets[i].append(game.state_index[target])
            cumulative[i].append(acc)
        cumulative[i][-1] = 1.0  # guard against float round-off at the top

    rng = random.Random(seed)
    averages = []
    start_index = game.state_index[start]
    for _ in range(plays):
        here = start_index
        total = 0.0
        for _ in range(horizon):
            total += reward_of[here]
            row = cumulative[here]
            here = targets[here][min(bisect_right(row, rng.random()), len(row) - 1)]
        averages.append(total / horizon)
    estimate = statistics.fmean(averages)
    stderr = statistics.stdev(averages) / sqrt(plays) if plays > 1 else 0.0
    return SimulationResult(estimate, stderr)
