"""Exact evaluation of induced Markov chains.

Discounted values solve (I - beta P) v = (1 - beta) r directly.  Mean
payoffs are true long-run averages: the chain is decomposed into recurrent
classes and transient states, each class gets the gain of its exact
stationary distribution, and transient states mix class gains by exact
absorption probabilities.  The restart-occupation recursion is one more
system.  Each of them is built in integers straight from the chain's rows,
every row scaled by the denominators it reads, so ``linalg`` gets integer
rows in and hands Fractions back only as the solution.  The Monte Carlo
simulator at the bottom is the single floating-point component of the
package and is never consulted by any exactness check.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import sqrt

from . import linalg
from .errors import (
    InvalidBeta,
    NotUnichain,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumMismatch,
    UnknownState,
    rational_text,
)
from .game import Game, InducedChain, StrategyPair, induced_chain


@dataclass(frozen=True)
class ValueVector:
    """Per-state rational values, aligned with a fixed state order."""

    state_order: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.state_order) != len(self.values):
            raise UnknownState(f"{len(self.values)} values for {len(self.state_order)} states",
                               states=len(self.state_order))

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
        if len(self.state_order) != len(self.mass):
            raise ProbabilitySumMismatch(f"{len(self.mass)} masses for "
                                         f"{len(self.state_order)} states",
                                         states=len(self.state_order))
        for state, p in zip(self.state_order, self.mass):
            if not 0 <= p <= 1:
                raise ProbabilityOutOfRange(f"mass {rational_text(p)} at {state!r} outside [0, 1]",
                                            state=state, prob=p)
        total = sum(self.mass)
        if total != 1:
            raise ProbabilitySumMismatch(f"mass sums to {rational_text(total)}, not 1", total=total)

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
        raise InvalidBeta(f"discount factor {rational_text(beta)} outside [0, 1)", beta=beta)
    return beta


def discounted_values(chain: InducedChain, beta: Fraction) -> ValueVector:
    """Normalised discounted value (1 - beta) * sum_i beta^i r_i, exactly.

    Solves the fixed point v = (1 - beta) r + beta P v.
    """
    beta = check_beta(beta)
    # with beta = b/c, row i of I - beta P times c * den_i is integral, and
    # times the denominator of its right-hand side t = (c - b) den_i r_i too
    b, c = beta.numerator, beta.denominator
    matrix = []
    rhs = []
    for i, ((den, entries), r) in enumerate(zip(chain.rows, chain.rewards)):
        t = (c - b) * den * r
        row = [0] * len(chain.rows)
        for j, num in entries:
            row[j] = -b * num * t.denominator
        row[i] += c * den * t.denominator
        matrix.append(row)
        rhs.append(t.numerator)
    return ValueVector(chain.state_order, tuple(linalg.solve(matrix, rhs)))


def _strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Kosaraju; components listed in no particular order."""
    n = len(succ)
    visited = [False] * n
    finish_order: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, todo = stack[-1]
            for nxt in todo:
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
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
        for cur in component:  # also visits the members appended below
            for nxt in pred[cur]:
                if not assigned[nxt]:
                    assigned[nxt] = True
                    component.append(nxt)
        components.append(component)
    return components


def _class_stationary(chain: InducedChain, members: list[int]) -> tuple[Fraction, ...]:
    """Stationary distribution of one closed irreducible class.

    Solves pi^T P = pi^T with the last balance row replaced by the
    normalisation sum(pi) = 1; any single row is redundant because the
    balance rows always sum to zero.  The unknowns are x_i = pi_i / den_i,
    which make every balance row integral.
    """
    pos = {i: a for a, i in enumerate(members)}
    dens = [chain.rows[i][0] for i in members]
    matrix = [[0] * len(members) for _ in members]
    for a, i in enumerate(members):
        matrix[a][a] = -dens[a]
        for j, num in chain.rows[i][1]:
            matrix[pos[j]][a] += num
    matrix[-1] = dens
    x = linalg.solve(matrix, [0] * (len(members) - 1) + [1])
    return tuple(den * xi for den, xi in zip(dens, x))


def recurrent_stationary(chain: InducedChain) -> RecurrentDecomposition:
    """Recurrent classes, transient states and class stationary distributions.

    A strongly connected component of the support digraph is recurrent
    exactly when no edge leaves it.
    """
    succ = [[j for j, _ in entries] for _, entries in chain.rows]
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
    stationary = tuple(
        Distribution(tuple(chain.state_order[i] for i in members), _class_stationary(chain, members))
        for members in closed)
    return RecurrentDecomposition(
        chain.state_order, tuple(tuple(c) for c in closed), tuple(sorted(transient)), stationary)


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
    class_gains = [
        sum((p * chain.rewards[i] for i, p in zip(members, dist.mass)), Fraction(0))
        for members, dist in zip(decomposition.classes, decomposition.stationary)
    ]
    gains: list[Fraction | None] = [None] * len(chain.state_order)
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
        for i, probs in zip(transient, linalg.solve_columns(matrix, rhs_rows)):
            total = sum(probs)
            if total != 1:
                raise ProbabilitySumMismatch(
                    f"absorption from {chain.state_order[i]!r} sums to {rational_text(total)}, not 1",
                    state=chain.state_order[i], total=total)
            gains[i] = sum((p * g for p, g in zip(probs, class_gains)), Fraction(0))

    if None in gains:
        state = chain.state_order[gains.index(None)]
        raise ProbabilitySumMismatch(f"state {state!r} reaches no recurrent class", state=state)
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
    from the reset transform.  With beta = b/c, the system it solves is
    c (I - P^T + (1 - beta) e0 1^T) mu = (c - b) e0 in x_j = mu_j / den_j.
    """
    beta = check_beta(beta)
    if s0 not in chain.state_index:
        raise UnknownState(f"no state {s0!r} in chain", state=s0)
    b, c = beta.numerator, beta.denominator
    n = len(chain.state_order)
    origin = chain.state_index[s0]
    matrix = [[0] * n for _ in range(n)]
    for j, (state, (den, entries)) in enumerate(zip(chain.state_order, chain.rows)):
        # beta Q = P - (1 - beta) 1 e0^T is non-negative exactly when the
        # reset mass is there; at beta = 0 that puts every row on s0
        if c * dict(entries).get(origin, 0) < (c - b) * den:
            raise NotUnichain(
                f"chain is not the image of a reset transform: row {state} lacks the reset mass",
                state=state)
        matrix[j][j] += c * den
        matrix[origin][j] += (c - b) * den
        for i, num in entries:
            matrix[i][j] -= c * num
    x = linalg.solve(matrix, [(c - b) * (i == origin) for i in range(n)])
    mu = tuple(den * xj for (den, _), xj in zip(chain.rows, x))

    stationary = unichain_stationary(chain)
    if mu != stationary.mass:
        raise NotUnichain(
            "occupation recursion disagrees with the stationary distribution; "
            "the chain did not come from a reset transform",
            s0=s0)
    return Distribution(chain.state_order, mu)


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
    chain = induced_chain(game, pair)
    if start not in game.state_index:
        raise UnknownState(f"no state {start!r} in game", state=start)
    if horizon < 1 or plays < 1:
        raise ParseError("horizon and plays must be positive", horizon=horizon, plays=plays)

    reward_of = [float(r) for r in chain.rewards]
    targets = [[j for j, _ in entries] for _, entries in chain.rows]
    # each row ends at 1.0 exactly, a guard against float round-off at the top
    cumulative = [[*accumulate(num / den for _, num in entries[:-1]), 1.0]
                  for den, entries in chain.rows]

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
