"""Exact evaluation of induced Markov chains.

Discounted values solve (I - beta P) v = (1 - beta) r directly, in the
smallest integers that system needs, and their vector keeps the solve's
integer view and makes its Fractions only when read.  Mean payoffs are
true long-run averages: the chain is decomposed into recurrent classes
and transient states, each class gets the gain of its exact stationary
distribution, and transient states mix class gains by exact absorption
probabilities.  One closed class takes no absorption system:
every state is absorbed into it, so every state gets its gain (Puterman
1994, ch. 8).  Each system is built in integers straight from the chain's
rows, every row scaled by the denominators it reads.  The reset identity
(a reset chain's mean value equals its source's discounted value) has no
certificate here: ``solvers.verify_star`` checks it by comparing two exact
solves, ``mean_values`` and ``discounted_values``.  A law known from
elsewhere, such as the mirror lemma's, is certified, not solved again,
by two halves, each with one home here: the integer residual x P - x
over rows brought to one denominator (``common_rows``,
``stationary_residual``), which also sums over part of the states, so
that a law made of parts has one residual per part, and the reach search
(``attractor``), which also runs on a whole game's action menus, so that
one search covers every strategy pair's chain: the double game's tables
(``transforms.Reduction.tables``) run it once, and each source pair's
record (``solvers._source``) keeps its two copies' residuals, which
``solvers._mirror`` sums.
``linalg.solve_scaled`` hands back integers (det, y), x = y / det;
stationary masses, absorption sums and gains stay integers over one
denominator, and Fractions are only views (discounted values, gains,
``Distribution.mass``); the solvers compare value vectors through their
integer view ``ValueVector.scaled``, the one form in which a pair's
values pass between them, and a discounted vector is made from that view
(``ValueVector.from_scaled``).  The Monte Carlo simulator at the bottom is
the single floating-point component of the package and is never consulted
by any exactness check.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm, sqrt

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
from .game import Game, InducedChain, StrategyPair, induced_chain, scale


@dataclass(frozen=True)
class ValueVector:
    """Per-state rational values, aligned with a fixed state order.

    Made from Fractions, ``ValueVector(state_order, values)``, or from an
    integer view by ``from_scaled``, which keeps the view as ``scaled`` and
    makes ``values`` from it only on first read (``__getattr__``).  Either
    way ``scaled`` is ``game.scale(values)``, and equality, hash and repr
    are those of (state_order, values)."""

    state_order: tuple[str, ...]
    values: tuple[Fraction, ...]

    @classmethod
    def from_scaled(cls, state_order: tuple[str, ...], d: int, y) -> ValueVector:
        """The values y_i / d, d > 0: ``scaled`` is (d, y) over g = gcd(d, *y),
        which is ``scale(values)``, since lcm_i(d / gcd(d, y_i)) = d / g."""
        common = gcd(d, *y)
        vector = object.__new__(cls)
        vector.__dict__.update(state_order=state_order,
                               scaled=(d // common, tuple(v // common for v in y)))
        vector.__post_init__()
        return vector

    def __post_init__(self):
        given = self.__dict__.get("values")
        count = len(self.scaled[1] if given is None else given)
        if len(self.state_order) != count:
            raise UnknownState(f"{count} values for {len(self.state_order)} states",
                               states=len(self.state_order))

    def __getattr__(self, name: str):
        """``values`` of a vector made by ``from_scaled``, made on first read."""
        if name != "values" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        d, y = self.scaled
        values = self.__dict__["values"] = tuple(Fraction(v, d) for v in y)
        return values

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.state_order)}

    def at(self, state: str) -> Fraction:
        if state not in self._index:
            raise UnknownState(f"no state {state!r} in value vector", state=state)
        return self.values[self._index[state]]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.state_order, self.values))

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """The integer view (D, y = D v) of the values (``game.scale``)."""
        return scale(self.values)


@dataclass(frozen=True)
class Distribution:
    """An exact probability distribution over an ordered set of states: mass
    i is numerators[i] / denominator, brought to lowest common terms (den > 0,
    gcd(den, *nums) = 1), a unique form, so equality is equality of masses.
    ``mass`` is the Fraction view."""

    state_order: tuple[str, ...]
    denominator: int
    numerators: tuple[int, ...]

    def __post_init__(self):
        den, nums = self.denominator, self.numerators
        if len(self.state_order) != len(nums):
            raise ProbabilitySumMismatch(f"{len(nums)} masses for "
                                         f"{len(self.state_order)} states",
                                         states=len(self.state_order))
        if den == 0:
            raise ProbabilityOutOfRange("mass denominator is 0", denominator=0)
        common = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if common != 1:
            den, nums = den // common, tuple(num // common for num in nums)
            object.__setattr__(self, "denominator", den)
            object.__setattr__(self, "numerators", nums)
        for state, num in zip(self.state_order, nums):
            if not 0 <= num <= den:
                p = Fraction(num, den)
                raise ProbabilityOutOfRange(f"mass {rational_text(p)} at {state!r} outside [0, 1]",
                                            state=state, prob=p)
        if sum(nums) != den:
            total = sum(self.mass)
            raise ProbabilitySumMismatch(f"mass sums to {rational_text(total)}, not 1", total=total)

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.denominator) for num in self.numerators)


@dataclass(frozen=True)
class RecurrentDecomposition:
    """Recurrent classes (as index tuples into the chain's state order),
    transient state indices, and one exact stationary distribution per
    class (its state_order restricted to the class)."""

    state_order: tuple[str, ...]
    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]
    stationary: tuple[Distribution, ...]


def check_beta(beta: Fraction | None) -> Fraction:
    if beta is None:
        raise InvalidBeta("discounted criterion needs a beta", beta=None)
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise InvalidBeta(f"discount factor {rational_text(beta)} outside [0, 1)", beta=beta)
    return beta


def discounted_values(chain: InducedChain, beta: Fraction) -> ValueVector:
    """Normalised discounted value (1 - beta) * sum_i beta^i r_i, exactly.

    Solves the fixed point v = (1 - beta) r + beta P v in integers: with
    beta = b/c and T the lcm of the reward denominators, row i of I - beta
    P times c den_i, and its right-hand side (c - b) den_i r_i times T, so
    that x = T v.  The vector keeps the integer view (det T, y), and its
    Fractions are made only when read (``ValueVector.from_scaled``).
    """
    beta = check_beta(beta)
    b, c = beta.numerator, beta.denominator
    common = lcm(*(r.denominator for r in chain.rewards))
    matrix = []
    rhs_rows = []
    for i, ((den, entries), r) in enumerate(zip(chain.rows, chain.rewards)):
        row = [0] * len(chain.rows)
        for j, num in entries:
            row[j] = -b * num
        row[i] += c * den
        matrix.append(row)
        rhs_rows.append([(c - b) * den * r.numerator * (common // r.denominator)])
    det, y = linalg.solve_scaled(matrix, rhs_rows)
    return ValueVector.from_scaled(chain.state_order, det * common, [v for v, in y])


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


def _class_stationary(chain: InducedChain, members: list[int]) -> Distribution:
    """Stationary distribution of one closed irreducible class.

    Solves pi^T P = pi^T with the last balance row replaced by the
    normalisation sum(pi) = 1; any single row is redundant because the
    balance rows always sum to zero.  The unknowns are x_i = pi_i / den_i,
    which make every balance row integral, and pi_i = den_i y_i / det.
    """
    pos = {i: a for a, i in enumerate(members)}
    dens = [chain.rows[i][0] for i in members]
    matrix = [[0] * len(members) for _ in members]
    for a, i in enumerate(members):
        matrix[a][a] = -dens[a]
        for j, num in chain.rows[i][1]:
            matrix[pos[j]][a] += num
    matrix[-1] = dens
    det, y = linalg.solve_scaled(matrix, [[0]] * (len(members) - 1) + [[1]])
    return Distribution(tuple(chain.state_order[i] for i in members), det,
                        tuple(den * yi for den, (yi,) in zip(dens, y)))


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
    stationary = tuple(_class_stationary(chain, members) for members in closed)
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
    """Exact long-run average reward from every start state.

    A recurrent state gets its class gain, a transient one the class gains
    mixed by its absorption probabilities.  With one closed class that mix
    is the class gain, so no absorption system is solved.
    """
    decomposition = _decomposition(chain)
    n = len(chain.state_order)
    gains: list[Fraction | None] = [None] * n
    class_gains = []
    for members, dist in zip(decomposition.classes, decomposition.stationary):
        # sum(num_i r_i) / den as one integer sum over the lcm of the r_i denominators
        common, rewards = scale([chain.rewards[i] for i in members])
        total = sum(num * r for num, r in zip(dist.numerators, rewards))
        gain = Fraction(total, dist.denominator * common)
        class_gains.append(gain)
        for i in members:
            gains[i] = gain

    transient = decomposition.transient
    if len(class_gains) == 1:  # every transient state is absorbed into the one class
        for i in transient:
            gains[i] = gain
    elif transient:
        # absorption probabilities: (I - P_TT) X = B, one column per class,
        # each row times its denominator
        home = {i: c for c, members in enumerate(decomposition.classes) for i in members}
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
        det, y = linalg.solve_scaled(matrix, rhs_rows)
        # gain_i = sum_k y_ik g_k / det, over the lcm of the class gains' denominators
        common, scaled = scale(class_gains)
        for i, probs in zip(transient, y):
            total = sum(probs)
            if total != det:
                total = Fraction(total, det)
                raise ProbabilitySumMismatch(
                    f"absorption from {chain.state_order[i]!r} sums to {rational_text(total)}, not 1",
                    state=chain.state_order[i], total=total)
            gains[i] = Fraction(sum(p * g for p, g in zip(probs, scaled)), det * common)

    # by identity: ``None in gains`` would call Fraction.__eq__ on every gain
    state = next((s for s, g in zip(chain.state_order, gains) if g is None), None)
    if state is not None:
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
    dist = decomposition.stationary[0]
    nums = [0] * len(chain.state_order)
    for i, num in zip(decomposition.classes[0], dist.numerators):
        nums[i] = num
    return Distribution(chain.state_order, dist.denominator, tuple(nums))


def common_rows(rows) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """Chain rows (den, ((j, num), ...)) over one common denominator L, the
    lcm of their dens: (L, [((j, num L / den), ...), ...])."""
    rows = list(rows)
    common = lcm(*(den for den, _ in rows))
    return common, [tuple((j, num * (common // den)) for j, num in entries)
                    for den, entries in rows]


def stationary_residual(common: int, n: int, weighted) -> list[int]:
    """common (x P - x) on n states, in one integer multiply-add pass, for
    x given as (i, x_i, row_i) triples, row_i the entries of P_i = row_i /
    common from ``common_rows``, and x 0 at every state not given; rows
    where x is 0 add nothing and are skipped."""
    out = [0] * n
    for i, xi, entries in weighted:
        if xi:
            out[i] -= common * xi
            for j, num in entries:
                out[j] += xi * num
    return out


def attractor(menus, start: int) -> set[int]:
    """The states from which every choice of one action per state reaches
    ``start``: ``menus[i]`` lists, per action of state i, the action's
    successors.  A state joins once every one of its actions has a successor
    inside: the attractor of ``start`` when no player steers towards it
    (Zielonka 1998), so each pair's chain reaches ``start`` from every state
    inside.  With one action per state it is the set of states that reach
    ``start``, found by one reverse search."""
    missing = [len(actions) for actions in menus]  # actions with no successor inside yet
    pred: list[list[tuple[int, int]]] = [[] for _ in menus]
    for i, actions in enumerate(menus):
        for k, targets in enumerate(actions):
            for j in targets:
                pred[j].append((i, k))
    inside, todo, satisfied = {start}, [start], set()
    while todo:
        for i, k in pred[todo.pop()]:
            if i not in inside and (i, k) not in satisfied:
                satisfied.add((i, k))
                missing[i] -= 1
                if not missing[i]:
                    inside.add(i)
                    todo.append(i)
    return inside


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
    # each row ends at 1.0 exactly and random() < 1.0, so bisect_right stays
    # below len(row) even when round-off lifts an earlier partial sum to 1.0
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
            here = targets[here][bisect_right(row, rng.random())]
        averages.append(total / horizon)
    estimate = statistics.fmean(averages)
    stderr = statistics.stdev(averages) / sqrt(plays) if plays > 1 else 0.0
    return SimulationResult(estimate, stderr)
