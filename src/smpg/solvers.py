"""Solvers, recovery routines and the two reduction checks.

Everything here is exact.  The brute-force solver enumerates positional
strategies outright and certifies determinacy (lower value = upper value,
asserted, never assumed).  Strategy iteration is the scalable alternative
for the discounted criterion; it evaluates each strategy pair once.
Recovery turns a claimed value vector back into an optimal strategy pair,
and ``strategic_via_recovery`` runs the full reduction chain: reset
transform, mirrored double game, a recovery oracle invoked with the
all-zero claim, restriction back to the source game.

Strategy iteration and greedy recovery compare one-step lookaheads as
integers over one positive denominator per state (``_Lookahead``), so no
Fraction arithmetic runs per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable

from .errors import (
    CombinatorialLimitExceeded,
    DeterminacyViolation,
    InconsistentValues,
    InvalidBeta,
    NoConsistentStrategy,
    RationalTooLong,
    UnknownState,
    rational_text,
)
from .evaluate import (
    Distribution,
    ValueVector,
    check_beta,
    discounted_values,
    mean_values,
    unichain_stationary,
)
from .game import (
    DEFAULT_ENUMERATION_CAP,
    MAX,
    MIN,
    Game,
    InducedChain,
    PositionalStrategy,
    StrategyPair,
    enumerate_strategies,
    format_rational,
    induced_chain,
    strategy_count,
)
from .transforms import Reduction, beta_recurrent, decompose_mirror_strategies, mirror

MEAN = "mean"
DISCOUNTED = "discounted"
CRITERIA = (MEAN, DISCOUNTED)

# A recovery oracle maps (game, claimed per-state values) to a strategy
# pair witnessing the claim.  reference_recovery_oracle below is one.
RecoveryOracle = Callable[[Game, ValueVector], StrategyPair]


@dataclass(frozen=True)
class Certificate:
    """Per-state lower (sup-inf) and upper (inf-sup) values."""

    state_order: tuple[str, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]


@dataclass(frozen=True)
class Solution:
    criterion: str
    beta: Fraction | None
    values: ValueVector
    optimal_pair: StrategyPair
    certificate: Certificate | None

    def __post_init__(self):
        if self.certificate is not None:
            if not (self.certificate.lower == self.certificate.upper == self.values.values):
                message = "certificate disagrees with the solution values"
                try:
                    payload = {"lower": [format_rational(x) for x in self.certificate.lower],
                               "upper": [format_rational(x) for x in self.certificate.upper]}
                except RationalTooLong as exc:  # report the violation, not the length
                    raise DeterminacyViolation(message, **exc.payload) from exc
                raise DeterminacyViolation(message, **payload)


@dataclass(frozen=True)
class VerificationReport:
    pairs_checked: int
    violations: tuple[dict, ...]
    value: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def evaluate_pair(game: Game, pair: StrategyPair, criterion: str,
                  beta: Fraction | None = None) -> ValueVector:
    """Exact value of a fixed strategy pair under either criterion."""
    chain = induced_chain(game, pair)
    if criterion == MEAN:
        return mean_values(chain)
    if criterion == DISCOUNTED:
        if beta is None:
            raise InvalidBeta("discounted criterion needs a beta", beta=None)
        return discounted_values(chain, beta)
    raise ValueError(f"unknown criterion {criterion!r}")


def _aligned(game: Game, claimed: ValueVector) -> tuple[Fraction, ...]:
    """Reorder a claimed value vector to the game's state order."""
    if claimed.state_order == game.state_order:
        return claimed.values
    if set(claimed.state_order) != set(game.state_order):
        missing = sorted(set(game.state_order) - set(claimed.state_order))
        raise UnknownState(f"claimed values missing states {missing}", states=missing)
    return tuple(claimed.at(s) for s in game.state_order)


class _PairScan:
    """One pass over every positional strategy pair, a row per maximizer
    strategy and a column per minimizer strategy.  ``entry(pair)`` is a
    per-state value tuple; the scan holds one row at a time and keeps only
    the componentwise row minima and running column maxima."""

    def __init__(self, game: Game, cap: int,
                 entry: Callable[[StrategyPair], tuple[Fraction, ...]]):
        max_count, min_count = strategy_count(game, MAX), strategy_count(game, MIN)
        if max_count * min_count > cap:
            raise CombinatorialLimitExceeded(
                f"{max_count} x {min_count} strategy pairs exceed cap {cap}",
                count=max_count * min_count, cap=cap)
        self.max_strats = list(enumerate_strategies(game, MAX, cap))
        self.min_strats = list(enumerate_strategies(game, MIN, cap))
        self.row_min, self.col_max = [], []
        for sigma in self.max_strats:
            row = [entry(StrategyPair(sigma, tau)) for tau in self.min_strats]
            self.row_min.append(tuple(map(min, zip(*row))))
            self.col_max = [tuple(map(max, col, values))
                            for col, values in zip(self.col_max or row, row)]

    def first_saddle(self, target: tuple[Fraction, ...]) -> StrategyPair | None:
        """The first pair in row order that is a saddle point with value
        ``target`` at every state, or None.  Componentwise row_min[i] <=
        entry(i, j) <= col_max[j], so (i, j) qualifies exactly when
        row_min[i] == target == col_max[j]."""
        i = next((i for i, row in enumerate(self.row_min) if row == target), None)
        j = next((j for j, col in enumerate(self.col_max) if col == target), None)
        if i is None or j is None:
            return None
        return StrategyPair(self.max_strats[i], self.min_strats[j])

    def report(self, violations, index: int) -> VerificationReport:
        """A report valued at the max-min of the entries' component ``index``."""
        return VerificationReport(len(self.max_strats) * len(self.min_strats),
                                  tuple(violations), max(row[index] for row in self.row_min))


def brute_force_solve(game: Game, criterion: str, beta: Fraction | None = None,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Solution:
    """Enumerate every positional strategy pair and take exact extrema.

    Returns the per-state value (lower = upper, certified), and the
    lexicographically first pair that attains it simultaneously at every
    state.  DeterminacyViolation is a hard error.
    """
    if criterion == DISCOUNTED:
        if beta is None:
            raise InvalidBeta("discounted criterion needs a beta", beta=None)
        beta = check_beta(beta)
    scan = _PairScan(game, cap,
                     lambda pair: evaluate_pair(game, pair, criterion, beta).values)
    lower = tuple(map(max, zip(*scan.row_min)))
    upper = tuple(map(min, zip(*scan.col_max)))
    if lower != upper:
        state = next(s for s in range(len(lower)) if lower[s] != upper[s])
        raise DeterminacyViolation(
            f"lower {rational_text(lower[state])} != upper {rational_text(upper[state])} at state "
            f"{game.state_order[state]}",
            state=game.state_order[state], lower=lower[state], upper=upper[state])

    pair = scan.first_saddle(lower)
    if pair is None:
        raise DeterminacyViolation("no uniformly optimal strategy exists")

    return Solution(criterion, beta, ValueVector(game.state_order, lower), pair,
                    Certificate(game.state_order, lower, upper))


class _Lookahead:
    """The one-step lookahead q(a) = (1 - beta) r_a + beta * sum_j p_j v_j of
    every action, in integers.

    With beta = b/c, each state s has one positive integer L_s, the lcm of
    the reward and probability denominators of its actions, so R_a = L_s r_a
    and w_j = L_s p_j are integers.  ``scale`` turns a value vector into
    D, the lcm of its denominators, and the integers y_j = D v_j.  Then
    c L_s D q(a) = (c - b) D R_a + b sum_j w_j y_j is an integer, so at one
    state these integers compare exactly as the q values do, and the state's
    own value scales to c L_s y_s.
    """

    def __init__(self, game: Game, beta: Fraction):
        b, c = beta.numerator, beta.denominator
        index = game.state_index
        self.unit: dict[str, int] = {}  # s -> c L_s
        # s -> ((action, (c - b) R_a, ((j, b w_j), ...)), ...) in sorted action order
        self.rows: dict[str, tuple] = {}
        for s in game.state_order:
            available = game.available_actions[s]
            scale = lcm(*(game.actions[a].denominator for a in available),
                        *(p.denominator for a in available for _, p in game.outgoing[(s, a)]))
            self.unit[s] = c * scale
            self.rows[s] = tuple(
                (a, (c - b) * _times(scale, game.actions[a]),
                 tuple((index[t], b * _times(scale, p)) for t, p in game.outgoing[(s, a)]))
                for a in available)

    @staticmethod
    def scale(values: tuple[Fraction, ...]) -> tuple[int, list[int]]:
        """D and the integers y = D v, for values in the game's state order."""
        d = lcm(*(v.denominator for v in values))
        return d, [_times(d, v) for v in values]

    def q(self, s: str, scaled: tuple[int, list[int]]) -> dict[str, int]:
        """c L_s D q(a) for every action available at s, in sorted order."""
        d, y = scaled
        return {a: d * reward + sum(w * y[j] for j, w in successors)
                for a, reward, successors in self.rows[s]}


def _times(multiple: int, x: Fraction) -> int:
    """multiple * x, for a multiple of x's denominator."""
    return x.numerator * (multiple // x.denominator)


def _first_extreme(q: dict[str, int], maximize: bool) -> str:
    """The first action in sorted order whose q is the largest (maximize)
    or the smallest: lexicographic ties."""
    return (max if maximize else min)(q, key=q.__getitem__)


def strategy_iteration_discounted(game: Game, beta: Fraction) -> Solution:
    """Two-player strategy iteration for the discounted criterion.

    Repeatedly: fix the minimizer, compute the maximizer's best response by
    single-player policy iteration (exact evaluation plus greedy
    improvement, switching only on strict gain), then let the minimizer
    switch every state with a strictly improving action.  Stops when the
    minimizer has none; the final values then satisfy the one-step
    optimality equations, which is checked and returned as the certificate.
    Each strategy pair is evaluated once: the evaluation at which the
    maximizer stops switching is the one the minimizer improves on.  Exact
    switching never returns to a pair, so a pair that comes back means a
    faulty evaluation or lookahead and raises DeterminacyViolation.
    """
    beta = check_beta(beta)
    lookahead = _Lookahead(game, beta)
    sigma = {s: game.available_actions[s][0] for s in game.states_of(MAX)}
    tau = {s: game.available_actions[s][0] for s in game.states_of(MIN)}

    def switch(choices: dict[str, str], maximize: bool, scaled) -> bool:
        """Move every state to its first extreme action where that is a
        strict improvement on the current one; whether any state moved."""
        switched = False
        for s in choices:
            q = lookahead.q(s, scaled)
            best = _first_extreme(q, maximize)
            if q[best] != q[choices[s]]:
                choices[s] = best
                switched = True
        return switched

    seen = set()
    while True:
        key = (tuple(sigma.values()), tuple(tau.values()))
        if key in seen:
            raise DeterminacyViolation("strategy iteration came back to a strategy pair",
                                       max=dict(sigma), min=dict(tau))
        seen.add(key)
        pair = StrategyPair(PositionalStrategy(MAX, dict(sigma)),
                            PositionalStrategy(MIN, dict(tau)))
        values = discounted_values(induced_chain(game, pair), beta)
        scaled = lookahead.scale(values.values)
        # the minimizer moves only once the maximizer has stopped switching
        if not switch(sigma, True, scaled) and not switch(tau, False, scaled):
            break

    # the one-step optimality equations are the certificate; re-check them
    d, y = scaled
    for s, v, ys in zip(game.state_order, values.values, y):
        q = lookahead.q(s, scaled)
        extreme = q[_first_extreme(q, game.owner[s] == MAX)]
        if extreme != lookahead.unit[s] * ys:
            raise DeterminacyViolation(
                f"strategy iteration stopped at a non-equilibrium: state {s!r}",
                state=s, value=v, one_step=Fraction(extreme, lookahead.unit[s] * d))

    certificate = Certificate(game.state_order, values.values, values.values)
    return Solution(DISCOUNTED, beta, values, pair, certificate)


def greedy_recovery_discounted(game: Game, beta: Fraction,
                               values: ValueVector) -> StrategyPair:
    """Recover an optimal pair from the true discounted values by one-step
    lookahead, then certify by exact re-evaluation.

    Picks the argmax (maximizer) or argmin (minimizer) of
    (1 - beta) r(A) + beta * sum p * values, breaking ties toward the
    lexicographically smallest action id.  If the pair does not re-evaluate
    to the supplied values exactly, they were not the true values:
    InconsistentValues.
    """
    beta = check_beta(beta)
    claimed = _aligned(game, values)
    lookahead = _Lookahead(game, beta)
    scaled = lookahead.scale(claimed)
    sigma = {}
    tau = {}
    for s in game.state_order:
        maximize = game.owner[s] == MAX
        (sigma if maximize else tau)[s] = _first_extreme(lookahead.q(s, scaled), maximize)
    pair = StrategyPair(PositionalStrategy(MAX, sigma), PositionalStrategy(MIN, tau))
    check = discounted_values(induced_chain(game, pair), beta)
    for s, v in zip(game.state_order, claimed):
        if check.at(s) != v:
            raise InconsistentValues(
                f"greedy pair re-evaluates to {rational_text(check.at(s))} at {s!r}, "
                f"claimed {rational_text(v)}",
                state=s, claimed=v, reevaluated=check.at(s))
    return pair


def reference_recovery_oracle(game: Game, claimed: ValueVector,
                              cap: int = DEFAULT_ENUMERATION_CAP) -> StrategyPair:
    """Recovery oracle by exhaustion, for the mean-payoff criterion.

    Returns the lexicographically first pair that both evaluates to the
    claimed values at every state and is a saddle point (no unilateral
    positional deviation helps either player anywhere).  Raises
    NoConsistentStrategy when no pair qualifies.
    """
    target = _aligned(game, claimed)
    scan = _PairScan(game, cap, lambda pair: evaluate_pair(game, pair, MEAN).values)
    pair = scan.first_saddle(target)
    if pair is None:
        raise NoConsistentStrategy(
            "no strategy pair attains the claimed values as a saddle point",
            claimed=[rational_text(x) for x in target])
    return pair


def strategic_via_recovery(game: Game, beta: Fraction, oracle: RecoveryOracle,
                           on_stage: Callable | None = None) -> Solution:
    """Solve a game strategically using only a recovery oracle.

    Per start state: apply the reset transform there, mirror it into the
    zero-value double game, ask the oracle for a pair witnessing the
    all-zero claim, and read the state's discounted value off the copy-1
    restriction (the mean value of the reset transform at its start state
    equals the discounted value of the source).  The assembled vector feeds
    greedy recovery; the recovered pair is reported with its exact
    mean-payoff evaluation.  For beta close enough to one this coincides
    exactly with the brute-force mean-payoff solution.

    ``on_stage``, if given, is called once per start state with
    (state, reduction, witness, value); the pipeline subcommand uses it to
    write per-stage artifacts.
    """
    beta = check_beta(beta)
    assembled = []
    for s in game.state_order:
        reduction = Reduction(game, beta, s)
        doubled = reduction.doubled
        zero = ValueVector(doubled.state_order,
                           tuple(Fraction(0) for _ in doubled.state_order))
        witness = oracle(doubled, zero)
        pair_one, _pair_two = decompose_mirror_strategies(witness, reduction)
        value_at_s = mean_values(induced_chain(reduction.reset_game, pair_one)).at(s)
        assembled.append(value_at_s)
        if on_stage is not None:
            on_stage(s, reduction, witness, value_at_s)

    discounted_vector = ValueVector(game.state_order, tuple(assembled))
    pair = greedy_recovery_discounted(game, beta, discounted_vector)
    values = mean_values(induced_chain(game, pair))
    return Solution(MEAN, beta, values, pair, certificate=None)


def verify_star(game: Game, beta: Fraction, s0: str,
                cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Check, pair by pair, that the mean value of the reset transform at
    its start state equals the source game's discounted value there.

    The reported value is the exact optimal discounted value at s0,
    computed as max-min over the enumerated pairs.
    """
    reset_game, reduction = beta_recurrent(game, beta, s0)
    violations = []

    def entry(pair: StrategyPair) -> tuple[Fraction, ...]:
        mean_side = mean_values(induced_chain(reset_game, pair)).at(s0)
        disc = discounted_values(induced_chain(game, pair), reduction.beta)
        if mean_side != disc.at(s0):
            violations.append({
                "kind": "reset-identity",
                "max": dict(pair.max_strategy.choices),
                "min": dict(pair.min_strategy.choices),
                "mean_at_start": format_rational(mean_side),
                "discounted_at_start": format_rational(disc.at(s0)),
            })
        return disc.values

    return _PairScan(game, cap, entry).report(violations, game.state_index[s0])


class _SourceChain:
    """The chain a source pair induces on the reset game, with its mean
    values and stationary distribution computed on first use."""

    def __init__(self, chain: InducedChain):
        self.chain = chain

    @cached_property
    def values(self) -> ValueVector:
        return mean_values(self.chain)

    @cached_property
    def stationary(self) -> Distribution:
        return unichain_stationary(self.chain)


def verify_star2(gb: Game, reduction: Reduction,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Check the mirrored double game against its reset transform.

    For every strategy pair of the double game: the mean value at every
    state equals half the copy-1 restriction's value minus half the copy-2
    restriction's value; the stationary distribution weighs each copy
    exactly one half; and scaling a copy's stationary mass by two
    reproduces the stationary distribution its restricted pair induces on
    the reset-transformed game.  The reported value is the max-min of the
    double game's value at its first state.
    """
    doubled, reduction = mirror(gb, reduction)
    copy_ids = {copy: [reduction.state_map[s][copy - 1] for s in gb.state_order]
                for copy in (1, 2)}
    violations = []
    # one _SourceChain per source pair: each of the N source pairs recurs in
    # about N of the N^2 doubled pairs
    sources: dict[tuple, _SourceChain] = {}

    def source(pair: StrategyPair) -> _SourceChain:
        key = (tuple(sorted(pair.max_strategy.choices.items())),
               tuple(sorted(pair.min_strategy.choices.items())))
        if key not in sources:
            sources[key] = _SourceChain(induced_chain(gb, pair))
        return sources[key]

    def entry(pair: StrategyPair) -> tuple[Fraction, ...]:
        described = {"max": dict(pair.max_strategy.choices),
                     "min": dict(pair.min_strategy.choices)}
        chain = induced_chain(doubled, pair)
        doubled_values = mean_values(chain)
        pair_one, pair_two = decompose_mirror_strategies(pair, reduction)
        source_pairs = {1: source(pair_one), 2: source(pair_two)}
        copy_values = []
        for copy, source_chain in source_pairs.items():
            vector = source_chain.values
            if any(v != vector.values[0] for v in vector.values):
                violations.append({
                    "kind": "nonconstant-copy-value", "copy": copy, **described})
            copy_values.append(vector.values[0])
        expected = Fraction(1, 2) * copy_values[0] - Fraction(1, 2) * copy_values[1]
        for state in doubled.state_order:
            if doubled_values.at(state) != expected:
                violations.append({
                    "kind": "mirror-identity", "state": state,
                    "lhs": format_rational(doubled_values.at(state)),
                    "rhs": format_rational(expected),
                    **described})

        occupation = unichain_stationary(chain)
        for copy, ids in copy_ids.items():
            copy_mass = sum((occupation.at(i) for i in ids), Fraction(0))
            if copy_mass != Fraction(1, 2):
                violations.append({
                    "kind": "component-mass", "copy": copy,
                    "mass": format_rational(copy_mass), **described})
        for copy, source_chain in source_pairs.items():
            reference = source_chain.stationary
            for s, i in zip(gb.state_order, copy_ids[copy]):
                scaled = 2 * occupation.at(i)
                if scaled != reference.at(s):
                    violations.append({
                        "kind": "copy-stationary", "copy": copy, "state": s,
                        "scaled": format_rational(scaled),
                        "stationary": format_rational(reference.at(s)),
                        **described})
        return doubled_values.values

    return _PairScan(doubled, cap, entry).report(violations, 0)
