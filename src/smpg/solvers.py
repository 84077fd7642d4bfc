"""Solvers, recovery routines and the two reduction checks.

Everything here is exact.  The brute-force solver enumerates positional
strategies outright and certifies determinacy (lower value = upper value,
asserted, never assumed).  Strategy iteration is the scalable alternative
for the discounted criterion.  Recovery turns a claimed value vector back
into an optimal strategy pair, and ``strategic_via_recovery`` runs the full
reduction chain: reset transform, mirrored double game, a recovery oracle
invoked with the all-zero claim, restriction back to the source game.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import (
    CombinatorialLimitExceeded,
    DeterminacyViolation,
    InconsistentValues,
    InvalidBeta,
    NoConsistentStrategy,
    UnknownState,
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
                raise DeterminacyViolation(
                    "certificate disagrees with the solution values",
                    lower=[str(x) for x in self.certificate.lower],
                    upper=[str(x) for x in self.certificate.upper])


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


def _strategy_lists(game: Game, cap: int):
    if strategy_count(game, MAX) * strategy_count(game, MIN) > cap:
        raise CombinatorialLimitExceeded(
            f"{strategy_count(game, MAX)} x {strategy_count(game, MIN)} "
            f"strategy pairs exceed cap {cap}",
            count=strategy_count(game, MAX) * strategy_count(game, MIN), cap=cap)
    return (list(enumerate_strategies(game, MAX, cap)),
            list(enumerate_strategies(game, MIN, cap)))


def _pair_table(game: Game, cap: int, entry: Callable[[StrategyPair], object]):
    """entry(pair) for every positional strategy pair of the game: one row
    per maximizer strategy, one column per minimizer strategy."""
    max_strats, min_strats = _strategy_lists(game, cap)
    table = [[entry(StrategyPair(sigma, tau)) for tau in min_strats] for sigma in max_strats]
    return max_strats, min_strats, table


def _max_min_report(table, violations) -> VerificationReport:
    """A verification report whose value is the max-min of ``table``."""
    value = max(min(row) for row in table)
    return VerificationReport(sum(len(row) for row in table), tuple(violations), value)


def _value_tables(game: Game, criterion: str, beta, cap: int):
    """Value matrix over all strategy pairs plus row-min and col-max tables."""
    max_strats, min_strats, matrix = _pair_table(
        game, cap, lambda pair: evaluate_pair(game, pair, criterion, beta).values)
    n = len(game.states)
    row_min = [tuple(min(row[j][s] for j in range(len(min_strats))) for s in range(n))
               for row in matrix]
    col_max = [tuple(max(matrix[i][j][s] for i in range(len(max_strats))) for s in range(n))
               for j in range(len(min_strats))]
    return max_strats, min_strats, matrix, row_min, col_max


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
    max_strats, min_strats, matrix, row_min, col_max = _value_tables(game, criterion, beta, cap)
    n = len(game.states)
    lower = tuple(max(row_min[i][s] for i in range(len(max_strats))) for s in range(n))
    upper = tuple(min(col_max[j][s] for j in range(len(min_strats))) for s in range(n))
    if lower != upper:
        state = next(s for s in range(n) if lower[s] != upper[s])
        raise DeterminacyViolation(
            f"lower {lower[state]} != upper {upper[state]} at state "
            f"{game.state_order[state]}",
            state=game.state_order[state], lower=lower[state], upper=upper[state])

    best_max = next((i for i in range(len(max_strats)) if row_min[i] == lower), None)
    best_min = next((j for j in range(len(min_strats)) if col_max[j] == upper), None)
    if best_max is None or best_min is None:
        raise DeterminacyViolation("no uniformly optimal strategy exists")

    values = ValueVector(game.state_order, lower)
    pair = StrategyPair(max_strats[best_max], min_strats[best_min])
    certificate = Certificate(game.state_order, lower, upper)
    return Solution(criterion, beta, values, pair, certificate)


def _one_step(game: Game, state: str, action: str, beta: Fraction,
              values: dict[str, Fraction]) -> Fraction:
    total = (1 - beta) * game.actions[action]
    for target, prob in game.outgoing[(state, action)]:
        total += beta * prob * values[target]
    return total


def _greedy_action(game: Game, state: str, beta: Fraction,
                   values: dict[str, Fraction], maximize: bool) -> tuple[str, Fraction]:
    best_action = None
    best_value = None
    for action in game.available_actions[state]:  # sorted: lexicographic ties
        q = _one_step(game, state, action, beta, values)
        if best_value is None or (q > best_value if maximize else q < best_value):
            best_action, best_value = action, q
    return best_action, best_value


def strategy_iteration_discounted(game: Game, beta: Fraction) -> Solution:
    """Two-player strategy iteration for the discounted criterion.

    Repeatedly: fix the minimizer, compute the maximizer's best response by
    single-player policy iteration (exact evaluation plus greedy
    improvement, switching only on strict gain), then let the minimizer
    switch every state with a strictly improving action.  Stops when the
    minimizer has none; the final values then satisfy the one-step
    optimality equations, which is checked and returned as the certificate.
    """
    beta = check_beta(beta)
    sigma = {s: game.available_actions[s][0] for s in game.states_of(MAX)}
    tau = {s: game.available_actions[s][0] for s in game.states_of(MIN)}

    def current_values() -> dict[str, Fraction]:
        pair = StrategyPair(PositionalStrategy(MAX, dict(sigma)),
                            PositionalStrategy(MIN, dict(tau)))
        return discounted_values(induced_chain(game, pair), beta).as_dict()

    while True:
        # maximizer best response against tau
        while True:
            values = current_values()
            improved = False
            for s in sigma:
                best_action, best_q = _greedy_action(game, s, beta, values, maximize=True)
                if best_q > _one_step(game, s, sigma[s], beta, values):
                    sigma[s] = best_action
                    improved = True
            if not improved:
                break
        values = current_values()
        improved = False
        for s in tau:
            best_action, best_q = _greedy_action(game, s, beta, values, maximize=False)
            if best_q < _one_step(game, s, tau[s], beta, values):
                tau[s] = best_action
                improved = True
        if not improved:
            break

    # the one-step optimality equations are the certificate; re-check them
    for s in game.state_order:
        maximize = game.owner[s] == MAX
        _, extreme = _greedy_action(game, s, beta, values, maximize)
        if extreme != values[s]:
            raise DeterminacyViolation(
                f"strategy iteration stopped at a non-equilibrium: state {s!r}",
                state=s, value=values[s], one_step=extreme)

    pair = StrategyPair(PositionalStrategy(MAX, dict(sigma)),
                        PositionalStrategy(MIN, dict(tau)))
    ordered = tuple(values[s] for s in game.state_order)
    vector = ValueVector(game.state_order, ordered)
    certificate = Certificate(game.state_order, ordered, ordered)
    return Solution(DISCOUNTED, beta, vector, pair, certificate)


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
    aligned = dict(zip(game.state_order, _aligned(game, values)))
    sigma = {}
    tau = {}
    for s in game.state_order:
        maximize = game.owner[s] == MAX
        action, _ = _greedy_action(game, s, beta, aligned, maximize)
        (sigma if maximize else tau)[s] = action
    pair = StrategyPair(PositionalStrategy(MAX, sigma), PositionalStrategy(MIN, tau))
    check = discounted_values(induced_chain(game, pair), beta)
    for s in game.state_order:
        if check.at(s) != aligned[s]:
            raise InconsistentValues(
                f"greedy pair re-evaluates to {check.at(s)} at {s!r}, "
                f"claimed {aligned[s]}",
                state=s, claimed=aligned[s], reevaluated=check.at(s))
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
    max_strats, min_strats, matrix, row_min, col_max = _value_tables(game, MEAN, None, cap)
    for i in range(len(max_strats)):
        for j in range(len(min_strats)):
            entry = matrix[i][j]
            # saddle: best for max against tau_j, best for min against sigma_i
            if entry == target and entry == row_min[i] and entry == col_max[j]:
                return StrategyPair(max_strats[i], min_strats[j])
    raise NoConsistentStrategy(
        "no strategy pair attains the claimed values as a saddle point",
        claimed=[str(x) for x in target])


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

    def entry(pair: StrategyPair) -> Fraction:
        mean_side = mean_values(induced_chain(reset_game, pair)).at(s0)
        disc_side = discounted_values(induced_chain(game, pair), reduction.beta).at(s0)
        if mean_side != disc_side:
            violations.append({
                "kind": "reset-identity",
                "max": dict(pair.max_strategy.choices),
                "min": dict(pair.min_strategy.choices),
                "mean_at_start": str(mean_side),
                "discounted_at_start": str(disc_side),
            })
        return disc_side

    _, _, table = _pair_table(game, cap, entry)
    return _max_min_report(table, violations)


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

    def entry(pair: StrategyPair) -> Fraction:
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
                    "lhs": str(doubled_values.at(state)), "rhs": str(expected),
                    **described})

        occupation = unichain_stationary(chain)
        for copy, ids in copy_ids.items():
            copy_mass = sum((occupation.at(i) for i in ids), Fraction(0))
            if copy_mass != Fraction(1, 2):
                violations.append({
                    "kind": "component-mass", "copy": copy,
                    "mass": str(copy_mass), **described})
        for copy, source_chain in source_pairs.items():
            reference = source_chain.stationary
            for s, i in zip(gb.state_order, copy_ids[copy]):
                scaled = 2 * occupation.at(i)
                if scaled != reference.at(s):
                    violations.append({
                        "kind": "copy-stationary", "copy": copy, "state": s,
                        "scaled": str(scaled), "stationary": str(reference.at(s)),
                        **described})
        return doubled_values.values[0]

    _, _, table = _pair_table(doubled, cap, entry)
    return _max_min_report(table, violations)
