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
integers over one positive denominator per state (``_Lookahead``).
``_one_step`` is the one check of the one-step optimality equations: it
certifies strategy iteration's stop, and greedy recovery's pair without
solving it again.  Along the reduction chain, identities whose values are
already known are certified, and a chain is solved only when its
certificate fails.  What no pair changes is made once per (game, beta,
s0) and kept by the source game (``transforms.Reduction.kept``): the reset
game, the source memo that ``_source`` fills, the one place a source pair
is solved on the reset game, and the double game's integer tables
(``Reduction.tables``).  Nothing kept refers back to the game.  A source
pair's record (``_Source``) holds all the mirror lemma needs of it, its
two copies' residual and gain parts included, made when they are first
read (``_with_parts``), so ``_mirror``, the one place that turns a doubled
pair into values, reads only the two copies' records and the tables, a
fallback chain included.  No double ``Game`` is built on a computation
path.  ``verify_star2`` first judges the N^2 doubled pairs through the N
source records, by two tests per record that hold exactly when ``_mirror``
would certify every pair with its mirror identity met; only when they
fail does it scan the doubled pairs as action tuples over the tables'
menus (``Reduction.menus``).  The pipeline's oracle searches the same
menus and hands its evaluator pairs that ``check_pair`` checks against
them, and values each through ``_mirror``.  A pair the library
enumerated itself is not checked again: ``verify_star`` and ``_source``
build its chain straight from its actions (``Game.chain``).

A pair's values travel as their integer view (D, y = D v, ``View``),
compared by integer cross-products; Fractions are built only for what is
returned, and a certified doubled pair is a view and nothing more.  Brute
force and ``verify_star`` scan every strategy pair (``_PairScan``), and
``verify_star2`` every source pair, then every doubled pair only when the
records' tests fail.  The recovery oracle does not: it looks for its one
saddle pair lazily, rejecting a row or a column at its first
counterexample to the claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from .errors import (
    CombinatorialLimitExceeded,
    DeterminacyViolation,
    InconsistentValues,
    NoConsistentStrategy,
    RationalTooLong,
    UnknownState,
    rational_text,
)
from .evaluate import (
    ValueVector,
    check_beta,
    discounted_values,
    mean_values,
    stationary_residual,
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
    pair_actions,
    strategy_count,
    strategy_pair_to_json_dict,
)
from .transforms import Reduction

MEAN = "mean"
DISCOUNTED = "discounted"

# The integer view (D, y = D v) of a value vector v, D > 0, as
# ``ValueVector.scaled`` gives it; a view need not be in lowest terms.
View = tuple[int, tuple[int, ...]]

# A recovery oracle maps (game, claimed per-state values) to a strategy
# pair witnessing the claim.  strategic_via_recovery passes the double
# game's ``Menus`` as the game, its strategy space only, and values pairs
# only through the keyword argument ``evaluator`` (pair -> the View of its
# mean values, from ``_mirror``).  reference_recovery_oracle below is one.
RecoveryOracle = Callable[..., StrategyPair]


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
        return discounted_values(chain, beta)
    raise ValueError(f"unknown criterion {criterion!r}")


def _aligned(game: Game, claimed: ValueVector) -> ValueVector:
    """A claimed value vector in the game's state order: the claim itself,
    with its integer view, when it already is.  Otherwise UnknownState
    names the states the claim repeats, or those it misses and those the
    game does not have."""
    if claimed.state_order == game.state_order:
        return claimed
    given = claimed.state_order
    repeated = sorted(s for s, count in Counter(given).items() if count > 1)
    if repeated:
        raise UnknownState(f"claimed values repeat states {repeated}", states=repeated)
    missing = sorted(set(game.state_order) - set(given))
    extra = sorted(set(given) - set(game.state_order))
    if missing or extra:
        raise UnknownState(f"claimed values missing states {missing}, unknown states {extra}",
                           missing=missing, unknown=extra)
    return ValueVector(game.state_order, tuple(claimed.at(s) for s in game.state_order))


def _fold(best: list[tuple[int, int]], rows, sign: int) -> list[tuple[int, int]]:
    """``best`` folded in place with ``rows`` to their componentwise minimum (sign 1)
    or maximum (sign -1): (num, den) pairs, den > 0, compared by cross-products."""
    for cells in rows:
        for s, ((bn, bd), (n, d)) in enumerate(zip(best, cells)):
            if (bn * d - n * bd) * sign > 0:
                best[s] = (n, d)
    return best


def _pair_count(game, cap: int) -> int:
    """The number of positional strategy pairs of ``game``, a ``Game`` or
    the ``Menus`` of one not built.  Raises CombinatorialLimitExceeded when
    it is more than ``cap``."""
    max_count, min_count = strategy_count(game, MAX), strategy_count(game, MIN)
    if max_count * min_count > cap:
        raise CombinatorialLimitExceeded(
            f"{max_count} x {min_count} strategy pairs exceed cap {cap}",
            count=max_count * min_count, cap=cap)
    return max_count * min_count


def _strategies(game, cap: int) -> tuple[list[PositionalStrategy], list[PositionalStrategy]]:
    """Every positional strategy of the maximizer and of the minimizer of
    ``game``, a ``Game`` or the ``Menus`` of one not built, in enumeration
    order, once ``_pair_count`` has checked the cap."""
    _pair_count(game, cap)
    return list(enumerate_strategies(game, MAX, cap)), list(enumerate_strategies(game, MIN, cap))


def _played(state_order: tuple[str, ...], sigma: PositionalStrategy,
            tau: PositionalStrategy) -> tuple[str, ...]:
    """The actions an enumerated pair plays, one per state in state order."""
    choices = {**sigma.choices, **tau.choices}
    return tuple(map(choices.__getitem__, state_order))


class _PairScan:
    """One pass over every positional strategy pair, a row per maximizer
    strategy and a column per minimizer strategy.  ``entry(sigma, tau)`` is
    the integer view of the pair's values; the scan holds one row at a time
    and keeps only the componentwise row minima and running column maxima,
    as (y_s, D) pairs."""

    def __init__(self, game, cap: int, entry: Callable[..., View]):
        self.max_strats, self.min_strats = _strategies(game, cap)
        self.row_min, self.col_max = [], None
        for sigma in self.max_strats:
            views = (entry(sigma, tau) for tau in self.min_strats)
            row = [[(v, d) for v in y] for d, y in views]
            self.row_min.append(_fold(list(row[0]), row, 1))
            self.col_max = row if self.col_max is None else [
                _fold(col, [cells], -1) for col, cells in zip(self.col_max, row)]
        self.lower = _fold(list(self.row_min[0]), self.row_min, -1)  # the max-min

    def upper(self) -> list[tuple[int, int]]:
        """The min-max of the entries."""
        return _fold(list(self.col_max[0]), self.col_max, 1)

    def first_saddle(self, target: ValueVector) -> StrategyPair | None:
        """The first pair in row order that is a saddle point with value
        ``target`` at every state, or None.  Componentwise row_min[i] <=
        entry(i, j) <= col_max[j], so (i, j) qualifies exactly when
        row_min[i] == target == col_max[j]."""
        d, y = target.scaled
        i = next((i for i, row in enumerate(self.row_min)
                  if all(n * d == v * den for (n, den), v in zip(row, y))), None)
        j = next((j for j, col in enumerate(self.col_max)
                  if all(n * d == v * den for (n, den), v in zip(col, y))), None)
        if i is None or j is None:
            return None
        return StrategyPair(self.max_strats[i], self.min_strats[j])

    def report(self, violations) -> VerificationReport:
        """A report valued at the max-min of the entries' first component."""
        return VerificationReport(len(self.max_strats) * len(self.min_strats),
                                  tuple(violations), Fraction(*self.lower[0]))


def brute_force_solve(game: Game, criterion: str, beta: Fraction | None = None,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Solution:
    """Enumerate every positional strategy pair and take exact extrema.

    Returns the per-state value (lower = upper, certified), and the
    lexicographically first pair that attains it simultaneously at every
    state.  DeterminacyViolation is a hard error.  The mean criterion reads
    no beta, so its solution carries none, whatever is given.
    """
    beta = check_beta(beta) if criterion == DISCOUNTED else None
    scan = _PairScan(game, cap, lambda sigma, tau: evaluate_pair(
        game, StrategyPair(sigma, tau), criterion, beta).scaled)
    lower = tuple(Fraction(*cell) for cell in scan.lower)
    upper = tuple(Fraction(*cell) for cell in scan.upper())
    if lower != upper:
        state = next(s for s in range(len(lower)) if lower[s] != upper[s])
        raise DeterminacyViolation(
            f"lower {rational_text(lower[state])} != upper {rational_text(upper[state])} at state "
            f"{game.state_order[state]}",
            state=game.state_order[state], lower=lower[state], upper=upper[state])

    values = ValueVector(game.state_order, lower)
    pair = scan.first_saddle(values)
    if pair is None:
        raise DeterminacyViolation("no uniformly optimal strategy exists")

    return Solution(criterion, beta, values, pair, Certificate(game.state_order, lower, upper))


class _Lookahead:
    """The one-step lookahead q(a) = (1 - beta) r_a + beta * sum_j p_j v_j of
    every action, in integers.

    With beta = b/c, each state s has one positive integer L_s, the lcm of
    the reward and probability denominators of its actions, so R_a = L_s r_a
    and w_j = L_s p_j are integers.  A value vector is read through its
    integer view ``ValueVector.scaled``: D, the lcm of its denominators, and
    the integers y_j = D v_j.  Then c L_s D q(a) = (c - b) D R_a + b sum_j
    w_j y_j is an integer, so at one state these integers compare exactly as
    the q values do, and the state's own value scales to c L_s y_s.
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

    def q(self, s: str, scaled: tuple[int, tuple[int, ...]]) -> dict[str, int]:
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


def _one_step(game: Game, lookahead: _Lookahead, scaled
              ) -> tuple[dict[str, str], str | None, dict[str, dict[str, int]]]:
    """The one-step optimality equations at a value vector's integer view
    (Shapley 1953, "Stochastic games"): every state's first extreme action
    (maximum for its maximizer, minimum for its minimizer), the first
    state whose extreme q is not its own value, or None when the equations
    hold at every state, and every state's q (``_Lookahead.q``)."""
    choices, off, qs = {}, None, {}
    for s, ys in zip(game.state_order, scaled[1]):
        q = qs[s] = lookahead.q(s, scaled)
        best = choices[s] = _first_extreme(q, game.owner[s] == MAX)
        if off is None and q[best] != lookahead.unit[s] * ys:
            off = s
    return choices, off, qs


def strategy_iteration_discounted(game: Game, beta: Fraction) -> Solution:
    """Two-player strategy iteration for the discounted criterion.

    Repeatedly: fix the minimizer, compute the maximizer's best response by
    single-player policy iteration (exact evaluation plus greedy
    improvement, switching only on strict gain), then let the minimizer
    switch every state with a strictly improving action.  Stops when
    neither player has one; the final values then satisfy the one-step
    optimality equations, which the same pass checks (``_one_step``) and
    which are returned as the certificate.  Each strategy pair is
    evaluated once, on the chain of its actions in state order
    (``Game.chain``): the evaluation at which the maximizer stops switching
    is the one the minimizer improves on.  Exact switching never returns
    to a pair, so a pair that comes back means a faulty evaluation or
    lookahead and raises DeterminacyViolation.
    """
    beta = check_beta(beta)
    lookahead = _Lookahead(game, beta)
    actions = {s: game.available_actions[s][0] for s in game.state_order}
    seen = set()
    while True:
        key = tuple(actions.values())
        if key in seen:
            raise DeterminacyViolation("strategy iteration came back to a strategy pair",
                                       **strategy_pair_to_json_dict(
                                           StrategyPair.from_choices(actions, game.owner)))
        seen.add(key)
        values = discounted_values(game.chain(key), beta)
        scaled = values.scaled
        choices, off, q = _one_step(game, lookahead, scaled)
        strict = {s: a for s, a in choices.items() if q[s][a] != q[s][actions[s]]}
        # the minimizer moves only once the maximizer has no strict improvement
        better = {s: a for s, a in strict.items() if game.owner[s] == MAX} or strict
        if not better:
            break
        actions.update(better)

    # the one-step optimality equations are the certificate
    if off is not None:
        raise DeterminacyViolation(
            f"strategy iteration stopped at a non-equilibrium: state {off!r}",
            state=off, value=values.at(off),
            one_step=Fraction(q[off][choices[off]], lookahead.unit[off] * scaled[0]))

    certificate = Certificate(game.state_order, values.values, values.values)
    return Solution(DISCOUNTED, beta, values, StrategyPair.from_choices(actions, game.owner),
                    certificate)


def greedy_recovery_discounted(game: Game, beta: Fraction,
                               values: ValueVector) -> StrategyPair:
    """Recover an optimal pair from the true discounted values by one-step
    lookahead, certified by the one-step optimality equations.

    Picks the argmax (maximizer) or argmin (minimizer) of
    (1 - beta) r(A) + beta * sum p * values, breaking ties toward the
    lexicographically smallest action id.  The equations hold at every
    state exactly when the claim is a fixed point v = (1 - beta) r + beta P v
    of the greedy pair, and for beta < 1 I - beta P is nonsingular, so that
    fixed point is the pair's value vector (Puterman 1994, sec. 6.1): the
    pair is not solved again.  When the equations fail the claim was not the
    true values, and the pair is solved to report the first state where its
    values differ from the claim: InconsistentValues.
    """
    beta = check_beta(beta)
    claimed = _aligned(game, values)
    choices, off, _ = _one_step(game, _Lookahead(game, beta), claimed.scaled)
    pair = StrategyPair.from_choices(choices, game.owner)
    if off is None:
        return pair
    check = discounted_values(induced_chain(game, pair), beta)
    # a pair whose values are the claim satisfies the equations, so only a
    # faulty evaluation finds no difference; it is reported at ``off``
    s = next((s for s, v, w in zip(game.state_order, claimed.values, check.values) if v != w), off)
    raise InconsistentValues(
        f"greedy pair re-evaluates to {rational_text(check.at(s))} at {s!r}, "
        f"claimed {rational_text(claimed.at(s))}",
        state=s, claimed=claimed.at(s), reevaluated=check.at(s))


def reference_recovery_oracle(game, claimed: ValueVector,
                              cap: int = DEFAULT_ENUMERATION_CAP, *,
                              evaluator: Callable[[StrategyPair], View] | None = None
                              ) -> StrategyPair:
    """Recovery oracle by exhaustion, for the mean-payoff criterion.

    ``game`` gives the strategy space: a ``Game``, or the ``Menus`` of a
    double game that is not built.  A pair's mean values come as their
    integer view (D, y = D v) from ``evaluator`` when one is given, and
    from ``evaluate_pair(game, pair, MEAN).scaled`` otherwise, which needs
    a ``Game``.  ``strategic_via_recovery`` hands in the double game's
    ``Menus`` and an evaluator whose views, from ``_mirror``, are of the
    doubled chain's mean values, certified by the mirror lemma or solved:
    evaluating a fixed pair is not solving the game, so the oracle's model
    is unchanged.

    Returns the lexicographically first pair that both evaluates to the
    claimed values at every state and is a saddle point (no unilateral
    positional deviation helps either player anywhere): the first
    maximizer row whose componentwise minimum is the claim, with the first
    minimizer column whose componentwise maximum is the claim.  Raises
    NoConsistentStrategy when no pair qualifies.

    The search stops at each row's and column's first counterexample, and
    never holds the value table: one flag per column (the row's entry
    equals the claim at every state) for the row being tested, kept for
    the accepted row.  A row is rejected at its first entry below the
    claim at some state.  The first row with no such entry is the only
    candidate: if column j qualifies, the row's entry there is at least
    the claim and at most column j's maximum, the claim, so the row's
    minimum is the claim at every state.  For the same reason a column
    qualifies only where the row's entry equals the claim; each such
    column is rejected at its first entry above the claim in another row.
    """
    target = _aligned(game, claimed)
    max_strats, min_strats = _strategies(game, cap)
    d, y = target.scaled
    if evaluator is None:
        evaluator = lambda pair: evaluate_pair(game, pair, MEAN).scaled

    def difference(sigma: PositionalStrategy, tau: PositionalStrategy) -> list[int]:
        """Per state, an integer with the sign of the pair's mean value minus the claim."""
        den, values = evaluator(StrategyPair(sigma, tau))
        return [v * d - t * den for v, t in zip(values, y)]

    def row_at_claim(sigma: PositionalStrategy) -> list[bool] | None:
        """Per column, whether the row's entry equals the claim; None at the
        row's first entry below the claim."""
        at_claim = []
        for tau in min_strats:
            diff = difference(sigma, tau)
            if min(diff) < 0:
                return None
            at_claim.append(not any(diff))
        return at_claim

    rows = ((sigma, row_at_claim(sigma)) for sigma in max_strats)
    sigma, at_claim = next(((sigma, row) for sigma, row in rows if row is not None), (None, ()))
    tau = next((tau for tau, equal in zip(min_strats, at_claim)
                if equal and all(max(difference(other, tau)) <= 0
                                 for other in max_strats if other is not sigma)), None)
    if tau is None:
        raise NoConsistentStrategy(
            "no strategy pair attains the claimed values as a saddle point",
            claimed=[rational_text(x) for x in target.values])
    return StrategyPair(sigma, tau)


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

    The oracle is called as ``oracle(menus, claim, evaluator=...)`` with
    the double game's ``Menus`` (``Reduction.menus``), so no double
    ``Game`` is built, and an evaluator that checks each doubled pair it
    is handed against the menus (``pair_actions``) and values it by
    ``_mirror``: from two kept source records and one certificate pass,
    solved only when the certificate fails.  The copy-1 value is the kept
    source record of the witness's copy-1 restriction (``_source``): the
    mean values of that pair's reset chain, not a second solve of it.

    ``on_stage``, if given, is called once per start state with
    (state, reduction, witness, value); the pipeline subcommand uses it to
    write per-stage artifacts.
    """
    beta = check_beta(beta)
    assembled = []
    for s in game.state_order:
        reduction = Reduction(game, beta, s)
        menus = reduction.menus
        claim = ValueVector(menus.state_order, (Fraction(0),) * len(menus.state_order))
        witness = oracle(menus, claim, evaluator=lambda pair: _mirror(
            reduction, tuple(pair_actions(menus, pair)))[0])
        source = _source(reduction, tuple(pair_actions(menus, witness)[:len(game.states)]))
        value_at_s = Fraction(source.value_nums[game.state_index[s]], source.value_den)
        assembled.append(value_at_s)
        if on_stage is not None:
            on_stage(s, reduction, witness, value_at_s)

    discounted_vector = ValueVector(game.state_order, tuple(assembled))
    pair = greedy_recovery_discounted(game, beta, discounted_vector)
    values = mean_values(induced_chain(game, pair))
    return Solution(MEAN, beta, values, pair, certificate=None)


class _Source(NamedTuple):
    """A source pair's record in the memo its game keeps (``Reduction.kept``),
    in integers, so that a game keeps no value or law objects: the integer
    view (D, y = D v) of its mean values on the reset game
    (``ValueVector.scaled``), its stationary law as numerators over one
    denominator, whether the values are one value at every state, as a
    reset chain's always are, and its two mirror ``parts``.

    The mirror lemma's law of a doubled pair is made of its copies' source
    laws, and each copy's residual and gain are fixed by its source pair:
    ``parts[c - 1]`` is (r_c, g_c) for the pair played by copy c (``_mirror``).
    ``parts`` is None until ``_with_parts`` first makes them, and stays None
    when the values are not constant or the double game's tables cannot
    certify a pair (``certifiable``)."""

    value_den: int
    value_nums: tuple[int, ...]
    law_den: int
    law_nums: tuple[int, ...]
    constant: bool
    parts: tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] | None


def _source(reduction: Reduction, actions: tuple[str, ...]) -> _Source:
    """The ``_Source`` of the source pair that plays ``actions``, one per
    source state in state order: the one place a source pair is solved on
    the reset game.  Its reset chain is solved once per (game, beta, s0),
    into the memo the source game keeps (``Reduction.kept``), keyed by
    ``actions``; every later call at that (beta, s0) reads the memo.  The
    actions come from the library's own enumerations, so the chain is
    built from them unchecked (``Game.chain``).  The record is made without
    its mirror parts, so ``verify_star``, which never reads them, makes no
    double game's tables."""
    sources = reduction.kept["sources"]
    source = sources.get(actions)
    if source is None:
        chain = reduction.reset_game.chain(actions)
        d, y = mean_values(chain).scaled
        law = unichain_stationary(chain)
        constant = len(set(y)) == 1  # then the values share one int
        source = sources[actions] = _Source(d, (y[0],) * len(y) if constant else y,
                                            law.denominator, law.numerators, constant, None)
    return source


def _with_parts(reduction: Reduction, actions: tuple[str, ...]) -> _Source:
    """The ``_source`` record of ``actions`` with its mirror parts, made on
    first read into the same memo record.  They are summed on the double
    game's tables (``Reduction.tables``), each copy over its own rows: copy
    1 plays the actions on states 0..n-1, copy 2 their primed twins
    (``Reduction.action_map``) on states n..2n-1.  With law n / d, r_c is
    the sum over copy c's states i of n_i L P_i, less L n on copy c
    (``stationary_residual``), and g_c the sum of n_i R_i."""
    source = _source(reduction, actions)
    if source.parts is None and source.constant and reduction.tables[4]:
        common, rows, _, rewards, _ = reduction.tables
        n, nums = len(actions), source.law_nums

        def part(first: int, played: tuple[str, ...]) -> tuple[tuple[int, ...], int]:
            """(r_c, g_c) of the copy whose states start at ``first``."""
            weighted = ((first + i, num, rows[first + i][a])
                        for i, (num, a) in enumerate(zip(nums, played)))
            return (tuple(stationary_residual(common, 2 * n, weighted)),
                    sum(num * rewards[a] for num, a in zip(nums, played)))

        parts = part(0, actions), part(n, tuple(reduction.action_map[a][1] for a in actions))
        source = reduction.kept["sources"][actions] = source._replace(parts=parts)
    return source


def _mirror(reduction: Reduction, actions: tuple[str, ...]
            ) -> tuple[View, InducedChain | None, tuple[_Source, _Source]]:
    """For the doubled pair that plays ``actions``, one per doubled state in
    state order and taken as valid: the integer view of its mean values;
    its chain when they were solved, None when certified; and the two
    copies' ``_Source``, with their parts (``_with_parts``).  Copy 1 plays
    the source actions themselves, copy 2 their primed twins, mapped back
    through ``Reduction.inverse_actions``.

    The mirror lemma predicts a doubled chain's stationary law from its two
    copy restrictions: pi* = pi_1 / 2 (+) pi_2 / 2, each source law on its
    copy's states.  When both copy values are constant, as a reset chain's
    always are, pi* P = pi* holds, and every state reaches the copy-1 start,
    pi* is the chain's one stationary law (Puterman 1994, sec. 8.2), and
    every state's mean value is its gain sum(pi*_i r_i).  With pi_c = n_c /
    d_c and every row over the common denominator L, x = d_2 n_1 (+) d_1 n_2
    is 2 d_1 d_2 pi*, L (x P - x) = d_2 r_1 + d_1 r_2 and sum x_i R_i = d_2
    g_1 + d_1 g_2, with r_c and g_c the copies' ``_Source.parts``.  So a
    pair costs one weighted sum of r_1 and r_2, and a certified view is the
    gain (d_2 g_1 + d_1 g_2) / (2 d_1 d_2) over the reward denominator at
    every state, not brought to lowest terms.  The reach half of the
    certificate is the tables' ``certifiable``, for all pairs at once;
    when it fails, no pair is certified.  A pair whose certificate fails is
    solved by ``mean_values`` on its chain, made from the same tables: no
    double ``Game`` is read."""
    common, rows, reward_den, rewards, _ = reduction.tables
    n = len(actions) // 2  # copy 1's states come first, then copy 2's
    one = _with_parts(reduction, actions[:n])
    two = _with_parts(reduction, tuple(map(reduction.inverse_actions.__getitem__, actions[n:])))
    if one.parts is not None and two.parts is not None:
        (r_1, g_1), (r_2, g_2) = one.parts[0], two.parts[1]
        d_1, d_2 = one.law_den, two.law_den
        if not any(d_2 * a + d_1 * b for a, b in zip(r_1, r_2)):
            view = 2 * d_1 * d_2 * reward_den, (d_2 * g_1 + d_1 * g_2,) * len(actions)
            return view, None, (one, two)
    chain = InducedChain(reduction.menus.state_order,
                         tuple((common, row[a]) for row, a in zip(rows, actions)),
                         tuple(Fraction(rewards[a], reward_den) for a in actions))
    return mean_values(chain).scaled, chain, (one, two)


def verify_star(game: Game, beta: Fraction, s0: str,
                cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Check, pair by pair, that the mean value of the reset transform at
    its start state equals the source game's discounted value there.

    The identity is checked by comparing two exact solves of each pair:
    its discounted values on the source game, and its reset chain's mean
    values (``_source``), which the source game keeps per (beta, s0), so
    ``verify_star2`` and the pipeline at the same (beta, s0) read them
    without solving again.  The two sides are compared as integers, and
    Fractions are built only for a violation.  The reported value is the
    exact optimal discounted value at s0, computed as max-min over the
    enumerated pairs.  Each enumerated pair is read as the tuple of its
    actions, valid by construction, so its chain is built with no
    ``check_pair`` (``Game.chain``), and the scan folds only the start
    state's value.
    """
    reduction = Reduction(game, beta, s0)
    start = game.state_index[s0]
    violations = []

    def entry(sigma: PositionalStrategy, tau: PositionalStrategy) -> View:
        actions = _played(game.state_order, sigma, tau)
        disc = discounted_values(game.chain(actions), reduction.beta)
        source = _source(reduction, actions)
        d, y = disc.scaled
        if source.value_nums[start] * d != y[start] * source.value_den:
            violations.append({
                "kind": "reset-identity",
                **strategy_pair_to_json_dict(StrategyPair(sigma, tau)),
                "mean_at_start": format_rational(
                    Fraction(source.value_nums[start], source.value_den)),
                "discounted_at_start": format_rational(disc.at(s0)),
            })
        return d, (y[start],)

    return _PairScan(game, cap, entry).report(violations)


def verify_star2(gb: Game, reduction: Reduction,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Check the mirrored double game against its reset transform.

    For every strategy pair of the double game: the mean value at every
    state equals half the copy-1 restriction's value minus half the copy-2
    restriction's value; the stationary distribution weighs each copy
    exactly one half; and scaling a copy's stationary mass by two
    reproduces the stationary distribution its restricted pair induces on
    the reset-transformed game.  The reported value is the max-min of the
    double game's value at its first state.  ``gb`` must be the
    reduction's reset game (MissingKindAnnotation).  The cap is checked on
    the doubled pair count before any pair is evaluated or any record made.

    A doubled pair is two source pairs, its copy-1 restriction A and its
    copy-2 restriction B, and ``_mirror`` judges it from their two records
    alone.  So the N^2 doubled pairs of N source pairs are first judged
    through the N records (``_with_parts``), by two tests on each record,
    with d its law denominator, y / D its constant value and R the tables'
    reward denominator:

    - the residual test: every r_1 / d is one vector u, and every r_2 / d
      is -u.  Every doubled pair's certificate d_B r_1(A) + d_A r_2(B) = 0
      holds if and only if this test does: for any fixed A it says that
      every r_2(B) / d_B is -r_1(A) / d_A.
    - the gain test: g_1 D = y d R and g_2 D = -y d R.  Then every certified
      gain (d_B g_1(A) + d_A g_2(B)) / (2 d_A d_B R) is (v_A - v_B) / 2,
      the mirror identity, at every state.  The test is sufficient, not
      necessary: gains off by one constant c, g_1 / (d R) = v + c and
      g_2 / (d R) = -v - c, meet the identity too.

    When both hold, every doubled pair is certified, so no chain is solved
    and no mass identity is compared, and every value meets the identity:
    the report has N^2 pairs and no violation.  Its value separates: a
    doubled maximizer strategy is (sigma_1, tau_2) and a minimizer strategy
    (tau_1, sigma_2), so the max-min of (v_A - v_B) / 2 is (max_sigma
    min_tau v - min_tau max_sigma v) / 2 over the records, folded in
    integers by ``_PairScan``.  Otherwise (a record without parts, because
    its values are not constant or the tables certify no pair, or a failed
    test) every doubled pair is scanned (``_star2_scan``), the reference,
    with every violation it finds.
    """
    reduction.check_reset(gb)
    count = _pair_count(reduction.menus, cap)
    records = []

    def entry(sigma: PositionalStrategy, tau: PositionalStrategy) -> View:
        record = _with_parts(reduction, _played(gb.state_order, sigma, tau))
        records.append(record)
        return record.value_den, record.value_nums[:1]

    scan = _PairScan(reduction.game, cap, entry)
    if not _records_certify(reduction, records):
        return _star2_scan(gb, reduction, cap)
    lower, upper = Fraction(*scan.lower[0]), Fraction(*scan.upper()[0])
    return VerificationReport(count, (), (lower - upper) / 2)


def _records_certify(reduction: Reduction, records: list[_Source]) -> bool:
    """Whether every record has parts and passes ``verify_star2``'s residual
    and gain tests, in integers: r_1 / d and -r_2 / d against the first
    record's r_1 / d, by cross-products."""
    if any(record.parts is None for record in records):
        return False
    reward_den = reduction.tables[2]
    (u, _), _ = records[0].parts
    d_u = records[0].law_den
    for record in records:
        (r_1, g_1), (r_2, g_2) = record.parts
        d, den = record.law_den, record.value_den
        gain = record.value_nums[0] * d * reward_den
        if g_1 * den != gain or g_2 * den != -gain or any(
                d_u * a != d * x or d_u * b != -d * x for a, b, x in zip(r_1, r_2, u)):
            return False
    return True


def _star2_scan(gb: Game, reduction: Reduction, cap: int) -> VerificationReport:
    """``verify_star2`` on every doubled pair, one by one.

    The pairs are evaluated by ``_mirror``, from the two copies' source
    records that the game keeps.  When it certifies the lemma's law pi*,
    the two mass identities hold by construction, and the certified values
    are still compared literally with the half-difference.  When it solves
    the chain, every identity is compared, copy 1 on its first n states and
    copy 2 on the rest, and a chain with two closed classes ends in
    NotUnichain.
    The double game is not built: ``enumerate_strategies`` enumerates its
    pairs over the tables' menus (``Reduction.menus``), in the order it
    gives on the built game, and each pair is read as the tuple of its
    actions, valid by construction, so no ``check_pair`` runs; a
    ``StrategyPair`` is built only for a violation.  The scan folds only
    the first state's value.
    """
    states, n = reduction.menus.state_order, len(gb.state_order)
    violations = []

    def entry(sigma: PositionalStrategy, tau: PositionalStrategy) -> View:
        def violation(**fields) -> None:
            violations.append({**fields, **strategy_pair_to_json_dict(StrategyPair(sigma, tau))})

        view, chain, sources = _mirror(reduction, _played(states, sigma, tau))
        for copy, source in enumerate(sources, 1):
            if not source.constant:
                violation(kind="nonconstant-copy-value", copy=copy)
        # expected = copy_1 / 2 - copy_2 / 2 = num / den, each copy at its first state
        (d1, y1), (d2, y2) = ((source.value_den, source.value_nums[0]) for source in sources)
        num, den = y1 * d2 - y2 * d1, 2 * d1 * d2
        d, y = view
        for state, v in zip(states, y):
            if v * den != num * d:
                violation(kind="mirror-identity", state=state, lhs=format_rational(Fraction(v, d)),
                          rhs=format_rational(Fraction(num, den)))
        scanned = d, y[:1]  # the first state's value is all the scan folds
        if chain is None:
            return scanned

        occupation = unichain_stationary(chain)
        d = occupation.denominator
        halves = occupation.numerators[:n], occupation.numerators[n:]  # copy 1, copy 2
        for copy, half in enumerate(halves, 1):
            if 2 * sum(half) != d:
                violation(kind="component-mass", copy=copy,
                          mass=format_rational(Fraction(sum(half), d)))
        for copy, (source, half) in enumerate(zip(sources, halves), 1):
            d_ref = source.law_den
            for s, num, n_ref in zip(gb.state_order, half, source.law_nums):
                if 2 * num * d_ref != n_ref * d:
                    violation(kind="copy-stationary", copy=copy, state=s,
                              scaled=format_rational(Fraction(2 * num, d)),
                              stationary=format_rational(Fraction(n_ref, d_ref)))
        return scanned

    return _PairScan(reduction.menus, cap, entry).report(violations)
