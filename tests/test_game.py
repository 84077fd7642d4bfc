"""Data model: parsing, validation, merging, induced chains, enumeration."""

import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smpg.errors import (
    CombinatorialLimitExceeded,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumMismatch,
    RationalTooLong,
    SinkState,
    StrategyDomainMismatch,
    UnknownReference,
)
from smpg.game import (
    MAX,
    MIN,
    PositionalStrategy,
    check_pair,
    enumerate_strategies,
    format_rational,
    game_to_json_dict,
    induced_chain,
    parse_rational,
    strategy_count,
    validate_game,
)

from .conftest import checkout_env
from smpg.generate import GeneratorConfig, generate_game

from .conftest import pair_of, raw_g1, raw_g2


def test_parse_rational_accepts_integer_and_fraction_forms():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3") == F(-3)
    assert parse_rational("+2") == F(2)
    assert parse_rational("0") == 0
    # non-canonical fractions are reduced on parse
    assert parse_rational("4/6") == F(2, 3)


@pytest.mark.parametrize("text", ["1.5", "a", "1/0", "1/-2", "", "1 /2", "0x3"])
def test_parse_rational_rejects_non_rational_text(text):
    with pytest.raises(ParseError):
        parse_rational(text)


_TWO_PARSER_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def two_parser_parse_rational(text) -> F:
    """The reference for parse_rational: a regex accepts the literal, then
    Fraction parses the same string a second time with its own regex."""
    if isinstance(text, int) and not isinstance(text, bool):
        return F(text)
    if not isinstance(text, str) or not _TWO_PARSER_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {text!r}", value=repr(text))
    try:
        return F(text.strip())
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise ParseError(f"rational literal too long: {exc}", length=len(text)) from exc


# ASCII digits, then Arabic-Indic, Devanagari and fullwidth ones: \d and
# int() both take any Unicode decimal digit
_DIGITS = "0123456789" + "\u0660\u0661\u0669" + "\u0966\u096f" + "\uff10\uff11\uff19"
_SPACES = " \t\n\u00a0\u2003"
_LONG = max(getattr(sys, "get_int_max_str_digits", int)() + 1, 5000)  # past the digit limit
_numerals = st.text(_DIGITS, min_size=1, max_size=6)
_literals = st.builds(
    "".join,
    st.tuples(st.text(_SPACES, max_size=2), st.sampled_from(["", "+", "-"]), _numerals,
              st.one_of(st.just(""), _numerals.map("/".__add__)), st.text(_SPACES, max_size=2)))
_rational_inputs = st.one_of(
    _literals,
    st.text(_DIGITS + _SPACES + "+-/0abeEx._", max_size=12),
    st.integers(), st.booleans(), st.floats(), st.none(),
    st.sampled_from(["1" * _LONG, "-" + "9" * _LONG + "/7", "3/" + "1" * _LONG,
                     " +" + "2" * _LONG + "/" + "5" * _LONG + "\n"]))


@settings(max_examples=400, deadline=None)
@given(text=_rational_inputs)
@example(text="1/0")
@example(text=" -007/0012 ")
@example(text="\u0661\u0660/\u0664")
@example(text="1" * _LONG)
@example(text="3/" + "1" * _LONG)
def test_parse_rational_matches_the_two_parser_reference(text):
    try:
        expected = two_parser_parse_rational(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        assert (str(info.value), info.value.payload) == (str(exc), exc.payload)
    else:
        got = parse_rational(text)
        assert type(got) is F and got == expected


def test_format_rational_round_trips():
    for q in (F(1, 2), F(-3), F(0), F(22, 7)):
        assert parse_rational(format_rational(q)) == q


def test_format_rational_reports_digit_count_past_the_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-string digit limit in this interpreter")
    longest = -(10**limit - 1)
    assert format_rational(F(longest, 7)) == f"{longest}/7"
    with pytest.raises(RationalTooLong) as info:
        format_rational(F(1, 10**limit))
    assert info.value.payload == {"digits": limit + 1, "limit": limit}


def test_validate_g2_shape(g2):
    assert g2.state_order == ("a", "b")
    assert g2.owner["a"] == MAX and g2.owner["b"] == MIN
    assert g2.actions == {"X": F(1), "Y": F(-1)}
    assert [(t.source, t.action, t.target, t.prob) for t in g2.transitions] == [
        ("a", "X", "b", F(1)),
        ("b", "Y", "a", F(1)),
    ]


def test_parallel_edges_merge_by_summing():
    raw = raw_g1()
    raw["transitions"] = [
        {"from": "s0", "action": "A", "to": "s0", "prob": "1/2"},
        {"from": "s0", "action": "A", "to": "s0", "prob": "1/2"},
    ]
    g = validate_game(raw)
    assert len(g.transitions) == 1
    assert g.transitions[0].prob == 1


def test_probability_sum_mismatch_reports_state_and_action():
    raw = raw_g1()
    raw["transitions"][0]["prob"] = "3/4"
    with pytest.raises(ProbabilitySumMismatch) as exc:
        validate_game(raw)
    assert exc.value.payload["state"] == "s0"
    assert exc.value.payload["action"] == "A"


@pytest.mark.parametrize("prob", ["0", "-1/2", "3/2"])
def test_probability_out_of_range(prob):
    raw = raw_g1()
    raw["transitions"][0]["prob"] = prob
    with pytest.raises(ProbabilityOutOfRange):
        validate_game(raw)


def test_sink_state_rejected():
    raw = raw_g2()
    del raw["transitions"][1]
    with pytest.raises(SinkState) as exc:
        validate_game(raw)
    assert exc.value.payload["state"] == "b"


@pytest.mark.parametrize(
    "field,value",
    [("from", "zz"), ("to", "zz"), ("action", "zz")],
)
def test_unknown_references_rejected(field, value):
    raw = raw_g2()
    raw["transitions"][0][field] = value
    with pytest.raises(UnknownReference):
        validate_game(raw)


def test_duplicate_state_id_rejected():
    raw = raw_g2()
    raw["states"][1]["id"] = "a"
    with pytest.raises(ParseError):
        validate_game(raw)


def test_bad_owner_rejected():
    raw = raw_g1()
    raw["states"][0]["owner"] = "maximizer"
    with pytest.raises(ParseError):
        validate_game(raw)


def test_missing_key_rejected():
    raw = raw_g1()
    del raw["transitions"][0]["prob"]
    with pytest.raises(ParseError):
        validate_game(raw)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_serialization_round_trip_is_identity(seed):
    cfg = GeneratorConfig(
        states=(seed % 4) + 1,
        actions_per_state=(1, 2),
        transitions_per_action=(1, 3),
        reward_bound=4,
        denominator_bound=4,
        max_states_fraction=F(1, 2),
        seed=seed,
    )
    g = generate_game(cfg)
    assert validate_game(game_to_json_dict(g)) == g


def test_induced_chain_g2(g2, g2_pair):
    chain = induced_chain(g2, g2_pair)
    assert chain.state_order == ("a", "b")
    assert chain.matrix == ((F(0), F(1)), (F(1), F(0)))
    assert chain.rewards == (F(1), F(-1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_induced_chain_rows_sum_to_one(seed):
    cfg = GeneratorConfig(
        states=(seed % 3) + 1,
        actions_per_state=(1, 2),
        transitions_per_action=(1, 3),
        reward_bound=3,
        denominator_bound=4,
        max_states_fraction=F(1, 2),
        seed=seed,
    )
    g = generate_game(cfg)
    for smax in enumerate_strategies(g, MAX):
        for smin in enumerate_strategies(g, MIN):
            chain = induced_chain(g, pair_of(smax.choices, smin.choices))
            for row in chain.matrix:
                assert sum(row) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chain_matrix_is_the_dense_outgoing_rows(seed):
    """The dense view of every induced chain equals the matrix built here
    straight from the game's outgoing transitions."""
    g = generate_game(GeneratorConfig(
        states=(seed % 4) + 1, actions_per_state=(1, 2), transitions_per_action=(1, 3),
        reward_bound=3, denominator_bound=4, max_states_fraction=F(1, 2), seed=seed))
    n = len(g.states)
    for smax in enumerate_strategies(g, MAX):
        for smin in enumerate_strategies(g, MIN):
            pair = pair_of(smax.choices, smin.choices)
            dense = [[F(0)] * n for _ in range(n)]
            for i, s in enumerate(g.state_order):
                for target, prob in g.outgoing[(s, pair.action_at(g, s))]:
                    dense[i][g.state_index[target]] += prob
            assert induced_chain(g, pair).matrix == tuple(map(tuple, dense))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chain_rows_are_built_once_from_the_outgoing_rows(seed):
    """Each (state, action) row is built on first use, from nothing but
    that action's outgoing transitions, and every chain that picks the
    action shares that one row."""
    g = generate_game(GeneratorConfig(
        states=(seed % 4) + 1, actions_per_state=(1, 3), transitions_per_action=(1, 4),
        reward_bound=3, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
    first = pair_of(*(next(enumerate_strategies(g, player)).choices for player in (MAX, MIN)))
    chain = induced_chain(g, first)
    # one chain builds one row per state and no other
    assert len(g.__dict__["_chain_rows"]) == len(g.states)
    for (state, action), out in g.outgoing.items():
        den = 1
        for _, prob in out:
            den = den * prob.denominator // gcd(den, prob.denominator)
        expected = (den, tuple((g.state_index[t], int(prob * den)) for t, prob in out))
        assert g.chain_row(state, action) == expected
        assert g.chain_row(state, action) is g.chain_row(state, action)
    for i, state in enumerate(g.state_order):
        assert chain.rows[i] is g.chain_row(state, first.action_at(g, state))


def test_check_pair_rejects_wrong_player_label(g2):
    pair = pair_of({"a": "X"}, {"b": "Y"})
    bad = pair.__class__(pair.min_strategy, pair.max_strategy)
    with pytest.raises(StrategyDomainMismatch):
        check_pair(g2, bad)


def test_check_pair_rejects_domain_mismatch(g2):
    with pytest.raises(StrategyDomainMismatch):
        check_pair(g2, pair_of({"a": "X", "b": "Y"}, {}))
    with pytest.raises(StrategyDomainMismatch):
        check_pair(g2, pair_of({}, {"b": "Y"}))


def test_check_pair_rejects_unavailable_action(g2):
    with pytest.raises(StrategyDomainMismatch):
        check_pair(g2, pair_of({"a": "Y"}, {"b": "Y"}))


def test_enumerate_strategies_is_lexicographic(g1b):
    found = [s.choices for s in enumerate_strategies(g1b, MAX)]
    assert found == [{"s0": "A"}, {"s0": "B"}]


def test_enumerate_strategies_orders_by_state_then_action():
    raw = {
        "states": [{"id": "q", "owner": "max"}, {"id": "p", "owner": "max"}],
        "actions": [{"id": "A", "reward": "0"}, {"id": "B", "reward": "1"}],
        "transitions": [
            {"from": "q", "action": "A", "to": "p", "prob": "1"},
            {"from": "q", "action": "B", "to": "p", "prob": "1"},
            {"from": "p", "action": "A", "to": "q", "prob": "1"},
            {"from": "p", "action": "B", "to": "q", "prob": "1"},
        ],
    }
    g = validate_game(raw)
    # states sorted by id: p before q; menus sorted by action id
    found = [s.choices for s in enumerate_strategies(g, MAX)]
    assert found == [
        {"p": "A", "q": "A"},
        {"p": "A", "q": "B"},
        {"p": "B", "q": "A"},
        {"p": "B", "q": "B"},
    ]


def test_enumerate_strategies_for_absent_player_yields_empty_strategy(g1):
    found = list(enumerate_strategies(g1, MIN))
    assert found == [PositionalStrategy(MIN, {})]


def test_strategy_count_matches_enumeration(g1b):
    assert strategy_count(g1b, MAX) == 2
    assert strategy_count(g1b, MIN) == 1


def test_enumeration_cap_enforced(g1b):
    with pytest.raises(CombinatorialLimitExceeded):
        list(enumerate_strategies(g1b, MAX, cap=1))


# Hand-built chains and distributions that break the probability
# invariants; each line prints the error raised, or "accepted".  A chain row
# is (den, ((target, num), ...)) with P[target] = num / den, and a
# distribution (states, den, nums) has masses num / den.
BROKEN_DISTRIBUTIONS = """\
from fractions import Fraction as F
from smpg.evaluate import Distribution, ValueVector
from smpg.game import InducedChain

rewards = (F(0), F(0))
last = (1, ((1, 1),))
for build in (
    lambda: InducedChain(("a", "b"), ((1, ((0, 1), (1, 1))), last), rewards),
    lambda: InducedChain(("a", "b"), ((1, ((0, 2), (1, -1))), last), rewards),
    lambda: InducedChain(("a", "b"), ((2, ((0, 1),)), last), rewards),
    lambda: InducedChain(("a", "b"), ((0, ()), last), rewards),
    lambda: InducedChain(("a", "b"), ((2, ((0, 1), (0, 1))), last), rewards),
    lambda: InducedChain(("a", "b"), ((1, ((2, 1),)), last), rewards),
    lambda: InducedChain(("a", "b"), (last,), rewards),
    lambda: Distribution(("a", "b"), 1, (1, 1)),
    lambda: Distribution(("a", "b"), 1, (2, -1)),
    lambda: Distribution(("a", "b"), 1, (1,)),
    lambda: ValueVector(("a", "b"), (F(0),)),
):
    try:
        build()
        print("accepted")
    except Exception as exc:
        print(type(exc).__name__)
print(__debug__)
"""


@pytest.mark.parametrize("flags, debug", [((), "True"), (("-O",), "False")])
def test_probability_guards_survive_optimize_flag(flags, debug):
    """A chain row summing to 2, a negative entry, a row with mass missing, a
    zero denominator, a repeated target, a target past the last state, a
    missing row, a distribution summing to 2, with a negative entry or with
    a mass missing, and a value vector with a value missing raise domain
    errors, also with asserts stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_DISTRIBUTIONS],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "ProbabilitySumMismatch", "ProbabilityOutOfRange", "ProbabilitySumMismatch",
        "ProbabilityOutOfRange", "ProbabilitySumMismatch", "ProbabilitySumMismatch",
        "ProbabilitySumMismatch",
        "ProbabilitySumMismatch", "ProbabilityOutOfRange", "ProbabilitySumMismatch",
        "UnknownState", debug]
