"""Data model: parsing, validation, merging, induced chains, enumeration."""

import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smpg.serialize
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
from smpg.errors import rational_text
from smpg.game import (
    MAX,
    MIN,
    PLAYERS,
    Game,
    InducedChain,
    PositionalStrategy,
    State,
    StrategyPair,
    Transition,
    _CheckedRow,
    build_game,
    check_pair,
    enumerate_strategies,
    format_rational,
    game_to_json_dict,
    induced_chain,
    parse_rational,
    strategy_count,
    strategy_pair_to_json_dict,
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


def _repeated_literals():
    """raw_g2 with a third action and literals that repeat: the strings "1"
    and "1/2" three times each and the JSON number 1 twice."""
    raw = raw_g2()
    raw["actions"] = [{"id": "X", "reward": "1"}, {"id": "Y", "reward": 1},
                      {"id": "Z", "reward": "1/2"}]
    raw["transitions"] = [
        {"from": "a", "action": "X", "to": "b", "prob": "1/2"},
        {"from": "a", "action": "X", "to": "a", "prob": "1/2"},
        {"from": "a", "action": "Z", "to": "b", "prob": "1"},
        {"from": "b", "action": "Y", "to": "a", "prob": 1},
        {"from": "b", "action": "Z", "to": "b", "prob": "1"},
    ]
    return raw


def test_validate_game_parses_each_literal_string_once(monkeypatch):
    """One parse per distinct literal string and one per literal that is
    not a string, into the game that parsing every literal builds."""
    raw = _repeated_literals()
    literals = [a["reward"] for a in raw["actions"]] + [t["prob"] for t in raw["transitions"]]
    expected = build_game(
        [State(s["id"], s["owner"]) for s in raw["states"]],
        {a["id"]: parse_rational(a["reward"]) for a in raw["actions"]},
        [(t["from"], t["action"], t["to"], parse_rational(t["prob"])) for t in raw["transitions"]])
    calls = []

    def spy(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr("smpg.game.parse_rational", spy)
    game = validate_game(raw)
    strings = [text for text in literals if type(text) is str]
    assert len(calls) == len(set(strings)) + len(literals) - len(strings) == 4
    assert sorted(map(repr, calls)) == ["'1'", "'1/2'", "1", "1"]
    assert game == expected
    assert game.__dict__["_chain_rows"] == expected.__dict__["_chain_rows"]


def _bad_literal(bad, reward=True):
    """_repeated_literals with its second and third transitions'
    probabilities, and with ``reward`` the last action's reward, set to
    ``bad``, which stands after the literals parsed before it."""
    raw = _repeated_literals()
    for t in raw["transitions"][1:3]:
        t["prob"] = bad
    if reward:
        raw["actions"][-1]["reward"] = bad
    return raw


@pytest.mark.parametrize("raw, report", [
    # a bad string repeated: the first place it stands raises, the reward before the probs
    (_bad_literal("1.5"), {
        "error": "ParseError", "message": "not a rational literal: '1.5'", "value": "'1.5'"}),
    # a bad probability repeated, after every reward parsed
    (_bad_literal("1/0", reward=False), {
        "error": "ParseError", "message": "not a rational literal: '1/0'", "value": "'1/0'"}),
    # JSON true as a probability, after the strings "1" and "1/2" and the number 1 are parsed
    (_bad_literal(True, reward=False), {
        "error": "ParseError", "message": "not a rational literal: True", "value": "True"}),
])
def test_a_bad_literal_raises_where_it_first_stands(raw, report):
    with pytest.raises(ParseError) as info:
        validate_game(raw)
    assert info.value.to_json_dict() == report


def test_a_number_and_its_string_load_to_equal_games():
    raw = raw_g2()
    numbers = raw_g2()
    numbers["actions"][0]["reward"] = 1
    numbers["transitions"][1]["prob"] = 1
    strings = validate_game(raw)
    assert validate_game(numbers) == strings
    assert validate_game(numbers).__dict__["_chain_rows"] == strings.__dict__["_chain_rows"]


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
            choices = {**smax.choices, **smin.choices}
            dense = [[F(0)] * n for _ in range(n)]
            for i, s in enumerate(g.state_order):
                for target, prob in g.outgoing[(s, choices[s])]:
                    dense[i][g.state_index[target]] += prob
            assert induced_chain(g, pair).matrix == tuple(map(tuple, dense))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chain_rows_are_built_once_from_the_outgoing_rows(seed):
    """build_game makes exactly one checked row per (state, action), equal
    to the row scaled from that action's outgoing transitions, before any
    chain is built; every chain of every pair shares those rows by
    identity, and no chain makes another row."""
    g = generate_game(GeneratorConfig(
        states=(seed % 4) + 1, actions_per_state=(1, 3), transitions_per_action=(1, 4),
        reward_bound=3, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
    rows = g.__dict__["_chain_rows"]
    made = dict(rows)
    assert "outgoing" not in g.__dict__
    assert sorted(rows) == sorted(g.outgoing)
    for (state, action), out in g.outgoing.items():
        assert type(rows[state, action]) is _CheckedRow
        assert rows[state, action] == _row_from_outgoing(g, out)
        assert g.chain_row(state, action) is rows[state, action]
    for smax in enumerate_strategies(g, MAX):
        for smin in enumerate_strategies(g, MIN):
            chain = induced_chain(g, pair_of(smax.choices, smin.choices))
            choices = {**smax.choices, **smin.choices}
            for i, state in enumerate(g.state_order):
                assert chain.rows[i] is rows[state, choices[state]]
    assert g.__dict__["_chain_rows"] is rows and rows.keys() == made.keys()
    assert all(rows[key] is row for key, row in made.items())


def _row_from_outgoing(game, out):
    """The integer row (den, ((j, num), ...)) of one action, scaled here
    from its Fraction (target, prob) pairs: den the lcm of their
    denominators."""
    den = 1
    for _, prob in out:
        den = den * prob.denominator // gcd(den, prob.denominator)
    return den, tuple((game.state_index[t], int(prob * den)) for t, prob in out)


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


def test_enumerate_strategies_rejects_an_unknown_player(g1):
    with pytest.raises(StrategyDomainMismatch) as info:
        enumerate_strategies(g1, "chance")
    assert info.value.to_json_dict() == {"error": "StrategyDomainMismatch",
                                         "message": "unknown player 'chance'", "player": "chance"}


def test_pair_choices_are_merged_on_every_read(g2, g2_pair):
    """StrategyPair.choices is not cached: a strategy's dict is mutable."""
    assert g2_pair.choices == {"a": "X", "b": "Y"}
    g2_pair.min_strategy.choices["b"] = "Z"
    assert g2_pair.choices == {"a": "X", "b": "Z"}
    assert StrategyPair.from_choices(g2_pair.choices, g2.owner) == g2_pair


def test_strategy_pair_json_form_lives_in_game(g2_pair):
    written = strategy_pair_to_json_dict(g2_pair)
    assert written == {"max": {"a": "X"}, "min": {"b": "Y"}}
    assert written["max"] is not g2_pair.max_strategy.choices
    assert smpg.serialize.strategy_pair_to_json_dict is strategy_pair_to_json_dict


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
from smpg.game import InducedChain, _checked_row

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
    lambda: InducedChain(("a", "b"), (_checked_row("a", 1, ((5, 1),), 6), last), rewards),
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
    missing row, a row checked for six states in a two-state chain, a
    distribution summing to 2, with a negative entry or with
    a mass missing, and a value vector with a value missing raise domain
    errors, also with asserts stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_DISTRIBUTIONS],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "ProbabilitySumMismatch", "ProbabilityOutOfRange", "ProbabilitySumMismatch",
        "ProbabilityOutOfRange", "ProbabilitySumMismatch", "ProbabilitySumMismatch",
        "ProbabilitySumMismatch", "ProbabilitySumMismatch",
        "ProbabilitySumMismatch", "ProbabilityOutOfRange", "ProbabilitySumMismatch",
        "UnknownState", debug]


def _reference_chain_guard(state_order, rows, rewards):
    """The InducedChain guard as it was before rows were checked where
    Game.chain_row builds them, kept verbatim as the reference."""
    n = len(state_order)
    if len(rows) != n or len(rewards) != n:
        raise ProbabilitySumMismatch(f"{len(rows)} rows and {len(rewards)} "
                                     f"rewards for {n} states", states=n)
    for state, (den, entries) in zip(state_order, rows):
        if den <= 0 or any(num <= 0 for _, num in entries):
            raise ProbabilityOutOfRange(f"non-positive integer in row {state!r}", state=state)
        bounds = [-1, *(j for j, _ in entries), n]
        if (any(a >= b for a, b in zip(bounds, bounds[1:]))
                or sum(num for _, num in entries) != den):
            raise ProbabilitySumMismatch(f"row {state!r} is not one distribution over "
                                         "ascending, distinct states", state=state)


def _verdict(build):
    """The error's class name, message and payload, or "accepted" and the
    result."""
    try:
        result = build()
    except (ProbabilityOutOfRange, ProbabilitySumMismatch, SinkState, UnknownReference,
            ParseError) as exc:
        return type(exc).__name__, str(exc), exc.payload
    return "accepted", result


def _six_state_game():
    """Six states in a ring, each with an action to the next state and a
    fan-out action to itself and every later state: checked rows whose
    last target runs from 0 to 5."""
    n = 6
    raw = {"states": [{"id": f"s{i}", "owner": "max" if i % 2 else "min"} for i in range(n)],
           "actions": [{"id": "next", "reward": "1"}, {"id": "fan", "reward": "-1/2"}],
           "transitions": []}
    for i in range(n):
        raw["transitions"].append({"from": f"s{i}", "action": "next", "to": f"s{(i + 1) % n}",
                                   "prob": "1"})
        for j in range(i, n):
            raw["transitions"].append({"from": f"s{i}", "action": "fan", "to": f"s{j}",
                                       "prob": f"1/{n - i}"})
    return validate_game(raw)


_SIX = _six_state_game()
_checked_rows = st.sampled_from([_SIX.chain_row(s, a) for s, a in _SIX.outgoing])
_hand_rows = st.tuples(
    st.integers(min_value=-2, max_value=6),
    st.lists(st.tuples(st.integers(min_value=-1, max_value=5),
                       st.integers(min_value=-2, max_value=6)), max_size=4).map(tuple))
_valid_hand_rows = st.integers(min_value=0, max_value=5).map(lambda j: (1, ((j, 1),)))


@settings(max_examples=400, deadline=None)
@given(n=st.integers(min_value=1, max_value=4),
       rows=st.lists(st.one_of(_hand_rows, _checked_rows, _valid_hand_rows),
                     min_size=0, max_size=5),
       data=st.data())
def test_chain_row_check_matches_the_inline_guard(n, rows, data):
    """Hand-built rows (zero or negative den, non-positive numerators,
    unsorted or repeated targets, targets past the last state, wrong sums)
    and checked rows from a six-state game, in chains on 1-4 states: the
    row check gives the old guard's verdict, class, message and payload."""
    if data.draw(st.booleans()):  # mostly the right number of rows
        rows = (rows * n)[:n] if rows else [(1, ((0, 1),))] * n
    state_order = tuple(f"q{i}" for i in range(n))
    rewards = (F(0),) * n
    expected = _verdict(lambda: _reference_chain_guard(state_order, tuple(rows), rewards))
    got = _verdict(lambda: InducedChain(state_order, tuple(rows), rewards))
    if expected[0] == "accepted":
        assert got[0] == "accepted" and got[1].rows == tuple(rows)
    else:
        assert got == expected


def test_checked_row_of_a_larger_game_is_bounded_by_the_chain():
    """A row Game.chain_row built and checked for a six-state game, placed
    in a three-state chain, must fail the chain's bound check."""
    row = _SIX.chain_row("s4", "next")  # (1, ((5, 1),))
    assert row == (1, ((5, 1),))
    loop = _SIX.chain_row("s0", "fan")  # targets 0..5
    for bad in (row, loop):
        with pytest.raises(ProbabilitySumMismatch) as info:
            InducedChain(("a", "b", "c"), (bad, (1, ((0, 1),)), (1, ((0, 1),))), (F(0),) * 3)
        assert str(info.value) == "row 'a' is not one distribution over ascending, distinct states"
        assert info.value.payload == {"state": "a"}
    # a checked row whose targets all lie in the smaller chain is accepted there
    inside = _SIX.chain_row("s1", "next")  # (1, ((2, 1),))
    assert InducedChain(("a", "b", "c"), (inside,) * 3, (F(0),) * 3).rows == (inside,) * 3


def _reference_build_game(states, actions, transitions):
    """build_game as it was before its probability checks ran in integers,
    kept verbatim as the reference."""
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
    merged: dict[tuple[str, str, str], F] = {}
    for source, action, target, prob in transitions:
        if source not in index:
            raise UnknownReference(f"transition from unknown state {source!r}", kind="state", id=source)
        if target not in index:
            raise UnknownReference(f"transition to unknown state {target!r}", kind="state", id=target)
        if action not in action_map:
            raise UnknownReference(f"transition uses unknown action {action!r}", kind="action", id=action)
        prob = F(prob)
        if not 0 < prob <= 1:
            raise ProbabilityOutOfRange(
                f"probability {rational_text(prob)} of {source}-{action}->{target} outside (0, 1]",
                source=source, action=action, target=target, prob=prob)
        key = (source, action, target)
        merged[key] = merged.get(key, F(0)) + prob

    sums: dict[tuple[str, str], F] = {}
    for (source, action, _), prob in merged.items():
        sums[(source, action)] = sums.get((source, action), F(0)) + prob
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


_probs = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=7),
    st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1, 6), F(1), 1, 0, True]),
    st.integers(min_value=-1, max_value=2))


@settings(max_examples=400, deadline=None)
@given(edges=st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["X", "Y"]),
                                st.sampled_from(["a", "b"]), _probs), max_size=7))
# parallel edges whose merged probability has a smaller denominator: the row is over 3, not 6
@example(edges=[("a", "X", "b", F(1, 6)), ("b", "Y", "a", F(1)), ("a", "X", "b", F(1, 6)),
                ("a", "X", "a", F(2, 3))])
# one-target rows: probability 1, parallel edges merging to 1, and 1/2 alone, which must fail
@example(edges=[("a", "X", "b", F(1)), ("b", "Y", "a", F(1))])
@example(edges=[("a", "X", "b", F(1, 2)), ("b", "Y", "b", F(1)), ("a", "X", "b", F(1, 2))])
@example(edges=[("a", "X", "b", F(1, 2)), ("b", "Y", "a", F(1))])
def test_build_game_integer_checks_match_the_fraction_checks(edges):
    """Random transition lists over two states and two actions, with
    probabilities in and out of (0, 1], repeated edges and rows that sum
    to 1 or not: build_game's integer checks give the old Fraction checks'
    verdict, class, message and payload, and the same merged game, whose
    rows are exactly the rows scaled from the reference game's merged
    transitions, one per (state, action)."""
    # half the time complete each (state, action) row that already has an edge
    complete = list(edges)
    for source, action in dict.fromkeys((s, a) for s, a, _, _ in edges):
        total = sum((F(p) for s, a, _, p in edges if (s, a) == (source, action)), F(0))
        if 0 < 1 - total <= 1:
            complete.append((source, action, "a", 1 - total))
    states = [State("a", MAX), State("b", MIN)]
    actions = {"X": F(1), "Y": F(-1)}
    for transitions in (edges, complete):
        expected = _verdict(lambda: _reference_build_game(states, actions, transitions))
        got = _verdict(lambda: build_game(states, actions, transitions))
        assert got == expected
        if got[0] == "accepted":
            assert all(type(t.prob) is F for t in got[1].transitions)
            reference = expected[1].outgoing
            assert got[1].__dict__["_chain_rows"].keys() == reference.keys()
            assert {key: got[1].chain_row(*key) for key in reference} == {
                key: _row_from_outgoing(got[1], out) for key, out in reference.items()}
