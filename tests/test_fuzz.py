"""Fuzzed input files through the command line: every run ends in a report.

Hypothesis draws a game, a strategy, a value, a map and a generator-config
file, each either shaped like the real file with small, often wrong leaves
or an arbitrary small JSON tree, and runs each command that reads them.
Every run must exit 0; or exit 1 with nothing on stdout and one JSON
object with a string ``error`` and ``message`` on stderr; or exit 2 with a
usage message.  Integer leaves stay small, so generated games stay tiny.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smpg.cli import main
from smpg.game import game_to_json_dict, validate_game
from smpg.serialize import reset_map_to_json_dict
from smpg.transforms import Reduction

from .conftest import raw_g2
from .test_cli import PINNED_TREES, REPO

GOLDEN = REPO / "tests" / "golden" / "g2_beta_1_3"
SMALL_CONFIG = json.loads((REPO / "games" / "generator_small.json").read_text())

STATES = ("a", "b", "c")
ACTIONS = ("X", "Y", "X'")
KEYS = ("states", "actions", "transitions", "id", "owner", "reward", "from", "action",
        "to", "prob", "max", "min", "kind", "beta", "s0", "state_map", "action_map",
        "splits", "index", "first_mass", "second_mass", "actions_per_state",
        "transitions_per_action", "reward_bound", "denominator_bound",
        "max_states_fraction", "seed", *STATES)
SMALL_INTS = st.integers(min_value=-1, max_value=3)
TEXT = st.sampled_from(("0", "1", "-1", "1/2", "2/3", "1/0", " 1 ", "x", "", "max", "min",
                        "beta-recurrent", "mirror", *STATES, *ACTIONS))
LEAVES = st.one_of(st.none(), st.booleans(), SMALL_INTS, TEXT)
TREES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3), max_leaves=8)


def _either(*values):
    """One of ``values``, or now and then any small tree."""
    return st.one_of(st.sampled_from(values), LEAVES)


STATE_IDS = _either(*STATES)
ACTION_IDS = _either(*ACTIONS)
RATIONALS = _either("0", "1", "-1", "1/2", "1/3", "2/3", "x", 1, 0)


def _shaped(**fields):
    """A dict with these fields, or any small tree instead."""
    return st.fixed_dictionaries(fields) | TREES


GAMES = _shaped(
    states=st.lists(_shaped(id=STATE_IDS, owner=_either("max", "min", "MAX")),
                    min_size=1, max_size=3),
    actions=st.lists(_shaped(id=ACTION_IDS, reward=RATIONALS), max_size=3),
    transitions=st.lists(_shaped(**{"from": STATE_IDS, "action": ACTION_IDS, "to": STATE_IDS,
                                    "prob": RATIONALS}), max_size=5))
STRATEGIES = _shaped(max=st.dictionaries(TEXT, ACTION_IDS, max_size=3) | TREES,
                     min=st.dictionaries(TEXT, ACTION_IDS, max_size=3) | TREES)
VALUES = st.dictionaries(TEXT, RATIONALS, max_size=3) | TREES
MAPS = _shaped(
    kind=_either("beta-recurrent", "mirror", "bogus"), beta=RATIONALS, s0=STATE_IDS,
    state_map=st.dictionaries(TEXT, STATE_IDS, max_size=3),
    action_map=st.dictionaries(TEXT, ACTION_IDS, max_size=3),
    splits=st.lists(_shaped(**{"index": SMALL_INTS, "from": STATE_IDS, "action": ACTION_IDS,
                               "to": STATE_IDS, "first_mass": RATIONALS,
                               "second_mass": RATIONALS}), max_size=4))
CONFIGS = _shaped(
    states=SMALL_INTS, actions_per_state=st.lists(SMALL_INTS, max_size=3),
    transitions_per_action=st.lists(SMALL_INTS, max_size=3), reward_bound=SMALL_INTS,
    denominator_bound=SMALL_INTS, max_states_fraction=RATIONALS, seed=SMALL_INTS)



def _files(game, strategy, values, map_, config):
    return {"game": game, "strategy": strategy, "values": values, "map": map_, "config": config}


def _leaves(tree):
    """The number of leaves of a JSON tree."""
    if isinstance(tree, (dict, list)):
        return sum(map(_leaves, tree.values() if isinstance(tree, dict) else tree))
    return 1


def _replaced(tree, index, leaf):
    """``tree`` with its leaf number ``index``, in walk order, replaced by ``leaf``."""
    def walk(node):
        nonlocal index
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        index -= 1
        return leaf if index == -1 else node
    return walk(tree)


@st.composite
def related_files(draw):
    """A valid game of one to three states, or its reset game, with a pair,
    values, the reset map and a generator config that fit it, some with one
    leaf broken."""
    states = STATES[:draw(st.integers(1, 3))]
    rewards = {a: draw(st.sampled_from(("0", "1", "-1/2"))) for a in ("X", "Y")}
    menus = {s: draw(st.sampled_from((("X",), ("Y",), ("X", "Y")))) for s in states}
    owners = {s: draw(st.sampled_from(("max", "min"))) for s in states}
    transitions = []
    for s, menu in menus.items():
        for a in menu:
            targets = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
            transitions += [{"from": s, "action": a, "to": t, "prob": f"1/{len(targets)}"}
                            for t in targets]
    game = validate_game({"states": [{"id": s, "owner": owners[s]} for s in states],
                          "actions": [{"id": a, "reward": r} for a, r in rewards.items()],
                          "transitions": transitions})
    reduction = Reduction(game, draw(st.sampled_from((F(0), F(1, 2), F(9, 10)))), states[0])
    pair = {"max": {}, "min": {}}
    for s in states:
        pair[owners[s]][s] = draw(st.sampled_from(menus[s]))
    config = {**SMALL_CONFIG, "states": draw(st.integers(1, 3)), "seed": draw(SMALL_INTS)}
    files = _files(game_to_json_dict(reduction.reset_game if draw(st.booleans()) else game),
                   pair, {s: draw(RATIONALS) for s in states},
                   reset_map_to_json_dict(reduction), config)
    # break one leaf of one file in three
    return {name: _replaced(tree, draw(st.integers(0, 3 * _leaves(tree))), draw(LEAVES))
            for name, tree in files.items()}


COMMANDS = (
    ["validate", "GAME"],
    ["eval", "GAME", "--strategy", "STRATEGY", "--criterion", "mean"],
    ["recover", "GAME", "--values", "VALUES", "--beta", "1/2"],
    ["transform", "mirror", "GAME", "--map", "MAP", "--out", "OUT"],
    ["verify", "star2", "GAME", "--map", "MAP"],
    ["generate", "--config", "CONFIG", "--out", "OUT"],
    ["simulate", "GAME", "--strategy", "STRATEGY", "--start", "a", "--horizon", "3",
     "--plays", "2", "--seed", "0"],
)


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


G2_PAIR = {"max": {"a": "X"}, "min": {"b": "Y"}}
G2_VALUES = {"a": "1/3", "b": "-1/3"}  # g2's discounted values at beta 1/2


# the trees of the malformed command-line cases, and valid files that reach every command's end
@example(files=_files([], [], [], [], []))
@example(files=_files({}, {}, {}, {}, {}))
@example(files=_files(_golden("reset.json"), G2_PAIR, {"a": "0", "b": "0", "c": "0"},
                      {**_golden("reset.map.json"), "kind": "bogus"},
                      PINNED_TREES["CONFIG_WITHOUT_SEED"]))
@example(files=_files(_golden("reset.json"), PINNED_TREES["MAX_IS_A_LIST"],
                      PINNED_TREES["VALUES_WITHOUT_B"], _golden("mirror.map.json"), SMALL_CONFIG))
@example(files=_files(PINNED_TREES["STATES_IS_3"], {}, {}, _golden("reset.map.json"), {}))
@example(files=_files(PINNED_TREES["DUPLICATE_ACTION"], {}, {}, {}, {}))
@example(files=_files(_golden("reset.json"), G2_PAIR, G2_VALUES, _golden("reset.map.json"), {}))
@example(files=_files(raw_g2(), G2_PAIR, G2_VALUES, _golden("reset.map.json"), SMALL_CONFIG))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=st.fixed_dictionaries({"game": GAMES, "strategy": STRATEGIES, "values": VALUES,
                                    "map": MAPS, "config": CONFIGS}) | related_files())
def test_fuzzed_files_end_in_a_report_or_a_usage_message(files):
    with tempfile.TemporaryDirectory() as directory:
        paths = {"OUT": str(Path(directory) / "out.json")}
        for name, tree in files.items():
            path = Path(directory) / f"{name}.json"
            path.write_text(json.dumps(tree))
            paths[name.upper()] = str(path)
        for argv in COMMANDS:
            code, out, err = _run([paths.get(arg, arg) for arg in argv])
            if code == 1:
                assert out == ""
                report = json.loads(err)
                assert isinstance(report, dict), argv
                assert isinstance(report["error"], str) and isinstance(report["message"], str)
            elif code == 2:
                assert err.startswith("usage"), argv
            else:
                assert code == 0, argv
