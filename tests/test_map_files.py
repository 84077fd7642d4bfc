"""Transform map files: golden bytes and the errors wrong maps end in.

The golden files under ``golden/g2_beta_1_3`` are the restart transform of
``games/g2.json`` at beta 1/3 from state ``a`` and its mirrored double game,
each with the map file written beside it, plus the stdout of ``verify star``
from each state, of ``verify star2`` and of ``pipeline`` on the same game and
beta (``*.out``), and the ``discounted_values.json`` the pipeline writes.
The files under ``golden/interleaved`` are ``transform mirror``'s output on
a two-state game whose copy ids sort interleaved (s1, s11, s12, s2) and
whose primed twins sort the other way round from their actions (x!' before
x'), from each start state at beta 0 and 1/3.
"""

import json
from pathlib import Path

import pytest

from smpg.cli import main

REPO = Path(__file__).resolve().parents[1]
G2 = str(REPO / "games" / "g2.json")
GOLDEN = Path(__file__).resolve().parent / "golden" / "g2_beta_1_3"
INTERLEAVED = GOLDEN.parent / "interleaved"

NOT_DESCRIBED = ('{\n'
                 '  "error": "MissingKindAnnotation",\n'
                 '  "message": "split record does not describe this game"\n'
                 '}\n')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def written(game, map_file):
    return ('{\n'
            '  "written": {\n'
            f'    "game": "{game}",\n'
            f'    "map": "{map_file}"\n'
            '  }\n'
            '}\n')


def golden_reset_map():
    return json.loads((GOLDEN / "reset.map.json").read_text())


def test_transform_golden_bytes_g2_beta_1_3(capsys, tmp_path):
    reset = str(tmp_path / "reset.json")
    reset_map = str(tmp_path / "reset.map.json")
    code, out, err = run(capsys, "transform", "beta-recurrent", G2,
                         "--beta", "1/3", "--start", "a", "--out", reset)
    assert (code, out, err) == (0, written(reset, reset_map), "")

    doubled = str(tmp_path / "mirror.json")
    doubled_map = str(tmp_path / "mirror.map.json")
    code, out, err = run(capsys, "transform", "mirror", reset,
                         "--map", reset_map, "--out", doubled)
    assert (code, out, err) == (0, written(doubled, doubled_map), "")

    for name in ("reset.json", "reset.map.json", "mirror.json", "mirror.map.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("start", ["s", "s1"])
@pytest.mark.parametrize("beta, tag", [("0", "0"), ("1/3", "1_3")])
def test_mirror_golden_bytes_on_interleaved_ids(capsys, tmp_path, start, beta, tag):
    reset = str(tmp_path / "reset.json")
    code, _, _ = run(capsys, "transform", "beta-recurrent", str(INTERLEAVED / "game.json"),
                     "--beta", beta, "--start", start, "--out", reset)
    assert code == 0
    name = f"mirror_{start}_beta_{tag}"
    code, _, err = run(capsys, "transform", "mirror", reset,
                       "--map", str(tmp_path / "reset.map.json"), "--out", str(tmp_path / f"{name}.json"))
    assert (code, err) == (0, "")
    for file in (f"{name}.json", f"{name}.map.json"):
        assert (tmp_path / file).read_bytes() == (INTERLEAVED / file).read_bytes(), file


def _mirror_kind_map(tmp_path):
    return (GOLDEN / "mirror.map.json").read_text()


def _other_game_map(tmp_path):
    # the restart map of the same source game at another beta
    main(["transform", "beta-recurrent", G2, "--beta", "1/2", "--start", "a",
          "--out", str(tmp_path / "other.json")])
    return (tmp_path / "other.map.json").read_text()


def _swapped_masses_map(tmp_path):
    raw = golden_reset_map()
    for split in raw["splits"]:
        split["first_mass"], split["second_mass"] = split["second_mass"], split["first_mass"]
    return json.dumps(raw)


def _missing_start_map(tmp_path):
    raw = golden_reset_map()
    raw["s0"] = "zz"
    return json.dumps(raw)


MISSING_START = ('{\n'
                 '  "error": "MissingKindAnnotation",\n'
                 '  "message": "reset state \'zz\' missing from the game",\n'
                 '  "s0": "zz"\n'
                 '}\n')

# map builder -> ((code, stderr) of transform mirror, (code, stderr) of verify star2)
WRONG_MAPS = {
    "mirror-kind": (
        _mirror_kind_map,
        (1, '{\n'
            '  "error": "MissingKindAnnotation",\n'
            '  "kind": "mirror",\n'
            '  "message": "mirror needs the split record of a reset transform"\n'
            '}\n'),
        (2, "usage error: star2 needs a reset-transform map\n")),
    "other-game": (_other_game_map, (1, NOT_DESCRIBED), (1, NOT_DESCRIBED)),
    "swapped-masses": (_swapped_masses_map, (1, NOT_DESCRIBED), (1, NOT_DESCRIBED)),
    "missing-start": (_missing_start_map, (1, MISSING_START), (1, MISSING_START)),
}


@pytest.mark.parametrize("case", sorted(WRONG_MAPS))
def test_wrong_map_error_bytes(capsys, tmp_path, case):
    build, (mirror_code, mirror_err), (star2_code, star2_err) = WRONG_MAPS[case]
    map_file = tmp_path / "wrong.map.json"
    map_file.write_text(build(tmp_path))
    capsys.readouterr()
    reset = str(GOLDEN / "reset.json")

    out_game = tmp_path / "doubled.json"
    code, out, err = run(capsys, "transform", "mirror", reset,
                         "--map", str(map_file), "--out", str(out_game))
    assert (code, out, err) == (mirror_code, "", mirror_err)
    assert not out_game.exists()

    code, out, err = run(capsys, "verify", "star2", reset, "--map", str(map_file))
    assert (code, out, err) == (star2_code, "", star2_err)


def _split(position, **changes):
    raw = golden_reset_map()
    raw["splits"][position].update(changes)
    return raw


MALFORMED_MAPS = {
    "not-an-object": [golden_reset_map()],
    "state-map-array": dict(golden_reset_map(), state_map=[]),
    "action-map-of-arrays": dict(golden_reset_map(), action_map={"X": ["X"], "Y": ["Y"]}),
    "no-kind": {k: v for k, v in golden_reset_map().items() if k != "kind"},
    "unknown-kind": dict(golden_reset_map(), kind="reset"),
    "boolean-beta": dict(golden_reset_map(), beta=True),
    "numeric-start": dict(golden_reset_map(), s0=0),
    "splits-object": dict(golden_reset_map(), splits={}),
    "split-string": dict(golden_reset_map(), splits=["a"]),
    "index-string": _split(0, index="x"),
    "target-missing": {**golden_reset_map(),
                       "splits": [{k: v for k, v in golden_reset_map()["splits"][0].items()
                                   if k != "to"}]},
    "mass-float": _split(1, second_mass=0.5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_malformed_map_ends_in_parse_error(capsys, tmp_path, case):
    map_file = tmp_path / "bad.map.json"
    map_file.write_text(json.dumps(MALFORMED_MAPS[case]))
    for argv in (("transform", "mirror", str(GOLDEN / "reset.json"), "--map",
                  str(map_file), "--out", str(tmp_path / "doubled.json")),
                 ("verify", "star2", str(GOLDEN / "reset.json"), "--map", str(map_file))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ParseError"


# (golden file, argv) of report commands on g2 at beta 1/3; both verify star2
# routes print the same report
REPORTS = {
    "star-a": ("verify_star_a.out",
               ("verify", "star", G2, "--beta", "1/3", "--start", "a")),
    "star-b": ("verify_star_b.out",
               ("verify", "star", G2, "--beta", "1/3", "--start", "b")),
    "star2-beta": ("verify_star2.out",
                   ("verify", "star2", G2, "--beta", "1/3", "--start", "a")),
    "star2-map": ("verify_star2.out",
                  ("verify", "star2", str(GOLDEN / "reset.json"),
                   "--map", str(GOLDEN / "reset.map.json"))),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_golden_bytes_g2_beta_1_3(capsys, case):
    golden, argv = REPORTS[case]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, (GOLDEN / golden).read_text(), "")


def test_pipeline_golden_bytes_g2_beta_1_3(capsys, tmp_path):
    code, out, err = run(capsys, "pipeline", G2, "--beta", "1/3",
                         "--out-dir", str(tmp_path))
    assert (code, out, err) == (0, (GOLDEN / "pipeline.out").read_text(), "")
    assert ((tmp_path / "discounted_values.json").read_bytes()
            == (GOLDEN / "pipeline_discounted_values.json").read_bytes())
