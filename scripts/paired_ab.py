"""Time two smpg source trees against each other, op by op, in one process.

    python scripts/paired_ab.py --parent OTHER/src --change src --workload reduction-n3 --ops 48

Each tree's ``smpg`` package is imported under its own name (``smpg_parent``
and ``smpg_change``), so the two live side by side.  Ops come from one
workload of ``bench/workloads.py``: for op i, each side makes input i with
its own package, runs the op once and checks its output exactly.  The sides
alternate op by op, and the side that runs first swaps every op, so a drift
in machine speed over seconds slows both alike.  The script prints each
side's median op time, the median of the per-op ratios change / parent
and the generation-0 and generation-2 collections that started inside each
side's timed ops (counted through ``gc.callbacks``).  It exits 1 when an
output fails its check, or when the two sides' outputs of one op differ in
their canonical bytes (``Workload.canonical``), naming the first such op:
one run checks a byte-identity claim with the timing.

After the timed ops, two untimed passes per side measure memory: each
makes ``HELD`` inputs, runs their ops while holding every input, as
``bench/run.py`` holds a batch, and prints the KB per input that
``tracemalloc`` still finds allocated after a full collection.  The
"retained" pass traces from after the inputs are made: what each input
keeps once its op is done.  The "held" pass traces from before: what an
input costs in total, itself included, so memory that moves from an op
into making its input shows there.  A time ratio does not show what the
inputs keep; a benchmark's peak RSS does, over a whole run.

Last it prints each tree's code lines as ``scripts/loc.py`` counts them,
so one run reports a change's bytes, time, retained memory and size.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]

from loc import code_lines  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("linalg", "game", "evaluate", "transforms", "solvers", "generate", "serialize", "cli")
SIDES = ("parent", "change")
HELD = 16  # inputs held by the retained-memory pass, one bench/run.py batch


def import_tree(src: Path, name: str):
    """The ``smpg`` package under ``src``, imported as ``name`` with every
    submodule; its relative imports resolve inside it."""
    package = src / "smpg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"paired_ab: no smpg package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return lib


def paired_times(libs: dict, workload: str, ops: int, seed: int, directory: Path):
    """Per side, the op times in seconds, ops 0 .. ops - 1 in turn, and the
    collections per generation that started inside that side's timed ops;
    exits at the first op whose output fails its check or whose canonical
    bytes differ between the sides."""
    wl = WORKLOADS[workload]
    times = {side: [] for side in SIDES}
    collections = {side: [0, 0, 0] for side in SIDES}
    timed = []  # the side whose op is being timed, while it runs

    def count(phase, info):
        if phase == "start" and timed:
            collections[timed[0]][info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        for index in range(ops):
            canonical = {}
            for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
                lib = libs[side]
                folder = directory / side
                folder.mkdir(exist_ok=True)
                inp = wl.make_input(lib, seed, index, folder)
                timed.append(side)
                start = time.perf_counter()
                output = wl.op(lib, inp)
                times[side].append(time.perf_counter() - start)
                timed.clear()
                problems = wl.check(lib, inp, output)
                if problems:
                    raise SystemExit(f"paired_ab: {side} op {index}: {problems[0]}")
                canonical[side] = wl.canonical(lib, output)
            if canonical["parent"] != canonical["change"]:
                raise SystemExit(f"paired_ab: op {index}: the canonical output bytes differ")
    finally:
        gc.callbacks.remove(count)
    return times, collections


def traced_kb(lib, workload: str, seed: int, directory: Path, with_inputs: bool) -> float:
    """KB per input still allocated after the ops of ``HELD`` held inputs
    and a full collection, traced from before the inputs are made
    (``with_inputs``) or from after."""
    wl = WORKLOADS[workload]
    directory.mkdir(exist_ok=True)
    gc.collect()
    tracemalloc.start()
    try:
        inputs = [wl.make_input(lib, seed, index, directory) for index in range(HELD)]
        gc.collect()
        if not with_inputs:
            tracemalloc.clear_traces()  # what the inputs hold is not counted
        for inp in inputs:
            wl.op(lib, inp)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return traced / HELD / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="the parent's src directory")
    parser.add_argument("--change", type=Path, required=True, help="the change's src directory")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="reduction-n3")
    parser.add_argument("--ops", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be positive")

    libs = {side: import_tree(getattr(args, side).resolve(), f"smpg_{side}") for side in SIDES}
    with tempfile.TemporaryDirectory() as directory:
        times, collections = paired_times(libs, args.workload, args.ops, args.seed,
                                          Path(directory))
        memory = {kind: {side: traced_kb(libs[side], args.workload, args.seed,
                                         Path(directory) / f"{kind}-{side}", kind == "held")
                         for side in SIDES} for kind in ("retained", "held")}
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    for side in SIDES:
        print(f"{side}: median op {statistics.median(times[side]) * 1e3:.3f} ms "
              f"({args.ops} ops, {args.workload}, seed {args.seed})")
    print(f"change/parent per-op ratio: median {statistics.median(ratios):.4f}, "
          f"range {min(ratios):.4f}..{max(ratios):.4f}")
    print("collections in timed ops: " + ", ".join(
        f"{side} {collections[side][0]} gen-0 {collections[side][2]} gen-2" for side in SIDES))
    for kind, traced in memory.items():
        print(f"{kind} per input: " + ", ".join(f"{side} {traced[side]:.1f} KB" for side in SIDES)
              + f" ({HELD} inputs held, tracemalloc)")
    lines = {side: sum(code_lines(path.read_text())
                       for path in (getattr(args, side) / "smpg").glob("*.py")) for side in SIDES}
    print("code lines: " + ", ".join(f"{side} {lines[side]}" for side in SIDES)
          + f" ({lines['change'] - lines['parent']:+d}, scripts/loc.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
