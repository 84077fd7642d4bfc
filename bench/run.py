"""Seeded benchmark of smpg: exact solving, pair evaluation and reduction checking.

    python3 bench/run.py --workload si-n40 --seed 0 --seconds 30 --trace 0

It imports smpg from the ``src`` directory beside ``bench`` and exits with an
error, printing no result, when that is missing.  One process and one thread
drive a closed loop of one client: an op starts only after the previous op
and its checks have ended.  Only the op itself is timed; making its input,
writing the input files and checking its output happen outside that span.

``--trace 0`` sets up several times (import smpg, generate and write the
first input batch) and reports the median as ``setup_s``; it then runs ops
for ``--seconds`` of wall time and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of ops derived from ``--seconds``, so its
work counts repeat exactly; each op runs once untraced and once with the
layer functions patched, and the per-layer metrics are printed.

Every output is checked exactly; at the default seed the first outputs must
also match ``bench/digests.json`` byte for byte.  ``--record-digests``
rewrites that file.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

PROCESS_T0 = time.perf_counter()  # after the standard library's imports

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SMPG_MODULES = ("linalg", "game", "evaluate", "transforms", "solvers",
                "generate", "serialize", "cli")

DEFAULT_SEED = 0
BATCH = 16  # inputs made per batch; set-up makes the first batch
SETUP_REPS = 5
DIGEST_OPS = {"si-n40": 64, "eval-n40": 256, "reduction-n3": 48}
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
REFERENCE_KERNEL_S = 0.004  # calibration_kernel's time at the reference speed


def _smpg_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "smpg" or n.startswith("smpg.")}


def import_smpg():
    """Import smpg afresh from SRC, dropping any earlier import of it."""
    if not (SRC / "smpg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no smpg sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _smpg_modules():
        del sys.modules[name]
    lib = importlib.import_module("smpg")
    for module in SMPG_MODULES:
        importlib.import_module(f"smpg.{module}")
    if Path(lib.__file__).resolve().parent != SRC / "smpg":
        raise SystemExit(f"bench: imported smpg from {lib.__file__}, not from {SRC}")
    return lib


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "optimize": sys.flags.optimize,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": _commit(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown: not a git checkout"
    return "unknown"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Counts attempted and failed ops.  An op fails when it raises, when a
    check finds a problem, or when its canonical output differs from the
    recorded digest.  Failures are never dropped."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.digests = []
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.digests = json.loads(DIGESTS.read_text()).get(wl.name, [])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, lib, inp, output, error) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if not problems:
            try:
                problems = self.wl.check(lib, inp, output)
                if not problems and inp.index < len(self.digests):
                    if _digest(self.wl.canonical(lib, output)) != self.digests[inp.index]:
                        problems = ["canonical output differs from the recorded digest"]
            except Exception as exc:  # a malformed output is a failed op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"op {inp.index}: {p}" for p in problems[:3]]


def timed(fn, *args):
    """(seconds, output, error) of one call; an exception is an error."""
    start = time.perf_counter()
    try:
        output, error = fn(*args), None
    except Exception as exc:  # the op failed; the gate counts it
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, error


def calibration_kernel() -> int:
    """Fixed exact arithmetic that does not touch smpg: Fraction sums over
    small integers, then fraction-free elimination steps on 521-bit
    integers, the two kinds of work smpg's solvers do."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i)
    modulus = (1 << 521) - 1
    row = [(acc.numerator * i) % modulus + 1 for i in range(1, 13)]
    for _ in range(80):
        pivot = row[0]
        row = [(pivot * row[j] - row[(j + 1) % 12] * row[(j + 5) % 12]) % modulus
               for j in range(12)]
    return row[0]


class SpeedScale:
    """Scales wall times to the reference speed.

    This machine's speed drifts by up to 1.8x within seconds, under other
    tenants' load, and moves every wall time with it.  The calibration
    kernel runs before the first timed span and after each one; a span is
    scaled by REFERENCE_KERNEL_S over the mean of the kernel times on its
    two sides, so the scaled time is what the span would take where the
    kernel takes REFERENCE_KERNEL_S.
    """

    def __init__(self):
        self.kernel_s = [self._kernel()]

    @staticmethod
    def _kernel() -> float:
        gc.disable()  # the kernel makes no cycles; a collection would only add noise
        try:
            start = time.perf_counter()
            calibration_kernel()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def after_span(self) -> float:
        """The factor for the span that just ended."""
        self.kernel_s.append(self._kernel())
        return REFERENCE_KERNEL_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)


def setup(wl, seed, directory, speed):
    """Import smpg and make the first input batch, SETUP_REPS times; the
    median scaled time is setup_s."""
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        lib = import_smpg()
        batch_dir = directory / f"setup{rep}"
        batch_dir.mkdir(parents=True)
        batch = [wl.make_input(lib, seed, i, batch_dir) for i in range(BATCH)]
        times.append((time.perf_counter() - start) * speed.after_span())
    return lib, batch, statistics.median(times)


def inputs(lib, wl, seed, directory, first_batch):
    yield from first_batch
    index = len(first_batch)
    while True:
        batch_dir = directory / f"batch{index // BATCH}"
        batch_dir.mkdir(parents=True)
        yield from [wl.make_input(lib, seed, i, batch_dir) for i in range(index, index + BATCH)]
        index += BATCH


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies_ms)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(wl, seed, seconds, directory):
    speed = SpeedScale()
    lib, first_batch, setup_s = setup(wl, seed, directory, speed)
    gate = Gate(wl, seed)
    latencies, raw = [], []
    stream = inputs(lib, wl, seed, directory, first_batch)
    first_op_after = time.perf_counter() - PROCESS_T0
    window_start = time.perf_counter()
    while not latencies or time.perf_counter() - window_start < seconds:
        inp = next(stream)
        elapsed, output, error = timed(wl.op, lib, inp)
        raw.append(elapsed * 1e3)
        latencies.append(elapsed * speed.after_span() * 1e3)
        gate.judge(lib, inp, output, error)
    tail_ms, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kernel_ms = [k * 1e3 for k in speed.kernel_s]
    notes = [
        f"times are scaled to the reference speed; unscaled op_ms_p50 {statistics.median(raw):.3f}, "
        f"calibration kernel {min(kernel_ms):.3f}..{max(kernel_ms):.3f} ms "
        f"(median {statistics.median(kernel_ms):.3f}, reference {REFERENCE_KERNEL_S * 1e3:g})",
        f"op_ms_tail is p{percentile:.1f} of {len(latencies)} samples, {beyond} beyond it",
        f"fail_ratio {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted}",
        f"setup_s is the median of {SETUP_REPS} set-ups; the first timed op began "
        f"{first_op_after:.3f} s after run.py started",
    ]
    return gate, metrics, notes


def traced(wl, seed, seconds, directory):
    lib = import_smpg()
    gate = Gate(wl, seed)
    tracer = Tracer()
    speed = SpeedScale()
    # both phases together take about two thirds of --seconds at nominal speed
    ops = max(1, round(seconds / 3 / wl.nominal_op_s))
    untraced_ms, traced_ms = [], []
    directory.mkdir(parents=True)
    for i in range(ops):
        # the same input twice, each a fresh Game: once untraced, once traced
        inp = wl.make_input(lib, seed, i, directory)
        elapsed, output, error = timed(wl.op, lib, inp)
        untraced_ms.append(elapsed * speed.after_span() * 1e3)
        gate.judge(lib, inp, output, error)
        inp = wl.make_input(lib, seed, i, directory)
        tracer.patch(lib)
        try:
            elapsed, output, error = timed(tracer.run_op, i, wl.op, lib, inp)
        finally:
            tracer.unpatch()
        traced_ms.append(elapsed * speed.after_span() * 1e3)
        gate.judge(lib, inp, output, error)
    spans_path = WORK / f"spans-{wl.name}.tsv"
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(untraced_ms, traced_ms)
    share, base = metrics["linalg.solve_columns.share"][0], metrics["trace.op_s_total"][0]
    notes = [
        f"{ops} ops, each run untraced then traced; {len(tracer.spans)} spans in {spans_path}",
        f"linalg.solve_columns self time is {share:.1%} of {base:.3f} s traced op time",
        f"fail_ratio {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted}",
    ]
    return gate, metrics, notes


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result with its notes.  Leaves the
    caller's smpg modules, if it had any, as they were."""
    directory = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    saved = _smpg_modules()
    try:
        measure = traced if trace else end_to_end
        gate, metrics, notes = measure(wl, seed, seconds, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        for name in _smpg_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes + gate.problems[:10],
    }


def record_digests() -> None:
    """Rewrite DIGESTS from the first ops of every workload at DEFAULT_SEED."""
    lib = import_smpg()
    recorded = {}
    for name, wl in WORKLOADS.items():
        directory = WORK / f"digests-{name}-{os.getpid()}"
        directory.mkdir(parents=True)
        try:
            recorded[name] = []
            for i in range(DIGEST_OPS[name]):
                inp = wl.make_input(lib, DEFAULT_SEED, i, directory)
                output = wl.op(lib, inp)
                problems = wl.check(lib, inp, output)
                if problems:
                    raise SystemExit(f"bench: {name} op {i} fails its checks: {problems}")
                recorded[name].append(_digest(wl.canonical(lib, output)))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the library's exactness asserts: a different program
        raise SystemExit("bench: refusing to run under python -O")
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result.pop("notes"):
        print("# " + note)
    for name, metric in result["metrics"].items():
        print(f"{name:46} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
