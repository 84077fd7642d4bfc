"""Per-layer tracing for the benchmark's traced run.

``Tracer.patch`` replaces each layer function below with a wrapper at every
``smpg`` module attribute bound to it, which is where its callers look it
up (``smpg.solvers.discounted_values``, ``smpg.linalg.solve_columns``, ...).
While an op is open, a wrapper records a span (name, start, end, parent, op
id) and its counts.  Spans stay in memory until ``write_spans``; self time
is a span's duration minus its direct children's.  Outside an op, and in
the untraced run, which never patches, nothing is recorded.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# span name -> (smpg submodule, function)
LAYERS = {
    "linalg.solve_columns": ("linalg", "solve_columns"),
    "game.induced_chain": ("game", "induced_chain"),
    "game.build_game": ("game", "build_game"),
    "evaluate.discounted_values": ("evaluate", "discounted_values"),
    "evaluate.mean_values": ("evaluate", "mean_values"),
    "evaluate.recurrent_stationary": ("evaluate", "recurrent_stationary"),
    "evaluate.unichain_stationary": ("evaluate", "unichain_stationary"),
    "solvers.strategy_iteration_discounted": ("solvers", "strategy_iteration_discounted"),
    "solvers.verify_star": ("solvers", "verify_star"),
    "solvers.verify_star2": ("solvers", "verify_star2"),
    "solvers.reference_recovery_oracle": ("solvers", "reference_recovery_oracle"),
    "solvers.strategic_via_recovery": ("solvers", "strategic_via_recovery"),
    "solvers.greedy_recovery_discounted": ("solvers", "greedy_recovery_discounted"),
    "transforms.beta_recurrent": ("transforms", "beta_recurrent"),
    "transforms.mirror": ("transforms", "mirror"),
    "transforms.decompose_mirror_strategies": ("transforms", "decompose_mirror_strategies"),
    "serialize.load_game": ("serialize", "load_game"),
    "serialize.canonical_dumps": ("serialize", "canonical_dumps"),
    "cli.main": ("cli", "main"),
}

# Counts of the work done, by name; each is a per_layer metric.
COUNTS = {
    "linalg.rows": "count",
    "linalg.rhs_cols": "count",
    "linalg.max_bits": "bits",
    "game.enumerate_strategies.yielded": "count",
    "solvers.si.rounds": "count",
    "solvers.pairs_checked": "count",
    "serialize.bytes_out": "bytes",
}

OP = "op"
COUNTING = "bench.counting"  # time spent counting; a child span, so no layer's self time holds it


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.op_chains: set = set()  # distinct mean_values chains in the open op
        self.distinct_chains = 0
        self._restore: list = []

    # -- spans ---------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, perf_counter_ns()

    def _close(self, name, index, start):
        end = perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as op ``op_id`` inside a root span."""
        self.op = op_id
        self.op_chains = set()
        index, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(OP, index, start)
            self.distinct_chains += len(self.op_chains)
            self.op = None

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, start)
            if after is not None:
                count_index, count_start = self._open()
                after(args, result)
                self._close(COUNTING, count_index, count_start)
            return result
        return wrapper

    def _wrap_enumeration(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            strategies = fn(*args, **kwargs)
            if self.op is None:
                return strategies
            return self._counted(strategies)
        return wrapper

    def _counted(self, strategies):
        for strategy in strategies:
            self.counts["game.enumerate_strategies.yielded"] += 1
            yield strategy

    # -- counts at the layer boundaries --------------------------------

    def _after_solve(self, args, solution):
        matrix, rhs_rows = args[0], args[1]
        self.counts["linalg.rows"] += len(matrix)
        self.counts["linalg.rhs_cols"] += len(rhs_rows[0]) if matrix else 0
        bits = max((_bits(x) for row in solution for x in row), default=0)
        self.counts["linalg.max_bits"] = max(self.counts["linalg.max_bits"], bits)

    def _after_mean(self, args, _values):
        chain = args[0]
        self.op_chains.add((chain.matrix, chain.rewards))

    def _after_verify(self, _args, report):
        self.counts["solvers.pairs_checked"] += report.pairs_checked

    def _after_dumps(self, _args, text):
        self.counts["serialize.bytes_out"] += len(text.encode())

    # -- patching ------------------------------------------------------

    def patch(self, lib):
        """Wrap every layer function at each smpg attribute bound to it."""
        after = {
            "linalg.solve_columns": self._after_solve,
            "evaluate.mean_values": self._after_mean,
            "solvers.verify_star": self._after_verify,
            "solvers.verify_star2": self._after_verify,
            "serialize.canonical_dumps": self._after_dumps,
        }
        replacements = {}
        for name, (module, attr) in LAYERS.items():
            original = getattr(getattr(lib, module), attr)
            replacements[id(original)] = (original, self._wrap(name, original, after.get(name)))
        enumerate_strategies = lib.game.enumerate_strategies
        replacements[id(enumerate_strategies)] = (
            enumerate_strategies, self._wrap_enumeration(enumerate_strategies))
        for module in [m for n, m in sys.modules.items() if n == "smpg" or n.startswith("smpg.")]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def unpatch(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        children = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - children[i]
        return {name: (calls, ns) for name, (calls, ns) in out.items()}

    def si_rounds(self) -> int:
        """Value evaluations made directly by strategy iteration."""
        si = "solvers.strategy_iteration_discounted"
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == "evaluate.discounted_values" and parent >= 0
                   and self.spans[parent][0] == si)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")

    def metrics(self, untraced_ms: list[float], traced_ms: list[float]) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        times = self.self_times()
        out = {}
        for name in LAYERS:
            calls, ns = times.get(name, (0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (ns / 1e9, "s")
        counts = dict(self.counts, **{"solvers.si.rounds": self.si_rounds()})
        for name, unit in COUNTS.items():
            out[name] = (counts.get(name, 0), unit)
        mean_calls = times.get("evaluate.mean_values", (0, 0))[0]
        out["evaluate.mean_values.distinct_ratio"] = (
            self.distinct_chains / mean_calls if mean_calls else 0.0, "ratio")
        op_s = sum(end - start for name, start, end, _, _ in self.spans if name == OP) / 1e9
        solve_s = out["linalg.solve_columns.self_s"][0]
        out["linalg.solve_columns.share"] = (solve_s / op_s if op_s else 0.0, "ratio")
        out["trace.op_s_total"] = (op_s, "s")
        traced_p50 = statistics.median(traced_ms)
        untraced_p50 = statistics.median(untraced_ms)
        out["trace.op_ms_p50"] = (traced_p50, "ms")
        out["trace.untraced_op_ms_p50"] = (untraced_p50, "ms")
        out["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
        return out
