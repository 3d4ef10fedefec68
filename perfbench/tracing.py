"""Spans at the program's layer boundaries, recorded from outside the program.

A span is (name, start, end, parent, op id, ok, count). The tracer makes one
at each layer boundary by replacing an attribute in the calling module's
namespace with a wrapper, e.g. ``privguess.solver.solve_lp`` (how ``solver``
and, through ``lp_guess_max``, ``vector`` reach the LP layer) or
``privguess.lp.run_simplex`` (how ``lp`` reaches the pivot kernel). The
layer of a span is the part of its name before the first dot. Spans stay in
memory until the run ends. An attribute the program no longer has is
skipped, and its metrics then read zero calls.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (owner, attribute, span name, count taken from the return value)
BOUNDARIES: list[tuple[str, str, str, Callable[[Any], int] | None]] = [
    ("privguess.cli", "main", "cli.main", None),
    ("privguess.cli", "guess_prob", "prob.guess_prob", None),
    ("privguess.cli", "cond_guess_prob", "prob.cond_guess_prob", None),
    ("privguess.bibo", "branch", "bibo.branch", None),
    ("privguess.bibo", "closed_form_utility", "bibo.closed_form_utility", None),
    ("privguess.bibo", "optimal_filter", "bibo.optimal_filter", None),
    ("privguess.solver", "best_filter", "solver.best_filter", None),
    ("privguess.solver", "trace_curve", "solver.trace_curve", lambda curve: curve.k),
    ("privguess.solver", "lp_guess_max", "solver.lp_guess_max", None),
    ("privguess.solver", "solve_lp", "lp.solve_lp", lambda sol: sol.iterations),
    ("privguess.solver", "guess_prob", "prob.guess_prob", None),
    ("privguess.solver", "cond_guess_prob", "prob.cond_guess_prob", None),
    ("privguess.solver", "compose", "prob.compose", None),
    ("privguess.vector", "validity_threshold", "vector.validity_threshold", None),
    ("privguess.vector", "compose_zn", "vector.compose_zn", None),
    ("privguess.vector.VectorModel", "block_joint", "vector.block_joint", None),
    ("privguess.vector.ZnChannel", "to_channel", "vector.to_channel", None),
    ("privguess.vector", "lp_guess_max", "solver.lp_guess_max", None),
    ("privguess.vector", "compose", "prob.compose", None),
    ("privguess.vector", "cond_guess_prob", "prob.cond_guess_prob", None),
    ("privguess.mc", "vector_sim_config", "mc.vector_sim_config", None),
    ("privguess.mc", "simulate", "mc.simulate", lambda report: report.samples),
    ("privguess.mc", "compose", "prob.compose", None),
    ("privguess.lp", "run_simplex", "kernel.run_simplex", None),
]

#: name of the span the benchmark opens around each operation
OP_SPAN = "bench.op"


def _resolve(path: str) -> Any:
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        return obj
    return None


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.ok: list[bool] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[Any, str, Any, Any]] = []
        for owner_path, attr, name, count in BOUNDARIES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if callable(original):
                self._patches.append((owner, attr, original, self._wrap(name, original, count)))

    def _wrap(self, name: str, fn: Callable, count: Callable[[Any], int] | None) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        ops, ok, counts, stack = self.ops, self.ok, self.counts, self._stack

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ok.append(False)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            ok[i] = True
            if count is not None:
                counts[i] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation inside its root span, with the wrappers installed."""
        self._op = op_id
        root = self._wrap(OP_SPAN, fn, None)
        self.install()
        try:
            return root()
        finally:
            self.uninstall()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "ops": self.ops, "ok": self.ok,
                       "counts": self.counts}, fh)

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as averages over the ``n_ops`` traced operations.

        A span's self time is its duration minus its children's; a layer's
        busy time counts only its outermost spans, so that a layer calling
        itself is not counted twice.
        """
        n = len(self.names)
        layer = [name.split(".", 1)[0] for name in self.names]
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_time = dur[:]
        outer_layers: list[frozenset[str]] = [frozenset()] * n
        for i in range(n):
            par = self.parents[i]
            if par >= 0:
                self_time[par] -= dur[i]
                outer_layers[i] = outer_layers[par] | {layer[par]}

        def total(values: list[float], want: Callable[[int], bool]) -> float:
            return sum(values[i] for i in range(n) if want(i))

        def calls(name: str) -> int:
            return sum(1 for x in self.names if x == name)

        def self_s(lay: str) -> float:
            return total(self_time, lambda i: layer[i] == lay)

        def busy_s(lay: str) -> float:
            return total(dur, lambda i: layer[i] == lay and lay not in outer_layers[i])

        ops = max(n_ops, 1)
        lp_solves = calls("lp.solve_lp")
        pivots = sum(self.counts[i] for i in range(n) if self.names[i] == "lp.solve_lp")
        kernel_s = busy_s("kernel")
        best_filter = calls("solver.best_filter")
        pieces = sum(self.counts[i] for i in range(n) if self.names[i] == "solver.trace_curve")
        certifications = calls("vector.validity_threshold")
        samples = sum(self.counts[i] for i in range(n) if self.names[i] == "mc.simulate")
        simulate_s = total(dur, lambda i: self.names[i] == "mc.simulate")
        op_s = total(dur, lambda i: self.names[i] == OP_SPAN)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "lp.solves": (lp_solves / ops, "count/op"),
            "lp.solves_per_point": (ratio(lp_solves, best_filter), "ratio"),
            "lp.pivots": (pivots / ops, "count/op"),
            "lp.self_s": (self_s("lp") / ops, "s/op"),
            "lp.failed": (sum(1 for i in range(n) if self.names[i] == "lp.solve_lp"
                              and not self.ok[i]) / ops, "count/op"),
            "kernel.busy_s": (kernel_s / ops, "s/op"),
            "kernel.pivots_per_s": (ratio(pivots, kernel_s), "1/s"),
            "solver.best_filter_calls": (best_filter / ops, "count/op"),
            "solver.points_per_piece": (ratio(best_filter, pieces), "ratio"),
            "solver.self_s": (self_s("solver") / ops, "s/op"),
            "vector.busy_s": (busy_s("vector") / ops, "s/op"),
            "vector.self_s": (self_s("vector") / ops, "s/op"),
            "vector.lp_solves_per_certification": (ratio(lp_solves, certifications), "ratio"),
            "mc.busy_s": (busy_s("mc") / ops, "s/op"),
            "mc.self_s": (self_s("mc") / ops, "s/op"),
            "mc.samples_per_s": (ratio(samples, simulate_s), "1/s"),
            "prob.busy_s": (busy_s("prob") / ops, "s/op"),
            "prob.self_s": (self_s("prob") / ops, "s/op"),
            "cli.self_s": (self_s("cli") / ops, "s/op"),
            "bibo.busy_s": (busy_s("bibo") / ops, "s/op"),
            "trace.op_s": (op_s / ops, "s/op"),
            "trace.unattributed_s": (self_s("bench") / ops, "s/op"),
        }
