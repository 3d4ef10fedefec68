"""Checks a run's outputs against computations made apart from the program.

Usage: python3 perfbench/check.py <result.json>

Runs in its own process, after the timed one, so that SciPy's import time
and memory stay out of the measurements. References are the HiGHS solver of
the installed SciPy on the single |Y|-output frontier LP (an optimal filter
exists whose outputs are the Y symbols, guessed by the identity map), the
closed forms of the block model, and plain NumPy re-evaluation of returned
filters. Prints one JSON line: ``{"ok": ..., "checked": ..., "problems": [...]}``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from workloads import block_formula, pc_x, pc_x_given_y

#: agreement of the program's optimum with HiGHS
LP_TOL = 1e-7
#: HiGHS's own feasibility tolerances; its default of 1e-7 lets it overshoot
#: the privacy cap enough to read 3.5e-7 high at a breakpoint of a steep curve
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
#: row sums and privacy cap of a returned filter
FEAS_TOL = 1e-8
#: the program's own agreement tolerance in validity_threshold
VALIDITY_TOL = 1e-6
#: CSV numbers carry 12 significant digits
CSV_TOL = 1e-9
#: distance of the checked point below the certified threshold
BELOW_EPS_L = 1e-4


def frontier_lp(p: np.ndarray, eps: float) -> float:
    """max sum_y q_y F[y, y] over row-stochastic F with sum_z max_x (P F)[x, z] <= eps."""
    m, n = p.shape
    q = p.sum(axis=0)
    nf = n * n
    c = np.zeros(nf + n)
    c[np.arange(n) * n + np.arange(n)] = -q
    a_eq = np.zeros((n, nf + n))
    for y in range(n):
        a_eq[y, y * n:(y + 1) * n] = 1.0
    a_ub = np.zeros((m * n + 1, nf + n))
    for x in range(m):
        for z in range(n):
            a_ub[x * n + z, z:nf:n] = p[x]
            a_ub[x * n + z, nf + z] = -1.0
    a_ub[-1, nf:] = 1.0
    b_ub = np.zeros(m * n + 1)
    b_ub[-1] = eps
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n),
                  bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -res.fun


class Checker:
    def __init__(self) -> None:
        self.checked = 0
        self.problems: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        self.checked += 1
        if not cond:
            self.problems.append(what)

    # frontier: h against HiGHS, the returned filter re-evaluated in NumPy
    def frontier(self, key: str, inp: dict, out: dict) -> None:
        p, eps = np.array(inp["joint"]), inp["eps"]
        f = np.array(out["filter"])
        h = frontier_lp(p, eps)
        self.expect(abs(out["utility"] - h) <= LP_TOL,
                    f"{key}: utility {out['utility']!r} vs HiGHS {h!r}")
        self.expect(f.shape[0] == p.shape[1] and f.min() >= -FEAS_TOL
                    and np.abs(f.sum(axis=1) - 1.0).max() <= FEAS_TOL,
                    f"{key}: filter is not row-stochastic")
        utility = float((p.sum(axis=0)[:, None] * f).max(axis=0).sum())
        privacy = float((p @ f).max(axis=0).sum())
        self.expect(privacy <= eps + FEAS_TOL, f"{key}: privacy {privacy!r} above eps {eps!r}")
        self.expect(abs(utility - out["utility"]) <= FEAS_TOL and abs(privacy - out["privacy"]) <= FEAS_TOL,
                    f"{key}: re-evaluated ({utility!r}, {privacy!r}) vs returned "
                    f"({out['utility']!r}, {out['privacy']!r})")

    # curve: CSV values and breakpoint report against HiGHS and the shape of h
    def curve(self, key: str, inp: dict, out: str) -> None:
        p = np.array(inp["joint"])
        h = lru_cache(maxsize=None)(lambda e: frontier_lp(p, e))
        lines = out.strip().splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
        report = json.loads(lines[-1])
        eps = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        lo, hi = pc_x(p), pc_x_given_y(p)
        self.expect(lines[0] == "epsilon,h,branch,filter_gamma" and len(rows) == 21,
                    f"{key}: CSV header or row count")
        self.expect(np.abs(eps - np.linspace(lo, hi, 21)).max() <= CSV_TOL, f"{key}: eps grid")
        for e, v in zip(eps, vals):
            self.expect(abs(v - h(e)) <= LP_TOL, f"{key}: h({e!r}) = {v!r} vs HiGHS {h(e)!r}")
        chords = np.diff(vals) / np.diff(eps)
        self.expect(bool(np.all(np.diff(vals) >= -CSV_TOL)), f"{key}: h decreases")
        self.expect(bool(np.all(np.diff(chords) <= 1e-5)), f"{key}: h is not concave")
        self.expect(abs(vals[-1] - 1.0) <= CSV_TOL, f"{key}: h(P_c(X|Y)) = {vals[-1]!r}")

        bps, slopes = report["breakpoints"], report["slopes"]
        self.expect(report["K"] == len(slopes) == len(bps) - 1, f"{key}: K, slopes and breakpoints")
        self.expect(abs(bps[0] - lo) <= CSV_TOL and abs(bps[-1] - hi) <= CSV_TOL,
                    f"{key}: breakpoints do not span [P_c(X), P_c(X|Y)]")
        self.expect(all(b < a for a, b in zip(slopes, slopes[1:])), f"{key}: slopes do not decrease")
        for a, b, s in zip(bps, bps[1:], slopes):
            chord = (h(b) - h(a)) / (b - a)
            self.expect(abs(chord - s) <= 1e-6 * max(1.0, abs(s)) + 2 * LP_TOL / (b - a),
                        f"{key}: slope {s!r} on [{a}, {b}] vs HiGHS chord {chord!r}")
            for t in (0.25, 0.5, 0.75):
                e = a + t * (b - a)
                line = h(a) + t * (h(b) - h(a))
                self.expect(abs(line - h(e)) <= 1e-5, f"{key}: h({e!r}) off the piece [{a}, {b}]")

        if p.shape == (2, 2):
            self._bibo_rows(key, p, rows)

    def _bibo_rows(self, key: str, p: np.ndarray, rows: list[list[str]]) -> None:
        """Each row's branch tag and filter reproduce the row's eps and h."""
        prob = p.sum(axis=1)[1]
        a, b = p[0, 1] / (1.0 - prob), p[1, 0] / prob
        z_branch = a * (1 - a) * (1 - prob) ** 2 < b * (1 - b) * prob ** 2
        for e, v, tag, g in rows:
            g = float(g)
            self.expect(tag == ("z" if z_branch else "reverse-z"), f"{key}: branch tag {tag}")
            f = np.array([[1.0, 0.0], [g, 1.0 - g]]) if z_branch else np.array([[1.0 - g, g], [0.0, 1.0]])
            privacy = (p @ f).max(axis=0).sum()
            utility = (p.sum(axis=0)[:, None] * f).max(axis=0).sum()
            self.expect(abs(privacy - float(e)) <= CSV_TOL and abs(utility - float(v)) <= CSV_TOL,
                        f"{key}: filter gamma {g} gives ({utility}, {privacy}) at eps {e}")

    # block: the formula matches HiGHS from eps_l up, and not slightly below
    def block(self, key: str, inp: dict, out: dict) -> None:
        n, p, alpha = inp["n"], inp["p"], inp["alpha"]
        eps_l = out["eps_l"]
        abar = 1.0 - alpha
        j1 = np.array([[abar * (1 - p), alpha * (1 - p)], [alpha * p, abar * p]])
        joint = j1
        for _ in range(n - 1):
            joint = np.kron(joint, j1)

        def gap(e: float) -> float:
            return abs(block_formula(n, p, alpha, e) - frontier_lp(joint, e ** n) ** (1.0 / n))

        self.expect(out["certified"], f"{key}: threshold not certified")
        self.expect(p <= eps_l <= abar, f"{key}: eps_l {eps_l!r} outside [p, 1 - alpha]")
        self.expect(gap(eps_l) <= VALIDITY_TOL + LP_TOL, f"{key}: formula off HiGHS at eps_l")
        for e in (0.5 * (eps_l + abar), abar):
            self.expect(gap(e) <= LP_TOL, f"{key}: formula off HiGHS at {e!r}")
        self.expect(gap(eps_l - BELOW_EPS_L) > VALIDITY_TOL + LP_TOL,
                    f"{key}: formula still optimal below eps_l")

    # simulate: analytic values in closed form, empirical ones within 4 standard errors
    def simulate(self, key: str, inp: dict, out: dict) -> None:
        n, p, alpha, eps = inp["n"], inp["p"], inp["alpha"], inp["eps"]
        pc_x_an = eps ** n
        pc_y_an = block_formula(n, p, alpha, eps) ** n
        for name, want in (("analytic_pc_x", pc_x_an), ("zn_privacy", pc_x_an),
                           ("analytic_pc_y", pc_y_an), ("zn_utility", pc_y_an)):
            self.expect(math.isclose(out[name], want, rel_tol=1e-9),
                        f"{key}: {name} {out[name]!r} vs closed form {want!r}")
        samples = out["samples"]
        self.expect(samples == inp["samples"], f"{key}: samples {samples}")
        for name, want in (("empirical_pc_x", pc_x_an), ("empirical_pc_y", pc_y_an)):
            se = math.sqrt(want * (1.0 - want) / samples)
            self.expect(abs(out[name] - want) <= 4.0 * se,
                        f"{key}: {name} {out[name]!r} more than 4 s.e. from {want!r}")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        res = json.load(fh)
    chk = Checker()
    check = getattr(chk, res["workload"])
    for key, out in res["outputs"].items():
        check(key, res["inputs"][key], out)
    for key in res["mismatched"]:
        chk.expect(False, f"{key}: output differs between repeats of the same input")
    print(json.dumps({"ok": not chk.problems, "checked": chk.checked, "problems": chk.problems[:20]}))


if __name__ == "__main__":
    main()
