"""Command-line front end.

Subcommands read distribution/parameter inputs, call the library, and emit
JSON or CSV on stdout (diagnostics go to stderr). All numeric output uses 12
significant digits and every command is deterministic given its arguments.

Exit codes: 0 success, 2 usage or parse error, 3 domain invariant violation,
4 validation failure, 5 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bibo, mc, solver, vector
from .errors import NumericalError, PrivguessError
from .prob import Axis, Channel, JointDistribution, cond_guess_prob, guess_prob

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5

CURVE_HEADER = "epsilon,h,branch,filter_gamma"
VECTOR_HEADER_COMPARE = "epsilon,h_block,h_memoryless,gap,gap_lower_bound"
VECTOR_HEADER = "epsilon,h_block"


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_out(obj) -> None:
    print(json.dumps(obj))


def _round12(x: float) -> float:
    return float(_fmt(x))


def _load_joint(path: str) -> JointDistribution:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "joint" not in doc:
        raise UsageError(f'{path} must be a JSON object with a "joint" key')
    try:
        matrix = np.array(doc["joint"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f'"joint" must be a rectangular numeric array: {exc}') from exc
    joint = JointDistribution(matrix)
    for key, size in (("labels_x", joint.shape[0]), ("labels_y", joint.shape[1])):
        if key in doc and len(doc[key]) != size:
            raise UsageError(f'"{key}" has {len(doc[key])} entries for alphabet size {size}')
    return joint


def _cmd_pc(args) -> int:
    joint = _load_joint(args.joint)
    _json_out({
        "pc_x": _round12(guess_prob(joint, Axis.ROWS)),
        "pc_y": _round12(guess_prob(joint, Axis.COLS)),
        "pc_x_given_y": _round12(cond_guess_prob(joint, Axis.ROWS)),
        "pc_y_given_x": _round12(cond_guess_prob(joint, Axis.COLS)),
    })
    return EXIT_OK


def _eps_range(args, lo: float, hi: float) -> tuple[float, float]:
    """The grid ends: --eps-min and --eps-max where given, ``lo`` and ``hi`` otherwise."""
    for flag, value in (("--eps-min", args.eps_min), ("--eps-max", args.eps_max)):
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    lo = args.eps_min if args.eps_min is not None else lo
    hi = args.eps_max if args.eps_max is not None else hi
    if hi < lo:
        raise UsageError(f"--eps-max {hi} below --eps-min {lo}")
    return lo, hi


def _cmd_hcurve(args) -> int:
    joint = _load_joint(args.joint)
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    lo, hi = _eps_range(args, guess_prob(joint, Axis.ROWS), cond_guess_prob(joint, Axis.ROWS))
    params = bibo.from_joint(joint)  # 2x2 rows are tagged with the closed form's filter
    tag = "lp" if params is None else bibo.branch(params).value
    print(CURVE_HEADER)
    curve = solver.trace_curve(joint)
    for grid, hs, _ in solver.read_curve(joint, curve, np.linspace(lo, hi, args.points)):
        gammas = [""] * len(grid) if params is None else [
            _fmt(g) for g in bibo.crossover(params, np.minimum(grid, params.pc_x_given_y)).tolist()]
        for eps, h, gamma in zip(grid.tolist(), hs.tolist(), gammas):
            print(f"{_fmt(eps)},{_fmt(h)},{tag},{gamma}")
    if args.breakpoints:
        _json_out({
            "breakpoints": [_round12(b) for b in curve.breakpoints],
            "slopes": [_round12(s) for s in curve.slopes],
            "K": curve.k,
        })
    return EXIT_OK


def _cmd_bibo(args) -> int:
    if args.eps is not None and not math.isfinite(args.eps):
        raise UsageError(f"--eps must be finite, got {args.eps}")
    params = bibo.BiboParams(p=args.p, alpha=args.alpha, beta=args.beta)
    out = {
        "perfect_privacy_h": _round12(bibo.perfect_privacy_utility(params)),
        "nontrivial_utility": bibo.nontrivial_utility(params),
        "branch": bibo.branch(params).value,
    }
    if args.eps is not None:
        value, tag = bibo.closed_form_utility(params, args.eps)
        filt = bibo.optimal_filter(params, args.eps)
        out.update({
            "h": _round12(value),
            "branch": tag.value,
            "zeta": _round12(float(bibo.crossover(params, args.eps))),
            "filter": [[_round12(float(v)) for v in row] for row in filt.matrix],
        })
    _json_out(out)
    return EXIT_OK


def _cmd_vector(args) -> int:
    model = vector.VectorModel(n=args.n, p=args.p, alpha=args.alpha)
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    lo, hi = _eps_range(args, model.p, model.abar)
    grid = np.linspace(lo, hi, args.points)
    if args.compare:
        print(VECTOR_HEADER_COMPARE)
        for eps in grid:
            hb = vector.block_utility(model, float(eps))
            hm = vector.memoryless_utility(model, float(eps))
            bounds = vector.gap_bounds(model, float(eps))
            print(",".join(_fmt(v) for v in (float(eps), hb, hm, hb - hm, bounds.lower)))
        if model.p == 0.5:
            upper = vector.gap_bounds(model, float(grid[0])).upper
            print(json.dumps({"gap_upper_bound": _round12(upper)}), file=sys.stderr)
    else:
        print(VECTOR_HEADER)
        for eps in grid:
            print(f"{_fmt(float(eps))},{_fmt(vector.block_utility(model, float(eps)))}")
    return EXIT_OK


_FIG3_JOINT = [[0.32, 0.08], [0.12, 0.48]]


def _scenario(name: str) -> tuple[JointDistribution, Channel]:
    if name == "fig3":
        return (JointDistribution(np.array(_FIG3_JOINT)),
                Channel(np.array([[1.0, 0.0], [0.25, 0.75]])))
    if name == "identity":
        return (JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]])),
                Channel.identity(2))
    if name == "constant":
        return (JointDistribution(np.array(_FIG3_JOINT)),
                Channel(np.array([[1.0, 0.0], [1.0, 0.0]])))
    raise UsageError(f"unknown scenario {name!r}")


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be positive, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    joint, filt = _scenario(args.scenario)
    report = mc.simulate(mc.SimConfig(seed=args.seed, samples=args.samples,
                                      joint=joint, filter=filt))
    checks = {}
    ok = True
    for label, emp, ana, se in (
        ("pc_y", report.empirical_pc_y, report.analytic_pc_y, report.stderr_y),
        ("pc_x", report.empirical_pc_x, report.analytic_pc_x, report.stderr_x),
    ):
        # zero stderr (deterministic chain) demands exact agreement
        passed = emp == ana if se == 0.0 else abs(emp - ana) <= 4.0 * se
        checks[label] = passed
        ok = ok and passed
    _json_out({
        "scenario": args.scenario,
        "empirical_pc_y": _round12(report.empirical_pc_y),
        "empirical_pc_x": _round12(report.empirical_pc_x),
        "analytic_pc_y": _round12(report.analytic_pc_y),
        "analytic_pc_x": _round12(report.analytic_pc_x),
        "stderr_y": _round12(report.stderr_y),
        "stderr_x": _round12(report.stderr_x),
        "samples": report.samples,
        "seed": report.seed,
        "rng_algorithm": report.rng_algorithm,
        "within_4_stderr": checks,
    })
    return EXIT_OK if ok else EXIT_VALIDATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="privguess",
        description="Guessing-probability privacy filters and tradeoff curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pc = sub.add_parser("pc", help="guessing probabilities of a joint distribution")
    p_pc.add_argument("--joint", required=True, help="JSON file with a \"joint\" matrix")
    p_pc.set_defaults(func=_cmd_pc)

    p_h = sub.add_parser("hcurve", help="utility frontier of a joint distribution")
    p_h.add_argument("--joint", required=True)
    p_h.add_argument("--eps-min", type=float, default=None)
    p_h.add_argument("--eps-max", type=float, default=None)
    p_h.add_argument("--points", type=int, default=21)
    p_h.add_argument("--breakpoints", action="store_true",
                     help="append a JSON breakpoint report after the CSV")
    p_h.set_defaults(func=_cmd_hcurve)

    p_b = sub.add_parser("bibo", help="closed-form binary-channel frontier")
    p_b.add_argument("--p", type=float, required=True)
    p_b.add_argument("--alpha", type=float, required=True)
    p_b.add_argument("--beta", type=float, required=True)
    p_b.add_argument("--eps", type=float, default=None)
    p_b.set_defaults(func=_cmd_bibo)

    p_v = sub.add_parser("vector", help="block vs memoryless frontier for i.i.d. blocks")
    p_v.add_argument("--n", type=int, required=True)
    p_v.add_argument("--p", type=float, required=True)
    p_v.add_argument("--alpha", type=float, required=True)
    p_v.add_argument("--eps-min", type=float, default=None)
    p_v.add_argument("--eps-max", type=float, default=None)
    p_v.add_argument("--points", type=int, default=21)
    p_v.add_argument("--compare", action="store_true",
                     help="also emit the memoryless frontier and gap bounds")
    p_v.set_defaults(func=_cmd_vector)

    p_val = sub.add_parser("validate", help="Monte Carlo check of analytic values")
    p_val.add_argument("--scenario", required=True, choices=["fig3", "identity", "constant"])
    p_val.add_argument("--seed", type=int, default=1)
    p_val.add_argument("--samples", type=int, default=10**6)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PrivguessError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
