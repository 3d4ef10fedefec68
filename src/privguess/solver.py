"""Exact guessing-utility frontier for arbitrary finite joints.

The object computed here is, for a joint distribution of (X, Y) and a privacy
threshold eps,

    max  P_c(Y|Z)   over channels Z given Y   s.t.  P_c(X|Z) <= eps,

where P_c denotes MAP guessing probability. An output alphabet of size N+1
suffices (N = |Y| alphabet), so the search space is the polytope of
N x (N+1) row-stochastic matrices F.

Both P_c(Y|Z) and P_c(X|Z) are convex piecewise-linear in F, so the problem
is solved exactly as a finite family of LPs:

* fixing a guessing map g: outputs -> Y turns the objective into the linear
  form sum_z q_g(z) F[g(z), z], a lower bound on P_c(Y|Z) that is tight for
  the map actually achieving the per-column maxima;
* the constraint sum_z max_x (P F)[x, z] <= eps is linearized exactly with
  one auxiliary upper-bound variable per output column.

The outer maximum over guessing maps needs only maps that are nondecreasing
in the output index: permuting output labels permutes F's columns without
changing either objective or constraints, and every map is a relabeling of a
nondecreasing one. This cuts the enumeration from N^(N+1) maps to
C(2N, N+1) with identical results. Ties between maps are broken toward the
lexicographically smallest, so results are independent of evaluation order.

Also here: the log-gain form of the frontier, sandwich bounds for the
finite-order variants, and piecewise-linear structure extraction (the
frontier is concave and piecewise linear in eps; breakpoints are located by
adaptive bisection on chord slopes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    InfeasibleThresholdError,
    InvalidOrderError,
    NumericalError,
    ParameterError,
)
from .lp import FEAS_TOL, LinearProgram, LpStatus, solve_lp
from .prob import Axis, Channel, JointDistribution, compose, cond_guess_prob, guess_prob, renyi_entropy

__all__ = [
    "FilterSolution",
    "GuessCurve",
    "OrderBounds",
    "best_filter",
    "guessing_gain",
    "finite_order_gain_bounds",
    "trace_curve",
]

#: largest Y alphabet accepted by the enumerating solver
MAX_ALPHABET = 6

#: chord-slope tolerance for breakpoint detection
SLOPE_TOL = 1e-6

#: breakpoints are located to this resolution
BREAKPOINT_RESOLUTION = 1e-7


@dataclass(frozen=True)
class FilterSolution:
    """An optimal filter at threshold ``eps`` and its certified performance.

    ``utility``/``privacy`` are recomputed from the returned filter through
    the probability primitives, not read off the LP. ``saturated`` marks
    thresholds clamped down to the point where utility 1 is reachable.
    """

    utility: float
    privacy: float
    filter: Channel
    y_guess_map: tuple[int, ...]
    eps: float
    saturated: bool = False


@dataclass(frozen=True)
class GuessCurve:
    """Piecewise-linear frontier: samples, piece boundaries, per-piece slopes."""

    samples: tuple[tuple[float, float], ...]
    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.slopes)


class OrderBounds(NamedTuple):
    """Sandwich for the finite-order gain; ``lower`` is None when its hypothesis fails."""

    lower: float | None
    upper: float


def nondecreasing_maps(n_outputs: int, n_y: int) -> Iterable[tuple[int, ...]]:
    """Canonical guessing maps (one per output-relabeling class), in lex order."""
    return itertools.combinations_with_replacement(range(n_y), n_outputs)


def _guess_lp(p: np.ndarray, q: np.ndarray, gmap: tuple[int, ...], cap: float,
              n_outputs: int) -> LinearProgram:
    """LP over (F, t): maximize the fixed-map utility under the privacy cap.

    Variables are F row-major (N * n_outputs) then one bound variable per
    output column; constraints are row-stochasticity, the per-column bounds
    t_z >= (P F)[x, z], and sum_z t_z <= cap.
    """
    m, n = p.shape
    c = n_outputs
    nf = n * c
    nv = nf + c

    obj = np.zeros(nv)
    for z, y in enumerate(gmap):
        obj[y * c + z] = q[y]

    a_eq = np.zeros((n, nv))
    for y in range(n):
        a_eq[y, y * c:(y + 1) * c] = 1.0
    b_eq = np.ones(n)

    a_ub = np.zeros((m * c + 1, nv))
    b_ub = np.zeros(m * c + 1)
    k = 0
    for x in range(m):
        for z in range(c):
            a_ub[k, z:nf:c] = p[x]
            a_ub[k, nf + z] = -1.0
            k += 1
    a_ub[k, nf:] = 1.0
    b_ub[k] = cap
    return LinearProgram(obj, a_eq, b_eq, a_ub, b_ub)


def lp_guess_max(p: np.ndarray, cap: float, n_outputs: int,
                 maps: Iterable[tuple[int, ...]]) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """Max utility over the given guessing maps; returns (value, F, map).

    Ties go to the earliest map in iteration order.
    """
    q = p.sum(axis=0)
    best_val = -1.0
    best_f: np.ndarray | None = None
    best_map: tuple[int, ...] | None = None
    for gmap in maps:
        sol = solve_lp(_guess_lp(p, q, gmap, cap, n_outputs))
        if sol.status is not LpStatus.OPTIMAL:
            # the constant filter is always feasible, so this is a solver failure
            raise NumericalError(f"filter subproblem ended {sol.status.value} for map {gmap}")
        if sol.value > best_val:
            best_val = sol.value
            best_f = sol.point[: p.shape[1] * n_outputs].reshape(p.shape[1], n_outputs)
            best_map = gmap
    assert best_f is not None and best_map is not None
    return best_val, best_f, best_map


def _evaluate(joint: JointDistribution, filt: Channel) -> tuple[float, float]:
    """(utility, privacy) of a filter, recomputed from scratch."""
    privacy = cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS)
    p_yz = JointDistribution(joint.col_marginal[:, None] * filt.matrix)
    utility = cond_guess_prob(p_yz, Axis.ROWS)
    return utility, privacy


def best_filter(joint: JointDistribution, eps: float) -> FilterSolution:
    """Solve the frontier problem at privacy threshold ``eps``.

    ``eps`` below the unconditional guessing probability of X (beyond 1e-9)
    is infeasible; above the conditional guessing probability the identity
    filter is returned directly with utility 1 and the solution is flagged
    saturated. Y alphabets larger than ``MAX_ALPHABET`` are rejected.
    """
    p = joint.matrix
    n = p.shape[1]
    if n > MAX_ALPHABET:
        raise CapacityError(f"Y alphabet {n} exceeds enumeration cap {MAX_ALPHABET}")
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    if eps < pcx - 1e-9:
        raise InfeasibleThresholdError(
            f"threshold {eps!r} below the unconditional guessing probability {pcx!r}"
        )

    if eps >= pcxy - 1e-12:
        ident = Channel.identity(n, n + 1)
        utility, privacy = _evaluate(joint, ident)
        return FilterSolution(
            utility=utility, privacy=privacy, filter=ident,
            y_guess_map=tuple(range(n)) + (0,), eps=eps, saturated=eps > pcxy,
        )

    cap = max(eps, pcx)  # accept eps within tolerance below the left endpoint
    value, f, gmap = lp_guess_max(p, cap, n + 1, nondecreasing_maps(n + 1, n))
    # the LP certifies rows only to lp.FEAS_TOL, looser than Channel's mass
    # check: project them onto the simplex, the certificate below still holds
    f = np.maximum(f, 0.0)
    filt = Channel(f / f.sum(axis=1, keepdims=True))
    utility, privacy = _evaluate(joint, filt)
    if privacy > cap + FEAS_TOL or abs(utility - value) > FEAS_TOL:
        raise NumericalError(
            f"filter certificate failed: privacy {privacy} vs cap {cap}, "
            f"utility {utility} vs LP value {value}"
        )
    return FilterSolution(utility=utility, privacy=privacy, filter=filt,
                          y_guess_map=gmap, eps=eps)


def guessing_gain(joint: JointDistribution, leak_bits: float) -> float:
    """Largest log2 utility gain on Y when the adversary's gain on X is capped.

    ``leak_bits`` caps log2(P_c(X|Z) / P_c(X)); returned is the maximal
    log2(P_c(Y|Z) / P_c(Y)). Thresholds beyond the point where Y is fully
    recoverable saturate.
    """
    if not leak_bits >= 0.0:
        raise ParameterError(f"leak budget must be nonnegative, got {leak_bits!r}")
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    pcy = guess_prob(joint, Axis.COLS)
    eps = min(2.0 ** leak_bits * pcx, pcxy)
    sol = best_filter(joint, eps)
    return math.log2(sol.utility / pcy)


def finite_order_gain_bounds(joint: JointDistribution, nu: float, mu: float,
                             leak_bits: float) -> OrderBounds:
    """Sandwich the order-(nu, mu) gain by the order-infinity gain.

    Upper bound: gain at a shrunk budget ((nu-1)/nu) * leak + H_inf(X)/nu,
    plus the Renyi/min entropy gap of Y at order mu. Lower bound: a scaled
    gain at budget leak - (H_nu(X) - H_inf(X)), valid only when that budget
    is nonnegative (otherwise ``lower`` is None).
    """
    for name, o in (("nu", nu), ("mu", mu)):
        if not (math.isfinite(o) and o > 1.0):
            raise InvalidOrderError(f"{name} must be finite and > 1, got {o!r}")
    px = joint.row_marginal
    py = joint.col_marginal
    hx_inf = renyi_entropy(px, math.inf)
    hx_nu = renyi_entropy(px, nu)
    hy_inf = renyi_entropy(py, math.inf)
    hy_mu = renyi_entropy(py, mu)

    psi = (nu - 1.0) / nu * leak_bits + hx_inf / nu
    upper = guessing_gain(joint, psi) + hy_mu - hy_inf

    gap = hx_nu - hx_inf
    if leak_bits < gap - 1e-12:
        return OrderBounds(None, upper)
    phi = max(leak_bits - gap, 0.0)
    lower = mu / (mu - 1.0) * guessing_gain(joint, phi) - hy_inf / (mu - 1.0)
    return OrderBounds(lower, upper)


def trace_curve(joint: JointDistribution) -> GuessCurve:
    """Sample the frontier and extract its piecewise-linear structure.

    Adaptive bisection: an interval splits while its two half-chord slopes
    differ by more than ``SLOPE_TOL``; intervals narrower than the breakpoint
    resolution stop splitting and mark a kink. Piece slopes are chords over
    whole pieces, so they are insensitive to per-point solver noise.
    Concavity makes the midpoint test sound: a kink inside an interval
    always separates the half-slopes.
    """
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    cache: dict[float, float] = {}

    def h(eps: float) -> float:
        if eps not in cache:
            cache[eps] = best_filter(joint, eps).utility
        return cache[eps]

    if pcxy - pcx <= 1e-9:
        # Y gives no guessing advantage: the domain collapses to a point
        val = h(pcxy)
        return GuessCurve(samples=((pcxy, val),), breakpoints=(pcx, pcxy), slopes=(0.0,))

    leaves: list[tuple[float, float, bool]] = []  # (a, b, is_kink)

    # the domain is narrower than 1, so halving reaches the resolution by depth 24
    def subdivide(a: float, ha: float, b: float, hb: float) -> None:
        if b - a <= BREAKPOINT_RESOLUTION:
            leaves.append((a, b, True))
            return
        mid = 0.5 * (a + b)
        hm = h(mid)
        s1 = (hm - ha) / (mid - a)
        s2 = (hb - hm) / (b - mid)
        if abs(s1 - s2) <= SLOPE_TOL:
            leaves.append((a, b, False))
        else:
            subdivide(a, ha, mid, hm)
            subdivide(mid, hm, b, hb)

    subdivide(pcx, h(pcx), pcxy, h(pcxy))

    cuts: list[float] = []
    for i, (a, b, kink) in enumerate(leaves):
        if kink:
            cuts.append(0.5 * (a + b))
        elif i + 1 < len(leaves) and not leaves[i + 1][2]:
            na, nb, _ = leaves[i + 1]
            s_here = (h(b) - h(a)) / (b - a)
            s_next = (h(nb) - h(na)) / (nb - na)
            if abs(s_next - s_here) > SLOPE_TOL:
                cuts.append(b)

    bps = [pcx]
    for c in sorted(cuts):
        if c - bps[-1] > BREAKPOINT_RESOLUTION and pcxy - c > BREAKPOINT_RESOLUTION:
            bps.append(c)
    bps.append(pcxy)

    # merge pieces whose chord slopes agree within tolerance
    slopes = [(h(bps[i + 1]) - h(bps[i])) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1)]
    merged_bps = [bps[0]]
    merged_slopes: list[float] = []
    for i, s in enumerate(slopes):
        if merged_slopes and abs(s - merged_slopes[-1]) <= SLOPE_TOL:
            merged_bps[-1] = bps[i + 1]
            a0 = merged_bps[-2]
            merged_slopes[-1] = (h(bps[i + 1]) - h(a0)) / (bps[i + 1] - a0)
        else:
            merged_bps.append(bps[i + 1])
            merged_slopes.append(s)

    for a, b in itertools.pairwise(merged_slopes):
        if b - a > FEAS_TOL:
            raise NumericalError(f"slope increased from {a} to {b}; frontier is not concave")

    samples = tuple(sorted(cache.items()))
    return GuessCurve(samples=samples, breakpoints=tuple(merged_bps),
                      slopes=tuple(merged_slopes))
