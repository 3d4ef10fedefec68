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
frontier is concave and piecewise linear in eps, so each breakpoint is found
exactly by solving where the lines of two neighbouring chords cross).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

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

#: a sample within this of its neighbours' chord is on a linear piece; wider
#: than lp.FEAS_TOL, since best_filter can read a few 1e-8 below the optimum
#: at interior thresholds while the saturated endpoint is exact
KINK_TOL = 1e-7

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
    """Piecewise-linear frontier: samples, piece boundaries, per-piece slopes.

    ``samples`` are the (eps, h) points the tracer used, in eps order: those
    it solved and those the caller passed in as known.
    """

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


def trace_curve(joint: JointDistribution,
                known: Mapping[float, float] | None = None) -> GuessCurve:
    """Sample the frontier and extract its piecewise-linear structure.

    Sandwich tracing (Rote 1992) over the points solved so far, in eps
    order. A point is *flat* when it lies within ``KINK_TOL`` of the chord of
    its two neighbours; concavity then makes h linear between them, so a
    chord with a flat end needs no further point. Every other chord is split
    where the lines of its two neighbouring chords cross: concavity puts
    that crossing inside the chord, at the largest gap between the upper and
    lower bounds, and exactly on the kink when the chord holds one kink and
    its neighbours lie on the pieces either side. The last chord's right
    neighbour is the flat line h = 1 beyond P_c(X|Y). The first chord, and
    chords whose crossing lies within ``BREAKPOINT_RESOLUTION`` of an end,
    are split at their midpoint; chords no wider than the resolution are
    not split. Flatness next to neighbours misses a small slope change when
    samples are dense, so a run of flat points must also lie within
    ``KINK_TOL`` of the chord of its two ends. Where it does not, its sample
    farthest from that chord is a kink, the run is checked again on either
    side of it, and the chord around it is split where the lines through the
    flat samples on either side cross. Breakpoints are the points that are
    not flat. Piece slopes are chords over whole pieces, so they are
    insensitive to per-point solver noise.

    ``known`` maps thresholds to utilities the caller has already solved
    with ``best_filter``. They are trusted, not solved again, and become
    samples; entries outside [P_c(X), P_c(X|Y)] are ignored.
    """
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    cache = {float(e): float(v) for e, v in (known or {}).items() if pcx <= e <= pcxy}

    def h(eps: float) -> float:
        if eps not in cache:
            cache[eps] = best_filter(joint, eps).utility
        return cache[eps]

    if pcxy - pcx <= 1e-9:
        # Y gives no guessing advantage: the domain collapses to a point
        val = h(pcxy)
        return GuessCurve(samples=((pcxy, val),), breakpoints=(pcx, pcxy), slopes=(0.0,))

    h(pcx)
    h(pcxy)
    while True:
        xs = sorted(cache)
        ys = [cache[x] for x in xs]
        n = len(xs)
        # h stays at 1 beyond P_c(X|Y): the last chord's right neighbour is flat
        chord = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)] + [0.0]
        flat = [0 < i < n - 1
                and abs(ys[i] - ys[i - 1] - (ys[i + 1] - ys[i - 1])
                        * (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1])) <= KINK_TOL
                for i in range(n)]
        split = []
        # flat runs: dense samples each lie within KINK_TOL of their neighbours'
        # chord around a small slope change, so each run must also lie within
        # it of its own end chord. Where a run strays most, its sample is a
        # kink, and the run is checked again on either side of it.
        runs = list(itertools.pairwise([i for i in range(n) if not flat[i]]))
        bent = []
        while runs:
            a, b = runs.pop()
            off = [abs(ys[i] - ys[a] - (ys[b] - ys[a]) * (xs[i] - xs[a]) / (xs[b] - xs[a]))
                   for i in range(a + 1, b)]
            worst = max(off, default=0.0)
            if worst > KINK_TOL:
                m = a + 1 + off.index(worst)
                flat[m] = False
                bent.append(m)
                runs += [(a, m), (m, b)]
        # a kink found so sits between its neighbours: split there where the
        # lines through the flat runs on either side cross
        ends = [i for i in range(n) if not flat[i]]
        for m in bent:
            k = ends.index(m)
            a, b = ends[k - 1], ends[k + 1]
            if not a < m - 1 < m + 1 < b:
                continue
            left = (ys[m - 1] - ys[a]) / (xs[m - 1] - xs[a])
            right = (ys[b] - ys[m + 1]) / (xs[b] - xs[m + 1])
            mid = (ys[m + 1] - ys[m - 1]) / (xs[m + 1] - xs[m - 1])
            if left > right:
                cross = xs[m - 1] + (xs[m + 1] - xs[m - 1]) * (mid - right) / (left - right)
                if (xs[m - 1] + BREAKPOINT_RESOLUTION < cross < xs[m + 1] - BREAKPOINT_RESOLUTION
                        and abs(cross - xs[m]) > BREAKPOINT_RESOLUTION):
                    split.append(cross)
        for i in range(n - 1):
            a, b = xs[i], xs[i + 1]
            if flat[i] or flat[i + 1] or b - a <= BREAKPOINT_RESOLUTION:
                continue
            x = 0.5 * (a + b)
            if i > 0 and chord[i - 1] > chord[i + 1]:
                cross = a + (b - a) * (chord[i] - chord[i + 1]) / (chord[i - 1] - chord[i + 1])
                if a + BREAKPOINT_RESOLUTION < cross < b - BREAKPOINT_RESOLUTION:
                    x = cross
            split.append(x)
        if not split:
            break
        for x in split:
            h(x)

    bps = [x for x, f in zip(xs, flat) if not f]
    slopes = [(cache[b] - cache[a]) / (b - a) for a, b in itertools.pairwise(bps)]
    for a, b in itertools.pairwise(slopes):
        if b - a > FEAS_TOL:
            raise NumericalError(f"slope increased from {a} to {b}; frontier is not concave")

    return GuessCurve(samples=tuple(zip(xs, ys)), breakpoints=tuple(bps), slopes=tuple(slopes))
