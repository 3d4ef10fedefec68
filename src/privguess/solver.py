"""Exact guessing-utility frontier for arbitrary finite joints.

The object computed here is, for a joint distribution of (X, Y) and a privacy
threshold eps,

    max  P_c(Y|Z)   over channels Z given Y   s.t.  P_c(X|Z) <= eps,

where P_c denotes MAP guessing probability. An output alphabet of size N+1
suffices (N = |Y| alphabet), so the search space is the polytope of
N x (N+1) row-stochastic matrices F.

Both P_c(Y|Z) and P_c(X|Z) are convex piecewise-linear in F, so the problem
is solved exactly as the best of a finite family of linear objectives over
one polytope:

* fixing a guessing map g: outputs -> Y turns the objective into the linear
  form sum_z q_g(z) F[g(z), z], a lower bound on P_c(Y|Z) that is tight for
  the map actually achieving the per-column maxima;
* the constraint sum_z max_x (P F)[x, z] <= eps is linearized exactly with
  one auxiliary upper-bound variable per output column. It does not involve
  the map, so every map's LP has the same constraints: one LP solve with one
  objective row per map runs phase 1 once and a phase 2 per map.

The outer maximum over guessing maps needs only maps that are nondecreasing
in the output index: permuting output labels permutes F's columns without
changing either objective or constraints, and every map is a relabeling of a
nondecreasing one. This cuts the enumeration from N^(N+1) maps to
C(2N, N+1) with identical results. Ties between maps are broken toward the
lexicographically smallest, so results are independent of evaluation order.

Also here: the log-gain form of the frontier, sandwich bounds for the
finite-order variants, and the frontier's piecewise-linear structure. The
frontier is concave and piecewise linear in eps, and one LP traces all of
it: an N-output filter whose outputs are guessed by the identity map is
optimal (replacing each output by the MAP guess of Y from it keeps
P_c(Y|Z) and, by data processing, cannot raise P_c(X|Z)), so eps is the
right-hand side of that LP's cap row. Walking it down through the LP's
basis changes (:func:`lp.piece_starts`) gives every breakpoint exactly and
every slope as the cap row's dual price.
"""

from __future__ import annotations

import bisect
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
from .lp import FEAS_TOL, LinearProgram, LpSolution, LpStatus, piece_starts, solve_lp
from .prob import Axis, Channel, JointDistribution, compose, cond_guess_prob, guess_prob, renyi_entropy

__all__ = [
    "FilterSolution",
    "GuessCurve",
    "OrderBounds",
    "best_filter",
    "curve_point",
    "guessing_gain",
    "finite_order_gain_bounds",
    "trace_curve",
]

#: largest Y alphabet accepted by the enumerating solver
MAX_ALPHABET = 6


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
    """Piecewise-linear frontier: vertices, piece boundaries, per-piece slopes.

    ``samples`` are the vertices (eps, h), one per breakpoint, in eps order.
    ``filters`` holds, per vertex, the N x N filter that attains it when its
    outputs are guessed by the identity map; each h is certified from it.
    :func:`curve_point` reads the frontier between vertices off these.
    """

    samples: tuple[tuple[float, float], ...]
    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    filters: tuple[Channel, ...]

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


def _guess_lp(p: np.ndarray, maps: list[tuple[int, ...]], cap: float,
              n_outputs: int) -> LinearProgram:
    """LP over (F, t): maximize each map's fixed-map utility under the privacy cap.

    Variables are F row-major (N * n_outputs) then one bound variable per
    output column; constraints are row-stochasticity, the per-column bounds
    t_z >= (P F)[x, z], and sum_z t_z <= cap. The constraints do not depend
    on the map, so there is one objective row per map over one set of them.
    """
    m, n = p.shape
    c = n_outputs
    nf = n * c
    nv = nf + c
    g = np.array(maps, dtype=np.int64).reshape(len(maps), c)

    obj = np.zeros((len(maps), nv))
    obj[np.arange(len(maps))[:, None], g * c + np.arange(c)] = p.sum(axis=0)[g]

    a_eq = np.zeros((n, nv))
    for y in range(n):
        a_eq[y, y * c:(y + 1) * c] = 1.0
    b_eq = np.ones(n)

    a_ub = np.zeros((m * c + 1, nv))
    for z in range(c):
        # rows x*c + z: the bounds t_z >= (P F)[x, z], F[:, z] at columns y*c + z
        a_ub[z:-1:c, z:nf:c] = p
        a_ub[z:-1:c, nf + z] = -1.0
    a_ub[-1, nf:] = 1.0
    b_ub = np.zeros(m * c + 1)
    b_ub[-1] = cap
    return LinearProgram(obj, a_eq, b_eq, a_ub, b_ub)


@dataclass(frozen=True)
class GuessMax:
    """Result of :func:`lp_guess_max`: optimal value, filter, guessing map and cap-row price.

    ``program`` and ``solution`` are the LP solved and its solve, whose final
    tableau a caller can continue from (:func:`lp.piece_starts`).
    """

    value: float
    filter: np.ndarray
    map: tuple[int, ...]
    price: float
    program: LinearProgram
    solution: LpSolution


def lp_guess_max(p: np.ndarray, cap: float, n_outputs: int,
                 maps: Iterable[tuple[int, ...]]) -> GuessMax:
    """Max utility over the given guessing maps: value, filter F, map and price.

    One LP solve: the maps share their constraints, so phase 1 runs once
    and each map adds only its own phase 2. ``price`` is the dual price of
    the winning map's privacy-cap row, the last row of ``a_ub``: a
    supergradient of that map's optimal utility as a function of ``cap``,
    and its slope wherever that function is linear. Ties go to the earliest
    map in iteration order.
    """
    maps = list(maps)
    prog = _guess_lp(p, maps, cap, n_outputs)
    sol = solve_lp(prog)
    if sol.status is not LpStatus.OPTIMAL:
        # the constant filter is always feasible, so this is a solver failure
        raise NumericalError(f"filter subproblem ended {sol.status.value} for map {maps[sol.winner]}")
    best_f = sol.point[: p.shape[1] * n_outputs].reshape(p.shape[1], n_outputs)
    return GuessMax(sol.value, best_f, maps[sol.winner], float(sol.duals[-1]), prog, sol)


def _evaluate(joint: JointDistribution, filt: Channel) -> tuple[float, float]:
    """(utility, privacy) of a filter, recomputed from scratch."""
    privacy = cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS)
    p_yz = JointDistribution(joint.col_marginal[:, None] * filt.matrix)
    utility = cond_guess_prob(p_yz, Axis.ROWS)
    return utility, privacy


def _certified(joint: JointDistribution, f: np.ndarray, cap: float,
               value: float) -> tuple[Channel, float, float]:
    """Filter F of an LP optimum ``value`` at ``cap``, with its recomputed (utility, privacy).

    The LP certifies rows only to lp.FEAS_TOL, looser than Channel's mass
    check: they are projected onto the simplex, and the filter must then
    keep privacy within ``FEAS_TOL`` of ``cap`` and attain ``value`` within
    ``FEAS_TOL``, or :class:`NumericalError` is raised.
    """
    f = np.maximum(f, 0.0)
    filt = Channel(f / f.sum(axis=1, keepdims=True))
    utility, privacy = _evaluate(joint, filt)
    if privacy > cap + FEAS_TOL or abs(utility - value) > FEAS_TOL:
        raise NumericalError(
            f"filter certificate failed: privacy {privacy} vs cap {cap}, "
            f"utility {utility} vs LP value {value}"
        )
    return filt, utility, privacy


def _clamp(joint: JointDistribution, eps: float) -> tuple[float, float]:
    """(P_c(X|Y), cap): ``eps`` clamped onto the frontier's domain [P_c(X), P_c(X|Y)].

    ``eps`` below P_c(X) beyond 1e-9 is infeasible, and from 1e-12 below
    P_c(X|Y) up the cap is P_c(X|Y) itself. A NaN is rejected.
    """
    if math.isnan(eps):
        raise ParameterError(f"threshold eps must be a number, got {eps!r}")
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    if eps < pcx - 1e-9:
        raise InfeasibleThresholdError(
            f"threshold {eps!r} below the unconditional guessing probability {pcx!r}"
        )
    return pcxy, (pcxy if eps >= pcxy - 1e-12 else max(eps, pcx))


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
    pcxy, cap = _clamp(joint, eps)

    if cap == pcxy:
        ident = Channel.identity(n, n + 1)
        utility, privacy = _evaluate(joint, ident)
        return FilterSolution(
            utility=utility, privacy=privacy, filter=ident,
            y_guess_map=tuple(range(n)) + (0,), eps=eps, saturated=eps > pcxy,
        )

    res = lp_guess_max(p, cap, n + 1, nondecreasing_maps(n + 1, n))
    filt, utility, privacy = _certified(joint, res.filter, cap, res.value)
    return FilterSolution(utility=utility, privacy=privacy, filter=filt,
                          y_guess_map=res.map, eps=eps)


def curve_point(joint: JointDistribution, curve: GuessCurve, eps: float) -> FilterSolution:
    """The frontier at ``eps``, read off ``curve``, the :func:`trace_curve` of ``joint``.

    ``eps`` is checked and clamped as by :func:`best_filter`, so thresholds
    within 1e-12 of P_c(X|Y) or above read the last vertex. On the piece
    [a, b] holding the clamped ``eps``, the filter is the mixture
    (1 - t) F_a + t F_b of its vertex filters, t = (eps - a) / (b - a).
    Privacy is convex in the filter, so the mixture's is at most eps; the
    identity-map utility is linear in it, so the mixture reaches the piece's
    line. Its utility and privacy are recomputed and certified against that
    line as :func:`best_filter`'s are against the LP, with no LP solved.
    """
    pcxy, cap = _clamp(joint, eps)
    bps = curve.breakpoints
    i = min(bisect.bisect_right(bps, cap), len(bps) - 1)
    a, b = bps[i - 1], bps[i]
    t = (cap - a) / (b - a) if cap < b else 1.0
    mix = (1.0 - t) * curve.filters[i - 1].matrix + t * curve.filters[i].matrix
    line = (1.0 - t) * curve.samples[i - 1][1] + t * curve.samples[i][1]
    filt, utility, privacy = _certified(joint, mix, cap, line)
    return FilterSolution(utility=utility, privacy=privacy, filter=filt,
                          y_guess_map=tuple(range(joint.shape[1])), eps=eps,
                          saturated=eps > pcxy)


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
    """The frontier's breakpoints, slopes and vertices, from one LP.

    One identity-map LP with N outputs (see the module docstring) is solved
    at eps = P_c(X|Y), and :func:`lp.piece_starts` walks its cap down from
    there to the end of the feasible range, which must lie within
    ``FEAS_TOL`` of P_c(X) and is reported as P_c(X). Every kink on the way
    is a breakpoint, and each piece's slope is the cap row's price on it. A
    kink within ``FEAS_TOL`` of P_c(X|Y) is where h reaches 1 and turns
    flat, P_c(X|Y) itself. The vertex there is the identity filter, which
    attains h = 1 exactly; every other vertex is the walk's basic point at
    its kink. Each vertex filter passes the same certificate as
    :func:`best_filter`'s, h there is recomputed from it, and the curve keeps
    it. Where P_c(X|Y) - P_c(X) <= 1e-9, Y gives no guessing advantage and no
    LP is solved: both breakpoints are vertices of the identity filter, with
    h = 1 and slope 0. Y alphabets larger than ``MAX_ALPHABET`` are rejected.
    """
    p = joint.matrix
    n = p.shape[1]
    if n > MAX_ALPHABET:
        raise CapacityError(f"Y alphabet {n} exceeds enumeration cap {MAX_ALPHABET}")
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    if pcxy - pcx <= 1e-9:
        # the domain collapses to a point, where the identity filter is optimal
        caps, points, values, slopes = [pcx, pcxy], [np.eye(n)] * 2, [1.0, 1.0], [0.0]
    else:
        res = lp_guess_max(p, pcxy, n, [tuple(range(n))])
        *kinks, end = piece_starts(res.program, res.solution, res.program.a_ub.shape[0] - 1)
        if abs(end.rhs - pcx) > FEAS_TOL:
            raise NumericalError(f"frontier walk ended at {end.rhs!r}, not at P_c(X) = {pcx!r}")
        if kinks and kinks[0].rhs > pcxy - FEAS_TOL:
            kinks = kinks[1:]
        stops = [end, *reversed(kinks)]
        caps = [s.rhs for s in stops] + [pcxy]
        points = [s.point[:n * n].reshape(n, n) for s in stops] + [np.eye(n)]
        values = [s.value for s in stops] + [1.0]
        slopes = [s.slope for s in stops]
        for a, b in itertools.pairwise(slopes):
            if b - a > FEAS_TOL:
                raise NumericalError(f"slope increased from {a} to {b}; frontier is not concave")

    filters, hs, _ = zip(*(_certified(joint, f, cap, value)
                           for f, cap, value in zip(points, caps, values)))
    breakpoints = (pcx, *caps[1:])
    return GuessCurve(samples=tuple(zip(breakpoints, hs)), breakpoints=breakpoints,
                      slopes=tuple(slopes), filters=filters)
