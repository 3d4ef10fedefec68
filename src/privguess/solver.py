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
right-hand side of that LP's cap row. The walk starts at the identity
vertex: at eps = P_c(X|Y) the identity filter Z = Y attains h = 1, and its
optimal basis and its tableau there are written down in closed form
(:func:`identity_top`), so no simplex phase and no set-up pivot runs.
Walking the cap down from there through the LP's basis changes
(:func:`lp.piece_starts`) gives every breakpoint exactly and every slope as
the cap row's dual price. The log-gain form and its sandwich bounds read
their points off this walk too; only :func:`best_filter` solves the map
family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    InfeasibleThresholdError,
    InvalidOrderError,
    NumericalError,
    ParameterError,
    PrivguessError,
)
from .lp import LinearProgram, PieceStart, _tableau, piece_starts, solve_lp
from .prob import (
    FEAS_TOL,
    RANGE_TOL,
    ROUNDOFF_TOL,
    Axis,
    Channel,
    JointDistribution,
    _adopt,
    _real,
    _reals,
    cond_guess_prob,
    guess_prob,
    renyi_entropy,
)

__all__ = [
    "FilterSolution",
    "GuessCurve",
    "OrderBounds",
    "best_filter",
    "curve_point",
    "guessing_gain",
    "finite_order_gain_bounds",
    "read_curve",
    "trace_curve",
]

#: largest Y alphabet of a caller's joint: best_filter enumerates C(2N, N+1) maps,
#: and the walk is capped until ROADMAP item 4 lifts it (_trace walks the package's
#: own 8-column block joints at n = 3 with no cap)
MAX_ALPHABET = 6


@dataclass(frozen=True)
class FilterSolution:
    """An optimal filter at threshold ``eps`` and its certified performance.

    ``utility``/``privacy`` are recomputed from the returned filter, bit for
    bit as the probability primitives give them, not read off the LP, and
    certify it (:func:`_certified`): privacy at most the clamped threshold
    and utility the optimum, each within ``FEAS_TOL``. ``saturated``
    marks thresholds clamped down to the point where utility 1 is reachable.
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
    :func:`read_curve` and :func:`curve_point` read the frontier between
    vertices off these.
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
    """Result of :func:`lp_guess_max`: optimal value, filter and guessing map."""

    value: float
    filter: np.ndarray
    map: tuple[int, ...]


def lp_guess_max(p: np.ndarray, cap: float, n_outputs: int,
                 maps: Iterable[tuple[int, ...]]) -> GuessMax:
    """Max utility over the given guessing maps: value, filter F and map.

    One LP solve: the maps share their constraints, so phase 1 runs once
    and each map adds only its own phase 2. Ties go to the earliest map in
    iteration order.
    """
    maps = list(maps)
    prog = _guess_lp(p, maps, cap, n_outputs)
    sol = solve_lp(prog)
    best_f = sol.point[: p.shape[1] * n_outputs].reshape(p.shape[1], n_outputs)
    return GuessMax(sol.value, best_f, maps[sol.winner])


def identity_top(p: np.ndarray) -> Iterator[PieceStart]:
    """:func:`lp.piece_starts` down the cap row of the identity-map LP with N outputs, from its top P_c(X|Y).

    At that cap the identity filter Z = Y attains utility 1, and the LP is
    optimal in the basis written down here: F[y, y] basic in equality row y;
    t_z basic in the bound row of (x*(z), z), x*(z) the lowest argmax of
    column z of ``p``; every other bound row and the cap row keep their
    slacks, the cap row's degenerate at 0. Only F[y, y] has a profit, so the
    reduced profits are 0 on the slacks and -P_Y(y) on F[y, z != y]. The
    tableau is written down too, the Gauss-Jordan pivots into that basis up
    to the sign of a zero: bound row (x, z) loses p[x, z] times equality row
    z; each t_z row is negated, and the other bound rows of its column lose
    it; the cap row loses the negated t_z rows one at a time in row order, as
    the pivots do, which keeps its rhs roundoff theirs. ``solve_lp`` starts
    from it with no pivot at all, when ``identity_top`` is called, and the
    walk pivots on from that solve as it is iterated. The cap is the sum of
    ``p``'s column maxima, as :func:`prob.cond_guess_prob` gives it.
    """
    m, n = p.shape
    nf, cols, rows = n * n, np.arange(n), p.argmax(axis=0)
    basis = nf + np.arange(n + m * n + 1)  # from row n on, each inequality row's slack
    basis[:n] = cols * (n + 1)
    basis[n + rows * n + cols] = nf + cols
    prog = _guess_lp(p, [tuple(range(n))], float(p.max(axis=0).sum()), n)
    t = _tableau(prog, 0)
    bound = t[n:-2].reshape(m, n, -1)  # bound row (x, z) is bound[x, z]
    bound -= p[:, :, None] * t[None, :n]
    tops = -bound[rows, cols]  # the t_z rows pivoted on t_z's -1
    bound += tops  # the other bound rows of column z lose the t_z row as it was
    bound[rows, cols] = tops
    for z in np.argsort(rows * n + cols).tolist():
        t[-2] -= tops[z]
    return piece_starts(prog, solve_lp(prog, (t, basis)), len(prog.b_ub) - 1)


class _Checked(NamedTuple):
    """The leading filters of a (G, N, C) stack that pass their certificate, and their values.

    ``error`` is the error of the first filter that fails, None if none
    does; the arrays stop just before it.
    """

    filters: np.ndarray
    utility: np.ndarray
    privacy: np.ndarray
    error: PrivguessError | None = None

    def passed(self) -> "_Checked":
        """This result, or the first failing filter's error raised."""
        if self.error is not None:
            raise self.error
        return self

    def channels(self) -> tuple[Channel, ...]:
        """The certified filters as channels, held read-only through ``prob._adopt``.

        :func:`_certified` projected each row onto the simplex and failed
        any NaN, so each filter is a channel up to roundoff and ``Channel``'s
        check cannot fail on it: none is copied or checked again.
        """
        self.filters.setflags(write=False)
        return tuple(_adopt(Channel, f) for f in self.filters)


def _evaluate(joint: JointDistribution, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(utility, privacy) of each filter in a (G, N, C) stack, recomputed from scratch.

    Each value is the one :func:`prob.cond_guess_prob` gives on the composed
    joint, bit for bit, from the same float operations in the same order:
    the product P F (or P_Y F), each column's max, then their sum. Nothing
    is checked here; :func:`_certified` certifies the values.
    """
    privacy = (joint.matrix @ f).max(axis=-2).sum(axis=-1)
    utility = (joint.col_marginal[:, None] * f).max(axis=-2).sum(axis=-1)
    return utility, privacy


def _certified(joint: JointDistribution, f: np.ndarray, caps: np.ndarray,
               values: np.ndarray) -> _Checked:
    """Filters F of LP or line optima ``values`` at ``caps``, with their recomputed (utility, privacy).

    ``f`` is a (G, N, C) stack with one cap and one value per filter. Its
    rows are projected onto the simplex (clipped at 0, divided by their
    sum), so each is a channel up to roundoff or holds a NaN. A filter is
    then certified by the two numbers the frontier problem defines: its
    privacy is at most its cap and its utility equals its value, each
    within ``FEAS_TOL``; a NaN fails both. The first filter that is not
    stops the result with a :class:`NumericalError`; ``.passed()`` raises it.
    """
    f = np.maximum(f, 0.0)
    f = f / f.sum(axis=-1, keepdims=True)
    utility, privacy = _evaluate(joint, f)
    ok = (privacy <= caps + FEAS_TOL) & (np.abs(utility - values) <= FEAS_TOL)
    if ok.all():
        return _Checked(f, utility, privacy)
    k = int(ok.argmin())
    return _Checked(f[:k], utility[:k], privacy[:k], NumericalError(
        f"filter certificate failed: privacy {float(privacy[k])} vs cap {float(caps[k])}, "
        f"utility {float(utility[k])} vs LP value {float(values[k])}"
    ))


def _clamp(joint: JointDistribution, eps: np.ndarray) -> tuple[float, float, np.ndarray, PrivguessError | None]:
    """(P_c(X), P_c(X|Y), caps, error): each ``eps`` clamped onto the frontier's domain [P_c(X), P_c(X|Y)].

    ``eps`` below P_c(X) beyond ``RANGE_TOL`` is infeasible, and a NaN is
    rejected; ``caps`` covers the thresholds before the first such one, and
    ``error`` is its error (None if there is none). From ``ROUNDOFF_TOL``
    below P_c(X|Y) up the cap is P_c(X|Y) itself.
    """
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    bad = np.isnan(eps) | (eps < pcx - RANGE_TOL)
    error = None
    if bad.any():
        k = int(bad.argmax())
        first = eps[k].item()
        if math.isnan(first):
            error = ParameterError(f"threshold eps must be a number, got {first!r}")
        else:
            error = InfeasibleThresholdError(
                f"threshold {first!r} below the unconditional guessing probability {pcx!r}"
            )
        eps = eps[:k]
    return pcx, pcxy, np.where(eps >= pcxy - ROUNDOFF_TOL, pcxy, np.maximum(eps, pcx)), error


def best_filter(joint: JointDistribution, eps: float) -> FilterSolution:
    """Solve the frontier problem at privacy threshold ``eps``.

    ``eps`` below the unconditional guessing probability of X (beyond
    ``RANGE_TOL``) is infeasible; above the conditional guessing probability
    the identity filter is returned directly with utility 1 and the solution
    is flagged saturated. Y alphabets larger than ``MAX_ALPHABET`` are rejected,
    and an ``eps`` that is a bool or not a real scalar raises :class:`ParameterError`.
    """
    p = joint.matrix
    n = p.shape[1]
    if n > MAX_ALPHABET:
        raise CapacityError(f"Y alphabet {n} exceeds enumeration cap {MAX_ALPHABET}")
    eps = _real("threshold eps", eps)
    _, pcxy, caps, error = _clamp(joint, np.array([eps]))
    if error is not None:
        raise error

    if caps[0] == pcxy:
        ident = np.eye(n, n + 1)
        utility, privacy = _evaluate(joint, ident[None])
        return FilterSolution(
            utility=float(utility[0]), privacy=float(privacy[0]),
            filter=Channel(ident), y_guess_map=tuple(range(n)) + (0,), eps=eps,
            saturated=eps > pcxy,
        )

    res = lp_guess_max(p, float(caps[0]), n + 1, nondecreasing_maps(n + 1, n))
    out = _certified(joint, res.filter[None], caps, np.array([res.value])).passed()
    return FilterSolution(utility=float(out.utility[0]), privacy=float(out.privacy[0]),
                          filter=out.channels()[0], y_guess_map=res.map, eps=eps)


#: entries of the P F stack held at once while reading a grid: a block of
#: GRID_ENTRIES // (M N) points, so memory grows with neither the grid nor X
GRID_ENTRIES = 1 << 15


def _read(joint: JointDistribution, curve: GuessCurve, eps: np.ndarray) -> _Checked:
    """The frontier at each ``eps``, read off ``curve`` in one batch; see :func:`read_curve`."""
    n = joint.shape[1]
    vertices = np.stack([f.matrix for f in curve.filters])
    if vertices.shape[1:] != (n, n):
        raise DimensionMismatchError(f"curve of {vertices.shape[1]}-column filters read against a {n}-column joint")
    pcx, pcxy, caps, error = _clamp(joint, eps)
    if (curve.breakpoints[0], curve.breakpoints[-1]) != (pcx, pcxy):
        raise ParameterError(f"curve spans [{curve.breakpoints[0]!r}, {curve.breakpoints[-1]!r}], not "
                             f"this joint's [P_c(X), P_c(X|Y)] = [{pcx!r}, {pcxy!r}]")
    bps = np.array(curve.breakpoints)
    i = np.minimum(np.searchsorted(bps, caps, side="right"), len(bps) - 1)
    a, b = bps[i - 1], bps[i]
    # t is 1 from the top of a piece on, so a zero-width piece is never divided by
    t = np.divide(caps - a, b - a, out=np.ones_like(caps), where=caps < b)
    hs = np.array([h for _, h in curve.samples])
    s = t[:, None, None]
    mix = (1.0 - s) * vertices[i - 1] + s * vertices[i]
    line = (1.0 - t) * hs[i - 1] + t * hs[i]
    out = _certified(joint, mix, caps, line)
    return out if out.error is not None else out._replace(error=error)


def read_curve(joint: JointDistribution, curve: GuessCurve,
               eps: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The frontier on a grid of thresholds, read off ``curve``, the :func:`trace_curve` of ``joint``.

    Yields (eps, utility, privacy) arrays for consecutive blocks of ``eps``,
    each of ``GRID_ENTRIES // (M N)`` points but the last; a grid that is not
    a 1-D array of integers or floats raises :class:`ParameterError`. Each
    ``eps`` is checked and clamped as by :func:`best_filter`, so thresholds within
    ``ROUNDOFF_TOL`` of P_c(X|Y) or above read the last vertex. On the
    piece [a, b] holding the clamped ``eps`` (found by one
    ``np.searchsorted`` on the breakpoints), the filter is the mixture
    (1 - t) F_a + t F_b of its vertex filters, t = (eps - a) / (b - a).
    Privacy is convex in the filter, so the mixture's is at most eps; the
    identity-map utility is linear in it, so the mixture reaches the
    piece's line. Each block's
    mixtures pass one batched certificate (:func:`_certified`) against
    those lines, with no LP solved. At the first point that fails a check,
    the points before it are yielded and its error is raised. A curve of
    another joint raises: :class:`DimensionMismatchError` if its filters are
    not N x N, else :class:`ParameterError` if its ends are not ``joint``'s.
    """
    eps = _reals("threshold eps", eps, 1)
    step = max(1, GRID_ENTRIES // joint.matrix.size)
    for start in range(0, len(eps), step):
        block = eps[start:start + step]
        out = _read(joint, curve, block)
        yield block[:len(out.utility)], out.utility, out.privacy
        out.passed()


def curve_point(joint: JointDistribution, curve: GuessCurve, eps: float) -> FilterSolution:
    """The frontier at ``eps``, read off ``curve``: the one-threshold case of :func:`read_curve`.

    Checks, clamping, the mixture of vertex filters and its certificate are
    those of :func:`read_curve`; the result also carries the mixture.
    """
    eps = _real("threshold eps", eps)
    out = _read(joint, curve, np.array([eps])).passed()
    return FilterSolution(utility=float(out.utility[0]), privacy=float(out.privacy[0]),
                          filter=out.channels()[0],
                          y_guess_map=tuple(range(joint.shape[1])), eps=eps,
                          saturated=eps > cond_guess_prob(joint, Axis.ROWS))


def guessing_gain(joint: JointDistribution, leak_bits: float) -> float:
    """Largest log2 utility gain on Y when the adversary's gain on X is capped.

    ``leak_bits`` caps log2(P_c(X|Z) / P_c(X)); returned is the maximal
    log2(P_c(Y|Z) / P_c(Y)). The frontier point is read off the walked
    curve, ``curve_point(joint, trace_curve(joint), eps)`` at eps =
    2**leak_bits * P_c(X), so no simplex phase runs. A budget at or above
    log2(P_c(X|Y) / P_c(X)) saturates at eps = P_c(X|Y), with no power of
    2 taken, so a budget of any size returns. Y alphabets larger than
    ``MAX_ALPHABET`` raise :func:`trace_curve`'s :class:`CapacityError`.
    """
    return _gains(joint, leak_bits)[0]


def _budget(leak_bits: float) -> float:
    """``leak_bits`` as a ``float``; :class:`ParameterError` unless it is a nonnegative budget (``inf`` included, NaN not)."""
    leak_bits = _real("leak budget", leak_bits)
    if not leak_bits >= 0.0:
        raise ParameterError(f"leak budget must be nonnegative, got {leak_bits!r}")
    return leak_bits


def _gains(joint: JointDistribution, *budgets: float) -> list[float]:
    """:func:`guessing_gain` at each of ``budgets``, every one read off one traced curve.

    Every budget is checked before the curve is traced.
    """
    budgets = [_budget(leak_bits) for leak_bits in budgets]
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    pcy = guess_prob(joint, Axis.COLS)
    curve = trace_curve(joint)
    gains = []
    for leak_bits in budgets:
        eps = pcxy if leak_bits >= math.log2(pcxy / pcx) else min(2.0 ** leak_bits * pcx, pcxy)
        gains.append(math.log2(curve_point(joint, curve, eps).utility / pcy))
    return gains


def finite_order_gain_bounds(joint: JointDistribution, nu: float, mu: float,
                             leak_bits: float) -> OrderBounds:
    """Sandwich the order-(nu, mu) gain by the order-infinity gain.

    Upper bound: gain at a shrunk budget ((nu-1)/nu) * leak + H_inf(X)/nu,
    plus the Renyi/min entropy gap of Y at order mu. Lower bound: a scaled
    gain at budget leak - (H_nu(X) - H_inf(X)), valid only when that budget
    is nonnegative (otherwise ``lower`` is None). Both gains are read off
    one traced curve. A negative or NaN ``leak_bits`` raises
    :class:`ParameterError`, as in :func:`guessing_gain`.
    """
    nu, mu = _real("nu", nu), _real("mu", mu)
    for name, o in (("nu", nu), ("mu", mu)):
        if not (math.isfinite(o) and o > 1.0):
            raise InvalidOrderError(f"{name} must be finite and > 1, got {o!r}")
    leak_bits = _budget(leak_bits)
    px = joint.row_marginal
    py = joint.col_marginal
    hx_inf = renyi_entropy(px, math.inf)
    hx_nu = renyi_entropy(px, nu)
    hy_inf = renyi_entropy(py, math.inf)
    hy_mu = renyi_entropy(py, mu)

    psi = (nu - 1.0) / nu * leak_bits + hx_inf / nu
    gap = hx_nu - hx_inf
    if leak_bits < gap - ROUNDOFF_TOL:
        return OrderBounds(None, _gains(joint, psi)[0] + hy_mu - hy_inf)
    phi = max(leak_bits - gap, 0.0)
    gain_psi, gain_phi = _gains(joint, psi, phi)
    upper = gain_psi + hy_mu - hy_inf
    lower = mu / (mu - 1.0) * gain_phi - hy_inf / (mu - 1.0)
    return OrderBounds(lower, upper)


def trace_curve(joint: JointDistribution) -> GuessCurve:
    """The frontier's breakpoints, slopes and vertices, from one LP walked down from the identity vertex.

    The walk (:func:`identity_top`) starts at the identity vertex, the
    identity-map LP with N outputs (see the module docstring) at eps =
    P_c(X|Y) in the optimal basis of :func:`identity_top`, with no simplex
    pivot. It lowers the cap from there to the end of the feasible range,
    which must lie within ``FEAS_TOL`` of P_c(X) and is reported as
    P_c(X). Every kink on the way is a breakpoint, and each piece's slope
    is the cap row's price on it. A kink within ``FEAS_TOL`` of P_c(X|Y) is
    where h reaches 1 and turns flat, P_c(X|Y) itself. The vertex there is the identity filter, which
    attains h = 1 exactly; every other vertex is the walk's basic point at
    its kink. Each vertex filter passes the same certificate as
    :func:`best_filter`'s, h there is recomputed from it, and the curve keeps
    it. Where P_c(X|Y) - P_c(X) <= ``RANGE_TOL``, Y gives no guessing
    advantage and no LP is solved: both breakpoints are vertices of the
    identity filter, with h = 1 and slope 0. Y alphabets larger than
    ``MAX_ALPHABET`` are rejected: the cap bounds joints from outside the
    package until ROADMAP item 4 lifts it.
    """
    n = joint.shape[1]
    if n > MAX_ALPHABET:
        raise CapacityError(
            f"Y alphabet {n} exceeds {MAX_ALPHABET}, the largest the frontier walk accepts from a caller")
    return _trace(joint)


def _trace(joint: JointDistribution) -> GuessCurve:
    """:func:`trace_curve` with no alphabet cap, for joints the package builds itself.

    :func:`vector.brute_force_block_utility` walks the 2^n-column block
    joints through it, the ones :func:`vector.validity_threshold` walks.
    """
    p = joint.matrix
    n = p.shape[1]
    pcx = guess_prob(joint, Axis.ROWS)
    pcxy = cond_guess_prob(joint, Axis.ROWS)
    if pcxy - pcx <= RANGE_TOL:
        # the domain collapses to a point, where the identity filter is optimal
        caps, points, values, slopes = [pcx, pcxy], [np.eye(n)] * 2, [1.0, 1.0], [0.0]
    else:
        *kinks, end = identity_top(p)
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
            # written so that a nan slope fails it too
            if not b - a <= FEAS_TOL:
                raise NumericalError(f"slope increased from {a} to {b}; frontier is not concave")

    out = _certified(joint, np.stack(points), np.array(caps), np.array(values)).passed()
    breakpoints = (pcx, *caps[1:])
    return GuessCurve(samples=tuple(zip(breakpoints, out.utility.tolist())),
                      breakpoints=breakpoints, slopes=tuple(slopes),
                      filters=out.channels())
