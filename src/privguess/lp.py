"""Dense linear programming by two-phase simplex.

Maximizes a linear objective over ``{x >= 0 : a_eq x = b_eq, a_ub x <= b_ub}``.
All variables are nonnegative by construction (the quantities optimized here
are probabilities and bounds on probabilities), so free variables are not
supported. The objective may also be a family of objectives, one per row,
over the same constraints: the solve then returns the best of their optima.
Feasibility does not depend on the objective, so the family shares one
phase 1 and each objective runs only its own phase 2.

Method: slack variables turn inequalities into equalities. Slack columns of
inequality rows with nonnegative right-hand side form the initial basis;
remaining rows (equalities, and inequalities whose rhs had to be negated)
get artificial variables, driven to zero in phase 1 or certifying
infeasibility. Phase 2 optimizes the real objective. Pivoting uses Bland's
anti-cycling rule throughout, which makes every solve deterministic and
guarantees termination; an iteration budget is still enforced and exceeding
it raises :class:`NumericalError` rather than ever mislabeling a point
OPTIMAL. Optimal points are basic feasible solutions, i.e. vertices of the
polytope.

A caller that has written down the tableau of a feasible basis, such as an
optimal one in closed form, may pass it as a start. It is certified primal
feasible, and phase 2 runs from it with no phase 1 and no set-up pivot (from
an optimal basis, no pivot at all) to an optimum certified as any other.

Every tableau here keeps its basic columns exact unit vectors: each pivot
writes its entering column as one (see ``_simplex_py``), and a start must
be written that way too, as the Gauss-Jordan pivots into its basis leave
it. Phase 2 therefore prices out only the rows whose basic column carries
a profit: subtracting any other row would change no basic column's profit.

Every certificate is written so that a NaN fails it: a check passes only
where its comparison is true (``not worst <= FEAS_TOL``), and each failure
raises :class:`NumericalError`. That covers a start's feasibility, the
reduced costs, each vertex's three checks and the walk's ratio test, so a
NaN that reaches a tableau is reported as a numerical breakdown, never as
an optimum or as invalid input.

An optimal solution also carries the dual prices of the inequality rows:
the rate at which the optimal value grows with each row's right-hand side
(Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, section 5.2).
They are read off the final reduced-profit row: a slack column's reduced
profit is minus its row's price. A row negated for its negative right-hand
side carries a negated slack, and its price is taken with respect to the
negated right-hand side, so the two sign changes cancel and every price is
``-t[m, slack]``. The prices are nonnegative (within the certificate
tolerance); on a degenerate optimum they are one optimal dual among several,
and each is then a supergradient of the value in its right-hand side.

The optimum is concave and piecewise linear in one right-hand side, and
:func:`piece_starts` walks that rhs down from a solve's final tableau
through every kink of it (parametric programming, Bertsimas & Tsitsiklis
sections 5.2-5.5). A primal ratio test on the row's slack column gives the
exact rhs where a basic variable reaches 0, and one dual simplex pivot on
that variable's row continues below it. Each step is a basis change, so
every kink found is exact, with no sampling or tolerance in its position;
the price is compared only to see where a piece ends, and the slope of each
piece is the row's price on it.

The pivot loop itself lives in the NumPy kernel ``_simplex_py``, which
states its contract (``KERNEL_BACKEND`` names it, always ``"python"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from ._simplex_py import BACKEND as KERNEL_BACKEND
from ._simplex_py import STATUS_BUDGET, STATUS_UNBOUNDED, pivot, run_simplex
from .errors import DimensionMismatchError, NumericalError

__all__ = ["KERNEL_BACKEND", "LinearProgram", "LpSolution", "LpStatus", "PieceStart",
           "piece_starts", "solve_lp"]

#: tableau pivot tolerance
PIVOT_TOL = 1e-10

#: feasibility / optimality certificate tolerance
FEAS_TOL = 1e-8


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to  a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    ``objective`` is one row of n coefficients, or a (k, n) family of them,
    all maximized over the same constraints.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        if c.ndim > 2 or (c.ndim == 2 and c.shape[0] == 0):
            raise DimensionMismatchError("objective must be one row or a nonempty family of rows")
        n = c.shape[-1]
        a_eq = np.asarray(self.a_eq, dtype=np.float64).reshape(-1, n)
        a_ub = np.asarray(self.a_ub, dtype=np.float64).reshape(-1, n)
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64)) if np.size(self.b_eq) else np.zeros(0)
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64)) if np.size(self.b_ub) else np.zeros(0)
        if b_eq.shape[0] != a_eq.shape[0] or b_ub.shape[0] != a_ub.shape[0]:
            raise DimensionMismatchError("constraint matrix and rhs row counts differ")
        for arr in (c, a_eq, b_eq, a_ub, b_ub):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatchError("non-finite coefficient in linear program")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[-1]


@dataclass(frozen=True)
class LpSolution:
    """Certified outcome of a solve.

    ``point``/``value`` are None unless ``status`` is OPTIMAL. Optimal points
    satisfy every constraint within ``FEAS_TOL`` (verified before returning).
    ``duals`` holds, for an optimal solution, one price per inequality row
    (in ``a_ub`` order): the optimal value's rate of change in that row's
    right-hand side, which is nonnegative for a maximization. It is None
    otherwise.

    ``winner`` is the objective row the solution belongs to: the first row
    with the largest optimum, the row found unbounded, or 0 when the
    constraints are infeasible. ``iterations`` counts phase 1 once and the
    phase 2 of every row solved; a start is used as given, with no pivot.

    ``tableau`` and ``basis`` are the winning row's final phase 2 tableau
    (constraint rows, then the reduced-profit row; columns are the variables,
    the slacks in ``a_ub`` order and the right-hand side) and the column
    basic in each constraint row, for an optimal solution; None otherwise.
    :func:`piece_starts` continues from them.
    """

    status: LpStatus
    value: float | None
    point: np.ndarray | None
    iterations: int
    duals: np.ndarray | None = None
    winner: int = 0
    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None


def solve_lp(prog: LinearProgram, start: tuple[np.ndarray, np.ndarray] | None = None) -> LpSolution:
    """Solve ``prog`` with the two-phase dense simplex, or phase 2 alone from ``start``.

    Both phases run on one tableau ``[A | slacks | artificials | rhs]``;
    phase 2 continues on it once the artificial columns are dropped. For a
    family of objectives, phase 1 runs once and each row's phase 2 runs on
    its own copy of the feasible tableau (the last row on the tableau
    itself), in row order; the first row that ends unbounded ends the solve.
    Each phase may take ``100 * (rows + columns) + 1000`` pivots. Raises
    :class:`NumericalError` if that budget is exhausted or a row's final
    point fails its certificate.

    ``start``, if given, is a (tableau, basis) pair laid out as an optimum's,
    the tableau pivoted into the basis (each basic column an exact unit
    vector), its last row ignored; phase 2 pivots it in place with no phase
    1, under the same budget and certificates. Its shape is checked, and a
    basic variable below ``-FEAS_TOL`` or NaN raises :class:`NumericalError`.
    """
    n = prog.n_vars
    objectives = prog.objective.reshape(-1, n)
    me, mi = prog.a_eq.shape[0], prog.a_ub.shape[0]
    n_real = n + mi  # original variables plus slacks
    max_iter = 100 * (me + mi + n_real) + 1000

    if start is not None:
        t, basis = _start(prog, start)
        iters = 0
    else:
        t, basis, iters = _phase1(prog, max_iter)
        if t is None:
            return LpSolution(LpStatus.INFEASIBLE, None, None, iters)
    m = basis.shape[0]  # phase 1 drops redundant rows

    best = None  # (value, point, duals, row, tableau, basis) of the first best row so far
    last = objectives.shape[0] - 1
    for k, c in enumerate(objectives):
        tk, bk = (t, basis) if k == last else (t.copy(), basis.copy())
        # phase 2: price out the basis for this objective, in row order;
        # basic columns are exact unit vectors, so only the rows whose basic
        # column has a profit change the row
        row = tk[m]
        row[:] = 0.0
        row[:n] = c
        for r in row[bk].nonzero()[0].tolist():
            row -= row[bk[r]] * tk[r]

        status, it2 = run_simplex(tk, bk, n_real, PIVOT_TOL, max_iter)
        iters += it2
        if status == STATUS_BUDGET:
            raise NumericalError(f"phase-2 pivot budget ({max_iter}) exhausted")
        if status == STATUS_UNBOUNDED:
            return LpSolution(LpStatus.UNBOUNDED, None, None, iters, winner=k)

        # optimality certificate: no improving reduced cost remains
        worst = float(tk[m, :n_real].max()) if n_real else 0.0
        if not worst <= FEAS_TOL:
            raise NumericalError(f"reduced cost {worst} above {FEAS_TOL} at claimed optimum")

        value, point = _vertex(prog, prog.b_ub, c, tk, bk)
        if best is None or value > best[0]:
            # a slack's reduced profit is minus its row's price
            best = (value, point, -tk[m, n:n_real], k, tk, bk)
    return LpSolution(LpStatus.OPTIMAL, best[0], best[1], iters, *best[2:])


class PieceStart(NamedTuple):
    """Left end of a linear piece of the optimum in one right-hand side (:func:`piece_starts`).

    ``slope`` is the row's price on the piece above ``rhs``; ``price_below``
    is its price in the first basis that carries the walk more than
    ``FEAS_TOL`` below ``rhs``, the slope of the next piece down, which
    exceeds ``slope`` by more than ``FEAS_TOL`` and so proves ``rhs`` a kink.
    It is inf at the end of the feasible range, where no column can enter.
    """

    rhs: float
    value: float
    point: np.ndarray
    slope: float
    price_below: float


def piece_starts(prog: LinearProgram, sol: LpSolution, row: int) -> Iterator[PieceStart]:
    """Lower ``b_ub[row]`` from its value in ``prog`` through every kink of the optimum.

    Parametric right-hand side (Gass & Saaty 1955; Bertsimas & Tsitsiklis
    sections 5.2-5.5), from ``sol``, an optimal solve of ``prog``. While the
    rhs falls by s, the basic solution of a fixed basis moves along the
    row's slack column d, x_B(s) = x_B - s d, and the optimum falls at the
    row's price. The basis stays optimal up to the primal ratio test, the
    least x_B[i] / d[i] over d[i] > 0, where a basic variable reaches 0
    (exact ties to the lowest basic column). A dual simplex pivot on that
    variable's row then gives another basis optimal at that rhs, which
    continues the walk: the entering column is the one with a negative
    entry in the row and the least ratio of reduced profit to that entry
    (exact ties to the lowest column). A step has length 0 where a basic
    variable already is 0, as at a degenerate kink.

    A kink is where the price rises more than ``FEAS_TOL`` above the
    piece's. Price rises less than ``FEAS_TOL`` of rhs apart are one kink,
    at the first of them: a degenerate kink can take several pivots, and
    roundoff gives some of their steps lengths near 1e-17. The walk yields
    each kink, from the solve's rhs downward, and last the end of the
    feasible range, where no column can enter.

    The point of the basis at each yielded rhs passes the same certificate
    as an optimum of :func:`solve_lp`, against the walk's rhs, and
    ``value`` is recomputed from it.
    Raises :class:`NumericalError` if a certificate fails, if no basic
    variable limits a step (the rhs would fall without end, which a cap on
    probabilities cannot), if the least ratio is not a finite number, if the
    row's price is nan or if the walk takes more pivots than a phase of
    :func:`solve_lp` may.
    """
    t, basis = sol.tableau.copy(), sol.basis.copy()
    m, n = basis.shape[0], prog.n_vars
    s = n + row  # the row's slack column
    col, d, rhs = t[:, s], t[:m, s], t[:, -1]  # views, which every pivot updates in place
    b_ub = prog.b_ub.copy()
    objective = prog.objective.reshape(-1, n)[sol.winner]

    def vertex(slope: float, price_below: float) -> PieceStart:
        return PieceStart(float(b_ub[row]), *_vertex(prog, b_ub, objective, t, basis), slope, price_below)

    def row_price() -> float:
        # a nan price would fail every kink test and pass as a slope
        price = float(-t[m, s])
        if math.isnan(price):
            raise NumericalError(f"price of row {row} is nan")
        return price

    slope = price = row_price()
    kink = None  # the latest kink, until a basis moves more than FEAS_TOL below it
    budget = 100 * sum(t.shape) + 1000
    for _ in range(budget):
        rows = (d > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise NumericalError(f"no basic variable limits the right-hand side of row {row}")
        # a roundoff-negative basic variable counts as 0: a step of length 0
        ratios = np.maximum(rhs[rows], 0.0) / d[rows]
        step = ratios.min()
        if not step < math.inf:
            raise NumericalError(f"ratio test of row {row} found a step of {step}")
        if kink is not None and kink.rhs - (b_ub[row] - step) > FEAS_TOL:
            yield kink._replace(price_below=price)
            slope, kink = price, None
        tied = rows[ratios == step]
        r = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        rhs -= step * col
        rhs[r] = 0.0
        b_ub[row] -= step

        cols = (t[r, :-1] < -PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            yield vertex(slope, math.inf)
            return
        pivot(t, basis, r, int(cols[(t[m, cols] / t[r, cols]).argmin()]))
        price = row_price()
        if kink is None and price > slope + FEAS_TOL:
            kink = vertex(slope, price)
    raise NumericalError(f"right-hand side walk of row {row} exhausted its pivot budget")


def _tableau(prog: LinearProgram, n_art: int) -> np.ndarray:
    """Zero tableau ``[A | slacks | n_art artificials | rhs]`` plus an objective row, standard form filled in."""
    n, me, mi = prog.n_vars, prog.a_eq.shape[0], prog.a_ub.shape[0]
    width = n + mi + n_art + 1
    t = np.zeros((me + mi + 1, width))
    t[:me, :n] = prog.a_eq
    t[me:-1, :n] = prog.a_ub
    t.reshape(-1)[me * width + n::width + 1][:mi] = 1.0  # the slack identity's diagonal
    t[:me, -1] = prog.b_eq
    t[me:-1, -1] = prog.b_ub
    return t


def _phase1(prog: LinearProgram, max_iter: int) -> tuple[np.ndarray | None, np.ndarray, int]:
    """(tableau, basis, iterations) of phase 1 from the slack basis; tableau None if infeasible.

    Slack columns of inequality rows with nonnegative rhs start basic; the
    other rows (equalities, and inequalities negated for their negative rhs)
    get artificials, which phase 1 drives to zero. The returned tableau and
    basis have the artificials and redundant rows sliced off.
    """
    n, me, mi = prog.n_vars, prog.a_eq.shape[0], prog.a_ub.shape[0]
    m, n_real = me + mi, n + mi
    neg = np.concatenate([prog.b_eq, prog.b_ub]) < 0.0
    # initial basis: slack where its coefficient stayed +1, artificial elsewhere
    art_rows = np.nonzero(np.concatenate([np.ones(me, dtype=bool), neg[me:]]))[0]
    n_art = art_rows.shape[0]
    basis = np.empty(m, dtype=np.int64)
    basis[me:] = np.arange(n, n_real)
    basis[art_rows] = n_real + np.arange(n_art)

    # one tableau for both phases: standard form with rows negated where the
    # rhs was negative, then artificials, then the rhs
    t = _tableau(prog, n_art)
    t[:m, :n_real][neg] *= -1.0
    t[:m, -1] = np.abs(t[:m, -1])
    if not n_art:
        return t, basis, 0
    t[art_rows, n_real + np.arange(n_art)] = 1.0
    t[m, :n_real] = t[art_rows, :n_real].sum(axis=0)
    t[m, -1] = t[art_rows, -1].sum()

    status, iters = run_simplex(t, basis, n_real, PIVOT_TOL, max_iter)
    if status == STATUS_BUDGET:
        raise NumericalError(f"phase-1 pivot budget ({max_iter}) exhausted")
    if status == STATUS_UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
        raise NumericalError("phase-1 reported unbounded")
    if t[m, -1] > FEAS_TOL:
        return None, basis, iters
    keep = _purge_artificials(t, basis, n_real)
    # rhs into the first artificial column, then slice off the artificials
    # and the redundant rows (one copy)
    t[:, n_real] = t[:, -1]
    t = t[keep + [m], :n_real + 1]
    return t, basis[keep], iters


def _start(prog: LinearProgram, start: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``start``, a (tableau, basis) pair of ``prog``, checked for its shape (else
    :class:`DimensionMismatchError`) and certified primal feasible, with every
    basic variable at least ``-FEAS_TOL`` (else, a NaN included, :class:`NumericalError`)."""
    rows, cols = prog.a_eq.shape[0] + prog.a_ub.shape[0], prog.n_vars + prog.a_ub.shape[0]
    t, basis = np.asarray(start[0], dtype=np.float64), np.asarray(start[1], dtype=np.int64)
    if (t.shape != (rows + 1, cols + 1) or basis.shape != (rows,)
            or (rows and not 0 <= basis.min() <= basis.max() < cols)):
        raise DimensionMismatchError(
            f"a start needs a {(rows + 1, cols + 1)} tableau and {rows} basic columns in [0, {cols})")
    low = float(t[:-1, -1].min()) if rows else 0.0
    if not low >= -FEAS_TOL:
        raise NumericalError(f"start basis is not primal feasible: a basic variable is {low}")
    return t, basis


def _purge_artificials(t: np.ndarray, basis: np.ndarray, n_real: int) -> list[int]:
    """Pivot artificials out of the basis; return the rows that are not redundant."""
    keep = []
    for r in range(basis.shape[0]):
        if basis[r] >= n_real:
            cols = np.nonzero(np.abs(t[r, :n_real]) > PIVOT_TOL)[0]
            if cols.size == 0:
                continue  # zero row: constraint was redundant
            pivot(t, basis, r, int(cols[0]))
        keep.append(r)
    return keep


def _vertex(prog: LinearProgram, b_ub: np.ndarray, c: np.ndarray, t: np.ndarray,
            basis: np.ndarray) -> tuple[float, np.ndarray]:
    """(value under ``c``, point) of the basic solution of tableau ``t``, certified feasible.

    The certificate checks the point against ``prog`` with ``b_ub`` as the
    inequality rhs, each constraint within ``FEAS_TOL``, by one reduction
    per check, which a NaN fails; the point's roundoff-negative components
    are then clipped to 0 in place.
    """
    x_full = np.zeros(t.shape[1] - 1)
    x_full[basis] = t[:basis.shape[0], -1]
    x = x_full[:prog.n_vars]
    low = float(x.min(initial=0.0))
    if not low >= -FEAS_TOL:
        raise NumericalError(f"negative component {low} in simplex solution")
    if prog.a_eq.shape[0]:
        res = prog.a_eq @ x
        res -= prog.b_eq
        worst = float(np.abs(res, out=res).max())
        if not worst <= FEAS_TOL:
            raise NumericalError(f"equality residual {worst} exceeds {FEAS_TOL}")
    if prog.a_ub.shape[0]:
        res = prog.a_ub @ x
        res -= b_ub
        worst = float(res.max())
        if not worst <= FEAS_TOL:
            raise NumericalError(f"inequality violation {worst} exceeds {FEAS_TOL}")
    np.maximum(x, 0.0, out=x)
    return float(c @ x), x
