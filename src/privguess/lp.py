"""Dense linear programming by two-phase simplex: the package's private LP engine.

Maximizes a linear objective over ``{x >= 0 : a_eq x = b_eq, a_ub x <= b_ub}``
with every right-hand side nonnegative, a precondition its callers meet by
construction (:class:`LinearProgram` is a plain record, checked nowhere).
All variables are nonnegative by construction (the quantities optimized
here are probabilities and bounds on them), so free variables are not
supported. The objective may also be a family of objectives, one per row,
over the same constraints: the solve then returns the best of their optima.
Feasibility does not depend on the objective, so the family shares one
phase 1 and each objective runs only its own phase 2.

A solve has one outcome: a certified optimum, or :class:`NumericalError`.
Every program the package builds is feasible (the constant filter solves it)
and bounded (F <= 1 and t <= cap), so a phase 1 that ends above
``FEAS_TOL``, a column that no row limits, an equality row that phase 1
leaves with no real column, an exhausted pivot budget and a failed
certificate are each a numerical breakdown, raised where it is found
(the column and the budget by :func:`run_simplex`). No name of this
module is exported from ``privguess``.

Method: slack variables turn inequalities into equalities. The slack
columns of the inequality rows form the initial basis, and each equality
row gets an artificial variable, driven to zero in phase 1. Phase 2
optimizes the real objective. Pivoting uses Bland's anti-cycling rule
throughout, which makes every solve deterministic and guarantees
termination; an iteration budget is still enforced. Optimal points are
basic feasible solutions, i.e. vertices of the polytope.

A caller that has written down the tableau of a feasible basis, such as an
optimal one in closed form, may pass it as a start. It is certified primal
feasible, and phase 2 runs from it with no phase 1 and no set-up pivot (from
an optimal basis, no pivot at all) to an optimum certified as any other.

Every tableau here keeps its basic columns exact unit vectors, the profit
row's entry (0) included: each pivot writes its entering column as one,
and a pivot row holds an exact 0 in each other basic column, so the update
subtracts a multiple of 0 from that column and leaves it equal under ``==``
(the sign of a zero aside). A start must be written that way too, as the
Gauss-Jordan pivots into its basis leave it. Phase 2 therefore prices out
only the rows whose basic column carries a profit: subtracting any other
row would change no basic column's profit.

Every certificate is written so that a NaN fails it: a check passes only
where its comparison is true (``not worst <= FEAS_TOL``), and each failure
raises :class:`NumericalError`. That covers phase 1's end, a start's
feasibility, the reduced costs, each vertex's three checks and the walk's
ratio test, so a NaN that reaches a tableau is reported as a numerical
breakdown, never as an optimum or as invalid input.

The optimum is concave and piecewise linear in one right-hand side, and
:func:`piece_starts` walks that rhs down from a solve's final tableau
through every kink of it (parametric programming, Bertsimas & Tsitsiklis
sections 5.2-5.5). A primal ratio test on the row's slack column gives the
exact rhs where a basic variable reaches 0, and one dual simplex pivot on
that variable's row continues below it. Each step is a basis change, so
every kink found is exact, with no sampling or tolerance in its position;
the price is compared only to see where a piece ends, and the slope of each
piece is the row's price on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .prob import FEAS_TOL, PIVOT_TOL

__all__ = ["LinearProgram", "LpSolution", "PieceStart", "piece_starts", "solve_lp"]

@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to  a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    A plain record of float64 arrays, held as given with no copy and no
    check: ``objective`` is one row of n coefficients or a (k, n) family of
    them, all maximized over the same constraints, ``a_eq`` and ``a_ub`` are
    (rows, n) and ``b_eq`` and ``b_ub`` one entry per row.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.objective.shape[-1]


@dataclass(frozen=True)
class LpSolution:
    """Certified optimum of a solve.

    ``point`` satisfies every constraint within ``FEAS_TOL`` (verified
    before returning), and ``value`` is the objective there.

    ``winner`` is the objective row the solution belongs to: the first row
    with the largest optimum. ``iterations`` counts phase 1 once and the
    phase 2 of every row solved; a start is used as given, with no pivot.

    ``tableau`` and ``basis`` are the winning row's final phase 2 tableau
    (constraint rows, then the reduced-profit row; columns are the variables,
    the slacks in ``a_ub`` order and the right-hand side) and the column
    basic in each constraint row. :func:`piece_starts` continues from them.
    """

    value: float
    point: np.ndarray
    iterations: int
    winner: int
    tableau: np.ndarray
    basis: np.ndarray


def solve_lp(prog: LinearProgram, start: tuple[np.ndarray, np.ndarray] | None = None) -> LpSolution:
    """Solve ``prog`` with the two-phase dense simplex, or phase 2 alone from ``start``.

    Both phases run on one tableau ``[A | slacks | artificials | rhs]``;
    phase 2 continues on it once the artificial columns are dropped. For a
    family of objectives, phase 1 runs once and each row's phase 2 runs on
    its own copy of the feasible tableau (the last row on the tableau
    itself), in row order. Each phase may take ``100 * (rows + columns) +
    1000`` pivots. Returns the certified optimum or raises
    :class:`NumericalError`: see the module docstring for the breakdowns.
    ``prog``'s right-hand sides must be nonnegative, which is not checked.

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
    m = basis.shape[0]

    best = None  # (value, point, row, tableau, basis) of the first best row so far
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
        iters += run_simplex(tk, bk, n_real, max_iter, "phase-2")

        # optimality certificate: no improving reduced cost remains
        worst = float(tk[m, :n_real].max()) if n_real else 0.0
        if not worst <= FEAS_TOL:
            raise NumericalError(f"reduced cost {worst} above {FEAS_TOL} at claimed optimum")

        value, point = _vertex(prog, prog.b_ub, c, tk, bk)
        if best is None or value > best[0]:
            best = (value, point, k, tk, bk)
    return LpSolution(best[0], best[1], iters, *best[2:])


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

    The row's price, the optimum's rate of growth in its rhs (Bertsimas &
    Tsitsiklis, *Introduction to Linear Optimization*, section 5.2), is
    minus its slack column's reduced profit, ``-t[m, slack]``: nonnegative
    within the certificate tolerance, and at a degenerate optimum one
    optimal dual among several, a supergradient of the optimum in the rhs.

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


def run_simplex(tableau: np.ndarray, basis: np.ndarray, n_enter: int, max_iter: int, phase: str) -> int:
    """Pivot ``tableau`` in place by Bland's rule to an optimum; returns its pivots.

    Rows 0..m-1 of ``tableau`` are constraints and row m is the reduced
    profit row of a maximization; the last column is the right-hand side.
    The entering column is the lowest index below ``n_enter`` with reduced
    profit above ``PIVOT_TOL``; the leaving row has the least ratio among
    rows with pivot entry above ``PIVOT_TOL``, exact ties to the lowest
    basic column. An entering column that no row limits, or a ``max_iter``-th
    pivot, raises :class:`NumericalError` naming ``phase``. :func:`solve_lp`
    and :func:`_phase1` call it by this module's global name, so a wrapper
    patched in there (the tests' spies, ``perfbench``'s tracer) sees every call.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m]
    for it in range(max_iter):
        cand = (obj[:n_enter] > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return it
        j = int(cand[0])

        col = tableau[:m, j]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise NumericalError(f"{phase} found an entering column that no row limits")
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        r = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        pivot(tableau, basis, r, j)
    raise NumericalError(f"{phase} pivot budget ({max_iter}) exhausted")


def pivot(tableau: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Make column ``j`` basic in row ``r``: one Gauss-Jordan step, in place.

    The other rows lose their column-``j`` entry times the pivot row, as one
    broadcast rank-1 update (the products ``np.outer`` forms), and column
    ``j`` is then written as an exact unit vector.
    """
    tableau[r, :] /= tableau[r, j]
    tableau[r, j] = 1.0
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    tableau -= factors[:, None] * tableau[r]
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j


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


def _phase1(prog: LinearProgram, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(tableau, basis, iterations) of phase 1 from the slack basis.

    The inequality rows' slacks start basic and each equality row gets an
    artificial, which phase 1 drives to zero. An artificial still basic (at
    0) is then pivoted out on the first real column of its row, and the
    returned tableau has the artificial columns sliced off. Raises
    :class:`NumericalError` if the artificials end above ``FEAS_TOL`` (or
    NaN) or if an artificial's row has no real column (a redundant equality).
    """
    n, me, mi = prog.n_vars, prog.a_eq.shape[0], prog.a_ub.shape[0]
    m, n_real = me + mi, n + mi
    basis = np.concatenate([np.arange(n_real, n_real + me), np.arange(n, n_real)])
    # one tableau for both phases: standard form, then artificials, then the rhs
    t = _tableau(prog, me)
    t[:me, n_real:-1] = np.eye(me)
    t[m, :n_real] = t[:me, :n_real].sum(axis=0)
    t[m, -1] = t[:me, -1].sum()

    iters = run_simplex(t, basis, n_real, max_iter, "phase-1")
    if not t[m, -1] <= FEAS_TOL:
        raise NumericalError(f"phase 1 ended with artificials summing to {t[m, -1]}, above {FEAS_TOL}")
    for r in (basis >= n_real).nonzero()[0].tolist():
        cols = (np.abs(t[r, :n_real]) > PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            raise NumericalError(f"equality row {r} is redundant: no real column replaces its artificial")
        pivot(t, basis, r, int(cols[0]))
    # rhs into the first artificial column, then slice off the artificials
    t[:, n_real] = t[:, -1]
    return t[:, :n_real + 1].copy(), basis, iters


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
