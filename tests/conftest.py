"""Shared random-instance generators and fixtures for the test suite."""

from typing import Iterator

import numpy as np
import pytest

from privguess import (
    BiboParams,
    Channel,
    InvalidChannelError,
    InvalidDistributionError,
    JointDistribution,
    NumericalError,
)
from privguess import lp, solver, vector
from privguess.lp import LinearProgram

FIG3_MATRIX = np.array([[0.32, 0.08], [0.12, 0.48]])


def fig3_joint() -> JointDistribution:
    """Bernoulli(0.6) source through a symmetric 0.2-crossover channel."""
    return JointDistribution(FIG3_MATRIX)


def random_joint(rng: np.random.Generator, m: int, n: int) -> JointDistribution:
    w = rng.random((m, n))
    return JointDistribution(w / w.sum())


def random_channel(rng: np.random.Generator, r: int, c: int) -> Channel:
    w = rng.random((r, c))
    return Channel(w / w.sum(axis=1, keepdims=True))


def symmetric_backward_joint(q: int, a: float, py) -> JointDistribution:
    """The q x q joint with P_Y = ``py`` whose backward channel is q-ary symmetric.

    P(X = x | Y = y) is 1 - a for x = y and a/(q - 1) otherwise. For
    a < (q - 1)/q every filter's P(X = x | z) is c P(Y = x | z) + a/(q - 1),
    c = 1 - aq/(q - 1) > 0, so the frontier is the one line
    h(eps) = (eps - a/(q - 1))/c on [P_c(X), P_c(X|Y)]: an exact oracle at
    every q, and at q = 2 a BIBO case.
    """
    back = np.full((q, q), a / (q - 1))
    np.fill_diagonal(back, 1.0 - a)
    return JointDistribution(back * np.asarray(py))


def rounded_joints(rng: np.random.Generator, shape: tuple[int, int], draws: int) -> list[np.ndarray]:
    """Of ``draws`` random joints of ``shape`` rounded to 9 decimals, those JointDistribution accepts.

    Their mass is often up to ``MASS_TOL`` from 1, the edge of what input may be.
    """
    kept = []
    for _ in range(draws):
        w = rng.random(shape)
        p = np.round(w / w.sum(), 9)
        try:
            JointDistribution(p)
        except InvalidDistributionError:
            continue
        kept.append(p)
    return kept


def rounded_pairs(rng: np.random.Generator, m: int, n: int, c: int,
                  draws: int) -> list[tuple[JointDistribution, Channel]]:
    """Of ``draws`` random M x N joints and N x C channels rounded to 9 decimals,
    the pairs that both constructors accept."""
    kept = []
    for _ in range(draws):
        w = rng.random((m, n))
        f = rng.random((n, c))
        try:
            kept.append((JointDistribution(np.round(w / w.sum(), 9)),
                         Channel(np.round(f / f.sum(axis=1, keepdims=True), 9))))
        except (InvalidDistributionError, InvalidChannelError):
            continue
    return kept


def pivoted_start(prog: LinearProgram, basis) -> tuple[np.ndarray, np.ndarray]:
    """The (tableau, basis) start of ``prog`` in ``basis``, reached by Gauss-Jordan pivots: the reference start.

    The standard-form tableau starts with each inequality row's slack basic;
    each row whose column in ``basis`` differs is then pivoted on that
    column, in row order, with ``lp.pivot``. A pivot entry within
    ``lp.PIVOT_TOL`` of 0 (the columns are singular in that order) fails
    the calling test.
    """
    n, me, mi = prog.n_vars, prog.a_eq.shape[0], prog.a_ub.shape[0]
    start = np.asarray(basis, dtype=np.int64)
    t = lp._tableau(prog, 0)
    basis = np.concatenate([np.full(me, -1), np.arange(n, n + mi)])
    for r in np.nonzero(basis != start)[0].tolist():
        j = int(start[r])
        assert abs(t[r, j]) > lp.PIVOT_TOL, f"start basis: column {j} has no pivot in row {r}"
        lp.pivot(t, basis, r, j)
    return t, basis


def reference_pivot(tableau: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """The reference Gauss-Jordan step: ``lp.pivot`` with its rank-1 update formed by ``np.outer``."""
    tableau[r, :] /= tableau[r, j]
    tableau[r, j] = 1.0
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    tableau -= np.outer(factors, tableau[r, :])
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j


def reference_run_simplex(tableau: np.ndarray, basis: np.ndarray, n_enter: int,
                          max_iter: int, phase: str) -> int:
    """The reference pivot loop: ``lp.run_simplex`` with the tie break on every ratio test and :func:`reference_pivot`.

    Returns its pivots, and raises ``lp.run_simplex``'s :class:`NumericalError` where it does.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m]
    it = 0
    while True:
        cand = np.nonzero(obj[:n_enter] > lp.PIVOT_TOL)[0]
        if cand.size == 0:
            return it
        j = int(cand[0])
        col = tableau[:m, j]
        rows = np.nonzero(col > lp.PIVOT_TOL)[0]
        if rows.size == 0:
            raise NumericalError(f"{phase} found an entering column that no row limits")
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        reference_pivot(tableau, basis, int(tied[np.argmin(basis[tied])]), j)
        it += 1
        if it >= max_iter:
            raise NumericalError(f"{phase} pivot budget ({max_iter}) exhausted")


def reference_vertex(prog: LinearProgram, b_ub, c, t, basis) -> tuple[float, np.ndarray]:
    """The reference vertex certificate: ``lp._vertex`` by elementwise comparisons, clipped into a new array."""
    x_full = np.zeros(t.shape[1] - 1)
    x_full[basis] = t[:basis.shape[0], -1]
    x = x_full[:prog.n_vars]
    assert not np.any(x < -lp.FEAS_TOL)
    if prog.a_eq.shape[0]:
        assert float(np.abs(prog.a_eq @ x - prog.b_eq).max()) <= lp.FEAS_TOL
    if prog.a_ub.shape[0]:
        assert float((prog.a_ub @ x - b_ub).max()) <= lp.FEAS_TOL
    x = np.maximum(x, 0.0)
    return float(c @ x), x


def reference_walk(prog: LinearProgram, sol, row: int) -> list[tuple]:
    """Every stop of ``lp.piece_starts`` as (rhs, value, point, slope, price below), by the reference step.

    The reference step reads the slack column afresh each step, runs the
    tie break on every ratio test and indexes the whole tableau in place,
    with :func:`reference_pivot` and :func:`reference_vertex`. A walk that
    fails a certificate fails the calling test.
    """
    t, basis = sol.tableau.copy(), sol.basis.copy()
    m, n = basis.shape[0], prog.n_vars
    s = n + row
    b_ub = prog.b_ub.copy()
    objective = prog.objective.reshape(-1, n)[sol.winner]

    def vertex(slope, price_below):
        return (float(b_ub[row]), *reference_vertex(prog, b_ub, objective, t, basis), slope, price_below)

    stops = []
    slope = price = float(-t[m, s])
    kink = None
    for _ in range(100 * sum(t.shape) + 1000):
        d = t[:m, s]
        rows = np.nonzero(d > lp.PIVOT_TOL)[0]
        assert rows.size, "no basic variable limits the walk"
        ratios = np.maximum(t[rows, -1], 0.0) / d[rows]
        step = ratios.min()
        if kink is not None and kink[0] - (b_ub[row] - step) > lp.FEAS_TOL:
            stops.append(kink[:-1] + (price,))
            slope, kink = price, None
        tied = rows[ratios == step]
        r = int(tied[np.argmin(basis[tied])])
        t[:, -1] -= step * t[:, s]
        t[r, -1] = 0.0
        b_ub[row] -= step
        cols = np.nonzero(t[r, :-1] < -lp.PIVOT_TOL)[0]
        if cols.size == 0:
            return stops + [vertex(slope, np.inf)]
        reference_pivot(t, basis, r, int(cols[np.argmin(t[m, cols] / t[r, cols])]))
        price = float(-t[m, s])
        if kink is None and price > slope + lp.FEAS_TOL:
            kink = vertex(slope, price)
    raise AssertionError("the reference walk exhausted its pivot budget")


def reference_solve(prog: LinearProgram) -> tuple[float, np.ndarray, int]:
    """(value, point, iterations) of ``lp.solve_lp(prog)``'s winner, by the reference price-out.

    Phase 1 and the pivot loop are ``lp``'s own, so a phase that breaks
    down raises its :class:`NumericalError` here too. Each objective row is
    priced out over every constraint row in row order, subtracting the row
    where its basic column carries a profit at that moment, which assumes
    nothing of the other basic columns. A failed certificate fails the
    calling test.
    """
    n, mi = prog.n_vars, prog.a_ub.shape[0]
    n_real = n + mi
    max_iter = 100 * (prog.a_eq.shape[0] + mi + n_real) + 1000
    t, basis, iters = lp._phase1(prog, max_iter)
    m = basis.shape[0]
    best = None
    for c in prog.objective.reshape(-1, n):
        tk, bk = t.copy(), basis.copy()
        row = np.zeros(n_real + 1)
        row[:n] = c
        for r in range(m):
            cb = row[bk[r]]
            if cb != 0.0:
                row = row - cb * tk[r]
        tk[m] = row
        iters += lp.run_simplex(tk, bk, n_real, max_iter, "phase-2")
        assert float(tk[m, :n_real].max()) <= lp.FEAS_TOL
        value, point = reference_vertex(prog, prog.b_ub, c, tk, bk)
        if best is None or value > best[0]:
            best = (value, point)
    return (*best, iters)


def identity_top_solve(p: np.ndarray) -> tuple[LinearProgram, lp.LpSolution, Iterator[lp.PieceStart]]:
    """(program, solve, walk) of ``solver.identity_top(p)``, the solve caught by a spy on ``solver.solve_lp``."""
    real, solves = solver.solve_lp, []

    def spy(prog, start=None):
        solves.append((prog, real(prog, start)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "solve_lp", spy)
        walk = solver.identity_top(p)
    (prog, sol), = solves
    return prog, sol, walk


def random_bibo(rng: np.random.Generator) -> BiboParams:
    """Rejection-sample parameters with a genuine guessing advantage from Y."""
    while True:
        p = rng.uniform(0.5, 1.0)
        alpha = rng.uniform(0.0, 0.5)
        beta = rng.uniform(0.0, 0.5)
        if (1.0 - alpha) * (1.0 - p) > beta * p:
            return BiboParams(p=p, alpha=alpha, beta=beta)


@pytest.fixture
def walk_solves(monkeypatch):
    """Every ``solver.solve_lp`` result from here on; ``lp_guess_max`` raises if called.

    A frontier value read off the walk solves one LP per curve, started at
    the identity vertex with 0 simplex iterations, and no map-family LP.
    """
    real, solves = solver.solve_lp, []

    def counting(prog, start=None):
        solves.append(real(prog, start))
        return solves[-1]

    def forbidden(*args):
        raise AssertionError("lp_guess_max called")

    monkeypatch.setattr(solver, "solve_lp", counting)
    monkeypatch.setattr(solver, "lp_guess_max", forbidden)
    monkeypatch.setattr(vector, "lp_guess_max", forbidden)
    return solves
