"""Shared random-instance generators and fixtures for the test suite."""

import numpy as np
import pytest

from privguess import (
    BiboParams,
    Channel,
    InvalidChannelError,
    InvalidDistributionError,
    JointDistribution,
    LinearProgram,
)
from privguess import _simplex_py, lp, solver, vector

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
    column, in row order, with the NumPy kernel's pivot. A pivot entry
    within ``lp.PIVOT_TOL`` of 0 (the columns are singular in that order)
    fails the calling test.
    """
    n, me, mi = prog.n_vars, prog.a_eq.shape[0], prog.a_ub.shape[0]
    start = np.asarray(basis, dtype=np.int64)
    t = lp._tableau(prog, 0)
    basis = np.concatenate([np.full(me, -1), np.arange(n, n + mi)])
    for r in np.nonzero(basis != start)[0].tolist():
        j = int(start[r])
        assert abs(t[r, j]) > lp.PIVOT_TOL, f"start basis: column {j} has no pivot in row {r}"
        _simplex_py.pivot(t, basis, r, j)
    return t, basis


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
