"""Simplex solver: frozen examples, certificates, and a vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

from privguess import BiboParams, LinearProgram, LpStatus, NumericalError, closed_form_utility, solve_lp
from privguess import lp as lp_module

NO_EQ = (np.zeros((0, 0)), [])


def lp(obj, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    n = len(obj)
    return LinearProgram(
        obj,
        a_eq if a_eq is not None else np.zeros((0, n)),
        b_eq if b_eq is not None else [],
        a_ub if a_ub is not None else np.zeros((0, n)),
        b_ub if b_ub is not None else [],
    )


class TestExamples:
    def test_single_bound(self):
        sol = solve_lp(lp([1.0], a_ub=[[1.0]], b_ub=[1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sol.point, [1.0], atol=1e-12)

    def test_equality_constrained(self):
        sol = solve_lp(lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_binary_filter_reduction_matches_closed_form(self):
        # one-variable reduction of the 2x2 filter problem: the crossover g of a
        # flip-to-zero filter on the (p=0.6, 0.2-symmetric) joint obeys
        # utility = 1 - 0.56 g and privacy = 0.8 - 0.4 g <= eps, g in [0, 1]
        params = BiboParams(0.6, 0.2, 0.2)
        for eps in (0.62, 0.7, 0.78):
            sol = solve_lp(lp([-0.56], a_ub=[[-0.4], [1.0]], b_ub=[eps - 0.8, 1.0]))
            assert sol.status is LpStatus.OPTIMAL
            want, _ = closed_form_utility(params, eps)
            assert 1.0 + sol.value == pytest.approx(want, abs=1e-8)

    def test_infeasible(self):
        sol = solve_lp(lp([1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.point is None

    def test_unbounded(self):
        sol = solve_lp(lp([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0]))
        assert sol.status is LpStatus.UNBOUNDED

    def test_degenerate_rhs(self):
        sol = solve_lp(lp([1.0, 1.0], a_ub=[[1.0, 0.0], [1.0, 1.0]], b_ub=[0.0, 1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_redundant_equalities(self):
        sol = solve_lp(lp([1.0, 2.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == pytest.approx(2.0, abs=1e-12)

    def test_no_constraints(self):
        # only x >= 0: unbounded if some profit is positive, else optimal at 0
        assert solve_lp(lp([1.0, -1.0])).status is LpStatus.UNBOUNDED
        sol = solve_lp(lp([-1.0, -1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.point, [0.0, 0.0])

    def test_budget_exhaustion_is_an_error(self, monkeypatch):
        kernel = lp_module.run_simplex

        def one_pivot(tableau, basis, n_enter, pivot_tol, max_iter):
            return kernel(tableau, basis, n_enter, pivot_tol, 1)

        monkeypatch.setattr(lp_module, "run_simplex", one_pivot)
        prog = lp([1.0, 1.0], a_ub=[[1.0, 2.0], [2.0, 1.0]], b_ub=[4.0, 4.0])
        with pytest.raises(NumericalError, match="phase-2 pivot budget"):
            solve_lp(prog)


def enumerate_vertices(prog: LinearProgram):
    """All basic feasible points of the standard form, by brute force."""
    n = prog.n_vars
    mi = prog.a_ub.shape[0]
    a = np.vstack([
        np.hstack([prog.a_eq, np.zeros((prog.a_eq.shape[0], mi))]),
        np.hstack([prog.a_ub, np.eye(mi)]),
    ])
    b = np.concatenate([prog.b_eq, prog.b_ub])
    m, cols = a.shape
    points = []
    for subset in itertools.combinations(range(cols), m):
        sub = a[:, subset]
        if np.linalg.matrix_rank(sub) < m:
            continue
        x_b = np.linalg.lstsq(sub, b, rcond=None)[0]
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(cols)
        x[list(subset)] = x_b
        if np.abs(a @ x - b).max() > 1e-9:
            continue
        points.append(x[:n])
    return points


def random_program(rng: np.random.Generator) -> LinearProgram:
    """Small bounded program with grid-rational coefficients."""
    grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    n = int(rng.integers(2, 7))
    obj = rng.choice(grid, n)
    rows_ub = [rng.choice(grid, n) for _ in range(rng.integers(1, 4))]
    b_ub = [float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])) for _ in rows_ub]
    # box constraints keep every instance bounded
    bound = float(rng.choice([1.0, 2.0, 3.0]))
    rows_ub += [row for row in np.eye(n)]
    b_ub += [bound] * n
    if rng.random() < 0.4:
        a_eq = [rng.choice([0.0, 0.5, 1.0], n)]
        b_eq = [float(rng.choice([0.5, 1.0, 2.0]))]
    else:
        a_eq, b_eq = np.zeros((0, n)), []
    return LinearProgram(obj, a_eq, b_eq, np.array(rows_ub), b_ub)


class TestAgainstVertexEnumeration:
    def test_random_programs(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(60):
            prog = random_program(rng)
            sol = solve_lp(prog)
            vertices = enumerate_vertices(prog)
            if sol.status is LpStatus.INFEASIBLE:
                assert not vertices
                continue
            assert sol.status is LpStatus.OPTIMAL  # box constraints forbid unboundedness
            assert vertices, "solver found a point but enumeration found none"
            best = max(float(prog.objective @ v) for v in vertices)
            assert sol.value == pytest.approx(best, abs=1e-8)
            checked += 1
        assert checked >= 30


class TestCertificates:
    def test_optimal_points_are_feasible(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            prog = random_program(rng)
            sol = solve_lp(prog)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            x = sol.point
            assert np.all(x >= -1e-8)
            if prog.a_eq.shape[0]:
                assert np.abs(prog.a_eq @ x - prog.b_eq).max() <= 1e-8
            assert (prog.a_ub @ x - prog.b_ub).max() <= 1e-8
            assert abs(float(prog.objective @ x) - sol.value) <= 1e-8

    def test_no_improving_direction(self):
        # optimality cross-check: no vertex beats the reported value
        rng = np.random.default_rng(123)
        for _ in range(20):
            prog = random_program(rng)
            sol = solve_lp(prog)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            for v in enumerate_vertices(prog):
                assert float(prog.objective @ v) <= sol.value + 1e-8
