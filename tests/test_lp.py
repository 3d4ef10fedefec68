"""Simplex solver: frozen examples, certificates, dual prices, and a vertex-enumeration oracle."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from privguess import (
    BiboParams,
    DimensionMismatchError,
    LinearProgram,
    LpStatus,
    NumericalError,
    VectorModel,
    closed_form_utility,
    solve_lp,
)
from privguess import lp as lp_module
from privguess import prob
from privguess.solver import _guess_lp, identity_top

from conftest import FIG3_MATRIX, pivoted_start

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


class TestConstructorChecks:
    # the public constructor checks what a caller passes; an LP the package
    # derives from a checked joint is adopted with no second check
    ARRAYS = {"objective": [1.0, 2.0], "a_eq": [[1.0, 1.0]], "b_eq": [1.0], "a_ub": [[1.0, 0.0]], "b_ub": [0.5]}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", list(ARRAYS))
    def test_non_finite_coefficient_raises(self, field, bad):
        arrays = {k: np.array(v) for k, v in self.ARRAYS.items()}
        arrays[field].flat[-1] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite coefficient in linear program"):
            LinearProgram(**arrays)

    @pytest.mark.parametrize("b_eq, b_ub", [([1.0, 1.0], [0.5]), ([], [0.5]), ([1.0], [0.5, 1.0]), ([1.0], [])])
    def test_rhs_and_row_counts_must_agree(self, b_eq, b_ub):
        with pytest.raises(DimensionMismatchError, match="row counts differ"):
            LinearProgram([1.0, 2.0], [[1.0, 1.0]], b_eq, [[1.0, 0.0]], b_ub)

    def test_adopted_fields_are_kept(self):
        arrays = [np.array(v, dtype=np.float64) for v in self.ARRAYS.values()]
        prog = prob._adopt(LinearProgram, *arrays)
        assert all(getattr(prog, f.name) is a for f, a in zip(dataclasses.fields(LinearProgram), arrays))

    def test_derived_program_is_what_the_constructor_makes(self):
        # the frontier LP, held unchecked, has the fields the checks would give it
        p = VectorModel(2, p=0.6, alpha=0.2).block_joint().matrix
        prog = _guess_lp(p, [(0, 1, 2, 3), (0, 0, 1, 3)], 0.6, 4)
        checked = LinearProgram(*(getattr(prog, f.name) for f in dataclasses.fields(LinearProgram)))
        for f in dataclasses.fields(LinearProgram):
            got, want = getattr(prog, f.name), getattr(checked, f.name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


def family(prog: LinearProgram, objectives) -> LinearProgram:
    """``prog``'s constraints with a family of objective rows."""
    return dataclasses.replace(prog, objective=np.array(objectives, dtype=np.float64))


class TestObjectiveFamily:
    def test_winner_is_its_own_solve(self):
        # the family returns the first best row's own solve, bit for bit, and
        # counts phase 1 once
        rng = np.random.default_rng(707)
        for _ in range(40):
            prog = random_program(rng)
            n = prog.n_vars
            rows = [prog.objective, rng.choice([-1.0, 0.0, 1.0], n), rng.uniform(-1.0, 1.0, n)]
            solos = [solve_lp(family(prog, row)) for row in rows]
            sol = solve_lp(family(prog, rows))
            if solos[0].status is LpStatus.INFEASIBLE:
                assert sol.status is LpStatus.INFEASIBLE and sol.winner == 0
                continue
            values = [s.value for s in solos]
            k = values.index(max(values))
            assert sol.winner == k
            assert sol.value == solos[k].value
            np.testing.assert_array_equal(sol.point, solos[k].point)
            np.testing.assert_array_equal(sol.duals, solos[k].duals)
            phase1 = solve_lp(family(prog, np.zeros(n))).iterations  # phase 2 has nothing to do
            assert sol.iterations == phase1 + sum(s.iterations - phase1 for s in solos)

    def test_tie_goes_to_first_row(self):
        prog = lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve_lp(family(prog, [[0.5, 0.0], [1.0, 1.0], [1.0, 1.0]]))
        assert sol.winner == 1
        assert sol.value == 1.0

    def test_unbounded_row_ends_the_solve(self):
        prog = lp([0.0, 1.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        sol = solve_lp(family(prog, [[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]]))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.winner == 1
        assert sol.point is None and sol.duals is None

    def test_infeasible_names_the_first_row(self):
        sol = solve_lp(family(lp([1.0], a_ub=[[1.0]], b_ub=[-1.0]), [[1.0], [2.0]]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.winner == 0

    def test_single_row_is_a_family_of_one(self):
        prog = lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        a, b = solve_lp(prog), solve_lp(family(prog, [prog.objective]))
        assert (a.value, a.iterations, a.winner) == (b.value, b.iterations, b.winner)
        np.testing.assert_array_equal(a.point, b.point)

    @pytest.mark.parametrize("objective", [np.zeros((0, 2)), np.zeros((1, 1, 2))])
    def test_rejects_empty_or_deeper_families(self, objective):
        with pytest.raises(DimensionMismatchError):
            LinearProgram(objective, np.zeros((0, 2)), [], np.zeros((0, 2)), [])


def nondegenerate_program(rng: np.random.Generator) -> LinearProgram:
    """Feasible, bounded program with continuous coefficients, so its duals are unique.

    The first row is a lower bound on a positive combination of x, written
    with a negative right-hand side; the others are generic rows through a
    known interior point, then a box.
    """
    n = int(rng.integers(2, 7))
    x0 = rng.uniform(0.1, 1.0, n)
    a = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), n))
    a = np.vstack([-rng.uniform(0.2, 1.0, n), a])
    b = a @ x0 + rng.uniform(0.05, 0.5, a.shape[0])
    b[0] = 0.5 * float(a[0] @ x0)
    if rng.random() < 0.5:
        a_eq = rng.uniform(0.0, 1.0, (1, n))
        b_eq = a_eq @ x0
    else:
        a_eq, b_eq = np.zeros((0, n)), []
    a_ub = np.vstack([a, np.eye(n)])
    b_ub = np.concatenate([b, np.full(n, 2.0)])
    return LinearProgram(rng.uniform(-1.0, 1.0, n), a_eq, b_eq, a_ub, b_ub)


def highs_duals(prog: LinearProgram) -> np.ndarray:
    """HiGHS prices of the inequality rows, as rates of the maximum."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    eq = {"A_eq": prog.a_eq, "b_eq": prog.b_eq} if prog.a_eq.shape[0] else {}
    res = linprog(-prog.objective, A_ub=prog.a_ub, b_ub=prog.b_ub, bounds=(0, None),
                  method="highs", **eq)
    assert res.status == 0
    # HiGHS minimizes -objective: its marginals are the rates of that minimum
    return -res.ineqlin.marginals


class TestDuals:
    def test_single_bound(self):
        np.testing.assert_allclose(solve_lp(lp([1.0], a_ub=[[1.0]], b_ub=[1.0])).duals, [1.0],
                                   atol=1e-12)

    def test_negated_row_closed_form(self):
        # the binary filter reduction: value 1.4 * (eps - 0.8), so the price of
        # the privacy row, whose rhs eps - 0.8 is negative, is 1.4; the box
        # g <= 1 is slack and free
        for eps in (0.62, 0.7, 0.78):
            sol = solve_lp(lp([-0.56], a_ub=[[-0.4], [1.0]], b_ub=[eps - 0.8, 1.0]))
            np.testing.assert_allclose(sol.duals, [1.4, 0.0], atol=1e-12)

    def test_only_optimal_solutions_carry_duals(self):
        assert solve_lp(lp([1.0], a_ub=[[1.0]], b_ub=[-1.0])).duals is None
        assert solve_lp(lp([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])).duals is None

    def test_random_programs_match_highs(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            prog = nondegenerate_program(rng)
            assert prog.b_ub[0] < 0.0
            sol = solve_lp(prog)
            assert sol.status is LpStatus.OPTIMAL
            assert sol.duals.shape == prog.b_ub.shape
            np.testing.assert_allclose(sol.duals, highs_duals(prog), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("eps", [0.65, 0.7, 0.76, 0.79])
    def test_block_cap_row_matches_highs(self, eps):
        # the privacy-cap row of the n = 2 block LP, away from its kinks
        p = VectorModel(2, p=0.6, alpha=0.2).block_joint().matrix
        prog = _guess_lp(p, [(0, 1, 2, 3)], eps ** 2, 4)
        sol = solve_lp(prog)
        assert sol.duals[-1] == pytest.approx(highs_duals(prog)[-1], abs=1e-9)


def walk(prog: LinearProgram, row: int) -> list[tuple]:
    """Solve ``prog``, walk ``b_ub[row]`` down through every kink; (rhs, value, slope, price below) of each stop."""
    sol = solve_lp(prog)
    tableau = sol.tableau.tobytes()
    starts = list(lp_module.piece_starts(prog, sol, row))
    assert sol.tableau.tobytes() == tableau  # the walk pivots on its own copy
    return [(s.rhs, s.value, s.slope, s.price_below) for s in starts]


def capped(b: float) -> LinearProgram:
    """max x1 + x2 / 2 s.t. x1 <= 1, x2 <= 1, x1 + x2 <= b: V(b) = b to b = 1, then (1 + b) / 2 to b = 2."""
    return lp([1.0, 0.5], a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_ub=[1.0, 1.0, b])


class TestPieceStart:
    @pytest.mark.parametrize("b", [1.25, 1.5, 1.9])
    def test_kink_of_known_piece(self, b):
        assert walk(capped(b), 2) == [(1.0, 1.0, 0.5, 1.0), (0.0, 0.0, 1.0, math.inf)]
        start = next(lp_module.piece_starts(capped(b), solve_lp(capped(b)), 2))
        np.testing.assert_array_equal(start.point, [1.0, 0.0])

    def test_flat_piece_ends_at_the_last_kink(self):
        # beyond b = 2 the cap is slack and its price 0; the walk passes
        # both kinks and ends at b = 0, below which nothing is feasible
        assert walk(capped(2.5), 2) == [(2.0, 1.5, 0.0, 0.5), (1.0, 1.0, 0.5, 1.0),
                                        (0.0, 0.0, 1.0, math.inf)]

    def test_degenerate_zero_length_step(self):
        # at the kink itself the solve ends on the right piece's basis, with
        # x2 basic at 0: the ratio test gives a step of length 0, and the
        # pivot after it already reads the left piece's price. The kink is
        # found once.
        prog = capped(1.0)
        assert solve_lp(prog).duals[2] == 0.5
        assert walk(prog, 2) == [(1.0, 1.0, 0.5, 1.0), (0.0, 0.0, 1.0, math.inf)]

    def test_end_of_the_feasible_range(self):
        # the first piece runs to b = 0, below which nothing is feasible
        assert walk(capped(0.5), 2) == [(0.0, 0.0, 1.0, math.inf)]

    def test_basis_change_without_a_kink(self):
        # max x1 s.t. x1 <= b, y <= 1/2, x1 = y + z: at b = 1/2 z leaves the
        # basis and y starts to fall, but the value stays b down to 0
        prog = lp([1.0, 0.0, 0.0], a_eq=[[1.0, -1.0, -1.0]], b_eq=[0.0],
                  a_ub=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], b_ub=[1.0, 0.5])
        assert walk(prog, 0) == [(0.0, 0.0, 1.0, math.inf)]

    def test_negated_row(self):
        # the binary filter reduction: -0.4 g <= eps - 0.8, g <= 1, value
        # 1.4 (eps - 0.8); the negative rhs falls until g reaches 1
        [(rhs, value, slope, below)] = walk(lp([-0.56], a_ub=[[-0.4], [1.0]], b_ub=[-0.1, 1.0]), 0)
        assert rhs == pytest.approx(-0.4, abs=1e-15)
        assert value == pytest.approx(-0.56, abs=1e-15)
        assert slope == pytest.approx(1.4, abs=1e-15)
        assert below == math.inf

    def test_matches_vertex_enumeration(self):
        # optima enumerated at each stop and a step either side of it: the
        # piece's slope above, a slope no less than the price below under a
        # kink, and nothing feasible under the last stop
        def optimum(prog, row, rhs):
            b = prog.b_ub.copy()
            b[row] = rhs
            vertices = enumerate_vertices(dataclasses.replace(prog, b_ub=b))
            return max((float(prog.objective @ v) for v in vertices), default=-math.inf)

        rng = np.random.default_rng(2718)
        kinks = ends = 0
        for _ in range(40):
            prog = random_program(rng)
            sol = solve_lp(prog)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            row = int(rng.integers(prog.a_ub.shape[0]))
            starts = list(lp_module.piece_starts(prog, sol, row))
            assert starts[0].slope == sol.duals[row]
            tops = [prog.b_ub[row]] + [s.rhs for s in starts]
            h = 1e-4
            for start, top in zip(starts, tops):
                v = optimum(prog, row, start.rhs)
                assert start.value == pytest.approx(v, abs=1e-9)
                if top - start.rhs > h:
                    slope = (optimum(prog, row, start.rhs + h) - v) / h
                    assert slope == pytest.approx(start.slope, abs=1e-6)
                below = optimum(prog, row, start.rhs - h)
                if start is starts[-1]:
                    assert below == -math.inf
                    assert start.price_below == math.inf
                    ends += 1
                else:
                    assert (v - below) / h >= start.price_below - 1e-6
                    assert start.price_below > start.slope + lp_module.FEAS_TOL
                    kinks += 1
            for a, b in zip(starts, starts[1:]):
                assert b.slope == a.price_below
                assert a.rhs - b.rhs > lp_module.FEAS_TOL
        assert kinks >= 10 and ends >= 20

    @pytest.mark.parametrize("case", ["capped", "frontier"])
    def test_walk_builds_no_program(self, monkeypatch, case):
        # each stop is certified against the walk's own rhs array, not a
        # LinearProgram rebuilt around it
        if case == "capped":
            prog, row = capped(2.5), 2
        else:
            from test_solver import MULTI_PIECE
            p = MULTI_PIECE / MULTI_PIECE.sum()
            prog = _guess_lp(p, [(0, 1, 2)], float(p.max(axis=0).sum()), 3)
            row = prog.a_ub.shape[0] - 1
        sol = solve_lp(prog)
        built = []
        post_init = LinearProgram.__post_init__
        monkeypatch.setattr(LinearProgram, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        starts = list(lp_module.piece_starts(prog, sol, row))
        assert len(starts) >= 3 and built == []

    def test_stop_certificate_uses_the_given_rhs(self):
        # the optimum (1, 1/2) of capped(1.5) violates x1 + x2 <= 1 by 1/2
        prog = capped(1.5)
        sol = solve_lp(prog)
        value, point = lp_module._vertex(prog, prog.b_ub, prog.objective, sol.tableau, sol.basis)
        assert value == 1.25
        np.testing.assert_array_equal(point, [1.0, 0.5])
        with pytest.raises(NumericalError, match="inequality violation 0.5"):
            lp_module._vertex(prog, np.array([1.0, 1.0, 1.0]), prog.objective, sol.tableau, sol.basis)

    def test_unlimited_walk_raises(self):
        # max -x - y s.t. x + y >= 1: the rhs -1 of -x - y <= -1 can fall forever
        prog = lp([-1.0, -1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        with pytest.raises(NumericalError, match="no basic variable limits"):
            list(lp_module.piece_starts(prog, solve_lp(prog), 0))


class TestStartBasis:
    # capped(1.5) has columns x1, x2, then the slacks of x1 <= 1, x2 <= 1 and
    # x1 + x2 <= 1.5; its optimum (1, 1/2) has x1, the slack of x2 <= 1 and x2 basic
    def test_optimal_start_runs_no_pivot(self):
        prog = capped(1.5)
        sol = solve_lp(prog, pivoted_start(prog, [0, 3, 1]))
        assert sol.status is LpStatus.OPTIMAL and sol.iterations == 0
        np.testing.assert_array_equal(sol.point, [1.0, 0.5])
        assert sol.value == 1.25
        np.testing.assert_array_equal(sol.duals, solve_lp(prog).duals)

    def test_feasible_start_runs_phase_2(self):
        # the slack basis is where phase 2 starts when there is no phase 1
        prog = capped(1.5)
        want = solve_lp(prog)
        sol = solve_lp(prog, pivoted_start(prog, [2, 3, 4]))
        assert sol.iterations == want.iterations > 0
        np.testing.assert_array_equal(sol.tableau, want.tableau)

    def test_equality_rows_start_from_the_basis(self):
        # max x1 s.t. x1 + x2 = 1, x1 <= 1/2: x2 basic in the equality row is feasible
        prog = lp([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, 0.0]], b_ub=[0.5])
        sol = solve_lp(prog, pivoted_start(prog, [1, 2]))
        np.testing.assert_array_equal(sol.point, [0.5, 0.5])
        assert sol.iterations == 1

    def test_start_that_is_not_primal_feasible_raises(self):
        # at b = 0.5, x1 = 1 leaves x1 + x2 <= 0.5 a slack of -0.5
        prog = capped(0.5)
        with pytest.raises(NumericalError, match="not primal feasible: a basic variable is -0.5"):
            solve_lp(prog, pivoted_start(prog, [0, 3, 4]))

    @pytest.mark.parametrize("basis", [[0, 3], [0, 3, 5], [-1, 3, 4]])
    def test_start_needs_one_column_per_row(self, basis):
        prog = capped(1.5)
        with pytest.raises(DimensionMismatchError, match="a start needs a"):
            solve_lp(prog, (pivoted_start(prog, [2, 3, 4])[0], np.array(basis)))

    @pytest.mark.parametrize("artificials, rows", [(1, 4), (0, 3)], ids=["extra-column", "no-profit-row"])
    def test_start_needs_the_standard_form_tableau(self, artificials, rows):
        prog = capped(1.5)
        with pytest.raises(DimensionMismatchError, match=r"a start needs a \(4, 6\) tableau"):
            solve_lp(prog, (lp_module._tableau(prog, artificials)[:rows], np.array([2, 3, 4])))


class TestNanFailsEveryCertificate:
    """A NaN fails each certificate with :class:`NumericalError`, as no comparison with it is true."""

    def start(self, entry):
        """FIG3's identity vertex: (program, start with NaN at ``entry``, walked solution with it there)."""
        top = identity_top(FIG3_MATRIX)
        t = top.solution.tableau.copy()
        t[entry] = np.nan
        return top.program, (t, top.solution.basis.copy()), dataclasses.replace(top.solution, tableau=t)

    def test_start_with_a_nan_basic_variable(self):
        prog, start, _ = self.start((0, -1))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not primal feasible"):
            solve_lp(prog, start)

    def test_nan_reduced_cost(self):
        # F[0, 1] is not basic, and row 0's basic F[0, 0] has a profit: the price-out carries the NaN over
        prog, start, _ = self.start((0, 1))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="reduced cost nan"):
            solve_lp(prog, start)

    def test_walk_with_a_nan_right_hand_side(self):
        # the cap row's own slack is basic at 0; its NaN enters the first ratio test
        prog, _, sol = self.start((-2, -1))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="ratio test of row 4 found a step of nan"):
            list(lp_module.piece_starts(prog, sol, prog.a_ub.shape[0] - 1))

    def test_walk_with_a_nan_price(self):
        # the cap row's price is the profit row's entry in the cap slack's
        # column; a NaN there used to fail every kink test and come out of
        # the walk as the slope of its one stop
        prog = identity_top(FIG3_MATRIX).program
        cap = prog.a_ub.shape[0] - 1
        _, _, sol = self.start((-1, prog.n_vars + cap))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="price of row 4 is nan"):
            list(lp_module.piece_starts(prog, sol, cap))

    @pytest.mark.parametrize("where, message", [
        ("point", "negative component nan"),
        ("b_eq", "equality residual nan"),
        ("b_ub", "inequality violation nan"),
    ])
    def test_vertex(self, where, message):
        prog = capped(1.5)
        sol = solve_lp(prog)
        t, b_ub = sol.tableau.copy(), prog.b_ub.copy()
        if where == "point":
            t[0, -1] = np.nan
        elif where == "b_eq":
            prog = lp([1.0, 0.5], a_eq=[[1.0, 1.0]], b_eq=[1.5], a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 1.0])
            sol = solve_lp(prog)
            t, b_ub = sol.tableau, prog.b_ub
            # the constructor rejects a NaN, so the program is adopted unchecked
            prog = prob._adopt(LinearProgram, prog.objective, prog.a_eq, np.array([np.nan]), prog.a_ub, prog.b_ub)
        else:
            b_ub[-1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=message):
            lp_module._vertex(prog, b_ub, prog.objective, t, sol.basis)
