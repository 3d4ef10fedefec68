"""LP frontier solver: frozen values, oracle agreement, structural invariants."""

import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import fig3_joint, random_bibo, random_joint
from test_bibo import binary_filter_grid_max

from privguess import (
    Axis,
    CapacityError,
    InfeasibleThresholdError,
    JointDistribution,
    NumericalError,
    ParameterError,
    best_filter,
    closed_form_utility,
    compose,
    cond_guess_prob,
    finite_order_gain_bounds,
    guess_prob,
    guessing_gain,
    renyi_entropy,
    to_joint,
    trace_curve,
)
from privguess import lp as lp_module
from privguess import solver
from privguess.lp import LinearProgram, LpStatus


class TestBestFilter:
    def test_fig3_midpoint(self):
        assert best_filter(fig3_joint(), 0.7).utility == pytest.approx(0.86, abs=1e-7)

    def test_full_budget_is_one(self):
        sol = best_filter(fig3_joint(), 0.8)
        assert sol.utility == pytest.approx(1.0, abs=1e-12)
        assert not sol.saturated

    def test_perfect_privacy_value(self):
        assert best_filter(fig3_joint(), 0.6).utility == pytest.approx(0.72, abs=1e-7)

    def test_perfect_privacy_against_grid_search(self):
        from privguess import BiboParams
        params = BiboParams(0.6, 0.2, 0.2)
        grid_best, _ = binary_filter_grid_max(params, 0.6, points=81)
        assert best_filter(fig3_joint(), 0.6).utility >= grid_best - 1e-9

    def test_constant_filter_floor(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            j = random_joint(rng, 3, 3)
            sol = best_filter(j, guess_prob(j, Axis.ROWS))
            assert sol.utility >= guess_prob(j, Axis.COLS) - 1e-9

    def test_threshold_below_floor_is_infeasible(self):
        with pytest.raises(InfeasibleThresholdError):
            best_filter(fig3_joint(), 0.55)

    def test_nan_threshold_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="eps"):
            best_filter(fig3_joint(), float("nan"))

    def test_alphabet_cap(self):
        j = JointDistribution(np.full((2, 7), 1.0 / 14))
        with pytest.raises(CapacityError):
            best_filter(j, 0.9)

    def test_saturation_flag(self):
        sol = best_filter(fig3_joint(), 0.9)
        assert sol.saturated
        assert sol.utility == pytest.approx(1.0, abs=1e-12)
        assert sol.privacy == pytest.approx(0.8, abs=1e-12)

    def test_solution_certificate(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            j = random_joint(rng, rng.integers(2, 4), rng.integers(2, 4))
            lo, hi = guess_prob(j, Axis.ROWS), cond_guess_prob(j, Axis.ROWS)
            eps = float(rng.uniform(lo, hi))
            sol = best_filter(j, eps)
            rows = sol.filter.matrix.sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-9
            assert sol.privacy <= eps + 1e-8
            recomputed = cond_guess_prob(compose(j, sol.filter, Axis.COLS), Axis.ROWS)
            assert recomputed == pytest.approx(sol.privacy, abs=1e-12)

    def test_rows_within_lp_tolerance_are_accepted(self, monkeypatch):
        # an LP point certified to lp.FEAS_TOL may miss the channel's tighter
        # mass tolerance; the filter is still valid and must be returned
        real = solver.solve_lp
        calls = []

        def skewed(prog):
            sol = real(prog)
            calls.append(prog)
            point = sol.point.copy()
            point[:3] *= 1.0 + 5e-9  # first row of the 2x3 filter
            return dataclasses.replace(sol, point=point)

        monkeypatch.setattr(solver, "solve_lp", skewed)
        sol = best_filter(fig3_joint(), 0.7)
        assert calls
        assert sol.utility == pytest.approx(0.86, abs=1e-7)
        assert np.abs(sol.filter.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.xfail(strict=True, raises=NumericalError,
                       reason="the pivot kernel ends on a numerically singular basis")
    def test_skewed_reproducer(self):
        # a skewed 3x4 joint whose per-map LP fails its own certificate;
        # the expected value is the HiGHS optimum of the frontier LP
        joint = JointDistribution(np.array([
            [0.10254077521972826, 0.05444091096140368, 1.3507750791114549e-06, 0.27548437839541984],
            [0.00011648308778760545, 0.0008384290203021182, 0.12978168071627388, 0.20882279985212668],
            [0.18969633067644073, 0.03609595025162467, 0.002163760229318767, 1.7150814494695373e-05],
        ]))
        sol = best_filter(joint, 0.5409353580505845)
        assert sol.utility == pytest.approx(0.88972137, abs=1e-7)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            j = random_joint(rng, 2, 3)
            lo, hi = guess_prob(j, Axis.ROWS), cond_guess_prob(j, Axis.ROWS)
            vals = [best_filter(j, float(e)).utility for e in np.linspace(lo, hi, 7)]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_concave_on_grid(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            j = random_joint(rng, 3, 2)
            lo, hi = guess_prob(j, Axis.ROWS), cond_guess_prob(j, Axis.ROWS)
            grid = np.linspace(lo, hi, 9)
            vals = np.array([best_filter(j, float(e)).utility for e in grid])
            mids = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] >= mids - 1e-8)

    def test_one_iff_full_budget(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            j = random_joint(rng, 2, 2)
            hi = cond_guess_prob(j, Axis.ROWS)
            assert best_filter(j, hi).utility == pytest.approx(1.0, abs=1e-8)
            lo = guess_prob(j, Axis.ROWS)
            if hi - lo > 1e-3:
                eps = hi - 1e-3 * (hi - lo)
                assert best_filter(j, float(eps)).utility < 1.0 - 1e-8

    def test_oracle_agreement_random_binary(self):
        # closed form vs LP on random binary instances (full sweep in acceptance)
        rng = np.random.default_rng(71)
        for _ in range(20):
            params = random_bibo(rng)
            joint = to_joint(params)
            for eps in np.linspace(params.p, params.pc_x_given_y, 5):
                want, _ = closed_form_utility(params, float(eps))
                got = best_filter(joint, float(eps)).utility
                assert got == pytest.approx(want, abs=1e-7)


def per_map_lp(p: np.ndarray, gmap: tuple[int, ...], cap: float, n_outputs: int) -> LinearProgram:
    """The frontier LP of one guessing map, built entry by entry."""
    m, n = p.shape
    q = p.sum(axis=0)
    c = n_outputs
    nf = n * c
    nv = nf + c
    obj = np.zeros(nv)
    for z, y in enumerate(gmap):
        obj[y * c + z] = q[y]
    a_eq = np.zeros((n, nv))
    for y in range(n):
        a_eq[y, y * c:(y + 1) * c] = 1.0
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
    return LinearProgram(obj, a_eq, np.ones(n), a_ub, b_ub)


def per_map_guess_max(p: np.ndarray, cap: float, n_outputs: int, maps):
    """Oracle for lp_guess_max: one LP, with its own phase 1, per guessing map."""
    best_val, best, best_map, best_prog = -1.0, None, None, None
    for gmap in maps:
        prog = per_map_lp(p, gmap, cap, n_outputs)
        sol = lp_module.solve_lp(prog)
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalError(f"filter subproblem ended {sol.status.value} for map {gmap}")
        if sol.value > best_val:
            best_val, best, best_map, best_prog = sol.value, sol, gmap, prog
    best_f = best.point[: p.shape[1] * n_outputs].reshape(p.shape[1], n_outputs)
    return solver.GuessMax(best_val, best_f, best_map, float(best.duals[-1]), best_prog, best)


def _outcome(fn, *args):
    """A guess-max result as exact bytes, or the exception it raised."""
    try:
        res = fn(*args)
    except NumericalError as exc:
        return type(exc), str(exc)
    return res.value.hex(), res.filter.tobytes(), res.map, res.price.hex()


class TestFamilySolve:
    """lp_guess_max solves every map in one LP; the per-map loop is its oracle."""

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (5, 4), (5, 5)])
    def test_matches_per_map_loop_exactly(self, shape, skewed):
        rng = np.random.default_rng([89, *shape, skewed])
        n = shape[1]
        for _ in range(2 if n == 5 else 4):
            w = rng.random(shape) ** (3 if skewed else 1)
            p = w / w.sum()
            lo, hi = float(p.sum(axis=1).max()), float(p.max(axis=0).sum())
            cap = lo + float(rng.uniform(0.1, 0.9)) * (hi - lo)
            maps = list(solver.nondecreasing_maps(n + 1, n))
            want = _outcome(per_map_guess_max, p, cap, n + 1, maps)
            assert _outcome(solver.lp_guess_max, p, cap, n + 1, iter(maps)) == want

    @pytest.mark.parametrize("p, eps", [
        # ROADMAP reproducer: a later map's point fails its certificate
        ([[0.10254077521972826, 0.05444091096140368, 1.3507750791114549e-06, 0.27548437839541984],
          [0.00011648308778760545, 0.0008384290203021182, 0.12978168071627388, 0.20882279985212668],
          [0.18969633067644073, 0.03609595025162467, 0.002163760229318767, 1.7150814494695373e-05]],
         0.5409353580505845),
        # screened-out frontier candidate s4x4 105: phase 1 ends infeasible
        ([[0.004117943896902955, 8.831915255223304e-11, 0.000924923915744195, 0.002880209750395186],
          [0.20918896573555668, 0.21333881640736943, 0.06268350228583622, 0.0008998456337292294],
          [0.16656720016713353, 0.0014423663934665077, 0.12490456852514589, 0.0551993304553761],
          [0.12815259371783932, 0.029684832911505202, 1.4899678301283203e-05, 4.3737918085783227e-10]],
         0.5102563355798561),
    ])
    def test_failures_match_per_map_loop(self, p, eps):
        p = np.array(p)
        maps = list(solver.nondecreasing_maps(5, 4))
        want = _outcome(per_map_guess_max, p, eps, 5, maps)
        assert want[0] is NumericalError
        assert _outcome(solver.lp_guess_max, p, eps, 5, maps) == want
        with pytest.raises(NumericalError, match=re.escape(want[1])):
            best_filter(JointDistribution(p), eps)

    def test_constraints_match_per_map_lp(self):
        # byte for byte, signed zeros included: the simplex sees the same tableau
        rng = np.random.default_rng(97)
        for shape in ((2, 2), (3, 5), (5, 4)):
            p = random_joint(rng, *shape).matrix
            n_outputs = shape[1] + 1
            maps = list(solver.nondecreasing_maps(n_outputs, shape[1]))
            family = solver._guess_lp(p, maps, 0.5, n_outputs)
            for row, gmap in zip(family.objective, maps):
                single = per_map_lp(p, gmap, 0.5, n_outputs)
                assert row.tobytes() == single.objective.tobytes()
                for name in ("a_eq", "b_eq", "a_ub", "b_ub"):
                    assert getattr(family, name).tobytes() == getattr(single, name).tobytes()

    def test_one_phase_one_per_point(self, monkeypatch):
        # a 3x3 point: one phase 1, then one phase 2 for each of the 15 maps
        calls = []
        real = lp_module.run_simplex

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lp_module, "run_simplex", counting)
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        lo, hi = guess_prob(joint, Axis.ROWS), cond_guess_prob(joint, Axis.ROWS)
        best_filter(joint, 0.5 * (lo + hi))
        assert len(calls) == 1 + 15


class TestEnumerationCompleteness:
    def test_binary_grid_never_beats_lp(self):
        # 41 eps values x 41 x 41 binary filters
        from privguess import BiboParams
        rng = np.random.default_rng(73)
        instances = [BiboParams(0.6, 0.2, 0.2)] + [random_bibo(rng) for _ in range(3)]
        for params in instances:
            joint = to_joint(params)
            for eps in np.linspace(params.p, params.pc_x_given_y, 41):
                grid_best, _ = binary_filter_grid_max(params, float(eps))
                lp_best = best_filter(joint, float(eps)).utility
                assert grid_best <= lp_best + 1e-6


class TestGuessingGain:
    def test_perfect_privacy_gain(self):
        assert guessing_gain(fig3_joint(), 0.0) == pytest.approx(0.3626, abs=1e-4)

    def test_saturates(self):
        j = fig3_joint()
        budget = math.log2(0.8 / 0.6)
        want = math.log2(1.0 / 0.56)
        assert guessing_gain(j, budget) == pytest.approx(want, abs=1e-9)
        assert guessing_gain(j, budget + 1.0) == pytest.approx(want, abs=1e-9)

    def test_identity_pair_has_zero_gain(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert guessing_gain(j, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            guessing_gain(fig3_joint(), -0.1)


class TestFiniteOrderBounds:
    def test_uniform_x_makes_lower_always_applicable(self):
        j = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))  # X uniform
        bounds = finite_order_gain_bounds(j, 2.0, 2.0, 0.0)
        assert bounds.lower is not None

    def test_fig3_upper_value(self):
        j = fig3_joint()
        nu = mu = 2.0
        bounds = finite_order_gain_bounds(j, nu, mu, 0.5)
        psi = 0.25 + 0.5 * (-math.log2(0.6))
        want = (guessing_gain(j, psi)
                + renyi_entropy(j.col_marginal, 2.0)
                - renyi_entropy(j.col_marginal, math.inf))
        assert bounds.upper == pytest.approx(want, abs=1e-12)

    def test_lower_not_applicable_below_entropy_gap(self):
        j = fig3_joint()
        gap = renyi_entropy(j.row_marginal, 2.0) - renyi_entropy(j.row_marginal, math.inf)
        assert gap > 0
        bounds = finite_order_gain_bounds(j, 2.0, 2.0, gap / 2)
        assert bounds.lower is None

    def test_upper_at_least_lower(self):
        rng = np.random.default_rng(79)
        checked = 0
        for _ in range(1000):
            j = random_joint(rng, 2, 2)
            nu = float(rng.uniform(1.1, 8.0))
            mu = float(rng.uniform(1.1, 8.0))
            eps = float(rng.uniform(0.0, 2.0))
            bounds = finite_order_gain_bounds(j, nu, mu, eps)
            if bounds.lower is not None:
                assert bounds.upper >= bounds.lower - 1e-9
                checked += 1
        assert checked >= 200

    def test_rejects_non_finite_orders(self):
        from privguess import InvalidOrderError
        with pytest.raises(InvalidOrderError):
            finite_order_gain_bounds(fig3_joint(), math.inf, 2.0, 0.5)
        with pytest.raises(InvalidOrderError):
            finite_order_gain_bounds(fig3_joint(), 2.0, 1.0, 0.5)


MULTI_PIECE = np.array([
    [0.12810241, 0.13931494, 0.05475106],
    [0.11196181, 0.07872831, 0.12258139],
    [0.20227599, 0.11147013, 0.05081395],
])


class TestTraceCurve:
    def test_fig3_single_piece(self):
        curve = trace_curve(fig3_joint())
        assert curve.k == 1
        assert curve.breakpoints[0] == pytest.approx(0.6, abs=1e-8)
        assert curve.breakpoints[-1] == pytest.approx(0.8, abs=1e-8)
        assert curve.slopes[0] == pytest.approx(1.4, abs=1e-4)

    def test_identity_pair_unit_slope(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        curve = trace_curve(j)
        assert curve.k == 1
        assert curve.slopes[0] == pytest.approx(1.0, abs=1e-6)

    def test_random_structure(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            j = random_joint(rng, 3, 3)
            curve = trace_curve(j)
            assert curve.k >= 1
            assert curve.breakpoints[0] == pytest.approx(guess_prob(j, Axis.ROWS), abs=1e-8)
            assert curve.breakpoints[-1] == pytest.approx(cond_guess_prob(j, Axis.ROWS), abs=1e-8)
            # strictly decreasing slopes, nondecreasing values
            assert all(b < a - 1e-8 for a, b in zip(curve.slopes, curve.slopes[1:]))
            hs = [h for _, h in curve.samples]
            assert all(a <= b + 1e-9 for a, b in zip(hs, hs[1:]))
            eps_sorted = [e for e, _ in curve.samples]
            assert eps_sorted == sorted(eps_sorted)
            assert curve.samples[-1][1] == pytest.approx(1.0, abs=1e-8)

    def test_multi_piece_breakpoints_match_dense_grid(self):
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        curve = trace_curve(joint)
        assert curve.k >= 3
        grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 400)
        hs = np.array([best_filter(joint, float(e)).utility for e in grid])
        chord = np.diff(hs) / np.diff(grid)
        jumps = grid[1:-1][np.abs(np.diff(chord)) > 1e-5]
        step = float(grid[1] - grid[0])
        internal = np.array(curve.breakpoints[1:-1])
        # every dense-grid slope change sits at a detected breakpoint and vice versa
        for j in jumps:
            assert np.abs(internal - j).min() < 2 * step
        for b in internal:
            assert np.abs(jumps - b).min() < 2 * step

    def test_multi_piece_breakpoints_are_highs_crossings(self):
        pytest.importorskip("scipy")
        p = MULTI_PIECE / MULTI_PIECE.sum()
        assert_highs_crossings(p, trace_curve(JointDistribution(p)))

    @pytest.mark.parametrize("trial, shape, k", [
        (71, (4, 4), 3),   # kinks with small slope changes, which sampling
        (105, (6, 4), 5),  # best_filter placed 2.5e-4 and 1.4e-4 off
        (44, (6, 4), 7),   # sampling best_filter raised NumericalError here
    ])
    def test_random_trial_breakpoints_are_highs_crossings(self, trial, shape, k):
        pytest.importorskip("scipy")
        p = seeded_trial(trial)
        assert p.shape == shape
        curve = trace_curve(JointDistribution(p))
        assert curve.k == k
        assert_highs_crossings(p, curve)

    def test_one_lp_and_no_grid(self, monkeypatch):
        real = solver.solve_lp
        calls = []

        def counted(prog):
            calls.append(prog)
            return real(prog)

        def forbidden(joint, eps):
            raise AssertionError("trace_curve called best_filter")

        monkeypatch.setattr(solver, "solve_lp", counted)
        monkeypatch.setattr(solver, "best_filter", forbidden)
        curve = trace_curve(JointDistribution(MULTI_PIECE / MULTI_PIECE.sum()))
        assert curve.k >= 3
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [
        [[0.3, 0.2], [0.3, 0.2]],
        [[0.3 + 5e-11, 0.2 - 5e-11], [0.3 - 5e-11, 0.2 + 5e-11]],  # P_c(X|Y) - P_c(X) = 1e-10
    ], ids=["independent", "near"])
    def test_degenerate_domain_has_both_vertices(self, monkeypatch, p):
        def forbidden(*args):
            raise AssertionError("the degenerate domain needs no LP")

        monkeypatch.setattr(solver, "solve_lp", forbidden)
        monkeypatch.setattr(solver, "best_filter", forbidden)
        joint = JointDistribution(np.array(p))
        curve = trace_curve(joint)
        assert len(curve.samples) == len(curve.breakpoints) == len(curve.filters) == curve.k + 1
        assert curve.breakpoints == (guess_prob(joint, Axis.ROWS), cond_guess_prob(joint, Axis.ROWS))
        assert curve.slopes == (0.0,)
        assert all(h == 1.0 for _, h in curve.samples)
        for f in curve.filters:
            np.testing.assert_array_equal(f.matrix, np.eye(2))

    def test_vertex_filters_attain_the_vertices(self):
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        curve = trace_curve(joint)
        assert len(curve.filters) == len(curve.samples)
        for (eps, h), f in zip(curve.samples, curve.filters):
            assert f.matrix.shape == (3, 3)
            utility, privacy = solver._evaluate(joint, f)
            assert utility == h
            assert privacy <= eps + lp_module.FEAS_TOL

    def test_end_is_p_c_x_exactly(self):
        # the walk ends at 0.6 within roundoff; the breakpoint is P_c(X) itself
        curve = trace_curve(fig3_joint())
        assert curve.breakpoints == (0.6, 0.8)
        assert curve.samples[0][0] == 0.6

    def test_alphabet_cap(self):
        with pytest.raises(CapacityError):
            trace_curve(JointDistribution(np.full((2, 7), 1.0 / 14)))

    def test_skewed_joint_with_shortfall_is_one_piece(self):
        # best_filter reads 3.5-3.9e-8 below HiGHS at every eps below P_c(X|Y)
        # while the saturated endpoint is exact, which a tracer sampling
        # best_filter would read as a kink next to P_c(X|Y)
        joint = JointDistribution(np.array([
            [3.957277130883309e-10, 0.03772696465031602],
            [0.12803240659564852, 0.41563517236954944],
            [0.4007665602698528, 0.01783889571890553],
        ]))
        assert trace_curve(joint).k == 1


class TestCurvePoint:
    @pytest.mark.parametrize("p", [MULTI_PIECE / MULTI_PIECE.sum(), np.array([[0.32, 0.08], [0.12, 0.48]])],
                             ids=["multi", "fig3"])
    def test_matches_best_filter(self, p):
        joint = JointDistribution(p)
        curve = trace_curve(joint)
        grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 31)
        for eps in [*grid, *curve.breakpoints]:
            sol = solver.curve_point(joint, curve, float(eps))
            assert sol.utility == pytest.approx(best_filter(joint, float(eps)).utility, abs=1e-9)
            assert sol.privacy <= eps + lp_module.FEAS_TOL
            assert sol.filter.matrix.shape == (p.shape[1], p.shape[1])
            assert not sol.saturated

    def test_domain_guards_as_best_filter(self):
        joint = fig3_joint()
        curve = trace_curve(joint)
        with pytest.raises(InfeasibleThresholdError):
            solver.curve_point(joint, curve, 0.6 - 2e-9)
        with pytest.raises(ParameterError):
            solver.curve_point(joint, curve, float("nan"))
        low = solver.curve_point(joint, curve, 0.6 - 5e-10)
        assert low.utility == pytest.approx(0.72, abs=1e-12)
        high = solver.curve_point(joint, curve, 0.95)
        assert high.saturated and high.eps == 0.95
        assert high.utility == pytest.approx(1.0, abs=1e-12)

    def test_foreign_curve_fails_its_certificate(self):
        curve = trace_curve(JointDistribution(MULTI_PIECE / MULTI_PIECE.sum()))
        other = JointDistribution(seeded_trial(71)[:3, :3] / seeded_trial(71)[:3, :3].sum())
        with pytest.raises(NumericalError, match="certificate"):
            solver.curve_point(other, curve, cond_guess_prob(other, Axis.ROWS) - 0.01)


def seeded_trial(trial: int) -> np.ndarray:
    """Joint number ``trial`` of a seeded set of 2-6 x 2-6 joints, every odd one skewed by cubing."""
    rng = np.random.default_rng(7)
    for k in range(trial + 1):
        m, n = rng.integers(2, 7, size=2)
        w = rng.random((m, n))
        if k % 2:
            w = w ** 3
    return w / w.sum()


def assert_highs_crossings(p: np.ndarray, curve) -> None:
    """Each kink is where its two piece lines cross, and each slope theirs, read off HiGHS."""
    lines = []
    for a, b in zip(curve.breakpoints, curve.breakpoints[1:]):
        e1, e2 = a + 0.25 * (b - a), a + 0.75 * (b - a)
        h1, h2 = highs_frontier(p, e1), highs_frontier(p, e2)
        slope = (h2 - h1) / (e2 - e1)
        lines.append((slope, h1 - slope * e1))
    for b, (s1, c1), (s2, c2) in zip(curve.breakpoints[1:], lines, lines[1:]):
        assert b == pytest.approx((c2 - c1) / (s1 - s2), abs=1e-10)
    for s, (want, _) in zip(curve.slopes, lines):
        assert s == pytest.approx(want, abs=1e-10)


def highs_frontier(p: np.ndarray, eps: float) -> float:
    """HiGHS optimum of the frontier LP with |Y| outputs guessed by the identity map."""
    from scipy.optimize import linprog
    m, n = p.shape
    nf = n * n
    c = np.zeros(nf + n)
    c[np.arange(n) * (n + 1)] = -p.sum(axis=0)
    a_eq = np.zeros((n, nf + n))
    for y in range(n):
        a_eq[y, y * n:(y + 1) * n] = 1.0
    a_ub = np.zeros((m * n + 1, nf + n))
    for x in range(m):
        for z in range(n):
            a_ub[x * n + z, z:nf:n] = p[x]
            a_ub[x * n + z, nf + z] = -1.0
    a_ub[-1, nf:] = 1.0
    b_ub = np.zeros(m * n + 1)
    b_ub[-1] = eps
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun


class TestDeterminism:
    def test_repeated_solves_identical(self):
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        a = best_filter(joint, 0.4)
        b = best_filter(joint, 0.4)
        assert a.utility == b.utility
        assert a.y_guess_map == b.y_guess_map
        np.testing.assert_array_equal(a.filter.matrix, b.filter.matrix)

    def test_thread_safety(self):
        # pure functions over immutable values: parallel solves match serial ones
        from concurrent.futures import ThreadPoolExecutor
        joint = fig3_joint()
        grid = [0.6 + 0.02 * i for i in range(11)]
        serial = [best_filter(joint, e).utility for e in grid]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda e: best_filter(joint, e).utility, grid))
        assert serial == parallel
