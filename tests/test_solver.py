"""LP frontier solver: frozen values, oracle agreement, structural invariants."""

import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest
from conftest import (
    FIG3_MATRIX,
    fig3_joint,
    pivoted_start,
    random_bibo,
    random_joint,
    reference_pivot,
    reference_run_simplex,
    reference_solve,
    reference_walk,
    rounded_joints,
    symmetric_backward_joint,
)
from test_bibo import binary_filter_grid_max

from privguess import (
    Axis,
    CapacityError,
    Channel,
    InfeasibleThresholdError,
    InvalidChannelError,
    JointDistribution,
    NumericalError,
    ParameterError,
    PrivguessError,
    VectorModel,
    best_filter,
    closed_form_utility,
    compose,
    cond_guess_prob,
    finite_order_gain_bounds,
    from_joint,
    guess_prob,
    guessing_gain,
    renyi_entropy,
    to_joint,
    trace_curve,
    validity_threshold,
)
from privguess import _simplex_py, cli, solver
from privguess import lp as lp_module
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
        sol = best_filter(JointDistribution(SKEWED_REPRODUCER), SKEWED_EPS)
        assert sol.utility == pytest.approx(SKEWED_HIGHS, abs=1e-7)

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


#: a skewed 3x4 joint on which best_filter's map-family LP raises NumericalError,
#: a threshold inside its domain, and the HiGHS optimum of the frontier LP there
SKEWED_REPRODUCER = np.array([
    [0.10254077521972826, 0.05444091096140368, 1.3507750791114549e-06, 0.27548437839541984],
    [0.00011648308778760545, 0.0008384290203021182, 0.12978168071627388, 0.20882279985212668],
    [0.18969633067644073, 0.03609595025162467, 0.002163760229318767, 1.7150814494695373e-05],
])
SKEWED_EPS = 0.5409353580505845
SKEWED_HIGHS = 0.88972137


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

    @pytest.mark.parametrize("budget", [1024.0, 1e6])
    def test_huge_budget_saturates(self, budget):
        # 2.0 ** budget overflows; a budget past saturation takes P_c(X|Y) directly
        j = fig3_joint()
        assert guessing_gain(j, budget) == guessing_gain(j, math.inf)

    def test_skewed_reproducer_reads_the_highs_value(self):
        # the point best_filter cannot solve, read off the walked curve
        joint = JointDistribution(SKEWED_REPRODUCER)
        budget = math.log2(SKEWED_EPS / guess_prob(joint, Axis.ROWS))
        want = math.log2(SKEWED_HIGHS / guess_prob(joint, Axis.COLS))
        assert guessing_gain(joint, budget) == pytest.approx(want, abs=1e-7)

    def test_alphabet_cap_is_the_walks(self):
        joint = JointDistribution(np.full((2, solver.MAX_ALPHABET + 1), 0.5 / (solver.MAX_ALPHABET + 1)))
        with pytest.raises(CapacityError, match="largest the frontier walk is tested at"):
            guessing_gain(joint, 0.1)


class TestGainsReadOffTheWalk:
    """The log-gain forms trace one curve per call, from the identity vertex, and solve no map family."""

    def test_guessing_gain(self, walk_solves):
        for p in (fig3_joint().matrix, MULTI_PIECE / MULTI_PIECE.sum(), SKEWED_REPRODUCER):
            joint = JointDistribution(p)
            for budget in (0.0, 0.1, 0.3, math.inf):
                guessing_gain(joint, budget)
        assert [sol.iterations for sol in walk_solves] == [0] * 12

    def test_finite_order_gain_bounds(self, walk_solves):
        # both gains are read off one curve: one LP per call, solved with no pivot
        for p, nu, mu, leak in ((np.array([[0.4, 0.1], [0.1, 0.4]]), 2.0, 3.0, 0.3),
                                (FIG3_MATRIX, 2.0, 2.0, 0.5)):
            walk_solves.clear()
            bounds = finite_order_gain_bounds(JointDistribution(p), nu, mu, leak)
            assert bounds.lower is not None
            assert [sol.iterations for sol in walk_solves] == [0]


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

    def test_huge_budget_returns(self):
        # both gains saturate; 2.0 ** 2000.0 would overflow
        j = fig3_joint()
        bounds = finite_order_gain_bounds(j, 2.0, 2.0, 2000.0)
        top = guessing_gain(j, math.inf)
        gap = renyi_entropy(j.col_marginal, 2.0) - renyi_entropy(j.col_marginal, math.inf)
        assert bounds.upper == pytest.approx(top + gap, abs=1e-12)
        assert bounds.lower == pytest.approx(2.0 * top - renyi_entropy(j.col_marginal, math.inf), abs=1e-12)

    def test_rejects_non_finite_orders(self):
        from privguess import InvalidOrderError
        with pytest.raises(InvalidOrderError):
            finite_order_gain_bounds(fig3_joint(), math.inf, 2.0, 0.5)
        with pytest.raises(InvalidOrderError):
            finite_order_gain_bounds(fig3_joint(), 2.0, 1.0, 0.5)
        # a budget guessing_gain rejects is rejected here too, naming the
        # caller's value: -0.01 used to return a bound and -1.0 to name the
        # derived budget psi
        for leak_bits in (-0.01, -1.0, math.nan):
            with pytest.raises(ParameterError, match=f"got {leak_bits!r}$"):
                finite_order_gain_bounds(fig3_joint(), 2.0, 2.0, leak_bits)


MULTI_PIECE = np.array([
    [0.12810241, 0.13931494, 0.05475106],
    [0.11196181, 0.07872831, 0.12258139],
    [0.20227599, 0.11147013, 0.05081395],
])


#: joints of the ``frontier`` pool (perfbench/workloads.py) on which trace_curve
#: raised NumericalError while it reached the top vertex by phase 1 and phase 2,
#: as (pool eps, joint)
FRONTIER_TRACE_FAILURES = {
    "s4x4/40": (0.3668910197178829, [
        [0.045538785371381375, 0.09210839392868293, 0.022417122091226944, 8.671385805951791e-08],
        [0.17372780562168066, 0.004981660230371341, 0.0030175691621443655, 0.0033910041077258556],
        [0.08073478553036337, 0.07672891921300237, 5.8365949355044916e-05, 0.18501046658502196],
        [0.08167435033274095, 0.17588454654641897, 0.0031424857870712857, 0.05158365282895465],
    ]),
    "s4x4/105": (0.5102563355798561, [
        [0.004117943896902955, 8.831915255223304e-11, 0.000924923915744195, 0.002880209750395186],
        [0.20918896573555668, 0.21333881640736943, 0.06268350228583622, 0.0008998456337292294],
        [0.16656720016713353, 0.0014423663934665077, 0.12490456852514589, 0.0551993304553761],
        [0.12815259371783932, 0.029684832911505202, 1.4899678301283203e-05, 4.3737918085783227e-10],
    ]),
    "s4x4/205": (0.5639282465726285, [
        [0.26573157704729455, 0.003026031186669293, 7.766685147123358e-07, 0.11330591690452362],
        [0.05275420149411839, 0.015080085273095737, 0.26515204254512215, 0.045900959881327266],
        [2.0635004457123543e-06, 0.0031020407908065642, 0.0003781487487253863, 8.632136964620167e-08],
        [0.05880223958537071, 1.5170255742492477e-07, 0.02350244490071714, 0.15326123344934173],
    ]),
    "s4x4/212": (0.5137034246809494, [
        [9.9276507412865e-09, 0.18441795688956203, 0.029552240254462795, 0.03808069887399746],
        [0.053337159117836645, 0.0019375256239926304, 0.05086872143671252, 0.15116848719021925],
        [0.012693501775606273, 0.0273120155491705, 0.06302353287868476, 0.15809882659429023],
        [0.15839723394752073, 0.0013019878356227517, 0.0575816399791105, 0.012228462125560367],
    ]),
    "s5x4/246": (0.4400557747351219, [
        [3.8847501182688757e-10, 0.008910147018683895, 0.01189704894766078, 0.030476647980543715],
        [0.13473044005616183, 1.3809277608547786e-05, 0.0031708898458762927, 0.04598829166017193],
        [0.1414625419942497, 0.11570379523781138, 0.06901187535763002, 0.016685966326731357],
        [0.08206110015954154, 0.007952587743089845, 0.06827774169198807, 0.07695618135803445],
        [0.02091175743783926, 0.022393221235669915, 0.13910609496709736, 0.004289861315135139],
    ]),
    "s5x5/23": (0.38404981004670546, [
        [0.14152813963087965, 1.5741985949301291e-09, 0.051475837864953584, 0.03303123855425699, 0.09234000492597806],
        [0.03456653416001036, 0.013999961691510123, 0.07895563514315027, 0.03661998755740708, 0.047225748060423775],
        [5.013245206475551e-10, 0.024327402816500462, 0.050831319625067165, 0.0005255635356094891, 0.07916484942772757],
        [0.0016399153495099941, 0.00011438315466325004, 0.033795040639932133, 0.03150147213122809, 0.010276334222367307],
        [0.03441442188597177, 0.00014919442908637638, 0.018498738402387412, 0.019159549685086808, 0.16585872503076923],
    ]),
    "s5x5/106": (0.42506964855251217, [
        [0.11632207415659757, 0.10511689210318179, 6.566874174171807e-10, 0.003570546660466628, 0.06469449402856964],
        [0.04665458526187715, 0.05418537820547467, 0.07533269668425382, 0.00034131451528495084, 0.009736304343986762],
        [0.011960690222103054, 0.0605263242551867, 0.00462961231147287, 0.00017324301468757812, 0.07737202216885763],
        [0.0005839856897451496, 0.1140037513984858, 0.034914888272076706, 7.726078117215979e-06, 0.0027854028208533525],
        [0.0005552554643479072, 0.06922591925015266, 0.0532905558982379, 0.09046368446915348, 0.003552652070141492],
    ]),
    "s5x5/107": (0.4257866085061548, [
        [3.4835546584706705e-09, 0.16774143566436459, 0.0008802964087270495, 0.12458116757757534, 2.2288324146104588e-05],
        [0.014252567429299612, 0.10290038192783103, 0.02850335312033559, 0.008378165890919, 0.17228946144610222],
        [0.045134497616566495, 0.12297226903504026, 0.015946641295361025, 0.003430009801332946, 0.049113606075325306],
        [0.05370482083250889, 0.0005395164279070531, 0.025587152698563095, 0.02164902294488921, 0.02050924924513651],
        [6.3814865046006785e-06, 0.00409383435462137, 0.013142724168575579, 0.003471748486835544, 0.0011494042579767506],
    ]),
    "s5x5/115": (0.5268426990755205, [
        [0.025645555146050717, 0.001382807710766737, 0.0008719446283279028, 5.821266346304763e-11, 0.023387349101332357],
        [2.1144320696148427e-08, 0.01180680260989152, 0.033164570101212404, 0.03001741117405402, 0.004902617615315885],
        [0.04063682808019887, 0.001802458095911421, 0.02067578748592125, 0.15541084536818867, 0.05428323731612389],
        [3.513303173101809e-07, 0.14206584411267006, 0.13283687112006318, 0.19364505216793007, 0.018219549970511485],
        [0.053736114593684235, 0.005450110395749776, 0.0030960993115191453, 0.04406814672594052, 0.0028936246357852457],
    ]),
    "s5x5/141": (0.38284924493206307, [
        [0.01027900578871831, 6.692018898491006e-09, 0.06647179356365363, 0.024799278439729806, 0.12284522064272406],
        [0.010340149416902396, 0.04196546919042202, 0.09361947095394875, 1.4827188657181358e-07, 0.07580175114855855],
        [0.12190168232816226, 0.0512098926356839, 0.10655690704821118, 7.584608077927146e-06, 7.723634545206586e-07],
        [0.00016569556974507546, 0.000924982346048236, 0.004464394258064481, 0.13685605731077505, 1.1920507455003838e-06],
        [0.0016891759186482246, 0.00028829565638379664, 0.055916580207496513, 0.07086474432499121, 0.0030297492649490553],
    ]),
    "s5x5/168": (0.5119309004730512, [
        [0.12517769185159697, 0.009273854910307624, 0.031110089177374733, 8.982249861020526e-09, 0.008722654107711744],
        [2.3903394233423175e-06, 0.0232897274241275, 0.1448662378694059, 0.1175000657432339, 0.09020147254061357],
        [0.06874934870587229, 0.0003122079474148445, 0.003579457368003859, 0.0006483516470751003, 3.3259431003732155e-07],
        [0.0007414634761171582, 0.01571720794712801, 0.001472920262766017, 0.006725833214325364, 0.003406656760813042],
        [0.05955320017929771, 0.03816653163632784, 0.11307664620126107, 0.006954976027652732, 0.1307506730855899],
    ]),
    "s5x5/181": (0.3196793006262727, [
        [0.08251389427137128, 0.10184465070946347, 7.696078153785737e-06, 0.03051533349417458, 0.003398637611505476],
        [0.00987923200150597, 0.016304615929306064, 0.046921051481426716, 0.029076480284574296, 1.7588429228795472e-07],
        [0.0564983940220885, 0.00617851970761657, 0.0018524274308565083, 0.10508193211185929, 0.06447962760746523],
        [0.08360683917629884, 0.009613776695363327, 0.04883632192586726, 0.1006961616251989, 0.014316237311118571],
        [0.1153942194087656, 0.02499113707651402, 0.012443881971201668, 8.004994476249365e-08, 0.03554867613406709],
    ]),
}

#: joints that test the identity filter's basis: a zero column, a zero row,
#: column maxima tied between rows, duplicate columns, 1e-12 entries, all of them
HARD_JOINTS = {
    "zero-column": [r[:2] + [0.0] + r[2:] for r in MULTI_PIECE.tolist()],
    "zero-row": MULTI_PIECE[:1].tolist() + [[0.0, 0.0, 0.0]] + MULTI_PIECE[1:].tolist(),
    "tied-maxima": [[0.20227599, 0.13931494, 0.05475106], [0.11196181, 0.07872831, 0.12258139],
                    [0.20227599, 0.13931494, 0.05081395]],
    "duplicate-columns": [r + r[1:2] for r in MULTI_PIECE.tolist()],
    "tiny-entries": [[0.12810241, 1e-12, 0.05475106], [1e-12, 0.07872831, 0.12258139],
                     [0.20227599, 0.11147013, 1e-12]],
    "all": [[0.2, 0.13931494, 0.0, 0.13931494, 1e-12], [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.11196181, 0.07872831, 0.0, 0.07872831, 0.12258139], [0.2, 1e-12, 0.0, 1e-12, 0.05081395]],
}


def hard_joint(name: str) -> np.ndarray:
    p = np.array(HARD_JOINTS[name])
    return p / p.sum()


class TestTraceCurve:
    def test_fig3_single_piece(self):
        curve = trace_curve(fig3_joint())
        assert curve.k == 1
        assert curve.breakpoints[0] == pytest.approx(0.6, abs=1e-8)
        assert curve.breakpoints[-1] == pytest.approx(0.8, abs=1e-8)
        assert curve.slopes[0] == pytest.approx(1.4, abs=1e-4)

    @pytest.mark.parametrize("stop", [1, -1], ids=["kink", "end"])
    def test_nan_slope_fails_the_concavity_check(self, monkeypatch, stop):
        # the walk raises on a nan price itself; the curve's check of its
        # slopes must not pass one either. Stop 0 is the kink at P_c(X|Y),
        # which the curve drops
        real = solver.identity_top

        class NanSlope:
            def __init__(self, p):
                self.top = real(p)

            def walk(self):
                stops = list(self.top.walk())
                stops[stop] = stops[stop]._replace(slope=math.nan)
                return stops

        monkeypatch.setattr(solver, "identity_top", NanSlope)
        with pytest.raises(NumericalError, match="not concave"):
            trace_curve(JointDistribution(MULTI_PIECE / MULTI_PIECE.sum()))

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

        def counted(prog, basis=None):
            calls.append(real(prog, basis))
            return calls[-1]

        def forbidden(joint, eps):
            raise AssertionError("trace_curve called best_filter")

        monkeypatch.setattr(solver, "solve_lp", counted)
        monkeypatch.setattr(solver, "best_filter", forbidden)
        curve = trace_curve(JointDistribution(MULTI_PIECE / MULTI_PIECE.sum()))
        assert curve.k >= 3
        # one LP, solved at the identity vertex with no simplex pivot
        assert [sol.iterations for sol in calls] == [0]

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
            utility, privacy = solver._evaluate(joint, f.matrix[None])
            assert utility[0] == h
            assert privacy[0] <= eps + lp_module.FEAS_TOL

    def test_vertex_filters_are_held_read_only_unchecked(self, monkeypatch):
        # the certificate already proved each vertex filter a channel, so
        # the curve holds it with no copy and no second check
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        checks = []
        real = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda self: checks.append(1) or real(self))
        curve = trace_curve(joint)
        assert checks == []
        stack = curve.filters[0].matrix.base
        for f in curve.filters:
            assert not f.matrix.flags.writeable
            assert f.matrix.base is stack
        assert not stack.flags.writeable

    def test_end_is_p_c_x_exactly(self):
        # the walk ends at 0.6 within roundoff; the breakpoint is P_c(X) itself
        curve = trace_curve(fig3_joint())
        assert curve.breakpoints == (0.6, 0.8)
        assert curve.samples[0][0] == 0.6

    def test_alphabet_cap(self):
        with pytest.raises(CapacityError):
            trace_curve(JointDistribution(np.full((2, 7), 1.0 / 14)))

    @pytest.mark.parametrize("name", list(FRONTIER_TRACE_FAILURES))
    def test_pool_joints_that_raised_match_highs(self, name):
        pytest.importorskip("scipy")
        eps, p = FRONTIER_TRACE_FAILURES[name]
        p = np.array(p)
        joint = JointDistribution(p)
        curve = trace_curve(joint)
        assert abs(solver.curve_point(joint, curve, eps).utility - highs_frontier(p, eps)) <= 1e-9

    @pytest.mark.parametrize("name", list(HARD_JOINTS))
    def test_hard_joints_match_highs(self, name):
        # HiGHS accepts points within its 1e-10 feasibility tolerance: on the
        # joints with 1e-12 entries its rows are 9e-12 off, or its filter
        # leaks 8.9e-13 above eps, and its value reads 1.3e-12 to 2.4e-12
        # above the walk's, whose filters meet eps exactly
        pytest.importorskip("scipy")
        p = hard_joint(name)
        joint = JointDistribution(p)
        curve = trace_curve(joint)
        grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 21)
        eps, hs, privs, error = read_all(joint, curve, grid)
        assert error is None
        for e, h, priv in zip(eps.tolist(), hs.tolist(), privs.tolist()):
            assert priv <= e + 1e-15, (name, e)
            assert abs(h - highs_frontier(p, e)) <= 1e-11, (name, e)

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


#: the P_Y of the one symmetric backward joint (q = 5, a = 0.001) whose
#: trace_curve raises NumericalError, an equality residual of 1.7e-7 (ROADMAP item 4)
ITEM4_SYMMETRIC_PY = [0.028228605490314883, 0.6233726926721908, 0.016595457887426442,
                      2.084835056234196e-07, 0.3318030354665623]


def symmetric_backward_corpus() -> list:
    """(q, a, P_Y) for q = 2..6 and each a below (q - 1)/q: a uniform P_Y, then
    11 draws of u**3 normalized, all from one default_rng(0) stream."""
    rng = np.random.default_rng(0)
    corpus = []
    for q in range(2, 7):
        for a in (0.001, 0.05, 0.2, 0.3, 0.45, 0.6, 0.75):
            if not a < (q - 1) / q:
                continue
            corpus.append((q, a, np.full(q, 1.0 / q)))
            for _ in range(11):
                u = rng.random(q) ** 3
                corpus.append((q, a, u / u.sum()))
    return corpus


ITEM4_XFAIL = pytest.mark.xfail(
    strict=True, raises=NumericalError,
    reason="the walk's pivot rule ends on a near-singular basis (ROADMAP item 4)")

SYMMETRIC_BACKWARD = [
    pytest.param(q, a, py, id=f"q{q}-a{a}-py{k % 12}",
                 marks=[ITEM4_XFAIL] if py.tolist() == ITEM4_SYMMETRIC_PY else [])
    for k, (q, a, py) in enumerate(symmetric_backward_corpus())
]


class TestSymmetricBackwardOracle:
    """The frontier of a q-ary symmetric backward channel is one known line (ROADMAP item 12)."""

    def test_corpus(self):
        assert len(SYMMETRIC_BACKWARD) == 372
        assert sum(p.values[0] == 2 for p in SYMMETRIC_BACKWARD) == 60
        assert sum(bool(p.marks) for p in SYMMETRIC_BACKWARD) == 1
        # the BIBO closed form is checked on the binary joints it accepts
        binary = [symmetric_backward_joint(*p.values) for p in SYMMETRIC_BACKWARD if p.values[0] == 2]
        assert sum(from_joint(j) is not None for j in binary) == 13

    @pytest.mark.parametrize("q, a, py", SYMMETRIC_BACKWARD)
    def test_one_piece_on_the_line(self, q, a, py):
        joint = symmetric_backward_joint(q, a, py)
        c = 1.0 - a * q / (q - 1)
        curve = trace_curve(joint)
        assert curve.k == 1
        assert curve.slopes[0] == pytest.approx(1.0 / c, abs=1e-12)
        grid = np.linspace(guess_prob(joint, Axis.ROWS), cond_guess_prob(joint, Axis.ROWS), 9)
        eps, hs, _, error = read_all(joint, curve, grid)
        assert error is None
        line = (eps - a / (q - 1)) / c
        assert np.abs(hs - line).max() <= 1e-12
        params = from_joint(joint) if q == 2 else None
        if params is not None:
            closed = [closed_form_utility(params, e)[0] for e in eps.tolist()]
            assert np.abs(np.array(closed) - line).max() <= 1e-12


class TestIdentityTop:
    @pytest.mark.parametrize("case", [f"trial{t}" for t in range(0, 120, 7)] + list(HARD_JOINTS))
    def test_basis_is_optimal_as_written(self, case):
        # at cap P_c(X|Y) the identity filter's basis needs no pivot; only
        # F[y, y] has a profit, so the reduced profits are exact
        p = seeded_trial(int(case[5:])) if case.startswith("trial") else hard_joint(case)
        n = p.shape[1]
        res = solver.identity_top(p)
        assert res.solution.iterations == 0
        assert res.program.b_ub[-1] == cond_guess_prob(JointDistribution(p), Axis.ROWS)
        np.testing.assert_array_equal(res.filter, np.eye(n))
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.price == 0.0
        profits = res.solution.tableau[-1, :-1]
        p_y = p.sum(axis=0)
        np.testing.assert_array_equal(profits[:n * n].reshape(n, n), -p_y[:, None] * (1.0 - np.eye(n)))
        np.testing.assert_array_equal(profits[n * n:], 0.0)


def block_candidates() -> list[tuple[float, float]]:
    """(p, alpha) of the benchmark's 24 block candidates, drawn as ``perfbench/workloads.py`` draws them."""
    models = []
    for index in range(24):
        rng = np.random.default_rng([20170607, 4, index])
        while True:
            p, alpha = rng.uniform(0.55, 0.7), rng.uniform(0.1, 0.25)
            if 1.0 - alpha - p >= 0.05:
                models.append((p, alpha))
                break
    return models


def sparse_joint(trial: int) -> np.ndarray:
    """Seeded 2-6 x 3-6 joint with about half its entries 0, an all-zero column and a column maximum tied between rows 0 and 1."""
    rng = np.random.default_rng([11, trial])
    m, n = rng.integers(2, 7), rng.integers(3, 7)
    w = rng.random((m, n)) * (rng.random((m, n)) < 0.5)
    zero, tied = rng.choice(n, size=2, replace=False)
    w[:, zero] = 0.0
    w[:2, tied] = w[:, tied].max() + 0.1
    return w / w.sum()


def oracle_joints(group: str) -> list[np.ndarray]:
    """Seeded trials 0-119, HARD_JOINTS, the block candidates' block joints at n = 1-3, or 40 sparse joints."""
    if group == "trials":
        return [seeded_trial(t) for t in range(120)]
    if group == "hard":
        return [hard_joint(name) for name in HARD_JOINTS]
    if group == "block":
        return [VectorModel(n, p, a).block_joint().matrix for n in (1, 2, 3) for p, a in block_candidates()]
    return [sparse_joint(t) for t in range(40)]


def hexed(*values) -> list[str]:
    """Every float of ``values``, scalars and arrays, under ``float.hex``."""
    return [float(v).hex() for v in np.concatenate([np.ravel(v) for v in values])]


def walked(stops) -> list[list[str]] | str:
    """Every stop of a walk as (rhs, value, slope, price below, point) under ``float.hex``, or the walk's error."""
    try:
        return [hexed(s.rhs, s.value, s.slope, s.price_below, s.point) for s in stops]
    except NumericalError as error:
        return str(error)


class TestIdentityTopTableau:
    @pytest.mark.parametrize("group", ["trials", "hard", "block", "sparse"])
    def test_closed_form_is_the_pivoted_start(self, group, monkeypatch):
        # the tableau written down equals the Gauss-Jordan pivots into its
        # basis (the sign of a zero may differ), and the solve and the walk
        # from it equal those from the pivoted start bit for bit
        real, starts = solver.solve_lp, []

        def spy(prog, start=None):
            starts.append((start[0].copy(), start[1].copy()))
            return real(prog, start)

        monkeypatch.setattr(solver, "solve_lp", spy)
        for p in oracle_joints(group):
            res = solver.identity_top(p)
            tableau, basis = starts.pop()
            want_tableau, want_basis = pivoted_start(res.program, basis)
            np.testing.assert_array_equal(basis, want_basis)
            assert (tableau == want_tableau).all()
            want = real(res.program, (want_tableau, want_basis))
            assert res.solution.iterations == want.iterations == 0
            sol = res.solution
            assert hexed(sol.value, sol.point, sol.duals) == hexed(want.value, want.point, want.duals)
            row = len(res.program.b_ub) - 1
            assert walked(res.walk()) == walked(lp_module.piece_starts(res.program, want, row))


#: frontier classes of the benchmark pool: (generator id, shape, skewed), as ``perfbench/workloads.py`` has them
FRONTIER_CLASSES = {
    "u3x3": (0, (3, 3), False), "s3x3": (1, (3, 3), True),
    "u3x4": (6, (3, 4), False), "s3x4": (7, (3, 4), True),
    "u4x4": (8, (4, 4), False), "s4x4": (9, (4, 4), True),
    "u5x4": (10, (5, 4), False), "s5x4": (11, (5, 4), True),
    "u5x5": (12, (5, 5), False), "s5x5": (13, (5, 5), True),
}


def frontier_pool(per_class: int) -> list[tuple[np.ndarray, float]]:
    """(joint, eps) of the first ``per_class`` ``frontier`` candidates of each class, drawn as the benchmark draws them."""
    out = []
    for class_id, shape, skew in FRONTIER_CLASSES.values():
        for index in range(per_class):
            rng = np.random.default_rng([20170607, 1, class_id, index])
            while True:
                w = rng.random(shape) ** (3 if skew else 1)
                p = w / w.sum()
                lo, hi = float(p.sum(axis=1).max()), float(p.max(axis=0).sum())
                if hi - lo > 0.02:
                    out.append((p, lo + rng.uniform(0.1, 0.9) * (hi - lo)))
                    break
    return out


def unit_columns(t: np.ndarray, basis: np.ndarray) -> bool:
    """Whether each basic column of tableau ``t`` is the unit vector of its row, the profit row's 0 included, under ``==``."""
    return bool((t[:, basis] == np.eye(t.shape[0], basis.shape[0])).all())


def frontier_family(p: np.ndarray, eps: float) -> LinearProgram:
    """The map-family LP :func:`best_filter` solves at ``eps`` (N + 1 outputs, every nondecreasing map)."""
    n = p.shape[1]
    return solver._guess_lp(p, list(solver.nondecreasing_maps(n + 1, n)), eps, n + 1)


class TestWalkReference:
    """The walk, the family solve and the NumPy kernel's pivot loop, pinned bit for bit to the reference steps in ``conftest``."""

    @pytest.mark.parametrize("group", ["trials", "hard", "block", "sparse"])
    def test_walk_is_the_reference_step(self, group):
        for p in oracle_joints(group):
            res = solver.identity_top(p)
            row = len(res.program.b_ub) - 1
            want = [hexed(rhs, value, slope, below, point)
                    for rhs, value, point, slope, below in reference_walk(res.program, res.solution, row)]
            assert walked(res.walk()) == want

    def test_family_solve_is_the_reference_price_out(self, monkeypatch):
        for p, eps in frontier_pool(4):
            prog = frontier_family(p, eps)
            try:
                with monkeypatch.context() as m:
                    m.setattr(_simplex_py, "pivot", reference_pivot)
                    m.setattr(lp_module, "pivot", reference_pivot)
                    value, point, duals, iterations = reference_solve(prog)
            except AssertionError:
                with pytest.raises(NumericalError):
                    lp_module.solve_lp(prog)
                continue
            sol = lp_module.solve_lp(prog)
            assert sol.iterations == iterations
            assert hexed(sol.value, sol.point, sol.duals) == hexed(value, point, duals)


    def test_kernel_is_the_reference_loop(self, monkeypatch):
        # every tableau the family solves hand the kernel (phase 1, each
        # phase 2), run by the NumPy kernel and by the reference loop
        real, calls = lp_module.run_simplex, []

        def spy(tableau, basis, *args):
            calls.append((tableau.copy(), basis.copy(), args))
            return real(tableau, basis, *args)

        monkeypatch.setattr(lp_module, "run_simplex", spy)
        for p, eps in frontier_pool(1):
            try:
                lp_module.solve_lp(frontier_family(p, eps))
            except NumericalError:
                pass
        assert len(calls) > 100
        for tableau, basis, args in calls:
            t, b = tableau.copy(), basis.copy()
            assert _simplex_py.run_simplex(t, b, *args) == reference_run_simplex(tableau, basis, *args)
            assert t.tobytes() == tableau.tobytes()
            np.testing.assert_array_equal(b, basis)


class TestUnitColumns:
    """Every basic column is an exact unit vector, which lets ``solve_lp`` price out only the rows with a profit."""

    @pytest.mark.parametrize("group", ["trials", "hard", "block", "sparse"])
    def test_after_the_start_and_every_walk_pivot(self, group, monkeypatch):
        real, pivots = lp_module.pivot, []

        def checked(t, basis, r, j):
            real(t, basis, r, j)
            pivots.append(unit_columns(t, basis))

        monkeypatch.setattr(lp_module, "pivot", checked)
        for p in oracle_joints(group):
            res = solver.identity_top(p)
            assert unit_columns(res.solution.tableau, res.solution.basis)
            list(res.walk())
        assert pivots and all(pivots)

    def test_after_a_two_phase_solve(self):
        for p, eps in frontier_pool(4):
            try:
                sol = lp_module.solve_lp(frontier_family(p, eps))
            except NumericalError:
                continue
            assert unit_columns(sol.tableau, sol.basis)


#: the ``curve`` benchmark's joint templates and the walk's (pivots, certificates) on each, normalized
CURVE_TEMPLATES = {
    "one2x3": ([[0.108, 0.240, 0.223], [0.208, 0.098, 0.123]], 1, 3),
    "one3x2": ([[0.092, 0.246], [0.236, 0.128], [0.120, 0.178]], 1, 3),
    "multi3x3a": ([[0.085, 0.168, 0.109], [0.185, 0.0002, 0.065], [0.148, 0.132, 0.108]], 3, 4),
    "multi3x3b": ([[0.142, 0.015, 0.172], [0.174, 0.191, 0.027], [0.023, 0.177, 0.079]], 6, 6),
    "multi4x3": ([[0.071, 0.105, 0.063], [0.087, 0.087, 0.020], [0.123, 0.016, 0.121],
                  [0.017, 0.112, 0.177]], 5, 6),
}


class TestWorkCounts:
    """Walk pivots and vertex certificates per call, counted with no timing.

    The benchmark's ``lp.pivots`` counts simplex pivots only; the walk's
    dual pivots and its certificates are counted here.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"pivot": 0, "vertex": 0}

        def counting(name, real):
            def wrapped(*args):
                tally[name] += 1
                return real(*args)
            return wrapped

        monkeypatch.setattr(lp_module, "pivot", counting("pivot", lp_module.pivot))
        monkeypatch.setattr(lp_module, "_vertex", counting("vertex", lp_module._vertex))
        return tally

    def test_block_certification(self, counts):
        for p, alpha in block_candidates():
            counts.update(pivot=0, vertex=0)
            validity_threshold(VectorModel(2, p, alpha))
            assert counts == {"pivot": 2, "vertex": 3}, (p, alpha)

    @pytest.mark.parametrize("name", list(CURVE_TEMPLATES))
    def test_curve_template(self, counts, name):
        matrix, pivots, certificates = CURVE_TEMPLATES[name]
        p = np.array(matrix)
        trace_curve(JointDistribution(p / p.sum()))
        assert counts == {"pivot": pivots, "vertex": certificates}


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


def read_all(joint, curve, grid):
    """(eps, utility, privacy) of the whole grid from read_curve, and the error it raised (or None)."""
    parts, error = [], None
    try:
        parts.extend(solver.read_curve(joint, curve, grid))
    except PrivguessError as exc:
        error = exc
    eps, hs, privs = (np.concatenate([part[i] for part in parts]) if parts else np.empty(0)
                      for i in range(3))
    return eps, hs, privs, error


class TestBatchedChecks:
    @pytest.mark.parametrize("row, scale, mass, rejected", [
        ([float("nan"), 0.5, 0.5], 1.0, 1.0, True),
        ([-1e-3, 0.5, 0.501], 1.0, 1.0, True),
        ([0.2, 0.3, 0.5], 1.0 + 2e-9, 1.0, True),           # row sum beyond MASS_TOL
        ([0.2, 0.3, 0.5], 1.0 + 9e-10, 1.0 + 9e-10, False),  # a channel, but the composed mass is not 1
    ], ids=["nan", "negative", "row-sum", "composed-mass"])
    def test_first_failing_filter_raises_the_primitives_error(self, row, scale, mass, rejected):
        # the primitives check outside input: Channel rejects a NaN, negative or
        # off-sum filter, and compose holds a product of valid input unchecked.
        # The solver does not repeat those checks on its own filters: the
        # certificate projects each row onto the simplex, so only the NaN filter
        # fails, with the certificate's NumericalError, and the filters before
        # it keep the values cond_guess_prob gives on the composed joints
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum() * mass)
        p_y = JointDistribution(np.diag(joint.col_marginal))
        good = np.full((3, 3), 1.0 / 3.0)
        bad = good.copy()
        bad[1] = np.array(row) * scale
        if rejected:
            with pytest.raises(InvalidChannelError):
                Channel(bad)
        else:
            compose(joint, Channel(bad), Axis.COLS)

        def primitives(f):
            """(utility, privacy) of filter ``f`` from compose and cond_guess_prob."""
            return tuple(cond_guess_prob(compose(j, Channel(f), Axis.COLS), Axis.ROWS) for j in (p_y, joint))

        stack = np.stack([good, bad, good])
        projected = np.maximum(stack, 0.0)
        projected = projected / projected.sum(axis=-1, keepdims=True)
        fails = np.isnan(projected).any(axis=(1, 2))
        values, caps = np.array([(1.0, 1.0) if nan else primitives(f)
                                 for f, nan in zip(projected, fails)]).T
        out = solver._certified(joint, stack, caps, values)
        k = int(fails.argmax()) if fails.any() else len(stack)
        assert len(out.filters) == len(out.utility) == len(out.privacy) == k
        for f, h, priv in zip(out.filters, out.utility.tolist(), out.privacy.tolist()):
            assert (h, priv) == primitives(f)
        if k == len(stack):
            assert out.error is None and out.passed() is out
        else:
            assert type(out.error) is NumericalError and "certificate" in str(out.error)
            with pytest.raises(NumericalError) as raised:
                out.passed()
            assert raised.value is out.error


class TestBatchedCertificate:
    def test_failing_filter_stops_the_grid_and_exits_5(self, monkeypatch, capsys, tmp_path):
        # a NaN utility or privacy fails the certificate: read_curve stops at
        # its point with a NumericalError, and hcurve prints the rows before
        # it and exits 5 (a NaN made by arithmetic would warn, and warnings
        # are errors under pytest, so it is patched in)
        p = MULTI_PIECE / MULTI_PIECE.sum()
        joint = JointDistribution(p)
        curve = trace_curve(joint)
        grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 21)
        _, want_hs, _, _ = read_all(joint, curve, grid)
        path = tmp_path / "multi.json"
        path.write_text(json.dumps({"joint": p.tolist()}))
        argv = ["hcurve", "--joint", str(path), "--points", "21", "--breakpoints"]
        assert cli.main(argv) == 0
        want_rows = capsys.readouterr().out.splitlines()[:8]  # the header and 7 rows
        real = solver._evaluate
        for which in (0, 1):
            def poisoned(joint, f, which=which):
                values = [v.copy() for v in real(joint, f)]
                if len(f) == len(grid):  # the grid's batch, not the curve's vertices
                    values[which][7] = np.nan
                return tuple(values)

            monkeypatch.setattr(solver, "_evaluate", poisoned)
            eps, hs, _, error = read_all(joint, curve, grid)
            assert type(error) is NumericalError and "certificate" in str(error)
            np.testing.assert_array_equal(eps, grid[:7])
            np.testing.assert_array_equal(hs, want_hs[:7])
            assert cli.main(argv) == cli.EXIT_NUMERICAL
            out, err = capsys.readouterr()
            assert out.splitlines() == want_rows
            assert err.startswith("numerical failure: filter certificate failed")


#: shapes of the rounded sweep, drawn in this order from one stream seeded 11
ROUNDED_SHAPES = ((2, 2), (3, 3), (4, 4), (3, 5))


@functools.cache
def rounded_sweep() -> dict[tuple[int, int], list[np.ndarray]]:
    """The joints of 300 draws per shape of ``ROUNDED_SHAPES`` that JointDistribution accepts."""
    rng = np.random.default_rng(11)
    return {shape: rounded_joints(rng, shape, 300) for shape in ROUNDED_SHAPES}


class TestRoundedJoints:
    @pytest.mark.parametrize("shape", ROUNDED_SHAPES, ids=[f"{m}x{n}" for m, n in ROUNDED_SHAPES])
    def test_valid_input_is_solved(self, shape):
        # joints up to MASS_TOL off 1 compose to joints up to 2 MASS_TOL off;
        # each is valid input, so no call may report invalid input
        joints = rounded_sweep()[shape]
        assert len(joints) == {(2, 2): 246, (3, 3): 196, (4, 4): 141, (3, 5): 170}[shape]
        failures = []
        for p in joints:
            joint = JointDistribution(p)
            curve = trace_curve(joint)
            grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 21)
            eps, _, _, error = read_all(joint, curve, grid)
            assert error is None and len(eps) == 21, (p.tolist(), error)
            try:
                best_filter(joint, float(grid[10]))
            except PrivguessError as exc:
                failures.append(exc)
        # the map-family LP of best_filter ends on a numerically singular
        # basis on one 3x5 joint, as on the skewed reproducer
        assert len(failures) <= (1 if shape == (3, 5) else 0)
        for exc in failures:
            assert type(exc) is NumericalError and "equality residual" in str(exc)


class TestReadCurve:
    def test_values_are_per_point_recomputations(self):
        # the batched certificate equals the probability primitives bit for bit
        for trial in range(120):
            p = seeded_trial(trial)
            joint = JointDistribution(p)
            curve = trace_curve(joint)
            grid = np.linspace(guess_prob(joint, Axis.ROWS) - 5e-10,
                               cond_guess_prob(joint, Axis.ROWS) + 0.01, 15)
            eps, hs, privs, error = read_all(joint, curve, grid)
            assert error is None
            np.testing.assert_array_equal(eps, grid)
            p_y = JointDistribution(np.diag(joint.col_marginal))
            for e, h, priv in zip(grid.tolist(), hs.tolist(), privs.tolist()):
                filt = solver.curve_point(joint, curve, e).filter
                assert h == cond_guess_prob(compose(p_y, filt, Axis.COLS), Axis.ROWS), (trial, e)
                assert priv == cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS), (trial, e)

    def test_values_match_highs(self):
        # the walk from the identity vertex carries little roundoff: values
        # within 1e-13 of HiGHS, and the end vertex leaks nothing above P_c(X)
        pytest.importorskip("scipy")
        for trial in range(120):
            p = seeded_trial(trial)
            joint = JointDistribution(p)
            curve = trace_curve(joint)
            grid = np.linspace(curve.breakpoints[0], curve.breakpoints[-1], 21)
            _, hs, privs, error = read_all(joint, curve, grid)
            assert error is None
            assert privs[0] <= guess_prob(joint, Axis.ROWS) + 1e-14, trial
            for e, h in zip(grid.tolist(), hs.tolist()):
                assert abs(h - highs_frontier(p, e)) <= 1e-13, (trial, e)

    def test_blocks_do_not_change_values(self, monkeypatch):
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        curve = trace_curve(joint)
        grid = np.linspace(curve.breakpoints[0], 0.5, 21)
        whole = read_all(joint, curve, grid)
        monkeypatch.setattr(solver, "GRID_ENTRIES", 2 * joint.matrix.size)
        assert [len(eps) for eps, _, _ in solver.read_curve(joint, curve, grid)] == [2] * 10 + [1]
        blocked = read_all(joint, curve, grid)
        for a, b in zip(whole[:3], blocked[:3]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("entries", [None, 9], ids=["one-block", "point-blocks"])
    def test_one_failing_point_stops_the_grid_there(self, monkeypatch, entries):
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        curve = trace_curve(joint)
        assert curve.k == 3
        # a foreign curve: vertex 2 moved 1e-6 off the frontier; on a grid of the
        # breakpoints and one point inside the first piece, only the point at
        # breakpoint 2 mixes that vertex in with a nonzero weight
        samples = list(curve.samples)
        samples[2] = (samples[2][0], samples[2][1] + 1e-6)
        foreign = dataclasses.replace(curve, samples=tuple(samples))
        b = curve.breakpoints
        grid = np.array([b[0], (b[0] + b[1]) / 2, b[1], b[2], b[3]])
        if entries is not None:
            monkeypatch.setattr(solver, "GRID_ENTRIES", entries)
        eps, hs, _, error = read_all(joint, foreign, grid)
        with pytest.raises(NumericalError, match="certificate") as want:
            solver.curve_point(joint, foreign, float(grid[3]))
        assert type(error) is NumericalError and str(error) == str(want.value)
        np.testing.assert_array_equal(eps, grid[:3])
        assert hs.tolist() == [solver.curve_point(joint, curve, e).utility for e in grid[:3].tolist()]
        assert solver.curve_point(joint, foreign, float(grid[4])).utility == curve.samples[3][1]
        # a bad threshold after the failing point does not take its place
        assert type(read_all(joint, foreign, np.append(grid, np.nan))[3]) is NumericalError

    @pytest.mark.parametrize("bad, kind", [
        (float("nan"), ParameterError),
        (0.6 - 2e-9, InfeasibleThresholdError),
    ], ids=["nan", "below"])
    def test_bad_threshold_stops_the_grid_there(self, bad, kind):
        joint = fig3_joint()
        curve = trace_curve(joint)
        grid = np.array([0.6 - 5e-10, 0.7, bad, 0.75])
        eps, hs, _, error = read_all(joint, curve, grid)
        with pytest.raises(kind) as want:
            solver.curve_point(joint, curve, bad)
        assert type(error) is type(want.value) and str(error) == str(want.value)
        np.testing.assert_array_equal(eps, grid[:2])
        assert hs.tolist() == [solver.curve_point(joint, curve, e).utility for e in grid[:2].tolist()]

    def test_memory_does_not_grow_with_the_grid(self):
        import tracemalloc
        joint = JointDistribution(MULTI_PIECE / MULTI_PIECE.sum())
        curve = trace_curve(joint)
        n = 200_001
        tracemalloc.start()
        try:
            grid = np.linspace(curve.breakpoints[0], 0.5, n)
            out = np.empty((2, n))
            start = 0
            for eps, hs, privs in solver.read_curve(joint, curve, grid):
                out[:, start:start + len(eps)] = hs, privs
                start += len(eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert start == n
        # one unblocked (n, 3, 3) stack of filters alone would be 14.4 MB
        assert peak - grid.nbytes - out.nbytes < 4e6


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
