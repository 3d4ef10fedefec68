"""Block-vector frontiers: formulas, filters, gap bounds, certification."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from privguess import (
    Axis,
    BiboParams,
    CapacityError,
    Channel,
    DimensionMismatchError,
    JointDistribution,
    NumericalError,
    ParameterError,
    Validity,
    VectorModel,
    ZnChannel,
    block_utility,
    block_utility_detail,
    brute_force_block_utility,
    certificate_threshold,
    closed_form_utility,
    compose,
    cond_guess_prob,
    gap_bounds,
    heuristic_threshold,
    memoryless_utility,
    optimal_filter,
    simulate,
    validity_threshold,
    vector_sim_config,
    zn_filter,
)
from privguess import mc, solver, vector
from privguess.solver import lp_guess_max
from privguess.vector import compose_zn
from test_solver import highs_frontier

FIG3 = dict(p=0.6, alpha=0.2)


def all_maps_block_utility(model, eps):
    """Per-symbol optimum over 2^n-output filters, maximized over every guessing map."""
    size = 2 ** model.n
    maps = itertools.product(range(size), repeat=size)
    value = lp_guess_max(model.block_joint().matrix, eps ** model.n, size, maps).value
    return value ** (1.0 / model.n)


def _line(a, b):
    """(slope, intercept) of the line through two (x, y) points."""
    slope = (b[1] - a[1]) / (b[0] - a[0])
    return slope, a[1] - slope * a[0]


class TestModel:
    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            VectorModel(0, 0.6, 0.2)
        with pytest.raises(ParameterError):
            VectorModel(2, 0.45, 0.2)
        with pytest.raises(ParameterError):
            VectorModel(2, 0.85, 0.2)  # violates abar > p

    @pytest.mark.parametrize("build", [lambda n: VectorModel(n, 0.6, 0.2),
                                       lambda n: ZnChannel(gamma=0.3, n=n)],
                             ids=["VectorModel", "ZnChannel"])
    def test_block_length_must_be_an_integer(self, build):
        # bool is not a block length, though operator.index takes it as 0 or 1
        for bad in (True, False, np.True_, 2.0, "2", None, 0, -1):
            with pytest.raises(ParameterError, match="n must be a positive integer"):
                build(bad)
        built = build(np.int64(3))
        assert built.n == 3 and type(built.n) is int
        assert built == build(3) and hash(built) == hash(build(3))

    def test_block_joint_is_product(self):
        # bit for bit the chain of np.kron calls, the reference for the
        # strided products; the memoryless filter's factor goes through the
        # same kernel
        def kron_chain(m1, n):
            want = m1
            for _ in range(n - 1):
                want = np.kron(want, m1)
            return want

        for n in range(1, 11):
            m = VectorModel(n, 0.6, 0.2)
            assert np.array_equal(m.block_joint().matrix, kron_chain(m.symbol_joint().matrix, n))
            for g in (0.0, 0.3, 0.123456789, 1.0):
                f1 = np.array([[1.0, 0.0], [g, 1.0 - g]])
                assert np.array_equal(vector._kron_power(f1, n), kron_chain(f1, n))

    def test_materialization_cap(self):
        with pytest.raises(CapacityError):
            VectorModel(11, 0.6, 0.2).block_joint()


class TestBlockJointMemo:
    """The product joint is built once per model instance and shared by every caller."""

    def test_second_call_returns_the_same_joint(self):
        model = VectorModel(4, **FIG3)
        assert model.block_joint() is model.block_joint()

    def test_one_product_per_model_across_callers(self, monkeypatch):
        calls = []
        kron_power = vector._kron_power

        def counted(m1, n):
            calls.append(n)
            return kron_power(m1, n)

        monkeypatch.setattr(vector, "_kron_power", counted)
        model = VectorModel(10, **FIG3)
        config = vector_sim_config(seed=1, samples=1000, model=model, filter_kind="block", gamma=0.3)
        simulate(config)
        compose_zn(model, ZnChannel(gamma=0.3, n=10))
        assert config.joint is model.block_joint()
        assert calls == [10]

    def test_joint_keeps_the_product_without_a_copy(self, monkeypatch):
        # _kron_power returns a read-only array that owns its memory and that
        # no caller holds, which the model's joint and the memoryless channel
        # keep as it is through prob._adopt; the public constructors copy
        calls = []
        kron_power = vector._kron_power

        def kept(m1, n):
            calls.append(kron_power(m1, n))
            return calls[-1]

        monkeypatch.setattr(vector, "_kron_power", kept)
        monkeypatch.setattr(mc, "_kron_power", kept)
        model = VectorModel(3, **FIG3)
        config = vector_sim_config(seed=1, samples=10, model=model, filter_kind="memoryless",
                                   gamma=0.3)
        product, filt = calls
        assert product.flags.owndata and not product.flags.writeable
        assert config.joint.matrix is product and model.block_joint().matrix is product
        assert config.filter.matrix is filt
        assert JointDistribution(product).matrix is not product
        assert Channel(filt).matrix is not filt
        f1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        assert not vector._kron_power(f1, 1).flags.writeable and f1.flags.writeable

    def test_sim_config_builds_one_joint(self):
        # the product is built in place and kept, so building a block config
        # at n = 10 costs one 8 MB joint and the previous 2 MB level, not a
        # second joint for a copy
        model = VectorModel(10, **FIG3)
        size = 4 ** 10 * 8
        tracemalloc.start()
        try:
            vector_sim_config(seed=1, samples=1000, model=model, filter_kind="block", gamma=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size

    def test_cap_raises_on_every_call(self):
        model = VectorModel(11, **FIG3)
        for _ in range(3):
            with pytest.raises(CapacityError):
                model.block_joint()

    def test_value_semantics_unchanged(self):
        built, fresh = VectorModel(3, **FIG3), VectorModel(3, **FIG3)
        before = (hash(built), repr(built))
        built.block_joint()
        assert (hash(built), repr(built)) == before == (hash(fresh), repr(fresh))
        assert built == fresh

    def test_replace_builds_its_own_joint(self):
        model = VectorModel(3, **FIG3)
        joint = model.block_joint()
        same = dataclasses.replace(model)
        other = dataclasses.replace(model, p=0.65)
        assert same.block_joint() is not joint
        assert np.array_equal(same.block_joint().matrix, joint.matrix)
        assert np.array_equal(other.block_joint().matrix, VectorModel(3, 0.65, 0.2).block_joint().matrix)


class TestMemoryless:
    def test_fig3_value(self):
        assert memoryless_utility(VectorModel(10, **FIG3), 0.7) == pytest.approx(0.86, abs=1e-12)

    def test_independent_of_n(self):
        for n in (1, 2, 5, 17):
            assert memoryless_utility(VectorModel(n, **FIG3), 0.68) == pytest.approx(
                memoryless_utility(VectorModel(1, **FIG3), 0.68), abs=1e-15)

    def test_endpoint(self):
        assert memoryless_utility(VectorModel(3, **FIG3), 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_left_endpoint_is_scalar_perfect_privacy(self):
        assert memoryless_utility(VectorModel(2, **FIG3), 0.6) == pytest.approx(0.72, abs=1e-12)

    def test_matches_scalar_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = float(rng.uniform(0.5, 0.79))
            alpha = float(rng.uniform(0.0, min(0.5, 1.0 - p) - 1e-6))
            model = VectorModel(4, p, alpha)
            params = BiboParams(p, alpha, alpha)
            for eps in np.linspace(p, model.abar, 5):
                want, _ = closed_form_utility(params, float(eps))
                assert memoryless_utility(model, float(eps)) == pytest.approx(want, abs=1e-12)


class TestBlock:
    def test_n2_fig3(self):
        got = block_utility(VectorModel(2, **FIG3), 0.7)
        assert got == pytest.approx(math.sqrt(0.79), abs=1e-12)
        assert got == pytest.approx(0.888819, abs=1e-6)

    def test_n1_reduces_to_scalar(self):
        assert block_utility(VectorModel(1, **FIG3), 0.7) == pytest.approx(0.86, abs=1e-12)

    def test_endpoint(self):
        assert block_utility(VectorModel(10, **FIG3), 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        model = VectorModel(2, **FIG3)
        with pytest.raises(ParameterError):
            block_utility(model, 0.59)
        with pytest.raises(ParameterError):
            block_utility(model, 0.81)

    def test_fig3_curve_n2(self):
        model = VectorModel(2, **FIG3)
        for eps in np.linspace(0.6, 0.8, 201):
            want = math.sqrt(1.4 * eps * eps + 0.104)
            assert block_utility(model, float(eps)) == pytest.approx(want, abs=1e-9)

    def test_fig3_curve_n10(self):
        model = VectorModel(10, **FIG3)
        for eps in np.linspace(0.6, 0.8, 201):
            want = (4.67162 * eps ** 10 + 0.498388) ** 0.1
            assert abs(block_utility(model, float(eps)) - want) <= 5e-5

    def test_huge_n_is_stable(self):
        # formula paths avoid materialization and underflow
        model = VectorModel(4000, p=0.6, alpha=0.2)
        val = block_utility(model, 0.75)
        assert 0.0 < val <= 1.0
        assert math.isfinite(val)

    def test_validity_flag(self):
        model = VectorModel(2, **FIG3)
        thr = certificate_threshold(model)
        for eps in np.linspace(thr, model.abar, 5):
            assert block_utility_detail(model, float(eps)).validity is Validity.VALID
        assert block_utility_detail(model, thr - 0.01).validity is Validity.UNKNOWN
        # above the heuristic threshold, but the formula exceeds the optimum 0.849467
        detail = block_utility_detail(model, 0.676)
        assert detail.value == pytest.approx(0.862419, abs=1e-6)
        assert detail.validity is Validity.UNKNOWN

    def test_dominates_memoryless(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = float(rng.uniform(0.5, 0.75))
            alpha = float(rng.uniform(0.0, min(0.5, 1.0 - p) - 1e-3))
            n = int(rng.integers(2, 9))
            model = VectorModel(n, p, alpha)
            lo = heuristic_threshold(model)
            for eps in np.linspace(lo, model.abar, 7):
                hb = block_utility(model, float(eps))
                hm = memoryless_utility(model, float(eps))
                assert hb >= hm - 1e-12


class TestZnFilter:
    def test_n2_gamma(self):
        assert zn_filter(VectorModel(2, **FIG3), 0.7).gamma == pytest.approx(0.15 / 0.224, abs=1e-12)

    def test_identity_at_endpoint(self):
        assert zn_filter(VectorModel(5, **FIG3), 0.8).gamma == pytest.approx(0.0, abs=1e-15)

    def test_n1_matches_scalar_z_channel(self):
        gamma = zn_filter(VectorModel(1, **FIG3), 0.7).gamma
        assert gamma == pytest.approx(0.25, abs=1e-12)
        scalar = optimal_filter(BiboParams(0.6, 0.2, 0.2), 0.7)
        assert gamma == pytest.approx(scalar.matrix[1, 0], abs=1e-12)

    def test_below_feasible_range_raises(self):
        with pytest.raises(ParameterError):
            zn_filter(VectorModel(2, **FIG3), 0.61)  # flip probability would exceed 1

    def test_channel_matrix_shape(self):
        w = ZnChannel(gamma=0.3, n=2).to_channel()
        np.testing.assert_allclose(
            w.matrix,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0.3, 0, 0, 0.7]], atol=1e-15)

    def test_composition_certificate(self):
        for n in (1, 2, 3, 6, 10):
            model = VectorModel(n, **FIG3)
            lo = certificate_threshold(model)
            for eps in np.linspace(lo, model.abar, 9):
                filt = zn_filter(model, float(eps))
                utility, privacy = compose_zn(model, filt)
                assert privacy == pytest.approx(float(eps) ** n, abs=1e-10)
                assert utility == pytest.approx(block_utility(model, float(eps)) ** n, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_compose_zn_matches_dense_product(self, n, gamma):
        # utility repeats the dense path's float operations and is exact.
        # Privacy is within 1 ulp: the dense path forms the all-zeros column in
        # a BLAS product, whose kernel may fuse the multiply-add (exact with
        # the OpenBLAS kernels this was measured on).
        model, filt = VectorModel(n, **FIG3), ZnChannel(gamma=gamma, n=n)
        joint, w = model.block_joint(), filt.to_channel()
        privacy = cond_guess_prob(compose(joint, w, Axis.COLS), Axis.ROWS)
        utility = cond_guess_prob(JointDistribution(joint.col_marginal[:, None] * w.matrix), Axis.ROWS)
        got_utility, got_privacy = compose_zn(model, filt)
        assert got_utility == utility
        assert abs(got_privacy - privacy) <= np.spacing(privacy)

    def test_compose_zn_block_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose_zn(VectorModel(3, **FIG3), ZnChannel(gamma=0.3, n=2))
        with pytest.raises(DimensionMismatchError):
            compose_zn(VectorModel(2, **FIG3), ZnChannel(gamma=0.3, n=3))
        # the lengths are compared before the product joint is built, so a
        # model past the materialization cap reports the mismatch
        with pytest.raises(DimensionMismatchError):
            compose_zn(VectorModel(11, **FIG3), ZnChannel(gamma=0.3, n=2))

    def test_compose_zn_reads_the_joint_without_copying_it(self):
        # the composed joint's column maxima come from the joint and two
        # updated columns, so once the joint exists a call allocates far
        # less than one more 2^n x 2^n array
        model = VectorModel(10, **FIG3)
        size = model.block_joint().matrix.nbytes
        tracemalloc.start()
        try:
            compose_zn(model, ZnChannel(gamma=0.3, n=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size


class TestGapBounds:
    def test_fig3_n2(self):
        bounds = gap_bounds(VectorModel(2, **FIG3), 0.7)
        assert bounds.lower == pytest.approx(0.028, abs=1e-12)
        assert bounds.upper is None
        measured = block_utility(VectorModel(2, **FIG3), 0.7) - 0.86
        assert measured >= bounds.lower

    def test_n1_no_gap(self):
        assert gap_bounds(VectorModel(1, **FIG3), 0.7).lower == 0.0

    def test_unbiased_upper(self):
        bounds = gap_bounds(VectorModel(4, 0.5, 0.1), 0.6)
        assert bounds.upper == pytest.approx(0.1 / 1.8, abs=1e-12)

    def test_lower_bound_holds(self):
        for n in (2, 4, 8):
            for p in (0.55, 0.6, 0.7):
                for alpha in (0.05, 0.1, 0.2):
                    model = VectorModel(n, p, alpha)
                    lo = heuristic_threshold(model)
                    for eps in np.linspace(lo, model.abar, 9):
                        gap = block_utility(model, float(eps)) - memoryless_utility(model, float(eps))
                        assert gap >= gap_bounds(model, float(eps)).lower - 1e-10

    def test_unbiased_gap_within_upper(self):
        for n in (2, 4, 8):
            for alpha in (0.05, 0.1, 0.2):
                model = VectorModel(n, 0.5, alpha)
                lo = heuristic_threshold(model)
                upper = alpha / (2 * (1 - alpha))
                for eps in np.linspace(lo, model.abar, 9):
                    gap = block_utility(model, float(eps)) - memoryless_utility(model, float(eps))
                    assert gap <= upper + 1e-10

    def test_lower_bound_grows_with_n(self):
        prev = -1.0
        for n in (1, 2, 4, 8, 16, 64):
            lower = gap_bounds(VectorModel(n, **FIG3), 0.75).lower
            assert lower >= prev - 1e-15
            prev = lower


#: n = 1 models: three block pool candidates, then a grid
N1_MODELS = [(0.6609431762596368, 0.19237812747839328),
             (0.5666036727615433, 0.1542356588458359),
             (0.6627648382740602, 0.23509719894095696)]
N1_MODELS += [(float(p), float(a)) for p in np.linspace(0.5, 0.85, 8)
              for a in np.linspace(0.0, 0.45, 10) if 1.0 - a > p + 0.01]


class TestThresholds:
    def test_n1_certified_at_left_endpoint(self):
        est = validity_threshold(VectorModel(1, **FIG3))
        assert est.certified
        assert est.eps_l == pytest.approx(0.6, abs=1e-6)

    def test_n2_certified_value(self):
        est = validity_threshold(VectorModel(2, **FIG3))
        assert est.certified
        assert 0.6 <= est.eps_l < 0.8
        # the LP-certified boundary coincides with the composition certificate
        assert est.eps_l == pytest.approx(certificate_threshold(VectorModel(2, **FIG3)), abs=1e-9)

    def test_large_n_is_heuristic(self):
        est = validity_threshold(VectorModel(10, **FIG3))
        assert not est.certified
        assert VectorModel(10, **FIG3).p <= est.eps_l < VectorModel(10, **FIG3).abar

    def test_n3_certified_value(self):
        est = validity_threshold(VectorModel(3, **FIG3))
        assert est.certified
        assert est.eps_l == pytest.approx(0.783495, abs=1e-6)
        assert est.eps_l == pytest.approx(certificate_threshold(VectorModel(3, **FIG3)), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_lp_per_call(self, n, monkeypatch):
        # one LP, at the top from the identity filter's basis with no simplex
        # pivot; the walk to the threshold pivots on its tableau and solves no other
        solves = []
        real = solver.solve_lp

        def counting(prog, basis=None):
            solves.append(real(prog, basis))
            return solves[-1]

        monkeypatch.setattr(solver, "solve_lp", counting)
        validity_threshold(VectorModel(n, **FIG3))
        assert [sol.iterations for sol in solves] == [0]

    @pytest.mark.xfail(strict=True, reason="a kink whose price rises by less than FEAS_TOL is merged "
                                           "into the piece above it (ROADMAP item 7)")
    def test_small_price_rise_is_the_threshold(self):
        # the kink is at cap certificate_threshold**2 = 0.999973, where the cap
        # price rises by 5.0e-9; the walk passes it and returns eps_l = p = 0.995
        model = VectorModel(2, 0.995, 1e-6)
        assert validity_threshold(model).eps_l == pytest.approx(certificate_threshold(model), abs=1e-12)

    @staticmethod
    def off_walk(monkeypatch, edit):
        """Make every walk yield ``edit(stops)`` in place of its stops."""
        real = solver.GuessMax.walk
        monkeypatch.setattr(solver.GuessMax, "walk", lambda self: edit(real(self)))

    @pytest.mark.parametrize("price", [0.0, math.nan])
    def test_start_off_the_formula_raises(self, price, monkeypatch):
        # the piece below the top has a slope that is not the formula's, or none:
        # the walk is not on L, and no threshold from it is certified
        def edit(stops):
            top = next(stops)
            yield top._replace(price_below=price)
            yield from stops

        self.off_walk(monkeypatch, edit)
        with pytest.raises(NumericalError, match="first stop is not the formula's kink"):
            validity_threshold(VectorModel(2, **FIG3))

    def test_first_stop_below_the_top_raises(self, monkeypatch):
        # a walk that starts below the top: its first stop is the threshold itself
        def edit(stops):
            next(stops)
            yield from stops

        self.off_walk(monkeypatch, edit)
        with pytest.raises(NumericalError, match="first stop is not the formula's kink"):
            validity_threshold(VectorModel(2, **FIG3))

    @pytest.mark.parametrize("field", ["value", "slope"])
    def test_threshold_off_the_line_raises(self, field, monkeypatch):
        # the second stop 1e-6 off L in value, or its piece off L's slope
        def edit(stops):
            yield next(stops)
            kink = next(stops)
            yield kink._replace(**{field: getattr(kink, field) - 1e-6})

        self.off_walk(monkeypatch, edit)
        with pytest.raises(NumericalError, match="off the formula's line"):
            validity_threshold(VectorModel(2, **FIG3))

    def test_n1_is_p_exactly(self):
        # at n = 1 the formula is the scalar frontier, one line over [p, abar]
        for p, alpha in N1_MODELS:
            assert validity_threshold(VectorModel(1, p, alpha)) == (p, True)

    def test_heuristic_n1_is_p(self):
        # at n = 1 the block and memoryless formulas are one line; the first
        # three models are block pool candidates on which roundoff in their
        # comparison once put the heuristic threshold up to 0.0093 above p
        for p, alpha in N1_MODELS:
            assert heuristic_threshold(VectorModel(1, p, alpha)) == p

    @pytest.mark.parametrize("n", [2, 3])
    def test_threshold_is_the_highs_kink(self, n):
        # the HiGHS piece lines either side of eps_l**n cross at it
        pytest.importorskip("scipy")
        for p, alpha in itertools.product((0.55, 0.6, 0.65), (0.1, 0.2, 0.3)):
            # every model here has 1 - alpha - p >= 0.05
            model = VectorModel(n, p, alpha)
            joint = model.block_joint().matrix
            t, top = validity_threshold(model).eps_l ** n, model.abar ** n
            h = 1e-4 * (top - p ** n)
            left = [(x, highs_frontier(joint, x)) for x in (t - 2 * h, t - h)]
            right = [(x, highs_frontier(joint, x)) for x in (t + 0.25 * (top - t), t + 0.75 * (top - t))]
            (s1, c1), (s2, c2) = (_line(*pts) for pts in (left, right))
            assert s1 - s2 > 1e-3
            assert (c2 - c1) / (s1 - s2) == pytest.approx(t, abs=1e-9)

    def test_brute_force_matches_formula_above_threshold(self):
        model = VectorModel(2, **FIG3)
        got = brute_force_block_utility(model, 0.78)
        assert got == pytest.approx(block_utility(model, 0.78), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_formula_optimal_exactly_from_certificate_threshold(self, n):
        model = VectorModel(n, **FIG3)
        thr = certificate_threshold(model)
        for eps in np.linspace(thr, model.abar, 5):
            got = brute_force_block_utility(model, float(eps))
            assert got == pytest.approx(block_utility(model, float(eps)), abs=1e-12)
        # below the threshold the formula overstates the optimum
        below = thr - 0.02
        assert block_utility(model, below) - brute_force_block_utility(model, below) > 1e-4

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_lp_matches_all_maps_oracle(self, n):
        for p, alpha in ((0.6, 0.2), (0.55, 0.1), (0.7, 0.15)):
            model = VectorModel(n, p, alpha)
            for eps in (p, 0.5 * (p + model.abar)):
                want = all_maps_block_utility(model, eps)
                assert brute_force_block_utility(model, eps) == pytest.approx(want, abs=1e-12)

    def test_brute_force_capped(self):
        with pytest.raises(CapacityError):
            brute_force_block_utility(VectorModel(4, **FIG3), 0.78)


class TestConsistencyAtN1:
    def test_all_frontiers_coincide(self):
        model = VectorModel(1, **FIG3)
        params = BiboParams(0.6, 0.2, 0.2)
        for eps in np.linspace(0.6, 0.8, 9):
            scalar, _ = closed_form_utility(params, float(eps))
            assert block_utility(model, float(eps)) == pytest.approx(scalar, abs=1e-12)
            assert memoryless_utility(model, float(eps)) == pytest.approx(scalar, abs=1e-12)
            gamma = zn_filter(model, float(eps)).gamma
            want = optimal_filter(params, float(eps)).matrix[1, 0]
            assert gamma == pytest.approx(want, abs=1e-12)
