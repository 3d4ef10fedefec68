"""Block-vector frontiers: formulas, filters, gap bounds, certification."""

import itertools
import math

import numpy as np
import pytest

from privguess import (
    Axis,
    BiboParams,
    CapacityError,
    DimensionMismatchError,
    JointDistribution,
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
    validity_threshold,
    zn_filter,
)
from privguess.solver import lp_guess_max
from privguess.vector import compose_zn

FIG3 = dict(p=0.6, alpha=0.2)


def all_maps_block_utility(model, eps):
    """Per-symbol optimum over 2^n-output filters, maximized over every guessing map."""
    size = 2 ** model.n
    maps = itertools.product(range(size), repeat=size)
    value, _, _ = lp_guess_max(model.block_joint().matrix, eps ** model.n, size, maps)
    return value ** (1.0 / model.n)


class TestModel:
    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            VectorModel(0, 0.6, 0.2)
        with pytest.raises(ParameterError):
            VectorModel(2, 0.45, 0.2)
        with pytest.raises(ParameterError):
            VectorModel(2, 0.85, 0.2)  # violates abar > p

    def test_block_joint_is_product(self):
        m = VectorModel(2, 0.6, 0.2)
        j1 = m.symbol_joint().matrix
        np.testing.assert_allclose(m.block_joint().matrix, np.kron(j1, j1), atol=1e-15)

    def test_materialization_cap(self):
        with pytest.raises(CapacityError):
            VectorModel(11, 0.6, 0.2).block_joint()


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
        assert est.eps_l == pytest.approx(certificate_threshold(VectorModel(2, **FIG3)), abs=1e-4)

    def test_large_n_is_heuristic(self):
        est = validity_threshold(VectorModel(10, **FIG3))
        assert not est.certified
        assert VectorModel(10, **FIG3).p <= est.eps_l < VectorModel(10, **FIG3).abar

    def test_n3_certified_value(self):
        est = validity_threshold(VectorModel(3, **FIG3))
        assert est.certified
        assert est.eps_l == pytest.approx(0.783495, abs=1e-3)  # certificate_threshold

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
