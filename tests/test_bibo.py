"""Binary closed forms: frozen examples, branch dichotomy, end-to-end filters."""

import numpy as np
import pytest
from conftest import random_bibo

from privguess import (
    Axis,
    BiboParams,
    BranchTag,
    DegenerateChannelError,
    JointDistribution,
    ParameterError,
    branch,
    closed_form_utility,
    compose,
    cond_guess_prob,
    crossover,
    from_joint,
    nontrivial_utility,
    optimal_filter,
    perfect_privacy_utility,
    to_joint,
)


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            BiboParams(0.4, 0.2, 0.2)
        with pytest.raises(ParameterError):
            BiboParams(1.0, 0.2, 0.2)
        with pytest.raises(ParameterError):
            BiboParams(0.6, 0.5, 0.2)
        with pytest.raises(ParameterError):
            BiboParams(0.6, 0.2, -0.1)

    def test_derived_quantities(self):
        params = BiboParams(0.6, 0.2, 0.2)
        assert params.q == pytest.approx(0.56, abs=1e-15)
        assert params.pc_x_given_y == pytest.approx(0.8, abs=1e-15)


class TestToJoint:
    def test_fig3_instance(self):
        np.testing.assert_allclose(
            to_joint(BiboParams(0.6, 0.2, 0.2)).matrix,
            [[0.32, 0.08], [0.12, 0.48]], atol=1e-15)

    def test_noiseless_uniform(self):
        np.testing.assert_allclose(
            to_joint(BiboParams(0.5, 0.0, 0.0)).matrix,
            [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_asymmetric(self):
        np.testing.assert_allclose(
            to_joint(BiboParams(0.5, 0.2, 0.1)).matrix,
            [[0.4, 0.1], [0.05, 0.45]], atol=1e-15)


class TestFromJoint:
    def test_round_trip(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            params = random_bibo(rng)
            got = from_joint(to_joint(params))
            assert got is not None
            for name in ("p", "alpha", "beta"):
                assert getattr(got, name) == pytest.approx(getattr(params, name), abs=1e-12)

    @pytest.mark.parametrize("matrix", [
        [[0.2, 0.1, 0.1], [0.2, 0.2, 0.2]],  # not 2x2
        [[0.3, 0.3], [0.2, 0.2]],  # p = 0.4 below 1/2
        [[0.5, 0.5], [0.0, 0.0]],  # p = 0
        [[0.0, 0.0], [0.6, 0.4]],  # p = 1
        [[0.2, 0.3], [0.1, 0.4]],  # alpha = 0.6 above 1/2
        [[0.05, 0.05], [0.45, 0.45]],  # degenerate: abar pbar <= beta p
    ])
    def test_rejects_what_the_closed_forms_reject(self, matrix):
        assert from_joint(JointDistribution(np.array(matrix))) is None

    def test_rejects_near_degenerate_denominator(self):
        # not DEGENERATE by branch(), but the branch denominator is below DENOM_TOL
        params = BiboParams(0.5, 0.5 - 1e-13, 0.5 - 2e-13)
        assert branch(params) is not BranchTag.DEGENERATE
        with pytest.raises(DegenerateChannelError, match="branch denominator"):
            closed_form_utility(params, 0.5)
        assert from_joint(to_joint(params)) is None


def zeta_reference(params: BiboParams, eps: float) -> float:
    """The flip probability at one eps in Python floats: the scalar reference for crossover."""
    p, a, b = params.p, params.alpha, params.beta
    pbar = 1.0 - p
    eps = min(max(eps, p), params.pc_x_given_y)
    num = (1.0 - a) * pbar + (1.0 - b) * p - eps
    z = branch(params) is BranchTag.Z_BRANCH
    return min(max(num / ((1.0 - b) * p - a * pbar if z else (1.0 - a) * pbar - b * p), 0.0), 1.0)


class TestCrossover:
    def test_matches_the_scalar_reference_and_the_filter(self):
        # the Z filter flips 1 -> 0, the reverse-Z filter 0 -> 1
        rng = np.random.default_rng(47)
        params_list = [BiboParams(0.6, 0.2, 0.2), BiboParams(0.5, 0.2, 0.1)]
        params_list += [random_bibo(rng) for _ in range(20)]
        for params in params_list:
            grid = np.linspace(params.p - 5e-10, params.pc_x_given_y + 5e-10, 13)
            got = crossover(params, grid)
            assert got.shape == grid.shape
            want = [zeta_reference(params, e) for e in grid.tolist()]
            assert got.tolist() == want
            entry = (1, 0) if branch(params) is BranchTag.Z_BRANCH else (0, 1)
            assert [optimal_filter(params, e).matrix[entry] for e in grid.tolist()] == want
            assert float(crossover(params, grid[3])) == want[3]

    def test_rejects_eps_outside_the_domain(self):
        params = BiboParams(0.6, 0.2, 0.2)
        with pytest.raises(ParameterError, match="eps 0.9 outside"):
            crossover(params, np.array([0.7, 0.9, 0.95]))
        with pytest.raises(ParameterError, match="eps nan outside"):
            crossover(params, np.nan)
        with pytest.raises(DegenerateChannelError):
            crossover(BiboParams(0.9, 0.45, 0.45), 0.9)


class TestBranch:
    def test_examples(self):
        assert branch(BiboParams(0.6, 0.2, 0.2)) is BranchTag.Z_BRANCH
        assert branch(BiboParams(0.5, 0.2, 0.1)) is BranchTag.REVERSE_Z_BRANCH
        assert branch(BiboParams(0.9, 0.45, 0.45)) is BranchTag.DEGENERATE

    def test_boundary_goes_to_reverse(self):
        # alpha = beta with p = 1/2 puts the two sides in exact balance
        assert branch(BiboParams(0.5, 0.3, 0.3)) is BranchTag.REVERSE_Z_BRANCH

    def test_dichotomy(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            tag = branch(random_bibo(rng))
            assert tag in (BranchTag.Z_BRANCH, BranchTag.REVERSE_Z_BRANCH)


class TestPerfectPrivacy:
    def test_fig3(self):
        assert perfect_privacy_utility(BiboParams(0.6, 0.2, 0.2)) == pytest.approx(0.72, abs=1e-12)

    def test_reverse_branch(self):
        assert perfect_privacy_utility(BiboParams(0.5, 0.2, 0.1)) == pytest.approx(0.55, abs=1e-12)

    def test_symmetric_uniform_gives_half(self):
        for alpha in (0.1, 0.2, 0.3, 0.4):
            got = perfect_privacy_utility(BiboParams(0.5, alpha, alpha))
            assert got == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_is_error(self):
        with pytest.raises(DegenerateChannelError):
            perfect_privacy_utility(BiboParams(0.9, 0.45, 0.45))


class TestNontrivialUtility:
    def test_examples(self):
        assert nontrivial_utility(BiboParams(0.6, 0.2, 0.2)) is True
        assert nontrivial_utility(BiboParams(0.5, 0.2, 0.2)) is False
        assert nontrivial_utility(BiboParams(0.6, 0.3, 0.1)) is False


class TestClosedForm:
    def test_fig3_values(self):
        params = BiboParams(0.6, 0.2, 0.2)
        value, tag = closed_form_utility(params, 0.7)
        assert value == pytest.approx(0.86, abs=1e-12)
        assert tag is BranchTag.Z_BRANCH
        assert closed_form_utility(params, 0.8)[0] == pytest.approx(1.0, abs=1e-12)

    def test_reverse_branch_value(self):
        value, tag = closed_form_utility(BiboParams(0.5, 0.2, 0.1), 0.71)
        assert value == pytest.approx(0.82, abs=1e-12)
        assert tag is BranchTag.REVERSE_Z_BRANCH

    def test_out_of_range(self):
        params = BiboParams(0.6, 0.2, 0.2)
        with pytest.raises(ParameterError):
            closed_form_utility(params, 0.55)
        with pytest.raises(ParameterError):
            closed_form_utility(params, 0.85)

    def test_affine_in_eps(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            params = random_bibo(rng)
            grid = np.linspace(params.p, params.pc_x_given_y, 9)
            vals = np.array([closed_form_utility(params, e)[0] for e in grid])
            second = np.diff(vals, 2)
            assert np.abs(second).max() <= 1e-12

    def test_matches_perfect_privacy_at_left_endpoint(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            params = random_bibo(rng)
            assert closed_form_utility(params, params.p)[0] == perfect_privacy_utility(params)

    def test_is_one_at_right_endpoint(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            params = random_bibo(rng)
            got, _ = closed_form_utility(params, params.pc_x_given_y)
            assert got == pytest.approx(1.0, abs=1e-12)


class TestOptimalFilter:
    def test_fig3_z_channel(self):
        filt = optimal_filter(BiboParams(0.6, 0.2, 0.2), 0.7)
        np.testing.assert_allclose(filt.matrix, [[1.0, 0.0], [0.25, 0.75]], atol=1e-12)

    def test_identity_at_full_budget(self):
        filt = optimal_filter(BiboParams(0.6, 0.2, 0.2), 0.8)
        np.testing.assert_allclose(filt.matrix, np.eye(2), atol=1e-12)

    def test_reverse_endpoint(self):
        filt = optimal_filter(BiboParams(0.5, 0.2, 0.1), 0.85)
        np.testing.assert_allclose(filt.matrix, np.eye(2), atol=1e-12)

    def test_end_to_end_grid(self):
        # composing the filter with the joint reproduces (eps, closed form)
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = random_bibo(rng)
            joint = to_joint(params)
            for eps in np.linspace(params.p, params.pc_x_given_y, 10):
                filt = optimal_filter(params, float(eps))
                achieved_privacy = cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS)
                p_yz = joint.col_marginal[:, None] * filt.matrix
                achieved_utility = float(p_yz.max(axis=0).sum())
                want, _ = closed_form_utility(params, float(eps))
                assert achieved_privacy == pytest.approx(float(eps), abs=1e-12)
                assert achieved_utility == pytest.approx(want, abs=1e-12)


def binary_filter_grid_max(params: BiboParams, eps: float, points: int = 41):
    """Dense search over 2x2 filters [[1-u, u], [v, 1-v]]; the test-side oracle."""
    joint = to_joint(params).matrix
    q = joint.sum(axis=0)
    us, vs = np.meshgrid(np.linspace(0, 1, points), np.linspace(0, 1, points))
    f00, f01 = 1.0 - us, us
    f10, f11 = vs, 1.0 - vs
    # joint with Z per filter entry
    xz0 = joint[:, 0, None, None] * f00 + joint[:, 1, None, None] * f10
    xz1 = joint[:, 0, None, None] * f01 + joint[:, 1, None, None] * f11
    privacy = np.maximum(xz0[0], xz0[1]) + np.maximum(xz1[0], xz1[1])
    yz0 = np.maximum(q[0] * f00, q[1] * f10)
    yz1 = np.maximum(q[0] * f01, q[1] * f11)
    utility = yz0 + yz1
    feasible = privacy <= eps + 1e-12
    best = utility[feasible].max()
    arg = np.argwhere(feasible & (utility >= best - 1e-6))
    return float(best), [(float(us[i, j]), float(vs[i, j])) for i, j in arg]


class TestUniqueMaximizer:
    def test_z_channel_is_the_unique_binary_optimum(self):
        params = BiboParams(0.6, 0.2, 0.2)
        for eps in (0.65, 0.7, 0.75):
            want, _ = closed_form_utility(params, eps)
            best, argmaxes = binary_filter_grid_max(params, eps)
            assert best == pytest.approx(want, abs=1e-9)  # grid contains the optimum
            zeta = (0.8 - eps) / 0.4
            for u, v in argmaxes:
                # unique up to output relabeling: (0, zeta) or its mirror (1, 1-zeta)
                direct = abs(u - 0.0) <= 1e-12 and abs(v - zeta) <= 1e-12
                mirrored = abs(u - 1.0) <= 1e-12 and abs(v - (1.0 - zeta)) <= 1e-12
                assert direct or mirrored, (u, v, zeta)
