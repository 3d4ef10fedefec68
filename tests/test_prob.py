"""Probability primitives: frozen examples and randomized invariants."""

import math

import numpy as np
import pytest
from conftest import fig3_joint, random_channel, random_joint, rounded_pairs

from privguess import (
    Axis,
    Channel,
    InvalidChannelError,
    InvalidDistributionError,
    InvalidOrderError,
    JointDistribution,
    arimoto_cond_entropy,
    arimoto_mutual_information,
    compose,
    cond_guess_prob,
    guess_prob,
    renyi_entropy,
)
from privguess import prob


class TestValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(np.array([[0.7, -0.1], [0.2, 0.2]]))

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(np.array([[0.5, 0.4]]))

    def test_rejects_non_stochastic_channel(self):
        with pytest.raises(InvalidChannelError):
            Channel(np.array([[0.5, 0.4], [1.0, 0.0]]))

    def test_matrix_is_immutable(self):
        j = fig3_joint()
        with pytest.raises(ValueError):
            j.matrix[0, 0] = 0.5

    @pytest.mark.parametrize("cls, scale", [(JointDistribution, 0.25), (Channel, 0.5)])
    def test_callers_array_is_copied(self, cls, scale):
        a = np.full((2, 2), scale)
        held = cls(a)
        a[0, 0] = 0.0
        assert held.matrix[0, 0] == scale

    @pytest.mark.parametrize("cls, scale", [(JointDistribution, 0.25), (Channel, 0.5)])
    def test_read_only_view_of_writable_base_is_copied(self, cls, scale):
        base = np.full((2, 2), scale)
        view = base[:]
        view.setflags(write=False)
        held = cls(view)
        base[0, 0] = 0.0
        assert held.matrix[0, 0] == scale
        assert not np.shares_memory(held.matrix, base)

    @pytest.mark.parametrize("cls, scale", [(JointDistribution, 0.25), (Channel, 0.5)])
    def test_read_only_float64_owner_is_copied(self, cls, scale):
        # its owner can make it writable again and write behind the check
        a = np.full((2, 2), scale)
        a.setflags(write=False)
        held = cls(a)
        a.setflags(write=True)
        a[0, 0] = 0.5
        assert held.matrix[0, 0] == scale and held.matrix.sum() == 4 * scale
        assert not np.shares_memory(held.matrix, a) and not held.matrix.flags.writeable
        # a read-only owner of another dtype is converted
        f32 = np.full((2, 2), scale, dtype=np.float32)
        f32.setflags(write=False)
        assert cls(f32).matrix.dtype == np.float64

    def test_adopted_array_is_kept(self):
        # the package's private path for arrays it derived itself: no copy
        a = np.full((2, 2), 0.25)
        a.setflags(write=False)
        assert prob._adopt(JointDistribution, a).matrix is a

    def test_marginals(self):
        j = fig3_joint()
        np.testing.assert_allclose(j.row_marginal, [0.4, 0.6])
        np.testing.assert_allclose(j.col_marginal, [0.44, 0.56])


class TestGuessProb:
    def test_bernoulli_marginal(self):
        j = JointDistribution(np.array([[0.4], [0.6]]))
        assert guess_prob(j, Axis.ROWS) == pytest.approx(0.6, abs=1e-15)

    def test_uniform_four(self):
        j = JointDistribution(np.full((4, 1), 0.25))
        assert guess_prob(j, Axis.ROWS) == pytest.approx(0.25, abs=1e-15)

    def test_row_marginal_of_joint(self):
        assert guess_prob(fig3_joint(), Axis.ROWS) == pytest.approx(0.6, abs=1e-12)


class TestCondGuessProb:
    def test_hand_sum(self):
        assert cond_guess_prob(fig3_joint(), Axis.ROWS) == pytest.approx(0.80, abs=1e-12)

    def test_product_distribution_gives_marginal(self):
        j = JointDistribution(np.outer([0.4, 0.6], [0.5, 0.5]))
        assert cond_guess_prob(j, Axis.ROWS) == pytest.approx(0.6, abs=1e-12)

    def test_deterministic_relation(self):
        j = JointDistribution(np.array([[0.4, 0.0], [0.0, 0.6]]))
        assert cond_guess_prob(j, Axis.ROWS) == pytest.approx(1.0, abs=1e-15)

    def test_never_below_marginal_guess(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            j = random_joint(rng, rng.integers(1, 5), rng.integers(1, 5))
            assert cond_guess_prob(j, Axis.ROWS) >= guess_prob(j, Axis.ROWS) - 1e-12


class TestCompose:
    def test_identity(self):
        j = fig3_joint()
        out = compose(j, Channel.identity(2), Axis.COLS)
        np.testing.assert_allclose(out.matrix, j.matrix, atol=1e-15)

    def test_rank_one_channel_gives_product(self):
        j = fig3_joint()
        w = np.array([0.3, 0.7])
        out = compose(j, Channel(np.vstack([w, w])), Axis.COLS)
        np.testing.assert_allclose(out.matrix, np.outer(j.row_marginal, w), atol=1e-15)

    def test_z_channel_hand_product(self):
        out = compose(fig3_joint(), Channel(np.array([[1.0, 0.0], [0.25, 0.75]])), Axis.COLS)
        np.testing.assert_allclose(out.matrix, [[0.34, 0.06], [0.24, 0.36]], atol=1e-12)

    def test_rows_side(self):
        j = fig3_joint()
        out = compose(j, Channel.identity(2), Axis.ROWS)
        np.testing.assert_allclose(out.matrix, j.matrix.T, atol=1e-15)

    def test_mass_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            j = random_joint(rng, rng.integers(1, 5), rng.integers(1, 5))
            f = random_channel(rng, j.shape[1], rng.integers(1, 6))
            assert abs(compose(j, f, Axis.COLS).matrix.sum() - 1.0) <= 1e-12

    def test_rounded_pairs_compose(self):
        # inputs up to MASS_TOL off 1 compose to a joint up to 2 MASS_TOL off,
        # which is held as derived, not checked again
        rng = np.random.default_rng(11)
        pairs = [pair for shape in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 5, 5))
                 for pair in rounded_pairs(rng, *shape, draws=100)]
        assert len(pairs) == 169
        for j, f in pairs:
            out = compose(j, f, Axis.COLS)
            np.testing.assert_array_equal(out.matrix, j.matrix @ f.matrix)
            assert not out.matrix.flags.writeable
            assert abs(out.matrix.sum() - 1.0) <= 2 * prob.MASS_TOL

    def test_data_processing_inequality(self):
        # filtering the observed variable never helps the guesser
        rng = np.random.default_rng(13)
        for _ in range(1000):
            j = random_joint(rng, rng.integers(2, 5), rng.integers(2, 5))
            f = random_channel(rng, j.shape[1], rng.integers(1, 6))
            filtered = compose(j, f, Axis.COLS)
            assert cond_guess_prob(filtered, Axis.ROWS) <= cond_guess_prob(j, Axis.ROWS) + 1e-12
            assert cond_guess_prob(filtered, Axis.ROWS) >= guess_prob(j, Axis.ROWS) - 1e-12


class TestRenyiEntropy:
    def test_uniform_binary_all_orders(self):
        for order in (1.0, 1.5, 2.0, 7.0, math.inf):
            assert renyi_entropy([0.5, 0.5], order) == pytest.approx(1.0, abs=1e-12)

    def test_min_entropy(self):
        assert renyi_entropy([0.6, 0.4], math.inf) == pytest.approx(0.7370, abs=1e-4)

    def test_collision_entropy(self):
        assert renyi_entropy([0.6, 0.4], 2.0) == pytest.approx(0.9434, abs=1e-4)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(3)
        orders = [1.0, 1.5, 2.0, 4.0, 16.0, math.inf]
        for _ in range(50):
            w = rng.random(rng.integers(2, 6))
            pmf = w / w.sum()
            vals = [renyi_entropy(pmf, o) for o in orders]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_continuity_anchors(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.random(4)
            pmf = w / w.sum()
            shannon = renyi_entropy(pmf, 1.0)
            minent = -np.log2(pmf.max())
            assert abs(renyi_entropy(pmf, 1.0 + 1e-6) - shannon) <= 1e-3
            assert abs(renyi_entropy(pmf, 1e6) - minent) <= 1e-3

    def test_near_one_uses_shannon_branch(self):
        pmf = [0.3, 0.7]
        assert renyi_entropy(pmf, 1.0 + 1e-7) == renyi_entropy(pmf, 1.0)

    def test_rejects_order_below_one(self):
        for bad in (0.5, 0.0, -1.0, math.nan):
            with pytest.raises(InvalidOrderError):
                renyi_entropy([0.5, 0.5], bad)


class TestArimotoCondEntropy:
    def test_product_reduces_to_marginal_entropy(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for order in (1.0, 2.0, 5.0, math.inf):
            want = renyi_entropy([0.3, 0.7], order)
            assert arimoto_cond_entropy(j, order, Axis.ROWS) == pytest.approx(want, abs=1e-12)

    def test_min_order_is_log_guess(self):
        got = arimoto_cond_entropy(fig3_joint(), math.inf, Axis.ROWS)
        assert got == pytest.approx(0.3219, abs=1e-4)

    def test_deterministic_is_zero(self):
        j = JointDistribution(np.array([[0.4, 0.0], [0.0, 0.6]]))
        for order in (1.0, 2.0, 10.0, math.inf):
            assert arimoto_cond_entropy(j, order, Axis.ROWS) == pytest.approx(0.0, abs=1e-12)


class TestArimotoMutualInformation:
    def test_product_is_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for order in (1.0, 2.0, 5.0, math.inf):
            assert arimoto_mutual_information(j, order, Axis.ROWS) == pytest.approx(0.0, abs=1e-12)

    def test_bridge_value(self):
        got = arimoto_mutual_information(fig3_joint(), math.inf, Axis.ROWS)
        assert got == pytest.approx(math.log2(0.8 / 0.6), abs=1e-4)

    def test_self_information_is_entropy(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert arimoto_mutual_information(j, 1.0, Axis.ROWS) == pytest.approx(1.0, abs=1e-12)

    def test_bridge_identity_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            j = random_joint(rng, rng.integers(2, 5), rng.integers(2, 5))
            lhs = arimoto_mutual_information(j, math.inf, Axis.ROWS)
            rhs = math.log2(cond_guess_prob(j, Axis.ROWS) / guess_prob(j, Axis.ROWS))
            assert abs(lhs - rhs) <= 1e-12
