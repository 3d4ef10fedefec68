"""Monte Carlo validation: determinism and statistical consistency."""

import numpy as np
import pytest
from conftest import fig3_joint

from privguess import (
    Channel,
    DimensionMismatchError,
    JointDistribution,
    ParameterError,
    SimConfig,
    VectorModel,
    block_utility,
    simulate,
    vector_sim_config,
    zn_filter,
)

Z025 = Channel(np.array([[1.0, 0.0], [0.25, 0.75]]))

#: 3x5 joint and 5x4 channel in dyadic entries, with MAP ties in the first
#: output column of both composed joints (rows 0 and 2 of X, rows 0 and 4 of Y)
JOINT_3X5 = np.array([[8, 4, 0, 8, 2], [4, 8, 6, 2, 4], [8, 4, 2, 0, 4]]) / 64
CHANNEL_5X4 = np.array([[4, 4, 0, 0], [2, 2, 4, 0], [0, 0, 0, 8], [2, 2, 1, 3], [8, 0, 0, 0]]) / 8

#: every float SimReport field as float.hex, in the order
#: (empirical_pc_y, empirical_pc_x, analytic_pc_y, analytic_pc_x, stderr_y, stderr_x),
#: from a sampler that visits samples in draw order. gamma and the 3x5 case
#: are dyadic, so the analytic values, which pass through a BLAS product, do
#: not depend on its summation order or on fused multiply-adds.
GOLDEN = {
    "n4": ("0x1.f322291fb3fa7p-1", "0x1.983a53b8e4b88p-2", "0x1.f3696eae896aep-1",
           "0x1.98e7c2f25877bp-2", "0x1.6efd804542631p-12", "0x1.1f00bec95a5a8p-10"),
    "n7": ("0x1.fee43aa79bbaep-1", "0x1.ad013a92a3055p-3", "0x1.fee5086442a8dp-1",
           "0x1.accb34e74d153p-3", "0x1.b3ea9a33f78dcp-14", "0x1.dd10ff22975d8p-11"),
    "n10": ("0x1.ffe86833c6003p-1", "0x1.ba58f7121ab4bp-4", "0x1.ffe727390df6ep-1",
            "0x1.b7c22f7782310p-4", "0x1.f7456c04ade5dp-16", "0x1.6bdd766f62ef6p-11"),
    "3x5": ("0x1.2022bbecaab8ap-1", "0x1.b141205bc01a3p-2", "0x1.2000000000000p-1",
            "0x1.b000000000000p-2", "0x1.22c47d8fa7e4ep-10", "0x1.219948b29cd84p-10"),
}


def golden_config(case):
    if case == "3x5":
        return SimConfig(seed=2026, samples=200_000, joint=JointDistribution(JOINT_3X5),
                         filter=Channel(CHANNEL_5X4))
    n = int(case[1:])
    # small enough that the all-zeros output is guessed as all-zeros, so that
    # flipped samples miss and the counts depend on each sample's second uniform
    gamma = {4: 0.25, 7: 0.125, 10: 0.0625}[n]
    return vector_sim_config(2026 + n, 200_000, VectorModel(n, 0.6, 0.2), "block", gamma)


def fig3_config(seed=1, samples=10**5):
    return SimConfig(seed=seed, samples=samples, joint=fig3_joint(), filter=Z025)


class TestConfig:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ParameterError):
            SimConfig(seed=1, samples=0, joint=fig3_joint(), filter=Z025)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SimConfig(seed=1, samples=10, joint=fig3_joint(),
                      filter=Channel(np.eye(3)))


class TestDeterminism:
    def test_identical_seed_identical_report(self):
        assert simulate(fig3_config()) == simulate(fig3_config())

    def test_different_seeds_differ(self):
        a = simulate(fig3_config(seed=1))
        b = simulate(fig3_config(seed=2))
        assert a.empirical_pc_y != b.empirical_pc_y

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_report(self, case):
        config = golden_config(case)
        report = simulate(config)
        fields = (report.empirical_pc_y, report.empirical_pc_x, report.analytic_pc_y,
                  report.analytic_pc_x, report.stderr_y, report.stderr_x)
        assert tuple(float.hex(v) for v in fields) == GOLDEN[case]
        assert (report.samples, report.seed, report.rng_algorithm) == (200_000, config.seed, "PCG64")

    def test_rng_algorithm_recorded(self):
        assert simulate(fig3_config(samples=10)).rng_algorithm == "PCG64"


class TestStatistics:
    def test_fig3_within_four_stderr(self):
        report = simulate(fig3_config(seed=1, samples=10**6))
        assert report.analytic_pc_y == pytest.approx(0.86, abs=1e-12)
        assert report.analytic_pc_x == pytest.approx(0.70, abs=1e-12)
        assert abs(report.empirical_pc_y - 0.86) <= 4 * report.stderr_y
        assert abs(report.empirical_pc_x - 0.70) <= 4 * report.stderr_x

    def test_identity_chain_is_exact(self):
        joint = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        report = simulate(SimConfig(seed=3, samples=5000, joint=joint,
                                    filter=Channel.identity(2)))
        assert report.empirical_pc_y == 1.0
        assert report.stderr_y == 0.0

    def test_constant_filter_reveals_nothing(self):
        constant = Channel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        report = simulate(SimConfig(seed=5, samples=10**5, joint=fig3_joint(),
                                    filter=constant))
        assert report.analytic_pc_x == pytest.approx(0.6, abs=1e-12)
        assert abs(report.empirical_pc_x - 0.6) <= 4 * report.stderr_x

    def test_multi_seed_consistency(self):
        hits = 0
        for seed in range(20):
            report = simulate(fig3_config(seed=seed, samples=10**5))
            ok_y = abs(report.empirical_pc_y - 0.86) <= 3 * report.stderr_y
            ok_x = abs(report.empirical_pc_x - 0.70) <= 3 * report.stderr_x
            hits += ok_y and ok_x
        assert hits >= 18


class TestVectorConfigs:
    def test_block_filter_hits_formula(self):
        model = VectorModel(2, 0.6, 0.2)
        eps = 0.78
        gamma = zn_filter(model, eps).gamma
        config = vector_sim_config(seed=11, samples=10**5, model=model,
                                   filter_kind="block", gamma=gamma)
        report = simulate(config)
        assert report.analytic_pc_y == pytest.approx(block_utility(model, eps) ** 2, abs=1e-12)
        assert report.analytic_pc_x == pytest.approx(eps ** 2, abs=1e-12)
        assert abs(report.empirical_pc_y - report.analytic_pc_y) <= 4 * report.stderr_y

    def test_memoryless_filter_is_kronecker(self):
        config = vector_sim_config(seed=11, samples=10, model=VectorModel(2, 0.6, 0.2),
                                   filter_kind="memoryless", gamma=0.25)
        f1 = np.array([[1.0, 0.0], [0.25, 0.75]])
        np.testing.assert_allclose(config.filter.matrix, np.kron(f1, f1), atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            vector_sim_config(seed=1, samples=10, model=VectorModel(2, 0.6, 0.2),
                              filter_kind="other", gamma=0.1)
