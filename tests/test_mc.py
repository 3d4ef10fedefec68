"""Monte Carlo validation: determinism and statistical consistency."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import fig3_joint, rounded_pairs

from privguess import (
    Axis,
    Channel,
    DimensionMismatchError,
    JointDistribution,
    ParameterError,
    SimConfig,
    VectorModel,
    ZnChannel,
    block_utility,
    compose,
    cond_guess_prob,
    simulate,
    vector_sim_config,
    zn_filter,
)
from privguess import mc

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


#: the GOLDEN fields of the n10 and 3x5 cases at sample counts around the
#: chunk the samples are drawn and counted in: one short of a chunk, one
#: chunk, one over, and three chunks and a part
CHUNK_GOLDEN = {
    ("n10", mc.SAMPLE_CHUNK - 1): (
        "0x1.ffebffebffec0p-1", "0x1.b141b141b141bp-4", "0x1.ffe727390df6ep-1",
        "0x1.b7c22f7782310p-4", "0x1.94bf307597b2fp-15", "0x1.3aef087f5312cp-10"),
    ("n10", mc.SAMPLE_CHUNK): (
        "0x1.ffec000000000p-1", "0x1.b140000000000p-4", "0x1.ffe727390df6ep-1",
        "0x1.b7c22f7782310p-4", "0x1.94bd9bbe4f493p-15", "0x1.3aede03090343p-10"),
    ("n10", mc.SAMPLE_CHUNK + 1): (
        "0x1.ffec0013ffec0p-1", "0x1.b13e4ec1b13e5p-4", "0x1.ffe727390df6ep-1",
        "0x1.b7c22f7782310p-4", "0x1.94bc070a303afp-15", "0x1.3aecb7e3f7968p-10"),
    ("n10", 3 * mc.SAMPLE_CHUNK + 7): (
        "0x1.ffea003354dd9p-1", "0x1.ba36a2d5d9626p-4", "0x1.ffe727390df6ep-1",
        "0x1.b7c22f7782310p-4", "0x1.ea24e2fb12178p-16", "0x1.6eef5f378a505p-11"),
    ("3x5", mc.SAMPLE_CHUNK - 1): (
        "0x1.1e591e591e592p-1", "0x1.ae99ae99ae99bp-2", "0x1.2000000000000p-1",
        "0x1.b000000000000p-2", "0x1.fc64b9d02d929p-10", "0x1.f97de8a186c22p-10"),
    ("3x5", mc.SAMPLE_CHUNK): (
        "0x1.1e58000000000p-1", "0x1.ae9c000000000p-2", "0x1.2000000000000p-1",
        "0x1.b000000000000p-2", "0x1.fc63fffbf8baep-10", "0x1.f97d4b6f556e1p-10"),
    ("3x5", mc.SAMPLE_CHUNK + 1): (
        "0x1.1e58e1a71e58ep-1", "0x1.ae9e5161ae9e5p-2", "0x1.2000000000000p-1",
        "0x1.b000000000000p-2", "0x1.fc62cbea7fbdep-10", "0x1.f97cae3ab5f35p-10"),
    ("3x5", 3 * mc.SAMPLE_CHUNK + 7): (
        "0x1.20455f5e2179bp-1", "0x1.b1300d3a8bcccp-2", "0x1.2000000000000p-1",
        "0x1.b000000000000p-2", "0x1.253d72bc250f5p-10", "0x1.241336acd5669p-10"),
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

    @pytest.mark.parametrize("samples", [True, False, np.True_, 100.0, "100", None, -1])
    def test_rejects_non_integer_samples(self, samples):
        # bool is not a sample count, though operator.index takes it as 0 or 1
        with pytest.raises(ParameterError, match="samples must be a positive integer"):
            SimConfig(seed=1, samples=samples, joint=fig3_joint(), filter=Z025)

    def test_accepts_numpy_integer_samples(self):
        config = SimConfig(seed=1, samples=np.int64(100), joint=fig3_joint(), filter=Z025)
        assert config.samples == 100 and type(config.samples) is int
        assert simulate(config) == simulate(dataclasses.replace(config, samples=100))

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True, False, np.True_, None])
    def test_rejects_bad_seed(self, seed):
        # a negative seed used to reach NumPy's own ValueError, a float or a
        # string its TypeError, and True ran as seed 1
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            SimConfig(seed=seed, samples=10, joint=fig3_joint(), filter=Z025)

    def test_accepts_numpy_integer_and_zero_seed(self):
        config = SimConfig(seed=np.int64(3), samples=100, joint=fig3_joint(), filter=Z025)
        assert config.seed == 3 and type(config.seed) is int
        assert simulate(config) == simulate(dataclasses.replace(config, seed=3))
        zero = SimConfig(seed=0, samples=100, joint=fig3_joint(), filter=Z025)
        assert simulate(zero).seed == 0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SimConfig(seed=1, samples=10, joint=fig3_joint(),
                      filter=Channel(np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            SimConfig(seed=1, samples=10, joint=fig3_joint(), filter=ZnChannel(gamma=0.3, n=2))


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

    @pytest.mark.parametrize("case, samples", sorted(CHUNK_GOLDEN))
    def test_chunk_boundary_report(self, case, samples):
        # the samples are drawn and counted one chunk at a time; the report
        # is the one a single draw of all of them gives
        report = simulate(dataclasses.replace(golden_config(case), samples=samples))
        fields = (report.empirical_pc_y, report.empirical_pc_x, report.analytic_pc_y,
                  report.analytic_pc_x, report.stderr_y, report.stderr_x)
        assert tuple(float.hex(v) for v in fields) == CHUNK_GOLDEN[case, samples]
        assert report.samples == samples

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

    def test_rounded_pairs_simulate(self):
        # inputs up to MASS_TOL off 1, whose composed joint is up to 2 MASS_TOL off
        rng = np.random.default_rng(11)
        for shape in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 5, 5)):
            for joint, filt in rounded_pairs(rng, *shape, draws=100):
                report = simulate(SimConfig(seed=1, samples=100, joint=joint, filter=filt))
                want = cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS)
                assert report.analytic_pc_x == pytest.approx(want, abs=1e-15)

    def test_multi_seed_consistency(self):
        hits = 0
        for seed in range(20):
            report = simulate(fig3_config(seed=seed, samples=10**5))
            ok_y = abs(report.empirical_pc_y - 0.86) <= 3 * report.stderr_y
            ok_x = abs(report.empirical_pc_x - 0.70) <= 3 * report.stderr_x
            hits += ok_y and ok_x
        assert hits >= 18


class TestBoundedMemory:
    """A simulation holds one chunk of samples at a time, and the flip
    channel no CDF of its joint, so its peak allocation depends neither on
    the sample count nor on the joint's 2^(2n)-entry CDF."""

    @pytest.mark.parametrize("config, bound_mb", [
        # the 8 MB product joint is built with the config, before tracing
        (lambda: golden_config("n10"), 8),
        (lambda: fig3_config(samples=2 * 10**6), 16),
    ], ids=["block-n10", "fig3-dense"])
    def test_peak_allocation(self, config, bound_mb):
        config = config()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < bound_mb * 2**20


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
        f1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        want = f1
        for n in range(1, 6):
            config = vector_sim_config(seed=11, samples=10, model=VectorModel(n, 0.6, 0.2),
                                       filter_kind="memoryless", gamma=0.3)
            assert np.array_equal(config.filter.matrix, want)
            want = np.kron(want, f1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            vector_sim_config(seed=1, samples=10, model=VectorModel(2, 0.6, 0.2),
                              filter_kind="other", gamma=0.1)
        # the kind is checked before the product joint is built, so a model
        # past the materialization cap reports the kind
        with pytest.raises(ParameterError, match="unknown filter kind"):
            vector_sim_config(1, 10, VectorModel(11, 0.6, 0.2), "bogus", 0.3)

    def test_counts_checked_before_the_joint_is_built(self):
        # samples and seed are checked first, so a model past the
        # materialization cap reports them, and a model under it builds no
        # product joint for a config that is rejected
        with pytest.raises(ParameterError, match="samples must be a positive integer"):
            vector_sim_config(1, 0, VectorModel(11, 0.6, 0.2), "block", 0.3)
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            vector_sim_config(-1, 10, VectorModel(11, 0.6, 0.2), "block", 0.3)
        model = VectorModel(10, 0.6, 0.2)
        for seed, samples in ((1, 0), (-1, 10), (True, 10), (1, 1.5)):
            with pytest.raises(ParameterError):
                vector_sim_config(seed, samples, model, "block", 0.3)
        assert "_block_joint" not in model.__dict__

    @pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("kind", ["memoryless", "block"])
    def test_gamma_outside_probability_rejected(self, kind, gamma):
        with pytest.raises(ParameterError, match="gamma must be a probability"):
            vector_sim_config(seed=1, samples=10, model=VectorModel(2, 0.6, 0.2),
                              filter_kind=kind, gamma=gamma)


class TestZnChannel:
    """The block filter is simulated through its structure; its dense channel is the oracle."""

    @pytest.mark.parametrize("p, alpha", [(0.6, 0.2), (0.5, 0.0), (0.7, 0.25)])
    @pytest.mark.parametrize("n, gamma", [(n, g) for n in range(1, 9)
                                          for g in (0.0, 0.3, 1.0, 0.123456789)]
                             + [(9, 0.3), (10, 0.123456789)])
    def test_matches_dense_channel(self, n, gamma, p, alpha):
        config = vector_sim_config(seed=7 * n + 1, samples=50_000, model=VectorModel(n, p, alpha),
                                   filter_kind="block", gamma=gamma)
        assert config.filter == ZnChannel(gamma=gamma, n=n)
        got = simulate(config)
        want = simulate(dataclasses.replace(config, filter=config.filter.to_channel()))
        # analytic_pc_x is within 1 ulp: the dense path forms the all-zeros
        # column in a BLAS product, whose kernel may fuse the multiply-add
        assert abs(got.analytic_pc_x - want.analytic_pc_x) <= np.spacing(want.analytic_pc_x)
        assert got == dataclasses.replace(want, analytic_pc_x=got.analytic_pc_x)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 0.123456789])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure_matches_dense_rows(self, n, gamma):
        filt = ZnChannel(gamma=gamma, n=n)
        w = filt.to_channel().matrix
        size = 2 ** n
        # Y marginals with a zero entry and with ties between the all-zeros
        # and the flipped all-ones mass in the all-zeros output column
        rng = np.random.default_rng(n)
        for p_y in (rng.random(size), np.eye(1, size, size - 1)[0], np.full(size, 1.0)):
            p_y = p_y / p_y.sum()
            if gamma > 0.0:
                p_y[0] = p_y[-1] * gamma
            guess, best = filt.map_guess(p_y)
            want_guess, want_sum = mc._map_guess(p_y[:, None] * w)
            assert np.array_equal(guess, want_guess)
            assert float(best.sum()) == want_sum

    @pytest.mark.parametrize("p, alpha, gamma", [(0.6, 0.2, 0.0), (0.6, 0.2, 0.3), (0.6, 0.2, 1.0),
                                                  (0.5, 0.0, 1.0)])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_composed_map_guess_matches_updated_copy(self, n, p, alpha, gamma):
        # (0.5, 0.0) at gamma = 1 is the tie case: the product joint is
        # diagonal, so the all-zeros output column holds two equal maxima
        # (rows 0 and 2^n - 1) and the all-ones output column is all zeros
        joint = VectorModel(n, p, alpha).block_joint().matrix
        guess, best = ZnChannel(gamma=gamma, n=n).composed_map_guess(joint)
        composed = joint.copy()
        composed[:, 0] += gamma * composed[:, -1]
        composed[:, -1] *= 1.0 - gamma
        want_guess, want_sum = mc._map_guess(composed)
        assert np.array_equal(guess, want_guess)
        assert np.array_equal(best, composed.max(axis=0))
        assert float(best.sum()) == want_sum

    def test_block_path_builds_no_dense_matrix(self, monkeypatch):
        def dense(*args):
            raise AssertionError("dense 2^n x 2^n channel or product on the block path")

        monkeypatch.setattr(ZnChannel, "to_channel", dense)
        monkeypatch.setattr("privguess.mc.compose", dense)
        config = vector_sim_config(seed=3, samples=1000, model=VectorModel(6, 0.6, 0.2),
                                   filter_kind="block", gamma=0.3)
        assert simulate(config).samples == 1000


#: n = 1 to 3 joints for the count tests: a 2x2 one whose CDF ends 1e-12
#: below 1, so first uniforms above its last entry reach the clamp to the
#: last cell, and dyadic 4x4 and 8x8 ones with empty cells, so that some CDF
#: entries repeat; the 8x8 one has an empty first cell and an empty row
SHORT_2X2 = np.array([[0.25, 0.125], [0.375, 0.25 - 1e-12]])
SPARSE_4X4 = np.array([[4, 0, 1, 3], [0, 2, 0, 2], [1, 0, 0, 5], [2, 2, 0, 10]]) / 32
SPARSE_8X8 = np.array([
    [0, 2, 0, 8, 1, 2, 5, 0], [5, 7, 0, 0, 5, 3, 3, 3], [0, 0, 4, 4, 8, 2, 0, 2],
    [0, 1, 3, 0, 0, 0, 7, 3], [0, 0, 4, 5, 0, 5, 3, 5], [0, 0, 0, 0, 0, 0, 0, 0],
    [8, 0, 3, 1, 3, 3, 0, 3], [0, 5, 3, 0, 0, 5, 3, 119],
]) / 256


class TestLowerEdges:
    @pytest.mark.parametrize("size", [1, 5, mc.SAMPLE_CHUNK, mc.SAMPLE_CHUNK + 1, 3 * mc.SAMPLE_CHUNK - 7])
    def test_match_cumsum_to_the_bit(self, size):
        # cells at, next to and between the chunk edges, both ends, and
        # repeats, in no order and in a 2-D array
        rng = np.random.default_rng(size)
        flat = rng.random(size) * (rng.random(size) < 0.8)
        flat /= 3.0 * flat.sum() or 1.0
        near = np.arange(0, size + 1, mc.SAMPLE_CHUNK)[:, None] + np.array([-1, 0, 1])
        ks = np.concatenate([near.ravel(), rng.integers(0, size + 1, 61), [0, size, size]])
        ks = ks[(ks >= 0) & (ks <= size)].reshape(1, -1).repeat(2, axis=0)
        cdf = np.cumsum(flat)
        want = np.where(ks == 0, -np.inf, np.where(ks == size, np.inf, cdf[ks - 1]))
        got = mc._lower_edges(flat, ks)
        assert got.shape == ks.shape
        assert [float.hex(v) for v in got.ravel()] == [float.hex(v) for v in want.ravel()]


class TestSplitCounts:
    """The flip channel's counts, split on the flip bit, against the paired
    counts of its dense rows, sample by sample, on hand-built uniforms."""

    @staticmethod
    def uniforms(cdf, gamma):
        # first uniforms at and just below every CDF entry, and the largest
        # below 1; second ones at, just below and just above gamma, and at
        # both ends of [0, 1)
        u0 = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), [np.nextafter(1.0, 0.0)]])
        u1 = np.array([0.0, np.nextafter(gamma, 0.0), gamma, np.nextafter(gamma, 1.0), 0.5,
                       np.nextafter(1.0, 0.0)])
        u0, u1 = u0[u0 < 1.0], u1[u1 < 1.0]
        return np.stack(np.meshgrid(u0, u1, indexing="ij"), axis=-1).reshape(-1, 2)

    @staticmethod
    def one_sample(joint, w, x_map, y_map, u0, u1):
        # the inverse CDF written out: the first entry above the uniform,
        # clamped to the last one, is the count of entries at or below it
        cdf = np.cumsum(joint.ravel())
        x, y = divmod(min(int((cdf <= u0).sum()), cdf.size - 1), joint.shape[1])
        z = min(int((np.cumsum(w[y]) <= u1).sum()), w.shape[1] - 1)
        return int(y_map[z] == y), int(x_map[z] == x)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 0.123456789])
    @pytest.mark.parametrize("joint", [SHORT_2X2, SPARSE_4X4, SPARSE_8X8], ids=["n1", "n2", "n3"])
    def test_split_matches_paired_dense_rows(self, joint, gamma):
        joint = JointDistribution(joint).matrix
        size = joint.shape[1]
        filt = ZnChannel(gamma=gamma, n=size.bit_length() - 1)
        dense = filt.to_channel()
        cdf = np.cumsum(joint.ravel())
        u = self.uniforms(cdf, gamma)
        if joint.shape == (2, 2):
            assert cdf[-1] < 1.0 and (u[:, 0] >= cdf[-1]).any()
        flips = (u[:, 1] < gamma).any(), (u[:, 1] >= gamma).any()
        assert flips == (gamma > 0.0, gamma < 1.0)

        rng = np.random.default_rng(size)
        maps = [
            # the MAP guesses the simulation uses
            (filt.composed_map_guess(joint)[0], filt.map_guess(joint.sum(axis=0))[0]),
            # identity guesses: a y hit then says whether the sample was flipped
            (np.arange(size), np.arange(size)),
            (rng.integers(size, size=size), rng.integers(size, size=size)),
            # x guessed right in a whole row, the first and the last, so the
            # x-hit cells sit next to each other and reach both ends of the
            # flattened joint; y guessed right only in the first and last
            # columns, so unflipped y-hit runs end one row and start the next
            (np.zeros(size, dtype=int), np.r_[0, np.zeros(size - 2, dtype=int), size - 1]),
            (np.full(size, size - 1), np.r_[0, np.zeros(size - 2, dtype=int), size - 1]),
            # x-hit cells at the end of row 0 and the start of row 1
            (np.r_[1, np.zeros(size - 1, dtype=int)], np.arange(size)),
        ]
        for x_map, y_map in maps:
            count_flip = mc._counter(joint, filt, x_map, y_map)
            count_dense = mc._counter(joint, dense, x_map, y_map)
            # samples = 1, each sample on its own, then all of them together
            for sample in u:
                one = sample[None]
                want = self.one_sample(joint, dense.matrix, x_map, y_map, *sample)
                assert count_flip(one) == want
                assert count_dense(one) == want
            counts = count_flip(u)
            assert counts == count_dense(u)
            assert all(type(c) is int for c in counts)
            # the same uniforms in two chunks, as a simulation draws them:
            # the chunks' counts add up to the whole block's
            for count in (count_flip, count_dense):
                for cut in (0, 1, len(u) // 3, len(u) - 1):
                    first, second = count(u[:cut]), count(u[cut:])
                    assert (first[0] + second[0], first[1] + second[1]) == counts
