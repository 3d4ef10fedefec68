"""Seeded Monte Carlo validation of analytic guessing probabilities.

A simulation draws (X, Y) pairs from a joint distribution, pushes Y through a
filter to get Z, applies the exact MAP guessers for X and Y given Z, and
compares hit frequencies against the analytically computed guessing
probabilities.

Determinism contract: sampling consumes a PCG64 stream seeded explicitly,
two uniforms per sample in a fixed order (first selects the (x, y) cell by
inverse CDF over the row-major flattened joint, second selects z by inverse
CDF over the filter row of y). Each empirical value is an exact integer hit
count divided by the sample count, and a count does not depend on the order
samples are visited in or on how they are grouped, so they are counted in
whatever way is cheapest and every count is the one a visit in draw order
gives. A dense filter's z needs each sample's pair of uniforms, so its
samples are visited in order of their first uniform, each keeping its own
second one. For a :class:`~privguess.vector.ZnChannel` the second uniform
matters only through the flip bit ``u1 < gamma`` (the closed form of the
same inverse CDF: the all-ones y goes to all-zeros when the bit is set,
every other y to itself), so whether a sample is a hit depends only on its
(x, y) cell and that bit. Its samples are split on the bit, each half's
first uniforms are sorted, and each count is read off the sorted uniforms at
the edges of the runs of hit cells, with no per-sample search, z or
comparison; its counts are those of its dense channel. Identical config
therefore gives a bit-identical report within this implementation; the
generator name is recorded in the report so reruns can verify they used the
same algorithm.
The MAP guessers are computed exactly from the composed joints, never
estimated, with argmax ties broken by lowest index. For a ``ZnChannel`` they
are read off the joint itself and the two columns the channel updates, and
off the Y marginal, with no 2^n x 2^n channel and no copy of the joint; a
block model's config holds the model's own product joint, built once per
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .prob import Axis, Channel, JointDistribution, _adopt, _positive_int, compose
from .vector import VectorModel, ZnChannel, _kron_power

__all__ = ["SimConfig", "SimReport", "simulate", "vector_sim_config"]

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    """A seeded simulation of a joint pushed through a filter.

    The filter is a dense :class:`Channel` or a :class:`ZnChannel`, which is
    simulated through its structure, with no 2^n x 2^n matrix; both give the
    same report for the same channel.
    """

    seed: int
    samples: int
    joint: JointDistribution
    filter: Channel | ZnChannel

    def __post_init__(self):
        object.__setattr__(self, "seed", _positive_int("seed", self.seed, low=0))
        object.__setattr__(self, "samples", _positive_int("samples", self.samples))
        if self.filter.shape[0] != self.joint.shape[1]:
            raise DimensionMismatchError(
                f"filter rows {self.filter.shape[0]} != Y alphabet {self.joint.shape[1]}"
            )


@dataclass(frozen=True)
class SimReport:
    """Empirical vs analytic guessing probabilities, with binomial standard errors."""

    empirical_pc_y: float
    empirical_pc_x: float
    analytic_pc_y: float
    analytic_pc_x: float
    stderr_y: float
    stderr_x: float
    samples: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def vector_sim_config(seed: int, samples: int, model: VectorModel,
                      filter_kind: str, gamma: float) -> SimConfig:
    """Config for a block model: ``filter_kind`` is ``memoryless`` or ``block``.

    ``memoryless`` applies the flip-to-zero channel with probability ``gamma``
    independently per coordinate, as a dense :class:`Channel`; ``block``
    applies the all-ones-flipping block channel with probability ``gamma``,
    as a :class:`ZnChannel`. Every argument is checked before the product
    joint is built.
    """
    seed, samples = _positive_int("seed", seed, low=0), _positive_int("samples", samples)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be a probability, got {gamma!r}")
    if filter_kind not in ("memoryless", "block"):
        raise ParameterError(f"unknown filter kind {filter_kind!r}")
    joint = model.block_joint()
    if filter_kind == "memoryless":
        filt = _adopt(Channel, _kron_power(np.array([[1.0, 0.0], [gamma, 1.0 - gamma]]), model.n))
    else:
        filt = ZnChannel(gamma=gamma, n=model.n)
    return SimConfig(seed=seed, samples=samples, joint=joint, filter=filt)


def simulate(config: SimConfig) -> SimReport:
    """Run the simulation; deterministic given the config."""
    joint = config.joint.matrix
    filt = config.filter

    if isinstance(filt, ZnChannel):
        x_map, best_x = filt.composed_map_guess(joint)
        y_map, best_y = filt.map_guess(config.joint.col_marginal)
        analytic_x, analytic_y = float(best_x.sum()), float(best_y.sum())
    else:
        x_map, analytic_x = _map_guess(compose(config.joint, filt, Axis.COLS).matrix)
        y_map, analytic_y = _map_guess(config.joint.col_marginal[:, None] * filt.matrix)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    hits_y, hits_x = _hit_counts(joint, filt, x_map, y_map, rng.random((config.samples, 2)))
    hit_y, hit_x = hits_y / config.samples, hits_x / config.samples
    return SimReport(
        empirical_pc_y=hit_y,
        empirical_pc_x=hit_x,
        analytic_pc_y=analytic_y,
        analytic_pc_x=analytic_x,
        stderr_y=_binom_stderr(hit_y, config.samples),
        stderr_x=_binom_stderr(hit_x, config.samples),
        samples=config.samples,
        seed=config.seed,
    )


def _hit_counts(joint: np.ndarray, filt: Channel | ZnChannel, x_map: np.ndarray,
                y_map: np.ndarray, u: np.ndarray) -> tuple[int, int]:
    """How many samples the guesses ``y_map[z]`` of y, and ``x_map[z]`` of x, get right.

    Sample i draws its (x, y) cell from ``joint`` by inverse CDF at
    ``u[i, 0]`` and its z from the filter row of y at ``u[i, 1]``. Cell k of
    the row-major flattened joint takes the first uniforms in
    [cdf[k - 1], cdf[k]), read as -inf for k = 0 and as +inf for the last
    cell, which so also takes any at or above the CDF's last entry.

    A :class:`ZnChannel` reads ``u[i, 1]`` only through the flip bit
    ``u[i, 1] < gamma``, so whether its sample is a hit depends only on the
    cell and that bit. Its samples are split on the bit and each half's
    first uniforms sorted; the cells where a guess is right form runs, and
    a run's count is read off the sorted half at the run's two edges (see
    :func:`_count_in_runs`). Only run edges are searched, a few per row and
    two per column for the MAP guesses, and no sample is searched into the
    CDF. A dense filter's z needs each sample's pair, so its pairs are
    sorted together by the first uniform and each first uniform is searched
    into the CDF.
    """
    m, n = joint.shape
    cdf_joint = np.cumsum(joint.ravel())

    if isinstance(filt, ZnChannel):
        # the inverse CDF of the flip channel's row y at u1: the all-ones y
        # goes to all-zeros when u1 < gamma, every other y to itself; both
        # halves come from one contiguous copy of the first uniforms, which
        # is cheaper than boolean-indexing the strided column twice
        u0 = np.ascontiguousarray(u[:, 0])
        flipped = u[:, 1] < filt.gamma
        ys = np.arange(n)
        row_starts = np.arange(0, m * n, n)[:, None]
        hits_y = hits_x = 0
        for half, zs in ((u0[~flipped], ys), (u0[flipped], np.where(ys == n - 1, 0, ys))):
            half.sort()
            # y is guessed right in the same columns of every row, so the
            # runs of one row, offset by each row's start, are all the runs
            edges = np.diff(np.concatenate(([0], y_map[zs] == ys, [0])))
            starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
            hits_y += _count_in_runs(cdf_joint, half, (row_starts + starts).ravel(),
                                     (row_starts + ends).ravel())
            # x is guessed right in one cell of each column
            cells = x_map[zs] * n + ys
            hits_x += _count_in_runs(cdf_joint, half, cells, cells + 1)
        return hits_y, hits_x

    order = np.argsort(u[:, 0])
    idx = np.minimum(np.searchsorted(cdf_joint, u[order, 0], side="right"), m * n - 1)
    xs, ys = np.divmod(idx, n)
    zs = _inverse_cdf(filt.matrix, ys, u[order, 1])
    return int(np.count_nonzero(y_map[zs] == ys)), int(np.count_nonzero(x_map[zs] == xs))


def _count_in_runs(cdf: np.ndarray, half: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> int:
    """How many of the sorted first uniforms ``half`` fall in the cell runs
    [starts[j], ends[j]) of the flattened joint whose CDF is ``cdf``.

    Cell k takes the uniforms in [lower(k), lower(k + 1)), with lower(k)
    = cdf[k - 1], -inf for k = 0 and +inf for k = cdf.size, so run [a, b)
    holds those below lower(b) less those below lower(a): the difference of
    two left-side searches of the run's edges into ``half``.
    """
    def below(k):
        count = np.searchsorted(half, cdf[k - 1], side="left")
        count[k == 0], count[k == cdf.size] = 0, half.size
        return count
    return int(below(ends).sum() - below(starts).sum())


def _inverse_cdf(filt: np.ndarray, ys: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The output of row ``ys[i]`` of ``filt`` at uniform ``u1[i]``, for every i, by inverse CDF.

    The samples are grouped by y once and each row's CDF is inverted on its
    group; a stable sort of keys this narrow runs as a radix sort.
    """
    n, c = filt.shape
    cdf_rows = np.cumsum(filt, axis=1)
    by_y = np.argsort(ys.astype(np.min_scalar_type(n - 1)), kind="stable")
    groups = np.split(by_y, np.cumsum(np.bincount(ys, minlength=n))[:-1])
    zs = np.empty(ys.size, dtype=np.int64)
    for yv, group in enumerate(groups):
        zv = np.searchsorted(cdf_rows[yv], u1[group], side="right")
        zs[group] = np.minimum(zv, c - 1)
    return zs


def _map_guess(p_z: np.ndarray) -> tuple[np.ndarray, float]:
    """MAP guess of the row symbol from each column of a joint, and its success probability.

    The guess is the first row that attains the column maximum, so ties go to
    the lowest index.
    """
    best = p_z.max(axis=0)
    return (p_z == best).argmax(axis=0), float(best.sum())


def _binom_stderr(freq: float, samples: int) -> float:
    return float(np.sqrt(freq * (1.0 - freq) / samples))
