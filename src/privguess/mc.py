"""Seeded Monte Carlo validation of analytic guessing probabilities.

A simulation draws (X, Y) pairs from a joint distribution, pushes Y through a
filter to get Z, applies the exact MAP guessers for X and Y given Z, and
compares hit frequencies against the analytically computed guessing
probabilities.

Determinism contract: sampling consumes a PCG64 stream seeded explicitly,
two uniforms per sample in a fixed order (first selects the (x, y) cell by
inverse CDF over the row-major flattened joint, second selects z by inverse
CDF over the filter row of y). The stream is drawn ``SAMPLE_CHUNK`` samples
at a time, and consecutive ``random((k, 2))`` calls continue one stream, so
the uniforms are those of a single draw of all the samples, in the same
order. Each empirical value is an exact integer hit count divided by the
sample count, and a count does not depend on the order samples are visited
in or on how they are grouped, so each chunk is counted in whatever way is
cheapest, the chunks' counts are added, and every count is the one a visit
in draw order gives. A simulation so holds one chunk of samples at a time,
whatever its sample count. A dense filter's z needs each sample's pair of
uniforms, so a chunk's samples are visited in order of their first uniform,
each keeping its own second one. For a :class:`~privguess.vector.ZnChannel`
the second uniform matters only through the flip bit ``u1 < gamma`` (the
closed form of the same inverse CDF: the all-ones y goes to all-zeros when
the bit is set, every other y to itself), so whether a sample is a hit
depends only on its (x, y) cell and that bit. The cells where a guess is
right form runs, which depend only on the joint and the MAP guesses, so
they are found once per simulation, and the joint's CDF is summed in one
pass and kept only at the runs' edges, with no 2^(2n)-entry CDF held. A
chunk's samples are split on the bit, each half's first uniforms are
sorted, and each count is read off the sorted uniforms at the runs' edges,
with no per-sample search, z or comparison; its counts are those of its
dense channel. Identical config therefore gives a bit-identical report
within this implementation; the generator name is recorded in the report so
reruns can verify they used the same algorithm.
The MAP guessers are computed exactly from the composed joints, never
estimated, with argmax ties broken by lowest index. For a ``ZnChannel`` they
are read off the joint itself and the two columns the channel updates, and
off the Y marginal, with no 2^n x 2^n channel and no copy of the joint; a
block model's config holds the model's own product joint, built once per
model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .prob import Axis, Channel, JointDistribution, _adopt, _positive_int, _real, compose
from .vector import VectorModel, ZnChannel, _kron_power

__all__ = ["SimConfig", "SimReport", "simulate", "vector_sim_config"]

RNG_ALGORITHM = "PCG64"

#: samples drawn and counted at once, and joint entries summed at once on the
#: flip channel's pass over the CDF, so that the memory of a simulation grows
#: neither with its sample count nor, for the flip channel, with the joint's CDF
SAMPLE_CHUNK = 1 << 16


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
    gamma = _real("gamma", gamma)
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

    count = _counter(joint, filt, x_map, y_map)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    hits_y = hits_x = 0
    for start in range(0, config.samples, SAMPLE_CHUNK):
        chunk_y, chunk_x = count(rng.random((min(SAMPLE_CHUNK, config.samples - start), 2)))
        hits_y, hits_x = hits_y + chunk_y, hits_x + chunk_x
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


def _counter(joint: np.ndarray, filt: Channel | ZnChannel, x_map: np.ndarray,
             y_map: np.ndarray) -> Callable[[np.ndarray], tuple[int, int]]:
    """``count(u)``: how many samples of the block ``u`` the guesses ``y_map[z]`` of y, and ``x_map[z]`` of x, get right.

    Sample i draws its (x, y) cell from ``joint`` by inverse CDF at
    ``u[i, 0]`` and its z from the filter row of y at ``u[i, 1]``. Cell k of
    the row-major flattened joint takes the first uniforms in
    [cdf[k - 1], cdf[k]), read as -inf for k = 0 and as +inf for the last
    cell, which so also takes any at or above the CDF's last entry. What
    does not depend on the samples is found once, here, and each call
    counts one block.

    A :class:`ZnChannel` reads ``u[i, 1]`` only through the flip bit
    ``u[i, 1] < gamma``, so whether its sample is a hit depends only on the
    cell and that bit. The cells where a guess is right form runs, a few per
    row and one cell per column for the MAP guesses, and the CDF is read
    only at the runs' edges (see :func:`_lower_edges`). Each call splits its
    samples on the bit and sorts each half's first uniforms; a run's count
    is read off the sorted half at its two edges, so no sample is searched
    into the CDF. A dense filter's z needs each sample's pair, so the joint's
    CDF is built once, and each call sorts its pairs by the first uniform
    and searches each first uniform into the CDF.
    """
    m, n = joint.shape
    if isinstance(filt, ZnChannel):
        # the inverse CDF of the flip channel's row y at u1: the all-ones y
        # goes to all-zeros when u1 < gamma, every other y to itself
        ys = np.arange(n)
        row_starts = np.arange(0, m * n, n)[:, None]
        edges = []
        for zs in (ys, np.where(ys == n - 1, 0, ys)):
            # y is guessed right in the same columns of every row, so the
            # runs of one row, offset by each row's start, are all the runs
            steps = np.diff(np.concatenate(([0], y_map[zs] == ys, [0])))
            starts, ends = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
            # x is guessed right in one cell of each column; only the total
            # over the runs counts, so the cells are sorted, which makes the
            # searches into each half cheaper
            cells = np.sort(x_map[zs] * n + ys)
            # row 0 holds each run's end and row 1 its start: run [a, b)
            # holds the uniforms below lower(b) less those below lower(a)
            edges += [np.stack([row_starts + ends, row_starts + starts]).reshape(2, -1),
                      np.stack([cells + 1, cells])]
        lower = np.split(_lower_edges(joint.ravel(), np.concatenate(edges, axis=1)),
                         np.cumsum([e.shape[1] for e in edges])[:-1], axis=1)
        halves = (lower[:2], lower[2:])
        gamma = filt.gamma

        def count(u: np.ndarray) -> tuple[int, int]:
            # both halves come from one contiguous copy of the first
            # uniforms, which is cheaper than boolean-indexing the strided
            # column twice
            u0 = np.ascontiguousarray(u[:, 0])
            flipped = u[:, 1] < gamma
            hits_y = hits_x = 0
            for half, (y_runs, x_runs) in zip((u0[~flipped], u0[flipped]), halves):
                half.sort()
                below_y = np.searchsorted(half, y_runs, side="left")
                below_x = np.searchsorted(half, x_runs, side="left")
                hits_y += int(below_y[0].sum() - below_y[1].sum())
                hits_x += int(below_x[0].sum() - below_x[1].sum())
            return hits_y, hits_x
        return count

    cdf_joint = np.cumsum(joint.ravel())
    cdf_rows = np.cumsum(filt.matrix, axis=1)

    def count(u: np.ndarray) -> tuple[int, int]:
        order = np.argsort(u[:, 0])
        idx = np.minimum(np.searchsorted(cdf_joint, u[order, 0], side="right"), m * n - 1)
        xs, ys = np.divmod(idx, n)
        zs = _inverse_cdf(cdf_rows, ys, u[order, 1])
        return int(np.count_nonzero(y_map[zs] == ys)), int(np.count_nonzero(x_map[zs] == xs))
    return count


def _lower_edges(flat: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """lower(k) for each cell index k in ``ks``: where cell k of ``flat`` starts on the CDF.

    ``ks`` is an array of any shape, and the result has its shape.
    lower(k) = cdf[k - 1] of cdf = ``np.cumsum(flat)``, -inf for k = 0 and
    +inf for k = ``flat.size``, so that cell k takes the uniforms in
    [lower(k), lower(k + 1)). The CDF is summed in one pass over ``flat``,
    ``SAMPLE_CHUNK`` entries at a time, and kept only at the entries asked
    for. Each chunk's running sum starts from the total before it, so every
    entry is the same left-to-right sum as ``np.cumsum``'s, to the bit:
    recursive summation depends only on its order (Higham, SIAM J. Sci.
    Comput. 14, 1993).
    """
    out = np.where(ks == 0, -np.inf, np.inf)
    run = np.empty(min(SAMPLE_CHUNK, flat.size) + 1)
    total = 0.0
    for lo in range(0, flat.size, SAMPLE_CHUNK):
        chunk = flat[lo:lo + SAMPLE_CHUNK]
        # part[j] becomes cdf[lo + j - 1], the lower edge of cell lo + j
        part = run[:chunk.size + 1]
        part[0], part[1:] = total, chunk
        np.cumsum(part, out=part)
        here = (ks >= max(lo, 1)) & (ks < lo + chunk.size)
        out[here] = part[ks[here] - lo]
        total = part[-1]
    return out


def _inverse_cdf(cdf_rows: np.ndarray, ys: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The output of row ``ys[i]`` at uniform ``u1[i]``, for every i, by inverse CDF.

    ``cdf_rows`` is the filter's row-wise CDF. The samples are grouped by y
    once and each row's CDF is inverted on its group; a stable sort of keys
    this narrow runs as a radix sort.
    """
    n, c = cdf_rows.shape
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
