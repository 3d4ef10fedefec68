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
samples are visited in, so the samples are visited in whatever order is
cheapest and every count is the one a visit in draw order gives. A dense
filter's z needs each sample's pair of uniforms, so its samples are visited
in order of their first uniform, each keeping its own second one. For a
:class:`~privguess.vector.ZnChannel` the second uniform matters only
through the flip bit ``u1 < gamma`` (the closed form of the same inverse
CDF: the all-ones y goes to all-zeros when the bit is set, every other y to
itself), so the samples are split on that bit and each half's first
uniforms are sorted on their own; its counts are those of its dense
channel. Identical config therefore gives a bit-identical report within
this implementation; the generator name is recorded in the report so
reruns can verify they used the same algorithm.
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
from .prob import Axis, Channel, JointDistribution, _positive_int, compose
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
    as a :class:`ZnChannel`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be a probability, got {gamma!r}")
    if filter_kind not in ("memoryless", "block"):
        raise ParameterError(f"unknown filter kind {filter_kind!r}")
    joint = model.block_joint()
    if filter_kind == "memoryless":
        filt = Channel(_kron_power(np.array([[1.0, 0.0], [gamma, 1.0 - gamma]]), model.n))
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
    ``u[i, 0]`` and its z from the filter row of y at ``u[i, 1]``. A count
    does not depend on the order samples are visited in, so the first
    uniforms are searched in sorted order, which walks the CDF forwards.
    A :class:`ZnChannel` reads ``u[i, 1]`` only through the flip bit
    ``u[i, 1] < gamma``, so its samples are split on that bit and each
    half's first uniforms sorted on their own; a dense filter's z needs
    each sample's pair, so its pairs are permuted together.
    """
    m, n = joint.shape
    cdf_joint = np.cumsum(joint.ravel())

    def cells(u0):
        idx = np.minimum(np.searchsorted(cdf_joint, u0, side="right"), m * n - 1)
        return np.divmod(idx, n)

    if isinstance(filt, ZnChannel):
        # the inverse CDF of the flip channel's row y at u1: the all-ones y
        # goes to all-zeros when u1 < gamma, every other y to itself
        flipped = u[:, 1] < filt.gamma
        hits_y = hits_x = 0
        for flip in (False, True):
            xs, ys = cells(np.sort(u[flipped == flip, 0]))
            zs = np.where(ys == n - 1, 0, ys) if flip else ys
            hits_y += int(np.count_nonzero(y_map[zs] == ys))
            hits_x += int(np.count_nonzero(x_map[zs] == xs))
        return hits_y, hits_x

    order = np.argsort(u[:, 0])
    xs, ys = cells(u[order, 0])
    zs = _inverse_cdf(filt.matrix, ys, u[order, 1])
    return int(np.count_nonzero(y_map[zs] == ys)), int(np.count_nonzero(x_map[zs] == xs))


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
