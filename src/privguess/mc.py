"""Seeded Monte Carlo validation of analytic guessing probabilities.

A simulation draws (X, Y) pairs from a joint distribution, pushes Y through a
filter to get Z, applies the exact MAP guessers for X and Y given Z, and
compares hit frequencies against the analytically computed guessing
probabilities.

Determinism contract: sampling consumes a PCG64 stream seeded explicitly,
two uniforms per sample in a fixed order (first selects the (x, y) cell by
inverse CDF over the row-major flattened joint, second selects z by inverse
CDF over the filter row of y). Identical config therefore gives a
bit-identical report within this implementation; the generator name is
recorded in the report so reruns can verify they used the same algorithm.
The MAP guessers are computed exactly from the composed joints, never
estimated, with argmax ties broken by lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .prob import Axis, Channel, JointDistribution, compose
from .vector import VectorModel, ZnChannel

__all__ = ["SimConfig", "SimReport", "simulate", "vector_sim_config"]

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    """A seeded simulation of a joint pushed through a filter."""

    seed: int
    samples: int
    joint: JointDistribution
    filter: Channel

    def __post_init__(self):
        if not (isinstance(self.samples, int) and self.samples >= 1):
            raise ParameterError(f"samples must be a positive integer, got {self.samples!r}")
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
    independently per coordinate; ``block`` applies the all-ones-flipping
    block channel with probability ``gamma``.
    """
    joint = model.block_joint()
    if filter_kind == "memoryless":
        f1 = np.array([[1.0, 0.0], [gamma, 1.0 - gamma]])
        f = f1
        for _ in range(model.n - 1):
            f = np.kron(f, f1)
        filt = Channel(f)
    elif filter_kind == "block":
        filt = ZnChannel(gamma=gamma, n=model.n).to_channel()
    else:
        raise ParameterError(f"unknown filter kind {filter_kind!r}")
    return SimConfig(seed=seed, samples=samples, joint=joint, filter=filt)


def simulate(config: SimConfig) -> SimReport:
    """Run the simulation; deterministic given the config."""
    joint = config.joint.matrix
    filt = config.filter.matrix
    m, n = joint.shape
    c = filt.shape[1]

    x_map, analytic_x = _map_guess(compose(config.joint, config.filter, Axis.COLS).matrix)
    y_map, analytic_y = _map_guess(config.joint.col_marginal[:, None] * filt)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    u = rng.random((config.samples, 2))

    cdf_joint = np.cumsum(joint.ravel())
    idx = np.searchsorted(cdf_joint, u[:, 0], side="right")
    idx = np.minimum(idx, m * n - 1)
    xs = idx // n
    ys = idx % n

    # group the samples by y once, then invert each filter row's CDF on its group
    cdf_rows = np.cumsum(filt, axis=1)
    groups = np.split(np.argsort(ys, kind="stable"), np.cumsum(np.bincount(ys, minlength=n))[:-1])
    zs = np.empty(config.samples, dtype=np.int64)
    for yv, group in enumerate(groups):
        zv = np.searchsorted(cdf_rows[yv], u[group, 1], side="right")
        zs[group] = np.minimum(zv, c - 1)

    hit_y = float(np.mean(y_map[zs] == ys))
    hit_x = float(np.mean(x_map[zs] == xs))
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


def _map_guess(p_z: np.ndarray) -> tuple[np.ndarray, float]:
    """MAP guess of the row symbol from each column of a joint, and its success probability."""
    return p_z.argmax(axis=0), float(p_z.max(axis=0).sum())


def _binom_stderr(freq: float, samples: int) -> float:
    return float(np.sqrt(freq * (1.0 - freq) / samples))
