"""Closed forms for a binary source observed through a binary channel.

The model: X ~ Bernoulli(p) with p in [1/2, 1), and Y the output of a
binary-input binary-output channel BIBO(alpha, beta) with
P(Y=1|X=0) = alpha and P(Y=0|X=1) = beta, both in [0, 1/2). Writing
xbar = 1 - x throughout, the joint is

    [[abar*pbar, alpha*pbar],
     [beta*p,    bbar*p   ]]

and q = P(Y=1) = alpha*pbar + bbar*p.

On this family the guessing-utility frontier (max P_c(Y|Z) subject to
P_c(X|Z) <= eps) is a single affine piece on eps in [p, abar*pbar + bbar*p],
achieved by a Z-channel or a reverse Z-channel depending on which side of
    alpha*abar*pbar^2 < beta*bbar*p^2
the channel falls. The degenerate regime abar*pbar <= beta*p, where Y gives
no guessing advantage about X at all, is rejected as an error rather than
mapped to a trivial constant curve: the closed forms below do not cover it
and silently returning trivia would hide modeling mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateChannelError, ParameterError, PrivguessError
from .prob import RANGE_TOL, Channel, JointDistribution

__all__ = [
    "BiboParams",
    "BranchTag",
    "branch",
    "to_joint",
    "from_joint",
    "crossover",
    "perfect_privacy_utility",
    "nontrivial_utility",
    "closed_form_utility",
    "optimal_filter",
]

#: formula denominators below this raise a degeneracy error
DENOM_TOL = 1e-12


class BranchTag(Enum):
    """Which filter family achieves the frontier."""

    Z_BRANCH = "z"
    REVERSE_Z_BRANCH = "reverse-z"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BiboParams:
    """Source bias ``p`` and channel crossovers ``alpha`` (0 to 1), ``beta`` (1 to 0)."""

    p: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(float(v)):
                raise ParameterError(f"{name} must be finite, got {v!r}")
        if not 0.5 <= self.p < 1.0:
            raise ParameterError(f"p must be in [1/2, 1), got {self.p!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise ParameterError(f"alpha must be in [0, 1/2), got {self.alpha!r}")
        if not 0.0 <= self.beta < 0.5:
            raise ParameterError(f"beta must be in [0, 1/2), got {self.beta!r}")

    @property
    def q(self) -> float:
        """P(Y=1)."""
        return self.alpha * (1.0 - self.p) + (1.0 - self.beta) * self.p

    @property
    def pc_x(self) -> float:
        return self.p

    @property
    def pc_x_given_y(self) -> float:
        p, a, b = self.p, self.alpha, self.beta
        return max((1.0 - a) * (1.0 - p), b * p) + (1.0 - b) * p


def branch(params: BiboParams) -> BranchTag:
    """Classify the instance; the boundary case goes to the reverse branch."""
    p, a, b = params.p, params.alpha, params.beta
    pbar = 1.0 - p
    if (1.0 - a) * pbar <= b * p:
        return BranchTag.DEGENERATE
    if a * (1.0 - a) * pbar * pbar < b * (1.0 - b) * p * p:
        return BranchTag.Z_BRANCH
    return BranchTag.REVERSE_Z_BRANCH


def to_joint(params: BiboParams) -> JointDistribution:
    """The 2x2 joint distribution of (X, Y)."""
    p, a, b = params.p, params.alpha, params.beta
    pbar = 1.0 - p
    return JointDistribution(np.array([
        [(1.0 - a) * pbar, a * pbar],
        [b * p, (1.0 - b) * p],
    ]))


def from_joint(joint: JointDistribution) -> BiboParams | None:
    """The parameters of a 2x2 joint laid out as by :func:`to_joint`, or None
    unless they are :class:`BiboParams` that the closed forms below accept."""
    if joint.shape != (2, 2):
        return None
    p = float(joint.matrix[1].sum())
    if not 0.5 <= p < 1.0:  # BiboParams' range for p, which keeps both divisions finite
        return None
    (_, alpha), (beta, _) = joint.matrix.tolist()
    try:
        params = BiboParams(p, alpha / (1.0 - p), beta / p)
        _branch_denominator(params)
    except PrivguessError:
        return None
    return params


def _branch_denominator(params: BiboParams) -> tuple[BranchTag, float]:
    """The achieving branch and the denominator of its zeta; raises on the degenerate regime."""
    tag = branch(params)
    if tag is BranchTag.DEGENERATE:
        raise DegenerateChannelError(
            "abar*pbar <= beta*p: observing Y gives no guessing advantage about X "
            "(conditional and unconditional guessing probabilities coincide)"
        )
    p, a, b = params.p, params.alpha, params.beta
    pbar = 1.0 - p
    denom = (1.0 - b) * p - a * pbar if tag is BranchTag.Z_BRANCH else (1.0 - a) * pbar - b * p
    if denom < DENOM_TOL:
        raise DegenerateChannelError(f"branch denominator {denom!r} below {DENOM_TOL}")
    return tag, denom


def perfect_privacy_utility(params: BiboParams) -> float:
    """Best utility when Z must give zero guessing advantage about X (eps = p).

    On the Z branch this is 1 - q * (abar*pbar - beta*p) / (bbar*p - alpha*pbar)
    and on the reverse branch simply q. Evaluated through the eps-dependent
    closed form at its left endpoint so the two agree exactly.
    """
    return closed_form_utility(params, params.p)[0]


def nontrivial_utility(params: BiboParams) -> bool:
    """True when perfect privacy still allows guessing Y better than its marginal."""
    return _branch_denominator(params)[0] is BranchTag.Z_BRANCH and params.p > 0.5


def _zeta_at(params: BiboParams, eps, denom: float) -> np.ndarray:
    """zeta(eps) with its branch's ``denom`` at each eps, checked and clamped onto [p, P_c(X|Y)]."""
    eps = np.asarray(eps, dtype=np.float64)
    p, hi, a, b = params.p, params.pc_x_given_y, params.alpha, params.beta
    bad = ~((p - RANGE_TOL <= eps) & (eps <= hi + RANGE_TOL))
    if bad.any():
        raise ParameterError(f"eps {eps[bad][0].item()!r} outside the frontier domain [{p}, {hi}]")
    return ((1.0 - a) * (1.0 - p) + (1.0 - b) * p - np.clip(eps, p, hi)) / denom


def closed_form_utility(params: BiboParams, eps: float) -> tuple[float, BranchTag]:
    """Frontier value at privacy threshold ``eps``, with the achieving branch.

    eps must lie in [p, abar*pbar + bbar*p]; the value is affine in eps,
    equals the perfect-privacy utility at the left endpoint and 1 at the
    right endpoint.
    """
    tag, denom = _branch_denominator(params)
    zeta = float(_zeta_at(params, eps, denom))
    if tag is BranchTag.Z_BRANCH:
        return 1.0 - zeta * params.q, tag
    return 1.0 - zeta * (1.0 - params.q), tag


def crossover(params: BiboParams, eps) -> np.ndarray:
    """The flip probability of :func:`optimal_filter` (zeta or zetatilde, clipped to [0, 1])
    at each threshold of the array ``eps``, each checked as by :func:`closed_form_utility`."""
    return np.clip(_zeta_at(params, eps, _branch_denominator(params)[1]), 0.0, 1.0)


def optimal_filter(params: BiboParams, eps: float) -> Channel:
    """The 2x2 filter achieving the frontier at ``eps``.

    Z branch: Y=0 passes clean, Y=1 flips to 0 with probability zeta(eps).
    Reverse branch: Y=1 passes clean, Y=0 flips to 1 with probability
    zetatilde(eps). Composing with the joint reproduces privacy eps and the
    closed-form utility exactly.

    In the balanced boundary case (p = 1/2 with alpha = beta) the symmetric
    channel with crossover zeta(eps)/2 is equally optimal; only the reverse-Z
    filter is returned here.
    """
    zeta = float(crossover(params, eps))
    if branch(params) is BranchTag.Z_BRANCH:
        return Channel(np.array([[1.0, 0.0], [zeta, 1.0 - zeta]]))
    return Channel(np.array([[1.0 - zeta, zeta], [0.0, 1.0]]))
