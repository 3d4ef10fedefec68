"""Blocklength-n frontier for an i.i.d. binary symmetric model.

Model: X_1..X_n i.i.d. Bernoulli(p) with p >= 1/2, Y_k = X_k xor V_k with
V_k i.i.d. Bernoulli(alpha), alpha < 1/2, and the standing hypothesis
1 - alpha > p. Filters map Y^n to a binary vector Z^n of the same length;
the privacy constraint is P_c(X^n|Z^n) <= eps**n and the reported utilities
are P_c(Y^n|Z^n)**(1/n), so everything is on a per-symbol scale.

Two frontiers are computed in closed form:

* ``memoryless_utility``: the best per-coordinate filter. Independent of n
  and equal to the scalar frontier 1 - zeta(eps) * q with
  zeta(eps) = (abar - eps) / (abar*p - alpha*pbar), q = alpha*pbar + abar*p.

* ``block_utility``: the best filter acting on the whole block, valid for
  eps large enough. Value (1 - zeta_n(eps) * q**n)**(1/n) with

      zeta_n(eps) = (abar**n - eps**n) / ((abar*p)**n - (alpha*pbar)**n),

  achieved by the 2^n-ary channel that passes every n-bit string through
  unchanged except all-ones, which it flips to all-zeros with probability
  zeta_n(eps).

The formula's region of validity has no known closed form. This module pins
it down three ways, in increasing strength:

1. a cheap *heuristic* threshold: the smallest eps with zeta_n(eps) <= 1
   (the flip probability must be a probability) and block >= memoryless;
2. a *certificate* threshold: the smallest eps at which composing the flip
   channel with the product joint provably reproduces privacy eps**n and
   utility block**n (closed form, derived from which input string wins each
   output column);
3. for n <= 3, a *certified* threshold: bisection against the exact
   optimum over all filters, one LP per step. Replacing each filter output
   by the MAP guess of Y^n from it keeps P_c(Y^n|Z^n) and, by data
   processing, cannot raise P_c(X^n|Z^n); so the optimum is attained by a
   2^n-output filter whose outputs are guessed by the identity map.

Values requested below the certificate threshold are still returned (the
formula is well defined wherever 1 - zeta_n q^n > 0) but flagged UNKNOWN.

Powers like p**n underflow for very large n, so all formula paths go through
logarithms; materializing the 2^n x 2^n product joint is capped at n = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DimensionMismatchError, ParameterError
from .prob import Channel, JointDistribution
from .solver import lp_guess_max

__all__ = [
    "VectorModel",
    "ZnChannel",
    "Validity",
    "BlockUtility",
    "ThresholdEstimate",
    "memoryless_utility",
    "block_utility",
    "block_utility_detail",
    "zn_filter",
    "gap_bounds",
    "certificate_threshold",
    "heuristic_threshold",
    "validity_threshold",
]

#: largest n for which the 2^n x 2^n joint is materialized
MAX_MATERIALIZED_N = 10

#: largest n for which LP certification is attempted; at n = 4 the dense
#: simplex exhausts its pivot budget on the 272-variable LP
MAX_CERTIFIED_N = 3

#: LP-vs-formula agreement that validity_threshold counts as optimal, and the
#: resolution of its bisection
AGREEMENT_TOL = 1e-6

RANGE_TOL = 1e-9


class Validity(Enum):
    VALID = "valid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VectorModel:
    """Block length ``n``, source bias ``p`` and symmetric crossover ``alpha``."""

    n: int
    p: float
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not 0.5 <= self.p < 1.0:
            raise ParameterError(f"p must be in [1/2, 1), got {self.p!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise ParameterError(f"alpha must be in [0, 1/2), got {self.alpha!r}")
        if not 1.0 - self.alpha > self.p:
            raise ParameterError(
                f"need 1 - alpha > p, got alpha={self.alpha!r}, p={self.p!r}"
            )

    @property
    def q(self) -> float:
        """Per-symbol P(Y=1)."""
        return self.alpha * (1.0 - self.p) + (1.0 - self.alpha) * self.p

    @property
    def abar(self) -> float:
        return 1.0 - self.alpha

    def symbol_joint(self) -> JointDistribution:
        """The per-symbol 2x2 joint of (X, Y)."""
        p, a = self.p, self.alpha
        return JointDistribution(np.array([
            [(1.0 - a) * (1.0 - p), a * (1.0 - p)],
            [a * p, (1.0 - a) * p],
        ]))

    def block_joint(self) -> JointDistribution:
        """The 2^n x 2^n product joint, rows/columns in binary order."""
        if self.n > MAX_MATERIALIZED_N:
            raise CapacityError(f"n={self.n} exceeds materialization cap {MAX_MATERIALIZED_N}")
        j1 = self.symbol_joint().matrix
        j = j1
        for _ in range(self.n - 1):
            j = np.kron(j, j1)
        return JointDistribution(j)


@dataclass(frozen=True)
class ZnChannel:
    """Identity on n-bit strings except all-ones -> all-zeros w.p. ``gamma``."""

    gamma: float
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must be a probability, got {self.gamma!r}")

    def to_channel(self) -> Channel:
        if self.n > MAX_MATERIALIZED_N:
            raise CapacityError(f"n={self.n} exceeds materialization cap {MAX_MATERIALIZED_N}")
        size = 2 ** self.n
        w = np.eye(size)
        w[-1, -1] = 1.0 - self.gamma
        w[-1, 0] = self.gamma
        return Channel(w)


class BlockUtility(NamedTuple):
    value: float
    validity: Validity


class ThresholdEstimate(NamedTuple):
    eps_l: float
    certified: bool


def _check_eps(model: VectorModel, eps: float) -> float:
    if not model.p - RANGE_TOL <= eps <= model.abar + RANGE_TOL:
        raise ParameterError(f"eps {eps!r} outside [{model.p}, {model.abar}]")
    return min(max(eps, model.p), model.abar)


def memoryless_utility(model: VectorModel, eps: float) -> float:
    """Per-symbol frontier under per-coordinate filters; independent of n."""
    eps = _check_eps(model, eps)
    p, a = model.p, model.alpha
    denom = model.abar * p - a * (1.0 - p)
    return 1.0 - (model.abar - eps) * model.q / denom


def _log_zeta_n(model: VectorModel, eps: float) -> float:
    """log of zeta_n(eps); -inf at eps = abar. Stable for any n."""
    n, p, a = model.n, model.p, model.alpha
    abar = model.abar
    # zeta_n = p**-n * (1 - (eps/abar)**n) / (1 - (a*pbar/(abar*p))**n)
    t_eps = n * math.log(eps / abar)
    t1 = math.log1p(-math.exp(t_eps)) if t_eps < 0.0 else -math.inf
    r = (a * (1.0 - p)) / (abar * p)
    t2 = math.log1p(-math.exp(n * math.log(r))) if r > 0.0 else 0.0
    return -n * math.log(p) + t1 - t2


def _log_block_shortfall(model: VectorModel, eps: float) -> float:
    """log of zeta_n(eps) * q**n, the block utility's distance below 1."""
    return _log_zeta_n(model, eps) + model.n * math.log(model.q)


def block_utility(model: VectorModel, eps: float) -> float:
    """Per-symbol frontier under whole-block filters, by the closed formula.

    Defined wherever the formula value is positive; raises otherwise. Use
    :func:`block_utility_detail` for the validity flag.
    """
    eps = _check_eps(model, eps)
    x = _log_block_shortfall(model, eps)
    if x >= 0.0:
        raise ParameterError(
            f"block formula undefined at eps={eps!r}: value would be nonpositive"
        )
    # (1 - e^x)^(1/n)
    return math.exp(math.log1p(-math.exp(x)) / model.n)


def block_utility_detail(model: VectorModel, eps: float) -> BlockUtility:
    """Block formula value plus a validity flag.

    VALID means eps is at or above the certificate threshold, where the flip
    channel attains the formula. For n <= 3 the LP optimum equals the
    formula from there up (checked in the tests), so VALID means optimal;
    for n >= 4 it only means that the flip channel attains the formula.
    Below the threshold the value is still the formula's, flagged UNKNOWN.
    """
    value = block_utility(model, eps)
    thr = certificate_threshold(model)
    validity = Validity.VALID if eps >= thr - RANGE_TOL else Validity.UNKNOWN
    return BlockUtility(value, validity)


def zn_filter(model: VectorModel, eps: float) -> ZnChannel:
    """The flip-probability channel achieving the block formula at ``eps``.

    Raises when the implied flip probability exceeds 1, which signals that
    eps is below the formula's feasible range.
    """
    eps = _check_eps(model, eps)
    lz = _log_zeta_n(model, eps)
    if lz > 1e-12:
        raise ParameterError(
            f"eps {eps!r} below the feasible range: flip probability exp({lz}) > 1"
        )
    gamma = min(math.exp(lz), 1.0)
    return ZnChannel(gamma=gamma, n=model.n)


class GapBounds(NamedTuple):
    """Bounds on block minus memoryless utility; ``upper`` only for p = 1/2."""

    lower: float
    upper: float | None


def _phi(model: VectorModel, n: int) -> float:
    """q**n * abar**(n-1) / ((abar p)**n - (alpha pbar)**n), in stable form."""
    p, a = model.p, model.alpha
    abar = model.abar
    r = (a * (1.0 - p)) / (abar * p)
    t2 = math.log1p(-math.exp(n * math.log(r))) if r > 0.0 else 0.0
    return math.exp(n * math.log(model.q / p) - math.log(abar) - t2)


def gap_bounds(model: VectorModel, eps: float) -> GapBounds:
    """Analytic bounds on the advantage of block filtering over memoryless.

    Lower bound (abar - eps) * (phi(1) - phi(n)) applies for p > 1/2 and
    alpha > 0 and is 0 otherwise; the upper bound alpha / (2 abar) applies
    only to unbiased sources (p = 1/2).
    """
    eps = _check_eps(model, eps)
    if model.p > 0.5 and model.alpha > 0.0:
        lower = (model.abar - eps) * (_phi(model, 1) - _phi(model, model.n))
    else:
        lower = 0.0
    upper = model.alpha / (2.0 * model.abar) if model.p == 0.5 else None
    return GapBounds(lower, upper)


def _nth_root_threshold(model: VectorModel, log_margin: float) -> float:
    """eps solving eps**n = abar**n - exp(log_margin), clamped to [p, abar]."""
    n = model.n
    la = n * math.log(model.abar)
    if log_margin >= la:
        return model.p
    eps = math.exp((la + math.log1p(-math.exp(log_margin - la))) / n)
    return min(max(eps, model.p), model.abar)


def _log_denom(model: VectorModel) -> float:
    """log((abar p)**n - (alpha pbar)**n)."""
    n, p, a = model.n, model.p, model.alpha
    r = (a * (1.0 - p)) / (model.abar * p)
    t2 = math.log1p(-math.exp(n * math.log(r))) if r > 0.0 else 0.0
    return n * math.log(model.abar * p) + t2


def heuristic_threshold(model: VectorModel) -> float:
    """Smallest eps with flip probability <= 1 and block >= memoryless.

    Necessary conditions only; no optimality claim.
    """
    lo = _nth_root_threshold(model, _log_denom(model))  # zeta_n(eps) <= 1 from here
    hi = model.abar
    if block_utility(model, lo) >= memoryless_utility(model, lo):
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if block_utility(model, mid) >= memoryless_utility(model, mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12:
            break
    return hi


def certificate_threshold(model: VectorModel) -> float:
    """Smallest eps at which the flip channel provably attains the formula.

    Above this threshold, composing the channel with the product joint
    reproduces privacy eps**n and utility block**n exactly. Two conditions,
    both monotone in eps: the all-zeros string must win the all-zeros output
    column of the privacy objective, and the all-zeros string must win that
    column of the utility objective. Written out they cap zeta_n(eps) by

        ((abar pbar)**n - (alpha p)**n) / ((abar p)**n - (alpha pbar)**n)
        and (qbar / q)**n

    respectively.
    """
    n, p, a = model.n, model.p, model.alpha
    abar, pbar = model.abar, 1.0 - p
    ld = _log_denom(model)

    # privacy cap: (abar pbar)^n - (alpha p)^n
    if a > 0.0:
        rp = (a * p) / (abar * pbar)
        lp_margin = n * math.log(abar * pbar) + math.log1p(-math.exp(n * math.log(rp)))
    else:
        lp_margin = n * math.log(abar * pbar)
    e_priv = _nth_root_threshold(model, lp_margin)

    # utility cap: (qbar/q)^n * denom
    lu_margin = n * math.log((1.0 - model.q) / model.q) + ld
    e_util = _nth_root_threshold(model, lu_margin)

    return max(model.p, e_priv, e_util)


def brute_force_block_utility(model: VectorModel, eps: float) -> float:
    """Exact LP optimum over all filters of the block, per-symbol scale.

    One LP on the 2^n x 2^n block joint with 2^n outputs and the identity
    guessing map: some optimal filter has that form (see the module
    docstring). Limited to n <= MAX_CERTIFIED_N.
    """
    if model.n > MAX_CERTIFIED_N:
        raise CapacityError(f"LP certification limited to n <= {MAX_CERTIFIED_N}")
    eps = _check_eps(model, eps)
    joint = model.block_joint()
    size = 2 ** model.n
    value, _, _ = lp_guess_max(joint.matrix, eps ** model.n, size, [tuple(range(size))])
    return value ** (1.0 / model.n)


def validity_threshold(model: VectorModel) -> ThresholdEstimate:
    """Estimate the smallest eps from which the block formula is optimal.

    n <= 3: certified by bisection of the agreement boundary between
    :func:`brute_force_block_utility` and the formula (agreement within
    ``AGREEMENT_TOL``; assumes the agreement region is an interval ending
    at abar). n >= 4: the cheap heuristic threshold, flagged uncertified.
    """
    if model.n > MAX_CERTIFIED_N:
        return ThresholdEstimate(heuristic_threshold(model), False)

    start = heuristic_threshold(model)

    def agrees(e: float) -> bool:
        return abs(brute_force_block_utility(model, e) - block_utility(model, e)) <= AGREEMENT_TOL

    if agrees(start):
        return ThresholdEstimate(start, True)
    lo, hi = start, model.abar
    while hi - lo > AGREEMENT_TOL:
        mid = 0.5 * (lo + hi)
        if agrees(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(hi, True)


def compose_zn(model: VectorModel, filt: ZnChannel) -> tuple[float, float]:
    """Exact whole-block (utility, privacy) of a flip channel, i.e. the pair
    (P_c of Y-block given Z-block, P_c of X-block given Z-block).

    Composes through the channel's structure rather than a dense product:
    only the all-zeros output column gains mass (gamma times the all-ones
    column) and only the all-ones column loses it, so the product joint is
    copied and those two columns are updated, O(4^n) with no 2^n x 2^n
    channel. The product joint itself is materialized, so n <= 10.
    """
    joint = model.block_joint()
    if filt.n != model.n:
        raise DimensionMismatchError(f"channel block length {filt.n} != model block length {model.n}")
    g = filt.gamma
    # the (Y-block, Z-block) joint is diagonal except that the all-zeros
    # output column also holds gamma of the all-ones input's mass, so its
    # column maxima are the Y-block marginal with two entries changed
    best_y = joint.col_marginal
    best_y[0], best_y[-1] = max(best_y[0], best_y[-1] * g), best_y[-1] * (1.0 - g)
    p_xz = joint.matrix.copy()
    p_xz[:, 0] += g * p_xz[:, -1]
    p_xz[:, -1] *= 1.0 - g
    return float(best_y.sum()), float(p_xz.max(axis=0).sum())
