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
3. for n <= 3, a *certified* threshold: the left end of the last linear
   piece of the exact optimum over all filters, found by parametric
   right-hand-side programming on one LP, walked from the top. At the top
   cap abar**n the identity filter is optimal in a basis written down in
   closed form, so no simplex phase runs. A primal ratio test on the
   privacy-cap row's slack column finds the exact cap where a basic
   variable reaches 0, and a dual simplex pivot continues from there,
   until the cap's dual price leaves the formula's slope. Replacing each
   filter output by the MAP guess of Y^n from it keeps P_c(Y^n|Z^n) and,
   by data processing, cannot raise P_c(X^n|Z^n); so the optimum is
   attained by a 2^n-output filter whose outputs are guessed by the
   identity map.

Values below the certificate threshold, and for n > 3 all values, are still
returned (defined wherever 1 - zeta_n q^n > 0) but flagged UNKNOWN.

Powers like p**n underflow for very large n, so all formula paths go through
logarithms; materializing the 2^n x 2^n product joint is capped at n = 10.

The flip channel is never materialized outside the tests: :class:`ZnChannel`
composes through its structure. Composing it with a joint changes only two
columns, so :meth:`ZnChannel.composed_col_max` reads the composed joint's
column maxima off the joint itself and those two updated columns, with no
copy of the joint, for :func:`compose_zn`, and
:meth:`ZnChannel.composed_map_guess` adds the MAP guesses for the Monte Carlo
simulation of :mod:`privguess.mc`. :meth:`ZnChannel.map_guess` gives
the MAP guess of Y^n from the Y^n marginal with two entries changed.
``ZnChannel.to_channel()`` is the dense oracle the tests compare against. The
product joint itself is materialized by :meth:`VectorModel.block_joint`, once
per model instance, read-only from the start so that its
:class:`JointDistribution` holds it without a copy (through the package's
private ``prob._adopt``; the public constructor copies), and that one immutable
joint serves :func:`compose_zn`, the simulation config of
:func:`privguess.mc.vector_sim_config` and the n <= 3 LPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DimensionMismatchError, NumericalError, ParameterError
from .prob import (
    FEAS_TOL,
    RANGE_TOL,
    ROUNDOFF_TOL,
    Channel,
    JointDistribution,
    _adopt,
    _frozen,
    _positive_int,
)

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


def __getattr__(name: str):
    # the LP layer is imported only by the two functions here that walk it;
    # lp_guess_max, which nothing here calls, still resolves to solver's object,
    # since the benchmark's block probe and tracer look it up on this module
    if name == "lp_guess_max":
        from .solver import lp_guess_max

        return lp_guess_max
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: largest n for which the 2^n x 2^n joint is materialized
MAX_MATERIALIZED_N = 10

#: largest n for which LP certification is attempted: brute_force_block_utility
#: walks the whole 2^n-output block curve, and at n = 4 that walk breaks down on
#: some models, e.g. p = 0.55, alpha = 0.1 (its lowest-index pivot choice turns
#: the basis near-singular), though validity_threshold's first two stops do not
MAX_CERTIFIED_N = 3


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
        object.__setattr__(self, "n", _positive_int("n", self.n))
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
        """The per-symbol 2x2 joint of (X, Y).

        Derived from the parameters ``__post_init__`` checked, so it is held
        through ``prob._adopt`` and not checked again: its entries are
        nonnegative and sum to 1 up to roundoff.
        """
        p, a = self.p, self.alpha
        m = np.array([
            [(1.0 - a) * (1.0 - p), a * (1.0 - p)],
            [a * p, (1.0 - a) * p],
        ])
        m.setflags(write=False)
        return _adopt(JointDistribution, m)

    def block_joint(self) -> JointDistribution:
        """The 2^n x 2^n product joint, rows/columns in binary order.

        Built on the first call and kept on the instance, so every call on
        one model returns the same immutable joint.
        """
        if self.n > MAX_MATERIALIZED_N:
            raise CapacityError(f"n={self.n} exceeds materialization cap {MAX_MATERIALIZED_N}")
        return self._block_joint

    @cached_property
    def _block_joint(self) -> JointDistribution:
        return _adopt(JointDistribution, _kron_power(self.symbol_joint().matrix, self.n))


def _kron_power(m1: np.ndarray, n: int) -> np.ndarray:
    """``m1`` Kronecker-multiplied with itself n - 1 times, bit for bit as ``np.kron`` gives it.

    Each level is preallocated and filled through a view with (row, row of
    m1, column, column of m1) axes, which flatten to the Kronecker layout,
    by one strided multiply of the previous level per entry of ``m1``, so
    that the long column axis of the previous level is the innermost loop.
    The result is read-only and owns its memory, and no caller holds it, so
    :func:`privguess.prob._adopt` makes it a :class:`JointDistribution` or
    :class:`Channel` without a copy.
    """
    r1, c1 = m1.shape
    out = _frozen(m1)
    for _ in range(n - 1):
        r, c = out.shape
        nxt = np.empty((r * r1, c * c1))
        blocks = nxt.reshape(r, r1, c, c1)
        for a in range(r1):
            for b in range(c1):
                np.multiply(out, m1[a, b], out=blocks[:, a, :, b])
        out = nxt
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ZnChannel:
    """Identity on n-bit strings except all-ones -> all-zeros w.p. ``gamma``."""

    gamma: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must be a probability, got {self.gamma!r}")

    @property
    def shape(self) -> tuple[int, int]:
        """(inputs, outputs), as :attr:`Channel.shape` of the dense matrix."""
        return 2 ** self.n, 2 ** self.n

    def _updated_columns(self, joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The all-zeros and all-ones output columns of the composed joint."""
        g = self.gamma
        return joint[:, 0] + g * joint[:, -1], joint[:, -1] * (1.0 - g)

    def composed_col_max(self, joint: np.ndarray) -> np.ndarray:
        """Each output's column maximum of the joint over (row variable, Z-block)
        that this channel makes of ``joint``, a joint over (row variable, Y-block).

        That joint is ``joint @ self.to_channel().matrix``, and only two of its
        columns differ from ``joint``'s: the all-zeros output column gains
        gamma times the all-ones column, and the all-ones column keeps 1 -
        gamma of it. So the maxima are read off ``joint`` itself and those two
        updated columns, with no copy of ``joint``.
        """
        best = joint.max(axis=0)
        best[0], best[-1] = (column.max() for column in self._updated_columns(joint))
        return best

    def composed_map_guess(self, joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MAP guess of the row variable from each output, and the column
        maxima of :meth:`composed_col_max`, of the joint this channel makes of
        ``joint``.

        The guess is the first row that attains the column maximum, so ties
        go to the lowest index.
        """
        best = self.composed_col_max(joint)
        guess = (joint == best).argmax(axis=0)
        for col, column in zip((0, -1), self._updated_columns(joint)):
            guess[col] = (column == best[col]).argmax()
        return guess, best

    def map_guess(self, p_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MAP guess of the Y-block from each output, and each output's column
        maximum of the (Y-block, Z-block) joint, from the Y-block marginal ``p_y``.

        That joint is ``p_y`` on the diagonal except that the all-zeros output
        column also holds gamma of the all-ones input's mass, so its column
        maxima are ``p_y`` with two entries changed. Ties go to the lowest
        index, and a column of zeros is guessed as 0 (the all-ones column
        when gamma = 1).
        """
        g, last = self.gamma, p_y.size - 1
        best = p_y.copy()
        best[0], best[-1] = max(p_y[0], p_y[-1] * g), p_y[-1] * (1.0 - g)
        guess = np.where(best > 0.0, np.arange(p_y.size), 0)
        guess[0] = last if best[0] > p_y[0] else 0
        return guess, best

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


def _log1m_ratio_pow(model: VectorModel, n: int) -> float:
    """log(1 - r**n) with r = alpha pbar / (abar p); 0 when alpha = 0."""
    r = (model.alpha * (1.0 - model.p)) / (model.abar * model.p)
    return math.log1p(-math.exp(n * math.log(r))) if r > 0.0 else 0.0


def _log_zeta_n(model: VectorModel, eps: float) -> float:
    """log of zeta_n(eps); -inf at eps = abar. Stable for any n."""
    n, p = model.n, model.p
    # zeta_n = p**-n * (1 - (eps/abar)**n) / (1 - (a*pbar/(abar*p))**n)
    t_eps = n * math.log(eps / model.abar)
    t1 = math.log1p(-math.exp(t_eps)) if t_eps < 0.0 else -math.inf
    return -n * math.log(p) + t1 - _log1m_ratio_pow(model, n)


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

    VALID means that the formula is the optimum over all filters: n is at
    most ``MAX_CERTIFIED_N`` and eps is at or above the certificate
    threshold, from where the LP optimum equals the formula (checked in the
    tests). Otherwise the value is still the formula's, flagged UNKNOWN:
    below the threshold, and for n >= 4 at any eps, where the flip channel
    attains the formula but no optimum is certified against it.
    """
    value = block_utility(model, eps)
    valid = model.n <= MAX_CERTIFIED_N and eps >= certificate_threshold(model) - RANGE_TOL
    return BlockUtility(value, Validity.VALID if valid else Validity.UNKNOWN)


def zn_filter(model: VectorModel, eps: float) -> ZnChannel:
    """The flip-probability channel achieving the block formula at ``eps``.

    Raises when the implied flip probability exceeds 1, which signals that
    eps is below the formula's feasible range.
    """
    eps = _check_eps(model, eps)
    lz = _log_zeta_n(model, eps)
    if lz > ROUNDOFF_TOL:
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
    return math.exp(n * math.log(model.q / model.p) - math.log(model.abar)
                    - _log1m_ratio_pow(model, n))


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
    n = model.n
    return n * math.log(model.abar * model.p) + _log1m_ratio_pow(model, n)


def heuristic_threshold(model: VectorModel) -> float:
    """Smallest eps with flip probability <= 1 and block >= memoryless.

    Necessary conditions only; no optimality claim. At n = 1 the two
    formulas are the same line and the answer is p; comparing them there
    would fail by roundoff and let the bisection drift above p.
    """
    if model.n == 1:
        return model.p
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
        if hi - lo <= ROUNDOFF_TOL:
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

    The frontier of the 2^n x 2^n block joint at cap eps**n, read off its
    walked curve (:func:`solver.curve_point`): one identity-map LP with 2^n
    outputs, which some optimal filter attains (see the module docstring),
    walked down from the identity vertex with no simplex phase. Limited to
    n <= MAX_CERTIFIED_N.
    """
    from .solver import _trace, curve_point

    if model.n > MAX_CERTIFIED_N:
        raise CapacityError(f"LP certification limited to n <= {MAX_CERTIFIED_N}")
    eps = _check_eps(model, eps)
    joint = model.block_joint()
    value = curve_point(joint, _trace(joint), eps ** model.n).utility
    return value ** (1.0 / model.n)


def validity_threshold(model: VectorModel) -> ThresholdEstimate:
    """Estimate the smallest eps from which the block formula is optimal.

    n <= 3: certified against the exact optimum. In the cap t = eps**n the
    optimum V(t) (the block utility to the n-th power, one identity-map LP
    as in :func:`brute_force_block_utility`) is concave and piecewise
    linear, and the formula is the line L(t) = 1 - (abar**n - t) q**n / D
    that V follows from the threshold up to abar**n. The walk starts at the
    top, abar**n = P_c(X^n|Y^n), from the identity filter's optimal basis
    (:func:`solver.identity_top`), and lowers the cap by primal ratio tests
    and dual simplex pivots (:func:`lp.piece_starts`). Its first stop
    must be the kink at abar**n, where h turns flat, with L's slope below
    it. Its next stop is the threshold: the kink where the cap price rises
    above L's slope, or the left end of the domain, where the threshold is
    p. The point of the basis there must be feasible and attain L, and the
    piece above it must have L's slope. All within ``FEAS_TOL``; V(top) =
    1 = L(top) and concavity then put V on L over the whole piece. A failed
    check raises :class:`NumericalError`. n >= 4: the cheap heuristic
    threshold, flagged uncertified.
    """
    from .solver import identity_top

    n = model.n
    if n > MAX_CERTIFIED_N:
        return ThresholdEstimate(heuristic_threshold(model), False)

    top = model.abar ** n
    slope = math.exp(n * math.log(model.q) - _log_denom(model))  # of the line L
    walk = identity_top(model.block_joint().matrix)
    kink = next(walk)
    if not (abs(kink.rhs - top) <= FEAS_TOL and abs(kink.price_below - slope) <= FEAS_TOL):
        raise NumericalError(
            f"walk's first stop is not the formula's kink at the top {top!r}: cap {kink.rhs!r}, "
            f"price below {kink.price_below!r} against slope {slope!r}"
        )
    kink = next(walk)
    line = 1.0 - (top - kink.rhs) * slope
    if not (abs(kink.value - line) <= FEAS_TOL and abs(kink.slope - slope) <= FEAS_TOL):
        raise NumericalError(
            f"LP at cap {kink.rhs!r} is off the formula's line: value {kink.value!r} against "
            f"{line!r}, slope {kink.slope!r} against {slope!r}"
        )
    if math.isinf(kink.price_below):
        return ThresholdEstimate(model.p, True)
    return ThresholdEstimate(min(max(kink.rhs ** (1.0 / n), model.p), model.abar), True)


def compose_zn(model: VectorModel, filt: ZnChannel) -> tuple[float, float]:
    """Exact whole-block (utility, privacy) of a flip channel, i.e. the pair
    (P_c of Y-block given Z-block, P_c of X-block given Z-block).

    Composes through the channel's structure rather than a dense product:
    the privacy side is read by :meth:`ZnChannel.composed_col_max` off the
    model's product joint and its two updated columns, with no copy of that
    joint and no MAP guesses, and the utility side comes from the Y-block
    marginal by :meth:`ZnChannel.map_guess`.
    The product joint itself is materialized, once per model, so n <= 10.
    """
    if filt.n != model.n:
        raise DimensionMismatchError(f"channel block length {filt.n} != model block length {model.n}")
    joint = model.block_joint()
    _, best_y = filt.map_guess(joint.col_marginal)
    return float(best_y.sum()), float(filt.composed_col_max(joint.matrix).sum())
