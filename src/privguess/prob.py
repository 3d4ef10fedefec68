"""Finite-probability primitives.

Exact operations on finite joint distributions and channels: marginal and
conditional MAP guessing probabilities, channel composition, and the Renyi /
Arimoto entropy family. All entropies are in bits (base-2 logarithms) and all
operations are pure functions of immutable value types.

Conventions
-----------
* A joint distribution is an M x N matrix; rows index the first variable
  (axis ``ROWS``), columns the second (axis ``COLS``).
* A channel is row-stochastic; row r is the output distribution given
  input r.
* Argmax ties are broken by lowest index everywhere. Guessing probabilities
  are tie-invariant, so this only affects reported guessing maps.
* Input validation tolerance is ``MASS_TOL`` = 1e-9. Invalid input is an
  error; nothing is ever renormalized silently.
* Input is checked once, where it enters: the :class:`JointDistribution`
  and :class:`Channel` constructors check (and copy) what a caller passes.
  What the package derives from checked objects, such as :func:`compose`'s
  product, a Kronecker power in :mod:`privguess.vector` or a filter the
  solver has certified, is held through :func:`_adopt` and not checked
  again. Its entries are finite and nonnegative by construction, and its
  mass is its inputs' mass up to roundoff, so a derived joint may be up to
  2 ``MASS_TOL`` from 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidDistributionError,
    InvalidOrderError,
    ParameterError,
)

__all__ = [
    "Axis",
    "JointDistribution",
    "Channel",
    "guess_prob",
    "cond_guess_prob",
    "compose",
    "renyi_entropy",
    "arimoto_cond_entropy",
    "arimoto_mutual_information",
]

#: validation tolerance on probability mass
MASS_TOL = 1e-9

#: slack on a privacy threshold's domain: eps this far outside it is clamped onto it
RANGE_TOL = 1e-9

#: roundoff scale: the slack where a computed value meets an exact bound, and
#: the bracket at which a bisection on eps stops
ROUNDOFF_TOL = 1e-12

#: LP feasibility / optimality certificate tolerance (the solver's certified values)
FEAS_TOL = 1e-8

#: LP tableau pivot tolerance: entries at most this are not pivoted on
PIVOT_TOL = 1e-10

#: orders within this distance above 1 use the Shannon branch
_ORDER_ONE_BAND = 1e-6

#: orders above this use the min-entropy branch
_ORDER_INF_CUTOFF = 1e6


class Axis(Enum):
    """Which variable of a joint distribution an operation targets."""

    ROWS = "rows"
    COLS = "cols"


def _frozen(arr) -> np.ndarray:
    """A read-only float64 copy of ``arr``, which no caller can write through.

    Every array is copied, a read-only one that owns its memory included: its
    owner can make it writable again. (``copy=True`` copies on NumPy 1.x and
    2.x alike; ``copy=False`` does not mean the same on both.) The public
    constructors check the copy; arrays the package derives skip both the
    copy and the check through :func:`_adopt`.
    """
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _adopt(cls, *arrays: np.ndarray):
    """A ``cls``, a frozen dataclass such as :class:`JointDistribution`, that
    holds ``arrays`` themselves as its fields, in order, with no copy and no check.

    Only for float64 arrays (read-only in a joint or channel) that the package
    derived from checked objects and that no caller holds: :func:`compose`'s
    product, a Kronecker power of :mod:`privguess.vector` (its 2^n x 2^n
    product is then not copied) and the 2x2 symbol joint of a checked
    ``VectorModel``'s parameters, or a filter :mod:`privguess.solver` has
    certified, whose rows it projected onto the simplex.
    """
    out = object.__new__(cls)
    for field, arr in zip(fields(cls), arrays):
        object.__setattr__(out, field.name, arr)
    return out


def _positive_int(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int`` if it is an integer >= ``low``, for a parameter called ``name``.

    ``low`` is 1, or 0 for a parameter that may be zero, such as a seed.
    Anything ``operator.index`` accepts counts as an integer (NumPy integers
    included), except ``bool``.
    """
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low:
        kind = "positive" if low == 1 else "nonnegative"
        raise ParameterError(f"{name} must be a {kind} integer, got {value!r}")
    return n


@dataclass(frozen=True)
class JointDistribution:
    """Immutable M x N joint probability matrix.

    Entries must be finite and nonnegative and sum to 1 within ``MASS_TOL``;
    a joint the package derives is not checked again and may be up to
    2 ``MASS_TOL`` off. Marginals are recomputed on access, never cached.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        self._check()

    def _check(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise InvalidDistributionError(f"expected a 2-D matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidDistributionError("non-finite entry in joint distribution")
        if np.any(m < 0.0):
            raise InvalidDistributionError(f"negative entry {m.min()!r} in joint distribution")
        total = float(m.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def marginal(self, axis: Axis) -> np.ndarray:
        return self.row_marginal if axis is Axis.ROWS else self.col_marginal


@dataclass(frozen=True)
class Channel:
    """Immutable row-stochastic R x C matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        self._check()

    def _check(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise InvalidChannelError(f"expected a 2-D matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidChannelError("non-finite entry in channel")
        if np.any(m < 0.0):
            raise InvalidChannelError(f"negative entry {m.min()!r} in channel")
        rows = m.sum(axis=1)
        worst = float(np.abs(rows - 1.0).max())
        if worst > MASS_TOL:
            raise InvalidChannelError(f"row sum deviates from 1 by {worst!r} (tolerance {MASS_TOL})")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def identity(cls, n: int) -> "Channel":
        """Identity channel on ``n`` symbols."""
        return cls(np.eye(n))


def guess_prob(dist: JointDistribution, axis: Axis) -> float:
    """Probability of correctly guessing the ``axis`` variable with no side information.

    This is the largest marginal probability.
    """
    return float(dist.marginal(axis).max())


def cond_guess_prob(dist: JointDistribution, target: Axis) -> float:
    """Probability of correctly guessing ``target`` after observing the other variable.

    MAP rule: sum, over the observed alphabet, of the largest joint entry
    consistent with each observation.
    """
    if target is Axis.ROWS:
        return float(dist.matrix.max(axis=0).sum())
    return float(dist.matrix.max(axis=1).sum())


def compose(dist: JointDistribution, filt: Channel, side: Axis) -> JointDistribution:
    """Push one variable of ``dist`` through ``filt``.

    ``side=COLS`` applies the channel to the column variable and returns the
    joint over (row variable, channel output); ``side=ROWS`` symmetrically.
    Exact matrix-product semantics. The product is held as derived, with no
    copy and no second check, and its mass is within 2 ``MASS_TOL`` of 1.
    """
    m, n = dist.shape
    need = n if side is Axis.COLS else m
    if filt.shape[0] != need:
        raise DimensionMismatchError(
            f"channel has {filt.shape[0]} input rows, composed axis has size {need}"
        )
    out = (dist.matrix if side is Axis.COLS else dist.matrix.T) @ filt.matrix
    out.setflags(write=False)
    return _adopt(JointDistribution, out)


def _as_pmf(pmf) -> np.ndarray:
    v = np.asarray(pmf, dtype=np.float64).ravel()
    if v.size < 1 or not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise InvalidDistributionError("not a probability vector")
    if abs(float(v.sum()) - 1.0) > MASS_TOL:
        raise InvalidDistributionError(f"probability vector mass {v.sum()!r} differs from 1")
    return v


def _resolve_order(order: float) -> float:
    """Map an order to its evaluation branch: 1.0, math.inf, or a finite value > 1.

    Orders within 1e-6 above 1 collapse to the Shannon branch and orders above
    1e6 to the min-entropy branch; both avoid catastrophic cancellation in the
    general formula. Orders below 1 are rejected.
    """
    o = float(order)
    if math.isnan(o) or o < 1.0:
        raise InvalidOrderError(f"entropy order must be in [1, inf], got {order!r}")
    if o < 1.0 + _ORDER_ONE_BAND:
        return 1.0
    if math.isinf(o) or o > _ORDER_INF_CUTOFF:
        return math.inf
    return o


def _log2sumexp2(vals: np.ndarray) -> float:
    """log2 of a sum of 2**vals, stable for very negative exponents."""
    hi = float(vals.max())
    if math.isinf(hi):
        return hi
    return hi + math.log2(float(np.exp2(vals - hi).sum()))


def _shannon(pmf: np.ndarray) -> float:
    pos = pmf[pmf > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def renyi_entropy(pmf, order: float) -> float:
    """Renyi entropy of order ``order`` in bits.

    ``order=1`` gives Shannon entropy, ``order=inf`` min-entropy
    (-log2 of the largest mass), finite orders the usual power-sum form.
    """
    v = _as_pmf(pmf)
    o = _resolve_order(order)
    if o == 1.0:
        return _shannon(v)
    if math.isinf(o):
        return float(-np.log2(v.max()))
    pos = v[v > 0.0]
    return _log2sumexp2(o * np.log2(pos)) / (1.0 - o)


def arimoto_cond_entropy(dist: JointDistribution, order: float, target: Axis) -> float:
    """Arimoto conditional entropy of ``target`` given the other variable, in bits.

    ``order=1`` is the Shannon conditional entropy and ``order=inf`` is
    -log2 of the conditional guessing probability.
    """
    o = _resolve_order(order)
    if o == 1.0:
        joint = dist.matrix.ravel()
        return _shannon(joint) - _shannon(dist.marginal(_other(target)))
    if math.isinf(o):
        return float(-np.log2(cond_guess_prob(dist, target)))
    # orient so the target variable runs down rows, the observed one across columns
    m = dist.matrix if target is Axis.ROWS else dist.matrix.T
    per_col = []
    for z in range(m.shape[1]):
        col = m[:, z]
        col = col[col > 0.0]
        if col.size:
            per_col.append(_log2sumexp2(o * np.log2(col)) / o)
    return (o / (1.0 - o)) * _log2sumexp2(np.array(per_col))


def arimoto_mutual_information(dist: JointDistribution, order: float, target: Axis) -> float:
    """Arimoto mutual information between ``target`` and the other variable, in bits.

    Difference between the Renyi entropy of the target marginal and the
    Arimoto conditional entropy; at ``order=inf`` this equals
    log2(cond_guess_prob / guess_prob).
    """
    return renyi_entropy(dist.marginal(target), order) - arimoto_cond_entropy(dist, order, target)


def _other(axis: Axis) -> Axis:
    return Axis.COLS if axis is Axis.ROWS else Axis.ROWS
