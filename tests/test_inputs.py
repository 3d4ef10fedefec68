"""One rule for what a number is: every public entry point that takes a real
scalar, threshold, grid, pmf, joint or channel passes it through
``prob._reals`` (or its scalar form ``prob._real``).

A value that is not real raises the entry point's input error, never a raw
``TypeError`` and never a result. NumPy and Python integers and floats are
read as the ``float`` they equal: the output is the one of the ``float``
call bit for bit, and a record stores the ``float``.

And one rule for what a probability array is: a joint, a channel and a pmf
pass ``prob._probabilities``, which names the parameter in what it raises.
"""

import dataclasses
import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from conftest import fig3_joint

from privguess import (
    Axis,
    BiboParams,
    Channel,
    InvalidChannelError,
    InvalidDistributionError,
    JointDistribution,
    ParameterError,
    VectorModel,
    ZnChannel,
    arimoto_cond_entropy,
    arimoto_mutual_information,
    best_filter,
    block_utility,
    block_utility_detail,
    brute_force_block_utility,
    closed_form_utility,
    crossover,
    curve_point,
    finite_order_gain_bounds,
    gap_bounds,
    guessing_gain,
    memoryless_utility,
    optimal_filter,
    read_curve,
    renyi_entropy,
    trace_curve,
    vector_sim_config,
    zn_filter,
)
from privguess import prob

JOINT = fig3_joint()  # P_c(X) = 0.6, P_c(X|Y) = 0.8
CURVE = trace_curve(JOINT)
BIBO = BiboParams(0.625, 0.25, 0.125)  # thresholds in [0.625, 0.828125]
MODEL = VectorModel(2, 0.625, 0.25)  # thresholds in [0.625, 0.75]


class Entry(NamedTuple):
    """A public entry point as a function of one of its real parameters.

    ``value`` is valid there and exact in float32; ``whole`` is a valid
    integer value or None. ``ndim`` is the parameter's number of dimensions
    (None for any), ``error`` what a value that is not real raises and
    ``stored`` the record field that holds the value, if one does.
    """

    call: Callable[[Any], Any]
    value: Any
    whole: Any = None
    ndim: int | None = 0
    error: type = ParameterError
    stored: Callable[[Any], Any] | None = None


ENTRIES = {
    # solver
    "best_filter": Entry(lambda e: best_filter(JOINT, e), 0.75, 1, stored=lambda out: out.eps),
    "curve_point": Entry(lambda e: curve_point(JOINT, CURVE, e), 0.75, 1, stored=lambda out: out.eps),
    "read_curve": Entry(lambda g: list(read_curve(JOINT, CURVE, g)), [0.625, 0.75], [1, 1], ndim=1),
    "guessing_gain": Entry(lambda b: guessing_gain(JOINT, b), 0.5, 1),
    "finite_order_gain_bounds-nu": Entry(lambda nu: finite_order_gain_bounds(JOINT, nu, 2.5, 0.25), 2.5, 2),
    "finite_order_gain_bounds-mu": Entry(lambda mu: finite_order_gain_bounds(JOINT, 2.5, mu, 0.25), 2.5, 2),
    "finite_order_gain_bounds-leak": Entry(lambda b: finite_order_gain_bounds(JOINT, 2.5, 2.5, b), 0.25, 1),
    # bibo
    "BiboParams-p": Entry(lambda p: BiboParams(p, 0.25, 0.125), 0.625, stored=lambda out: out.p),
    "BiboParams-alpha": Entry(lambda a: BiboParams(0.625, a, 0.125), 0.25, 0, stored=lambda out: out.alpha),
    "BiboParams-beta": Entry(lambda b: BiboParams(0.625, 0.25, b), 0.125, 0, stored=lambda out: out.beta),
    "closed_form_utility": Entry(lambda e: closed_form_utility(BIBO, e), 0.75),
    "crossover": Entry(lambda e: crossover(BIBO, e), [0.625, 0.75], ndim=None),
    "optimal_filter": Entry(lambda e: optimal_filter(BIBO, e), 0.75),
    # vector
    "VectorModel-p": Entry(lambda p: VectorModel(2, p, 0.25), 0.625, stored=lambda out: out.p),
    "VectorModel-alpha": Entry(lambda a: VectorModel(2, 0.625, a), 0.25, 0, stored=lambda out: out.alpha),
    "ZnChannel": Entry(lambda g: ZnChannel(g, 2), 0.25, 1, stored=lambda out: out.gamma),
    "memoryless_utility": Entry(lambda e: memoryless_utility(MODEL, e), 0.6875),
    "block_utility": Entry(lambda e: block_utility(MODEL, e), 0.6875),
    "block_utility_detail": Entry(lambda e: block_utility_detail(MODEL, e), 0.6875),
    "zn_filter": Entry(lambda e: zn_filter(MODEL, e), 0.6875),
    "gap_bounds": Entry(lambda e: gap_bounds(MODEL, e), 0.6875),
    "brute_force_block_utility": Entry(lambda e: brute_force_block_utility(MODEL, e), 0.6875),
    # mc
    "vector_sim_config": Entry(lambda g: vector_sim_config(1, 100, MODEL, "block", g), 0.25, 1,
                               stored=lambda out: out.filter.gamma),
    # prob
    "renyi_entropy-pmf": Entry(lambda v: renyi_entropy(v, 2.5), [0.25, 0.75], [1, 0], ndim=None,
                               error=InvalidDistributionError),
    "renyi_entropy-order": Entry(lambda o: renyi_entropy([0.25, 0.75], o), 2.5, 2),
    "arimoto_cond_entropy": Entry(lambda o: arimoto_cond_entropy(JOINT, o, Axis.ROWS), 2.5, 2),
    "arimoto_mutual_information": Entry(lambda o: arimoto_mutual_information(JOINT, o, Axis.COLS), 2.5, 2),
    "JointDistribution": Entry(JointDistribution, [[0.25, 0.25], [0.125, 0.375]], [[1, 0], [0, 0]],
                               ndim=2, error=InvalidDistributionError),
    "Channel": Entry(Channel, [[0.75, 0.25], [0.5, 0.5]], [[1, 0], [0, 1]], ndim=2, error=InvalidChannelError),
}

NOT_REAL = {"bool": True, "string": "0.7", "none": None, "complex": 1 + 0j, "fraction": Fraction(7, 10)}

ARRAY_ENTRIES = [name for name, entry in ENTRIES.items() if entry.ndim != 0]

#: lists and a tuple that NumPy reads as arrays of numbers, each bool as 0 or 1
HOLDS_BOOL = {"nested": [[0.5, True]], "row": [0.6, True], "false": [1, False], "numpy-tuple": (0.5, np.True_)}

#: (array entry, list holding a bool) pairs; a 1-D list is wrapped into a 2-D one for a matrix
BOOL_CASES = [(name, kind) for name in ARRAY_ENTRIES for kind, value in HOLDS_BOOL.items()
              if not (ENTRIES[name].ndim == 1 and np.ndim(value) == 2)]

#: the entry points that take a probability array, and the parameter name each reports
PROBABILITY_ENTRIES = {"JointDistribution": "joint", "Channel": "channel", "renyi_entropy-pmf": "pmf"}

#: ways to spoil a probability array, and the words of the error each raises
SPOILED = {"empty": "must be nonempty", "nan": "non-finite", "inf": "non-finite", "-inf": "non-finite",
           "negative": "negative entry", "mass": "mass differs from 1"}

#: (entry, kind of number) pairs with a valid value of that kind
NUMBER_CASES = [(name, kind) for name, entry in ENTRIES.items()
                for kind in ("float32", "int64", "int") if kind == "float32" or entry.whole is not None]


def _shaped(x, ndim: int | None):
    """``x`` repeated into a list of ``ndim`` dimensions (1 for any)."""
    for _ in range(1 if ndim is None else ndim):
        x = [x, x]
    return x


def _spoiled(value, case: str) -> np.ndarray:
    """``value``, a probability array, with its first row spoiled by ``case`` and every other sum kept."""
    a = np.array(value, dtype=float)
    if case == "empty":
        return a[:0]
    row = a.reshape(-1, a.shape[-1])[0]
    if case == "negative":
        row[:2] += (-2.0 * row[0], 2.0 * row[0])
    elif case == "mass":
        row[0] += 2e-9  # the mass, or the row sum of a channel, 2e-9 off 1
    else:
        row[0] = float(case)
    return a


def _bits(x):
    """A value that compares equal only for outputs that agree bit for bit, float types included."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return (type(x), float(x).hex())
    if dataclasses.is_dataclass(x):
        return (type(x), [_bits(getattr(x, f.name)) for f in dataclasses.fields(x)])
    if isinstance(x, (tuple, list)):
        return (type(x), [_bits(v) for v in x])
    return (type(x), x)


@pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name", ENTRIES)
def test_not_real_raises_the_input_error(name, bad):
    # each layer once decided this for itself: closed_form_utility read "0.7"
    # as 0.7, block_utility raised a raw TypeError for it and ZnChannel
    # stored True as gamma
    entry = ENTRIES[name]
    inputs = [_shaped(bad, entry.ndim)] + ([bad] if entry.ndim != 0 else [])
    for value in inputs:
        with pytest.raises(entry.error, match="must be .*real number"):
            entry.call(value)


@pytest.mark.parametrize("name", ARRAY_ENTRIES)
def test_ragged_array_raises_the_input_error(name):
    # NumPy raises its own ValueError ("inhomogeneous shape") for these
    entry = ENTRIES[name]
    ragged = [[0.5], [0.2, 0.3]] if entry.ndim == 2 else [0.5, [0.5]]
    with pytest.raises(entry.error, match="must be .*real numbers, got "):
        entry.call(ragged)


@pytest.mark.parametrize(("name", "kind"), BOOL_CASES, ids=[f"{n}-{k}" for n, k in BOOL_CASES])
def test_bool_in_a_list_raises_the_input_error(name, kind):
    # NumPy reads [0.6, True] as [0.6, 1.0], so the dtype alone once let it
    # through: read_curve returned utility 1.0 at "eps" True, and
    # renyi_entropy([0.5, False, 0.5], 2) returned 1.0
    entry = ENTRIES[name]
    value = HOLDS_BOOL[kind]
    if entry.ndim == 2 and np.ndim(value) == 1:
        value = [value]
    with pytest.raises(entry.error, match="must be .*real numbers, got "):
        entry.call(value)


@pytest.mark.parametrize("case", SPOILED)
@pytest.mark.parametrize("name", PROBABILITY_ENTRIES)
def test_not_a_probability_array_raises_naming_it(name, case):
    entry = ENTRIES[name]
    with pytest.raises(entry.error, match=rf"^{PROBABILITY_ENTRIES[name]} .*{SPOILED[case]}"):
        entry.call(_spoiled(entry.value, case))


@pytest.mark.parametrize("name", PROBABILITY_ENTRIES)
def test_mass_within_tolerance_is_taken_as_given(name):
    # 5e-10 off 1 is within MASS_TOL, and nothing is renormalized
    entry = ENTRIES[name]
    a = np.array(entry.value, dtype=float)
    a.reshape(-1, a.shape[-1])[0, 0] += 5e-10
    out = entry.call(a)
    if name == "renyi_entropy-pmf":
        assert _bits(out) == _bits(prob._log2sumexp2(2.5 * np.log2(a)) / (1.0 - 2.5))
    else:
        assert _bits(out.matrix) == _bits(a)


@pytest.mark.parametrize(("name", "kind"), NUMBER_CASES, ids=[f"{n}-{k}" for n, k in NUMBER_CASES])
def test_numpy_and_python_numbers_read_as_float(name, kind):
    entry = ENTRIES[name]
    if kind == "float32":
        x = np.array(entry.value, dtype=np.float32)[()]
    else:
        x = entry.whole if kind == "int" else np.array(entry.whole, dtype=np.int64)[()]
    as_float = np.asarray(x, dtype=np.float64).tolist()
    out = entry.call(x)
    assert _bits(out) == _bits(entry.call(as_float))
    if entry.stored is not None:
        assert type(entry.stored(out)) is float and entry.stored(out) == as_float


def test_records_hold_the_checked_float():
    # these records once kept a 0-d array, a float32 and False
    assert type(best_filter(JOINT, np.array(0.7)).eps) is float
    assert type(best_filter(JOINT, np.float32(0.7)).eps) is float
    assert VectorModel(2, 0.6, np.int64(0)).alpha == 0.0
    assert type(VectorModel(2, 0.6, 0).alpha) is float
    assert type(BiboParams(0.6, 0, 0.2).alpha) is float


def test_wrong_number_of_dimensions_raises_the_input_error():
    with pytest.raises(InvalidDistributionError, match="joint must be a 2-D array of real numbers"):
        JointDistribution([0.5, 0.5])
    with pytest.raises(InvalidChannelError, match="channel must be a 2-D array of real numbers"):
        Channel([[[1.0]]])
    with pytest.raises(ParameterError, match="eps must be a real number, got array"):
        closed_form_utility(BIBO, np.array([0.7]))


def test_message_names_the_callers_value():
    # None was once reported as "eps nan outside the frontier domain"
    with pytest.raises(ParameterError, match=r"^eps must be a real number, got None$"):
        closed_form_utility(BIBO, None)
    with pytest.raises(ParameterError, match=r"^gamma must be a real number, got True$"):
        ZnChannel(True, 2)
    # a range check still runs after the guard, with its own message
    with pytest.raises(ParameterError, match=r"^eps 0\.9 outside the frontier domain"):
        block_utility(MODEL, 0.9)
    with pytest.raises(ParameterError, match=r"^alpha must be in \[0, 1/2\), got nan$"):
        BiboParams(0.6, math.nan, 0.2)

