"""Property test: on a q-ary symmetric backward channel, every point read off
the traced curve lies within its certificate of the exact frontier line."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from conftest import symmetric_backward_joint  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from privguess import Axis, NumericalError, cond_guess_prob, guess_prob, solver, trace_curve  # noqa: E402
from privguess.lp import FEAS_TOL  # noqa: E402


@st.composite
def symmetric_cases(draw):
    q = draw(st.integers(2, 6))
    # c = 1 - aq/(q - 1) >= 1e-3: the line's roundoff grows as 1/c, and next
    # to (q - 1)/q it exceeds the bounds' 1e-12 in the line, not in the curve
    a = draw(st.floats(0.0, 0.999 * (q - 1) / q, exclude_min=True))
    py = np.array(draw(st.lists(st.floats(1e-12, 1.0), min_size=q, max_size=q)))
    return q, a, py / py.sum()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(symmetric_cases())
def test_points_lie_on_the_exact_line(case):
    # the frontier is h(eps) = L(eps) = min((eps - a/(q - 1))/c, 1), one line
    # (tests/conftest.py::symmetric_backward_joint). A point (u, v) read at eps
    # leaks at most eps, has at most the utility L(v) its leak allows, and
    # reaches L(eps) within the certificate's tolerance. The walk may break
    # down on this family's ties (ROADMAP item 4), but only as NumericalError.
    q, a, py = case
    joint = symmetric_backward_joint(q, a, py)
    c = 1.0 - a * q / (q - 1)

    def line(e):
        return np.minimum((e - a / (q - 1)) / c, 1.0)

    try:
        curve = trace_curve(joint)
    except NumericalError:
        return
    grid = np.linspace(guess_prob(joint, Axis.ROWS), cond_guess_prob(joint, Axis.ROWS), 9)
    for eps, u, v in solver.read_curve(joint, curve, grid):
        assert (v <= eps + FEAS_TOL).all()
        assert (u <= line(np.minimum(v, 1.0 - a)) + 1e-12).all()
        assert (u >= line(eps) - FEAS_TOL).all()
