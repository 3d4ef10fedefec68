"""Property test: the flip channel's counts by runs of hit cells equal the
paired counts of its dense rows, on random joints, maps and uniforms."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from privguess import JointDistribution, ZnChannel  # noqa: E402
from privguess import mc  # noqa: E402


def near(values):
    """Each of ``values``, or the float just below or just above it."""
    return st.tuples(st.sampled_from(list(values)), st.sampled_from([-1, 0, 1])).map(
        lambda vs: float(np.nextafter(vs[0], np.inf * vs[1])) if vs[1] else float(vs[0]))


@st.composite
def count_cases(draw):
    n = draw(st.integers(1, 3))
    size, rows = 2 ** n, draw(st.integers(1, 6))
    # small integer weights, so that many cells are exactly empty; their
    # total need not be a power of 2, so the CDF may end just off 1, and a
    # shortfall of 1e-12 makes it end below 1, so that the last cell takes
    # the first uniforms above the CDF's last entry
    weights = draw(st.lists(st.integers(0, 3), min_size=rows * size, max_size=rows * size)
                   .filter(any))
    shortfall = draw(st.sampled_from([0.0, 1e-12]))
    joint = np.reshape(weights, (rows, size)) / sum(weights) * (1.0 - shortfall)
    joint = JointDistribution(joint).matrix
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    x_map = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=size, max_size=size)))
    y_map = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
    # first uniforms at, just below and just above CDF entries, second ones
    # at and next to gamma, and free draws of both
    free = st.floats(0.0, 1.0, exclude_max=True)
    cdf = np.cumsum(joint.ravel())
    pairs = st.tuples(st.one_of(near(cdf), free), st.one_of(near([gamma]), free))
    u = np.array(draw(st.lists(pairs, min_size=1, max_size=60)))
    u = u[(u >= 0.0).all(axis=1) & (u < 1.0).all(axis=1)]
    return joint, ZnChannel(gamma=gamma, n=n), x_map, y_map, u


@settings(max_examples=300, deadline=None, database=None)
@given(count_cases())
def test_run_counts_match_dense_rows(case):
    joint, filt, x_map, y_map, u = case
    count = mc._counter(joint, filt, x_map, y_map)
    counts = count(u)
    assert counts == mc._counter(joint, filt.to_channel(), x_map, y_map)(u)
    assert all(type(c) is int for c in counts)
    # split in two chunks, the counts add up
    cut = len(u) // 2
    first, second = count(u[:cut]), count(u[cut:])
    assert (first[0] + second[0], first[1] + second[1]) == counts
