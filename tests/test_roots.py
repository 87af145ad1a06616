"""The bisection helpers behind every scalar root."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenet._roots import bisect, walk


# floats are too dense near 0 for 200 halvings to reach adjacent ones;
# see the next test
@settings(max_examples=300, deadline=None)
@given(r=st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-3),
       left=st.floats(1e-6, 50.0),
       right=st.floats(1e-6, 50.0), slope=st.floats(1e-3, 1e3),
       step=st.booleans(), rising=st.booleans())
def test_bisect_ends_on_adjacent_floats_around_the_switch(r, left, right,
                                                          slope, step,
                                                          rising):
    sign = 1.0 if rising else -1.0
    if step:
        def f(x):
            return sign * (1.0 if x >= r else -1.0)
    else:
        def f(x):
            return sign * slope * (x - r)
    lo, hi = bisect(f, r - left, r + right, f(r - left))
    if lo == hi:
        # an exact zero, which only the linear map has
        assert not step and f(lo) == 0.0
    else:
        assert hi == np.nextafter(lo, math.inf)
        assert (f(lo) < 0.0) != (f(hi) < 0.0)
        assert lo < r <= hi if step else lo < r < hi


def test_bisect_stops_after_200_halvings():
    a, b = bisect(lambda x: x, -1.0, 0.5, -1.0)
    assert a < 0.0 < b
    assert b - a == 1.5 * 2.0 ** -200


def test_bisect_stops_on_an_exact_zero():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.75
    assert bisect(f, 0.0, 1.0, -1.0) == (0.75, 0.75)
    assert seen == [0.5, 0.75]


def test_bisect_width_is_absolute_below_one_and_relative_above():
    seen = []

    def f(x):
        seen.append(x)
        return x - math.pi / 4.0
    a, b = bisect(f, 0.0, 1.0, -1.0, width=1e-3)
    # 2**-10 is the first width under 1e-3, and no midpoint is wasted
    assert (b - a, len(seen)) == (2.0 ** -10, 10)
    assert a < math.pi / 4.0 < b
    # near 78.5 the width scales with the midpoint: 128 / 2**11 < 0.0785
    a, b = bisect(lambda x: x - 25.0 * math.pi, 0.0, 128.0, -1.0,
                  width=1e-3)
    assert b - a == 128.0 * 2.0 ** -11
    assert a < 25.0 * math.pi < b


def _sequential_bisect(f, a, b, fa, width=0.0):
    # one evaluation per halving, the loop the batched walk replaced
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b or b - a < width * max(1.0, abs(mid)):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if (fm < 0.0) == (fa < 0.0):
            a = mid
        else:
            b = mid
    return a, b


def _counted(f):
    # f over a batch, counting the batches and the points
    def fs(xs):
        fs.calls += 1
        fs.points += len(xs)
        return [f(x) for x in xs]
    fs.calls = fs.points = 0
    return fs


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-100.0, 100.0), left=st.floats(1e-6, 50.0),
       right=st.floats(1e-6, 50.0), slope=st.floats(1e-3, 1e3),
       step=st.booleans(), rising=st.booleans(),
       width=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
       depth=st.integers(1, 6))
def test_walk_returns_the_sequential_bracket(r, left, right, slope, step,
                                             rising, width, depth):
    sign = 1.0 if rising else -1.0
    if step:
        def f(x):
            return sign * (1.0 if x >= r else -1.0)
    else:
        def f(x):
            return sign * slope * (x - r)
    a, b = r - left, r + right
    if not a < b:
        return
    halvings = []

    def counted_f(x):
        halvings.append(x)
        return f(x)
    expected = _sequential_bisect(counted_f, a, b, f(a), width)
    fs = _counted(f)
    assert walk(fs, a, b, f(a), width, depth) == expected
    assert bisect(f, a, b, f(a), width) == expected
    assert fs.calls == math.ceil(len(halvings) / depth)
    assert fs.points == fs.calls * (2 ** depth - 1)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_walk_stops_on_an_exact_zero_and_after_200_halvings(depth):
    fs = _counted(lambda x: x - 0.75)
    assert walk(fs, 0.0, 1.0, -1.0, depth=depth) == (0.75, 0.75)
    assert fs.calls == math.ceil(2 / depth)
    fs = _counted(lambda x: x)
    a, b = walk(fs, -1.0, 0.5, -1.0, depth=depth)
    assert b - a == 1.5 * 2.0 ** -200
    assert fs.calls == math.ceil(200 / depth)


def test_walk_passes_every_midpoint_of_the_next_halvings_in_order():
    # [0, 1] reaches the width 0.2 after three halvings; the second
    # depth-2 call holds both midpoints of its second level, although
    # the walk stops before reading either
    seen = []

    def fs(xs):
        seen.append(list(xs))
        return [x - 0.3 for x in xs]
    assert walk(fs, 0.0, 1.0, -1.0, width=0.2, depth=2) == (0.25, 0.375)
    assert seen == [[0.25, 0.5, 0.75], [0.3125, 0.375, 0.4375]]
