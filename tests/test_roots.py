"""The bisection loop behind every bracketed scalar root."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenet._roots import bisect


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


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-100.0, 100.0), left=st.floats(1e-6, 50.0),
       right=st.floats(1e-6, 50.0), slope=st.floats(1e-3, 1e3),
       step=st.booleans(), rising=st.booleans(),
       width=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
def test_bisect_evaluates_each_midpoint_once_and_keeps_the_sign_change(
        r, left, right, slope, step, rising, width):
    # replaying the evaluations: each is the midpoint of the bracket that
    # the signs seen so far leave, and the last bracket is the result
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
    seen = []

    def recorded(x):
        seen.append(x)
        return f(x)
    result = bisect(recorded, a, b, f(a), width)
    for x in seen:
        assert x == 0.5 * (a + b) and a < x < b
        if f(x) == 0.0:
            a = b = x
        elif (f(x) < 0.0) == (f(a) < 0.0):
            a = x
        else:
            b = x
    assert result == (a, b)
    assert len(seen) <= 200
    if a < b:
        assert (f(a) < 0.0) != (f(b) < 0.0)
