"""The bracket loop behind every bracketed scalar root: halving, and ITP
steps where both end values are known."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _shaped(kind, r, slope, lo):
    # a rising function with its sign change at about r, nondecreasing
    # in floats: each is built from correctly rounded operations on x - r
    if kind == "monotone":
        return lambda x: slope * (x - r)
    if kind == "concave":
        return lambda x: math.sqrt(x - lo) - math.sqrt(r - lo)
    if kind == "kinked":
        return lambda x: slope * (x - r) if x < r else (x - r) / slope
    return lambda x: (x - r) - 1.0 if x < r else (x - r) + 1.0  # a jump


def _counted(f):
    seen = []

    def recorded(x):
        seen.append(x)
        return f(x)
    return recorded, seen


@settings(max_examples=400, deadline=None)
@example(kind="kinked", r=16.56659197159554, left=1.0, right=4.0, slope=2.0,
         rising=False, halve_to=math.inf)
@example(kind="kinked", r=1.9999999996220847, left=6.0, right=2.0,
         slope=0.011872972378092306, rising=True, halve_to=0.5)
@given(kind=st.sampled_from(["monotone", "concave", "kinked", "jump"]),
       r=st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-3),
       left=st.floats(1e-6, 50.0), right=st.floats(1e-6, 50.0),
       slope=st.floats(1e-3, 1e3), rising=st.booleans(),
       halve_to=st.sampled_from([math.inf, 0.5, 2.0 ** -10, 0.0]))
def test_itp_steps_end_where_halving_ends_within_one_more_evaluation(
        kind, r, left, right, slope, rising, halve_to):
    # halving runs on the sign of f, which has no exact zero to stop
    # on, so it takes its most steps; f is monotone in floats, so both
    # end on the one pair of adjacent floats where its sign changes.
    # ITP takes at most one step more than halving would in exact
    # arithmetic.  Rounded midpoints can cost either path one step, and
    # end halving a step early where they cost ITP's one, as in the two
    # examples above (halving 50 and 55 steps, ITP 52 and 57)
    a, b = r - left, r + right
    shaped = _shaped(kind, r, slope, a)
    sign = 1.0 if rising else -1.0

    def f(x):
        return sign * shaped(x)
    halve_above = halve_to * (b - a)
    itp, itp_seen = _counted(f)
    lo, hi = bisect(itp, a, b, f(a), fb=f(b), halve_above=halve_above)
    halving, halving_seen = _counted(lambda x: -1.0 if f(x) < 0.0 else 1.0)
    ends = bisect(halving, a, b, f(a))
    if lo == hi:
        assert f(lo) == 0.0
    else:
        assert hi == np.nextafter(lo, math.inf)
        assert (f(lo) < 0.0) != (f(hi) < 0.0)
        assert (lo, hi) == ends
    assert all(a < x < b for x in itp_seen)
    assert len(itp_seen) <= len(halving_seen) + 2
    # while the bracket is wider than halve_above, the points are
    # halving's own
    for x, y in zip(itp_seen, halving_seen):
        if b - a <= halve_above:
            break
        assert x == y
        if (f(y) < 0.0) == (f(a) < 0.0):
            a = y
        else:
            b = y


def test_itp_needs_few_steps_on_a_smooth_root():
    f, seen = _counted(lambda x: math.exp(x) - 2.0)
    lo, hi = bisect(f, 0.0, 1.0, -1.0, fb=math.e - 2.0)
    assert hi <= np.nextafter(lo, math.inf) and f(lo) <= 0.0 <= f(hi)
    assert abs(lo - math.log(2.0)) < 1e-15
    assert len(seen) <= 10   # halving takes 49
