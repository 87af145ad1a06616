"""The bisection and mesh-scan helpers behind every scalar root."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenet._roots import bisect, scan


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


def test_scan_keeps_continuous_roots_and_drops_jumps():
    def f(x):
        # a root at 0.3, a jump from +0.2 to -0.4 at 0.5, a root at 0.9
        return x - 0.3 if x < 0.5 else x - 0.9
    roots = scan(f, 0.0, 1.0, 11, 1e-12, ValueError("not finite"))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.3, abs=1e-15)
    assert roots[1] == pytest.approx(0.9, abs=1e-15)


def test_scan_mesh_zeros_and_the_upper_end():
    # exact zeros on mesh points count, the upper end included
    assert scan(lambda x: x * (x - 0.5), 0.0, 1.0, 5, 1e-12,
                ValueError()) == [0.0, 0.5]
    assert scan(lambda x: x - 1.0, 0.0, 1.0, 5, 1e-12, ValueError()) == [1.0]
    # rounding can hide a root on the upper end: |f(hi)| <= tol keeps it
    assert scan(lambda x: 1e-14, 0.0, 1.0, 5, 1e-12, ValueError()) == [1.0]
    assert scan(lambda x: 1e-14, 0.0, 1.0, 5, 1e-15, ValueError()) == []


def test_scan_raises_the_callers_error_on_a_non_finite_sample():
    class Diverged(RuntimeError):
        pass
    with pytest.raises(Diverged, match="diverges"):
        scan(lambda x: 1.0 / x if x else math.inf, 0.0, 1.0, 5, 1e-12,
             Diverged("diverges"))
