"""One bisection loop for every bracketed scalar root: the stationary
activity M, the smooth family's implicit activity m, the stepper
equilibrium, the half-rate age and the linear analysis's brackets.

Plain bisection, because the functions involved (step-rate
cumulatives and activity maps) are not differentiable in the unknown
and may jump.
"""

from __future__ import annotations

_HALVINGS = 200     # the ends of an O(1) bracket meet after about 60


def bisect(f, a, b, fa, width=0.0):
    """Narrow the bracket a < b of a sign change of f; return (a, b).

    fa is f(a), or any nonzero number of its sign.  Each halving keeps
    the half whose ends differ in sign.  It stops on an exact zero
    f(mid) == 0, returning (mid, mid); once the midpoint is no longer
    strictly inside (a, b), i.e. the ends are adjacent floats; when
    b - a < width * max(1, |mid|), absolute below 1 and relative above;
    or after 200 halvings.
    """
    for _ in range(_HALVINGS):
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
