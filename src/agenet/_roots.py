"""One bracket loop for every bracketed scalar root: the stationary
activity M, the smooth family's implicit activity m, the stepper
equilibrium and the linear analysis's one bracket, the deepest
accurate line `chi.floor`, narrowed by halving alone.

The loop never leaves the bracket, because the functions involved
(step-rate cumulatives and activity maps) are not differentiable in
the unknown and may jump.  Its steps are plain halvings, unless the
caller holds real values at both ends: then they are ITP steps
(Oliveira & Takahashi, "An Enhancement of the Bisection Method Average
Performance Preserving Minmax Optimality", ACM TOMS 47(1), 2020),
which converge superlinearly where f is smooth near its root and, in
exact arithmetic, need at most one step more than halving anywhere.
"""

from __future__ import annotations

import math

_STEPS = 200     # the ends of an O(1) bracket meet after about 60 halvings
# ITP's truncation kappa1 * (b - a)**kappa2, with kappa2 = 2 and
# kappa1 = _KAPPA1 / w0 for the width w0 at the first ITP step; its
# projection allows n0 = 1 step more than halving.  The stationary
# searches of tools/layer_cost.py steady take 903 evaluations in all
# at 0.02, and 962 at 0.2.
_KAPPA1 = 0.02


def bisect(f, a, b, fa, width=0.0, fb=None, halve_above=math.inf):
    """Narrow the bracket a < b of a sign change of f; return (a, b).

    Each step evaluates f at one point strictly inside (a, b) and keeps
    the part whose ends differ in sign.  It stops on an exact zero
    f(x) == 0, returning (x, x); once the midpoint is no longer
    strictly inside (a, b), i.e. the ends are adjacent floats; when
    b - a < width * max(1, |mid|), absolute below 1 and relative above;
    or after 200 steps.

    Without fb, every point is the midpoint, and fa is f(a) or any
    nonzero number of its sign.  With fa = f(a) and fb = f(b), the
    points are midpoints while b - a > halve_above and ITP points from
    then on: the regula falsi point of the end values, moved towards
    the midpoint by 0.02 (b - a)**2 / w0, then kept within the radius of
    the midpoint that leaves the bracket at most twice as wide as
    halving would from w0, the width at the first ITP step.
    """
    itp, w0 = fb is not None, None
    for step in range(_STEPS):
        mid = 0.5 * (a + b)
        if not a < mid < b or b - a < width * max(1.0, abs(mid)):
            break
        x = mid
        if itp and b - a <= halve_above:
            if w0 is None:
                w0, first = b - a, step
            x = _itp_point(a, b, fa, fb, mid, w0, step - first)
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a, b


def _itp_point(a, b, fa, fb, mid, w0, j):
    # the j-th ITP point from the width w0: regula falsi, truncated
    # towards the midpoint, then projected into the radius that keeps
    # the next bracket at most w0 * 2**-j wide
    w = b - a
    falsi = a + w * (fa / (fa - fb))
    toward = math.copysign(1.0, mid - falsi)
    delta = _KAPPA1 * w * w / w0
    x = falsi + toward * delta if delta <= abs(mid - falsi) else mid
    radius = max(math.ldexp(w0, -j) - 0.5 * w, 0.0)
    x = min(max(x, mid - radius), mid + radius)
    return x if a < x < b else mid
