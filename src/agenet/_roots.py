"""Bracketed scalar roots: the stationary activity M, the smooth
family's implicit activity m and the regime couplings come from here.

Plain bisection, because the functions involved (step-rate
cumulatives and contraction factors) are not differentiable in the
unknown and may jump.  `walk` takes a batched function: one call
evaluates the 2**depth - 1 midpoints of the next `depth` halvings,
the whole tree of brackets they can lead to, and the walk then follows
the signs down that tree, so a function that costs about the same on
15 points as on one (a numpy expression) takes a quarter of the calls.
`bisect` is its depth-1 case, one scalar evaluation per halving.
"""

from __future__ import annotations

_HALVINGS = 200     # the ends of an O(1) bracket meet after about 60
_DEPTH = 4          # halvings per batched call: of depths 2 to 6, 3 and 4
                    # timed fastest in tools/xi_cost.py


def walk(fs, a, b, fa, width=0.0, depth=_DEPTH):
    """Narrow the bracket a < b of a sign change of f; return (a, b).

    fs maps a list of points to the list (or 1-d array) of f at them;
    fa is f(a), or any nonzero number of its sign.  Each halving keeps
    the half whose ends differ in sign.  It stops on an exact zero
    f(mid) == 0, returning (mid, mid); once the midpoint is no longer
    strictly inside (a, b), i.e. the ends are adjacent floats; when
    b - a < width * max(1, |mid|), absolute below 1 and relative above;
    or after 200 halvings.  A midpoint that no call has covered yet
    makes one call of fs on the 2**depth - 1 midpoints of the next
    `depth` halvings, on every bracket they can reach, so fs is called
    ceil(halvings / depth) times, and the halvings, and so the result,
    do not depend on depth.
    """
    known = {}
    for _ in range(_HALVINGS):
        mid = 0.5 * (a + b)
        if not a < mid < b or b - a < width * max(1.0, abs(mid)):
            break
        if mid not in known:
            points = _midpoints(a, b, depth)
            known = dict(zip(points, fs(points)))
        fm = known[mid]
        if fm == 0.0:
            return mid, mid
        if (fm < 0.0) == (fa < 0.0):
            a = mid
        else:
            b = mid
    return a, b


def _midpoints(a, b, depth):
    # The midpoints of the next `depth` halvings of (a, b) on every
    # bracket they can reach, in increasing order, one level at a time:
    # point j is the midpoint of points j - half and j + half, the
    # bracket whose halving makes it.  Past the last level, a halving's
    # bracket lies between neighbouring points, so its midpoint is none
    # of them.
    n = 2 ** depth
    pts = [a] * n + [b]
    half = n // 2
    while half:
        for j in range(half, n, 2 * half):
            pts[j] = 0.5 * (pts[j - half] + pts[j + half])
        half //= 2
    return pts[1:n]


def bisect(f, a, b, fa, width=0.0):
    """walk with a scalar f, one evaluation per halving."""
    return walk(lambda xs: [f(xs[0])], a, b, fa, width, depth=1)
