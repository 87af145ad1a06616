"""Bracketed scalar roots: the stationary activity M, the implicit
activity m and the regime couplings all come from here.

Plain bisection, because the functions involved (step-rate activity
maps and their cumulatives) are not differentiable in the unknown and
may jump.
"""

from __future__ import annotations

import math

import numpy as np

_HALVINGS = 200     # the ends of an O(1) bracket meet after about 60


def bisect(f, a, b, fa, width=0.0):
    """Narrow the bracket a < b of a sign change of f; return (a, b).

    fa is f(a), or any nonzero number of its sign.  Each step keeps the
    half whose ends differ in sign.  It stops on an exact zero
    f(mid) == 0, returning (mid, mid); once the midpoint is no longer
    strictly inside (a, b), i.e. the ends are adjacent floats; or when
    b - a < width * max(1, |mid|), absolute below 1 and relative above.
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


def scan(f, lo, hi, n, tol, error, width=0.0):
    """Every root of f on [lo, hi] found on a uniform mesh of n points.

    A mesh point where f is exactly zero is a root.  Each cell whose
    ends differ in sign is bisected to the given width, and the
    midpoint is kept when |f| there is at most tol, so a sign change
    across a jump of f is dropped.  hi is a root too when |f(hi)| <= tol
    and no root lies within one cell below it, since rounding can hide
    the sign change of a root sitting on the bracket's end.  Raises
    `error` if f is not finite at a mesh point.
    """
    xs = np.linspace(lo, hi, n).tolist()
    fs = [f(x) for x in xs]
    if not all(map(math.isfinite, fs)):
        raise error
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            a, b = bisect(f, a, b, fa, width)
            root = 0.5 * (a + b)
            if abs(f(root)) <= tol:
                roots.append(root)
    if abs(fs[-1]) <= tol and (not roots
                               or hi - roots[-1] > (hi - lo) / (n - 1)):
        roots.append(xs[-1])
    return roots
