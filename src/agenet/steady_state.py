"""Stationary profiles and activities of the age-structured network.

The stationary transport equation integrates in closed form to
F(x) = M * exp(-K(x, lam*M)), so the whole problem collapses to one
scalar equation in the stationary activity M: normalization
g(M) = M * I(M) - 1 = 0, with I(M) = int exp(-K(x, lam*M)) dx.  The
discharge consistency M = int k F dx then holds identically and is
reported as a residual rather than solved for.

Rates are nondecreasing in activity, so I is nonincreasing and g is
enclosed on any [a, b] by a*I(b) - 1 <= g <= b*I(a) - 1.  The root
search splits the bracket [1e-6, k1] and drops every part whose
enclosure misses 0, so it proves where no root lies.  It narrows each
sign change to adjacent floats, halving it down to the final width and
taking ITP steps from its end values below that, and splits the other
parts it cannot rule out down to the final width, 1/1024 of a mesh
cell, so it lists every root down to that width.  On the built-in
families a search takes 20 to 45 evaluations of g.

Each cell integral is the exact integral of exp(-K) for the cell's
mean rate, (K(x_j+1) - K(x_j))/dx, with K on the mesh edges: exact
where the rate is constant in a cell and O(dx^2) in a cell that holds
a rate jump.  A cell with no rate holds dx*exp(-K) at its left edge,
and the horizon tail extends the profile past x_max with the frozen
rate k(x_max), exp(-K(x_max))/k(x_max).  Each family states I in its
own closed form, on the stepper that it binds to the grid:
model.stepper(grid).stationary_integral(M).  The smooth rate is
separable, K = gain(lam*M) * A(x), so an evaluation is one exp and one
expm1 of gain-scaled vectors, one product and one dot product over age
pieces bound once per grid; the constant and step rates are one run, 0
below an age T and k past it, so the cell integrals telescope and an
evaluation is a few scalar operations.  The profile F at a root and
both residual diagnostics come from the stepper's stationary(M), the
formula that the search evaluates (steady_state_at).
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import _roots
from .errors import BracketError

__all__ = ["SteadyState", "ScanRow", "solve_steady_state", "steady_state_at",
           "regime_scan"]


@dataclasses.dataclass(frozen=True)
class SteadyState:
    """Stationary pair: activity M (also the boundary value F(0)) and
    the profile F as cell averages, with two residual diagnostics."""

    M: float
    F: np.ndarray
    lam: float
    residual_ode: float
    residual_activity: float


# The coarsest meshes of the root searches.  A root in a mesh cell
# with a sign change is the one a sign scan of this mesh finds, bit for
# bit.
_SOLVE_CELLS = 200
_SCAN_CELLS = 400
# Halvings below the mesh: the final width is 1/1024 of a mesh cell.
_LEVELS = 10
# An enclosure rules out a root only when it misses 0 by this much more
# than rounding could shift g.
_SLACK = 1e-13
# Every search runs over [_LO, k1], and lists a root where |g| <= _TOL.
_LO = 1e-6
_TOL = 1e-12


def _stationary_roots(integral, lo, hi, cells, tol):
    """Every root of the normalization residual g(M) = M * I(M) - 1 on
    [lo, hi], ascending, with I evaluated by the callable integral.

    I(M) = int exp(-K(x, lam*M)) dx is nonincreasing: rates are
    nondecreasing in activity, every cell integral decreases in both of
    its edge values of K, and so does the horizon tail.  So on [a, b]
        a*I(b) - 1 <= g <= b*I(a) - 1,
    and a part of the bracket whose enclosure misses 0 (by _SLACK)
    holds no root.  I is finite on the whole bracket when it is at lo,
    so one check there raises BracketError for a diverging integral.

    The search splits the index ranges of a mesh of `cells` uniform
    cells and drops every range that holds no root.  A mesh cell left
    over is handled as a sign scan of the mesh would:
      - a zero of g on its lower end is a root;
      - ends of opposite sign are narrowed until they are adjacent
        floats or 1e-16 apart, and the midpoint is a root when
        |g| <= tol there, so a sign change across a jump is dropped.
        The narrowing halves the bracket down to the final width below
        and then takes ITP steps from the two end values (_roots.bisect);
      - hi is a root when |g(hi)| <= tol and no root lies within one
        cell below it, since rounding can hide a root on the end.
    Then every such cell is split in halves down to the final width,
    2**-_LEVELS of a mesh cell, dropping the halves that hold no root
    and narrowing, as above, each sign change that holds no narrowed
    bracket yet.  The halves along a narrowing's path cost nothing:
    their ends are its midpoints, down to the final width where its
    ITP steps begin.  The final cells left undecided form runs.  A run
    that holds or touches a listed root's bracket, or hi when
    |g(hi)| <= tol, merges into that root; any other run is one more
    root, at its evaluated end of least |g|, if |g| <= tol there.

    So every root of g lies in a run, and two roots are listed as one
    only when one run holds both.  A run lists no root only when g has
    no sign change in it but across a jump and |g| > tol at each of its
    evaluated ends: it can hide only roots that come in pairs, closer
    together than the run is wide, as at a near tangency.
    """
    seen = {}

    def at(M):
        # (I(M), g(M)), each evaluated once
        if M not in seen:
            value = integral(M)
            g = M * value - 1.0
            if not math.isfinite(g):
                raise BracketError(
                    "normalization integral diverges on the bracket; the "
                    "rate may vanish at the horizon")
            seen[M] = value, g
        return seen[M]

    def holds_root(a, b):
        # min and max keep g(a) and g(b) inside the enclosure after
        # rounding, which may break the order of I(a) and I(b)
        ia, ib = at(a)[0], at(b)[0]
        return (a * min(ia, ib) - 1.0 <= _SLACK
                and b * max(ia, ib) - 1.0 >= -_SLACK)

    roots, claimed, found = [], [], []
    final = (hi - lo) / cells * 2.0 ** -_LEVELS

    def narrowed(a, b):
        # a root (or a jump) between a and b, narrowed through `at`,
        # halving down to the final width so that the halves split below
        # reuse the midpoints; claimed holds the final bracket of every
        # listed root, found of every one
        ends = _roots.bisect(lambda M: at(M)[1], a, b, at(a)[1],
                             width=1e-16, fb=at(b)[1], halve_above=final)
        found.append(ends)
        root = 0.5 * (ends[0] + ends[1])
        if abs(at(root)[1]) <= tol:
            roots.append(root)
            claimed.append(ends)

    xs = np.linspace(lo, hi, cells + 1).tolist()
    at(lo)
    ranges, split = [(0, cells)], []
    while ranges:
        i, j = ranges.pop()
        if not holds_root(xs[i], xs[j]):
            continue
        if j > i + 1:
            m = (i + j) // 2
            ranges += [(m, j), (i, m)]
            continue
        # one mesh cell, in ascending order
        a, b = xs[i], xs[j]
        if at(a)[1] * at(b)[1] < 0.0:
            narrowed(a, b)
        elif at(a)[1] == 0.0:
            roots.append(a)
            claimed.append((a, a))
        split.append((a, b))
    if abs(at(hi)[1]) <= tol:
        claimed.append((hi, hi))
        if not roots or hi - roots[-1] > (hi - lo) / cells:
            roots.append(xs[-1])

    left = []
    while split:
        a, b = split.pop()
        if not holds_root(a, b):
            continue
        if at(a)[1] * at(b)[1] < 0.0 and not any(a <= s and t <= b
                                                 for s, t in found):
            narrowed(a, b)
        m = 0.5 * (a + b)
        if b - a <= final or not a < m < b:
            left.append((a, b))
        else:
            split += [(m, b), (a, m)]

    def size(M):
        return abs(at(M)[1])
    runs = []
    for a, b in sorted(left):
        if runs and runs[-1][1] == a:
            runs[-1][1:] = b, min(runs[-1][2], b, key=size)
        else:
            runs.append([a, b, min(a, b, key=size)])
    for a, b, best in runs:
        if size(best) <= tol and not any(s <= b and a <= t
                                         for s, t in claimed):
            roots.append(best)
    return sorted(roots)


def _upper_end(model):
    # k1, the upper end of the bracket: no stationary activity exceeds it
    if not _LO < model.k1:
        raise ValueError(f"k1 must exceed {_LO:g}, the lower end of the "
                         "stationary search")
    return float(model.k1)


def _residual_ode(model, grid, F, M):
    # centred-difference check of the profile equation F' + k F = 0;
    # O(dx^2) for smooth rates, with an O(1) spike at a rate jump
    if grid.n_cells < 3:
        return 0.0
    k_mid = np.asarray(model.rate(grid.midpoints, M))
    dF = (F[2:] - F[:-2]) / (2.0 * grid.dx)
    return float(np.max(np.abs(dF + k_mid[1:-1] * F[1:-1])))


def _steady_state(model, grid, stepper, M):
    # the stationary pair at M from the stepper's stationary form
    F, absorbed, end = stepper.stationary(M)
    # activity consistency: M * (absorbed + exp(-K(x_max))) = M
    return SteadyState(M=M, F=F, lam=model.lam,
                       residual_ode=_residual_ode(model, grid, F, M),
                       residual_activity=abs(M * (absorbed + end) - M))


def solve_steady_state(model, grid):
    """Solve for the stationary pair (F, M) on the given grid.

    Roots of g(M) = M * int exp(-K(x, lam*M)) dx - 1 over the bracket
    [1e-6, k1] (the stationary activity can never exceed k1), listed by
    the enclosure search of _stationary_roots on a coarsest mesh of 200
    cells.  It proves where g has no root, and narrows each sign change
    until its ends are adjacent floats or 1e-16 apart, by halvings and
    then ITP steps, which keep the bracket: not Newton, because K is
    not differentiable in M for step rates.  Every root is listed, down
    to a final width of 1/1024 of a mesh cell; on the built-in families
    a solve takes 20 to 45 evaluations of g.  When several roots exist
    a warning lists them all and the smallest is returned.  Every
    evaluation of g is the model's stepper's stationary_integral: six
    passes over the mesh, into the same buffers, for the smooth
    family's separable rate, and O(1) scalar work for the run of the
    constant and step families.  The pair at the root is
    steady_state_at's, read from the same formula.
    """
    hi = _upper_end(model)
    stepper = model.stepper(grid)
    roots = _stationary_roots(stepper.stationary_integral, _LO, hi,
                              _SOLVE_CELLS, _TOL)
    if not roots:
        raise BracketError(
            f"no sign change of the normalization residual on "
            f"[{_LO:g}, {hi:g}]")
    if len(roots) > 1:
        warnings.warn(
            "multiple stationary activities on the bracket: "
            + ", ".join(f"{r:.6g}" for r in roots)
            + "; returning the smallest", stacklevel=2)
    return _steady_state(model, grid, stepper, roots[0])


def steady_state_at(model, grid, M):
    """The stationary pair at a root M of the normalization residual,
    such as one that regime_scan lists: F and both residual diagnostics,
    from the evaluator of the root search.  solve_steady_state returns
    this at the smallest root it lists."""
    if not 0.0 < M < math.inf:
        raise ValueError("stationary activity M must be positive and finite")
    return _steady_state(model, grid, model.stepper(grid), M)


@dataclasses.dataclass(frozen=True)
class ScanRow:
    lam: float
    roots: tuple
    unique: bool


def regime_scan(model, lambdas, grid):
    """Stationary-activity roots for each coupling in lambdas.

    Each row reports every root of the normalization residual on the
    bracket [1e-6, k1], listed by the enclosure search of
    _stationary_roots on a coarsest mesh of 400 cells, and whether it
    is unique.  Every root is listed down to a final width of 1/1024 of
    a mesh cell, two inside one mesh cell included, so a row with one
    root is unique down to that width.  Each sign change is narrowed to
    adjacent floats by halvings and then ITP steps, and a row takes 20
    to 45 evaluations of the residual on the built-in families.  An empty
    root list is a legal outcome and worth the user's attention, so it
    is reported rather than raised.  Rows come in the order of lambdas.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda list must be nonempty")
    if not all(0.0 <= l < math.inf for l in lambdas):
        raise ValueError("couplings must be finite and nonnegative")
    hi = _upper_end(model)
    rows = []
    for lam in lambdas:
        stepper = dataclasses.replace(model, lam=lam).stepper(grid)
        roots = _stationary_roots(stepper.stationary_integral, _LO, hi,
                                  _SCAN_CELLS, _TOL)
        rows.append(ScanRow(lam=lam, roots=tuple(roots),
                            unique=len(roots) == 1))
    return rows
