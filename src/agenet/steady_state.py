"""Stationary profiles and activities of the age-structured network.

The stationary transport equation integrates in closed form to
F(x) = M * exp(-K(x, lam*M)), so the whole problem collapses to one
scalar equation in the stationary activity M: normalization <F> = 1.
The discharge consistency M = int k F dx then holds identically and
is reported as a residual rather than solved for.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import _roots
from .errors import BracketError

__all__ = ["SteadyState", "ScanRow", "solve_steady_state", "regime_scan"]


@dataclasses.dataclass(frozen=True)
class SteadyState:
    """Stationary pair: activity M (also the boundary value F(0)) and
    the profile F as cell averages, with two residual diagnostics."""

    M: float
    F: np.ndarray
    lam: float
    residual_ode: float
    residual_activity: float


def _profile_parts(model, grid, M):
    """Per-cell integrals of exp(-K(x, lam*M)) and the horizon tail.

    K is evaluated at cell edges, so each cell integral uses the exact
    single-exponential formula for the cell-mean rate; this keeps the
    normalization integral at quadrature error O(dx^2) inside a cell
    containing a rate jump and exact elsewhere.  The tail extends the
    profile past x_max with the frozen rate k(x_max), the natural
    choice for rates that have saturated in age by the horizon.
    """
    K_edges = np.concatenate(
        [[0.0], np.atleast_1d(model.cumulative(grid.edges[1:], M))])
    kc = np.diff(K_edges) / grid.dx
    E = np.exp(-K_edges)
    shed = -np.expm1(-kc * grid.dx)       # 1 - exp(-kc*dx) per cell
    safe = np.where(kc > 0.0, kc, 1.0)
    cell_int = np.where(kc > 0.0, E[:-1] * shed / safe, grid.dx * E[:-1])
    k_end = float(model.rate(grid.x_max, M))
    tail = (E[-1] / k_end) if k_end > 0.0 else math.inf
    return cell_int, tail, E, kc


def _normalization_residual(model, grid, M):
    cell_int, tail, _, _ = _profile_parts(model, grid, M)
    return M * (float(cell_int.sum()) + tail) - 1.0


def _stationary_roots(model, grid, lo, hi, scan_points, tol):
    """Every root of the normalization residual on [lo, hi], found on
    a mesh of scan_points cells."""
    return _roots.scan(
        lambda M: _normalization_residual(model, grid, M), lo, hi,
        scan_points + 1, tol, BracketError(
            "normalization integral diverges on the bracket; the rate "
            "may vanish at the horizon"), width=1e-16)


def solve_steady_state(model, grid, bracket=None, tol=1e-12, scan_points=200):
    """Solve for the stationary pair (F, M) on the given grid.

    Roots of g(M) = M * int exp(-K(x, lam*M)) dx - 1 over the bracket
    (default (1e-6, k1]; the stationary activity can never exceed k1):
    g is sampled on scan_points cells and each sign change is bisected
    until its ends are adjacent floats or 1e-16 apart.  Bisection
    rather than Newton because K is not differentiable in M for step
    rates.  The scan finds every root; when several exist a warning
    lists them all and the smallest is returned.
    """
    if bracket is None:
        bracket = (1e-6, model.k1)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if hi > model.k1 * (1.0 + 1e-12):
        raise ValueError("bracket exceeds k1; stationary activity cannot")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    roots = _stationary_roots(model, grid, lo, hi, scan_points, tol)
    if not roots:
        raise BracketError(
            f"no sign change of the normalization residual on "
            f"[{lo:g}, {hi:g}]; widen the bracket")
    if len(roots) > 1:
        warnings.warn(
            "multiple stationary activities on the bracket: "
            + ", ".join(f"{r:.6g}" for r in roots)
            + "; returning the smallest", stacklevel=2)
    M = roots[0]

    cell_int, tail, E, kc = _profile_parts(model, grid, M)
    F = M * cell_int / grid.dx
    # activity consistency, evaluated with the same cell-exact quadrature
    absorbed = E[:-1] * (-np.expm1(-kc * grid.dx))
    activity = M * (float(absorbed.sum()) + E[-1])
    residual_activity = abs(activity - M)
    # finite-difference check of the profile equation F' + k F = 0;
    # O(dx^2) for smooth rates, with an O(1) spike at a rate jump
    k_mid = np.asarray(model.rate(grid.midpoints, M))
    dF = (F[2:] - F[:-2]) / (2.0 * grid.dx)
    residual_ode = float(np.max(np.abs(dF + k_mid[1:-1] * F[1:-1]))) \
        if grid.n_cells >= 3 else 0.0
    return SteadyState(M=M, F=F, lam=model.lam, residual_ode=residual_ode,
                       residual_activity=residual_activity)


@dataclasses.dataclass(frozen=True)
class ScanRow:
    lam: float
    roots: tuple
    unique: bool


def regime_scan(model, lambdas, grid, bracket=None, tol=1e-12,
                scan_points=400):
    """Stationary-activity roots for each coupling in lambdas.

    Each row reports every bracketed root of the normalization
    residual on (0, k1] and whether it is unique.  An empty root list
    is a legal outcome and worth the user's attention, so it is
    reported rather than raised.  Rows come in the order of lambdas.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda list must be nonempty")
    if any(l < 0.0 for l in lambdas):
        raise ValueError("couplings must be nonnegative")
    if bracket is None:
        bracket = (1e-6, model.k1)
    lo, hi = float(bracket[0]), float(bracket[1])

    rows = []
    for lam in lambdas:
        roots = _stationary_roots(dataclasses.replace(model, lam=lam), grid,
                                  lo, hi, scan_points, tol)
        rows.append(ScanRow(lam=lam, roots=tuple(roots),
                            unique=len(roots) == 1))
    return rows
