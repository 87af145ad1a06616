"""Independent oracles for the benchmark's output checks.

Nothing here calls agenet.  Rates and cumulative rates are the closed
forms of the three families, written from their definitions; roots
come from scipy's brentq or from exact plateau enumeration; and the
reported gap mode of a linearized spectrum is checked against the
renewal characteristic function chi, in O(n) and without an
eigensolver.

A model is the plain dict the CLI config carries in its `model`
section, e.g. {"kind": "step", "sigma_plus": 0.5, "sigma_minus": 0.25,
"lambda": 0.1, "decay": 1.0}.

Every check returns a list of problems; an empty list is a pass.  A
problem is a (message, wrong) pair: `wrong` is true when the program
returned a value its oracle rejects, and false when it failed to
honour its contract without returning a wrong value (an ambiguity it
did not report).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

MASS_DRIFT_TOL = 1e-9
M_END_TOL = 1e-3
FIT_R2_MIN = 0.99
ACTIVITY_TOL = 1e-8
STEADY_M_TOL = 1e-8
ROOT_REL_TOL = 1e-9  # gap mode against the nearest root of chi


def k1(model):
    """Upper bound of the rate family."""
    if model["kind"] == "constant":
        return model["k0"]
    if model["kind"] == "step":
        return 1.0
    return model["k1"]


def _drive(model, mu):
    return model["lambda"] * mu


def rate(model, x, mu):
    """k(x, lambda*mu) at the ages x."""
    x = np.asarray(x, dtype=float)
    kind = model["kind"]
    if kind == "constant":
        return np.full(x.shape, model["k0"])
    if kind == "step":
        return (x > threshold(model, mu)).astype(float)
    return gain(model, mu) * (-np.expm1(-x / model["x_scale"]))


def cumulative(model, x, mu):
    """K(x, lambda*mu), the integral of the rate over [0, x]."""
    x = np.asarray(x, dtype=float)
    kind = model["kind"]
    if kind == "constant":
        return model["k0"] * x
    if kind == "step":
        return np.maximum(0.0, x - threshold(model, mu))
    xs = model["x_scale"]
    return gain(model, mu) * (x + xs * np.expm1(-x / xs))


def threshold(model, mu):
    span = model["sigma_plus"] - model["sigma_minus"]
    return model["sigma_minus"] + span * math.exp(
        -model["decay"] * _drive(model, mu))


def gain(model, mu):
    k0, k1_ = model["k0"], model["k1"]
    return k0 + (k1_ - k0) * -math.expm1(-_drive(model, mu) / model["mu_scale"])


# ---------------------------------------------------------------------------
# stationary state on the cell-exact mesh

def _cells(model, dx, n, M):
    """Per-cell integrals of exp(-K) and the tail past the horizon, with
    K exact at the cell edges and the cell-mean rate inside a cell."""
    edges = np.arange(n + 1) * dx
    K = cumulative(model, edges, M)
    kc = np.diff(K) / dx
    E = np.exp(-K)
    safe = np.where(kc > 0.0, kc, 1.0)
    cell = np.where(kc > 0.0, E[:-1] * -np.expm1(-kc * dx) / safe,
                    dx * E[:-1])
    k_end = float(rate(model, n * dx, M))
    tail = E[-1] / k_end if k_end > 0.0 else math.inf
    return cell, tail


def stationary_activity(model, dx, n):
    """The M with M * (integral of exp(-K(x, lambda*M)) dx) = 1."""
    def g(M):
        cell, tail = _cells(model, dx, n, M)
        return M * (float(cell.sum()) + tail) - 1.0
    return brentq(g, 1e-6, k1(model), xtol=1e-15, maxiter=200)


def stationary_profile(model, dx, n, M):
    """Cell averages of the profile M exp(-K), unit L1 mass on the grid."""
    cell, _ = _cells(model, dx, n, M)
    return cell / (float(cell.sum()) * dx)


# ---------------------------------------------------------------------------
# renewal characteristic function of the linearized generator

def chi(model, dx, n, M, lam):
    """chi(lam) and chi'(lam) for the generator A = L + e0 c^T.

    L is the lower bidiagonal transport-absorption part and c the
    discharge row, so det(lam - A) = det(lam - L) chi(lam) with
    chi(lam) = 1 - c^T (lam - L)^{-1} e0, which a cumulative product
    gives in O(n)."""
    k = rate(model, (np.arange(n) + 0.5) * dx, M)
    c = k.astype(complex)
    c[-1] += 1.0 / dx
    d = 1.0 + dx * (lam + k)
    v = dx * np.cumprod(1.0 / d)
    s = np.cumsum(dx / d)
    cv = c * v
    return 1.0 - cv.sum(), (cv * s).sum()


def chi_root_near(model, dx, n, M, z0, max_iter=50):
    """Newton's iteration on chi from z0; the root, or None."""
    z = complex(z0)
    for _ in range(max_iter):
        f, df = chi(model, dx, n, M, z)
        if df == 0.0 or not np.isfinite(df):
            return None
        dz = f / df
        z -= dz
        if abs(dz) <= 1e-11 * max(1.0, abs(z)):
            return z
    return None


# ---------------------------------------------------------------------------
# implicit activity m = int k(x, lambda*m) f(x) dx on the midpoint mesh

def _plateaus(model, mids, top):
    """(a, b, first) for each activity interval [a, b] of a step rate
    inside which the threshold crosses no cell midpoint; `first` is the
    first cell that fires there."""
    lo, hi, lam = model["sigma_minus"], model["sigma_plus"], model["lambda"]
    crossing = mids[(mids > lo) & (mids < hi)]
    if lam > 0.0 and crossing.size:
        m_cross = -np.log((crossing - lo) / (hi - lo)) / (model["decay"] * lam)
        m_cross = m_cross[(m_cross > 0.0) & (m_cross < top)]
    else:
        m_cross = np.empty(0)
    bounds = np.unique(np.concatenate(([0.0], m_cross, [top])))
    for a, b in zip(bounds[:-1], bounds[1:]):
        first = int(np.searchsorted(mids, threshold(model, 0.5 * (a + b)),
                                    side="right"))
        yield a, b, first


def activity_roots_step(model, dx, f):
    """Every fixed point of the staircase activity map of a step rate.

    Between two threshold crossings the map is constant, and that
    plateau holds a root exactly when its value lies inside it."""
    mids = (np.arange(f.size) + 0.5) * dx
    mass_above = np.concatenate((np.cumsum(f[::-1])[::-1], [0.0])) * dx
    roots = []
    for a, b, first in _plateaus(model, mids, k1(model)):
        g = float(mass_above[first])
        if a <= g <= b:
            roots.append(g)
    return roots


def stepper_fixed_points_step(model, dx, n):
    """Activities of every fixed point of the discrete stepper for a
    step rate.

    With `first` the first firing cell, the stepper's profile is 1 up
    to that cell and decays by exp(-dx) per cell after it, so a plateau
    holds a fixed point when that profile's discharge lies in it."""
    cells = np.arange(n)
    points = []
    for a, b, first in _plateaus(model, (cells + 0.5) * dx, 1.0):
        f = np.exp(-dx * np.maximum(0, cells - first))
        g = float(f[first:].sum() / f.sum())
        if a <= g <= b:
            points.append(g)
    return points


def activity_root_brentq(model, dx, f):
    """The activity root for a continuous rate family, by brentq."""
    mids = (np.arange(f.size) + 0.5) * dx

    def h(m):
        return float(rate(model, mids, m) @ f) * dx - m
    return brentq(h, 0.0, k1(model) * (1.0 + 1e-6), xtol=1e-14)


# ---------------------------------------------------------------------------
# checks

def check_trace(model, dx, n, table, fit, need_exponential):
    """A simulate trace (columns of its CSV) and its decay-fit row."""
    problems = []
    drift = float(np.max(np.abs(table["mass"] - 1.0)))
    if not drift <= MASS_DRIFT_TOL:
        problems.append((f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}",
                         True))
    M = stationary_activity(model, dx, n)
    dev = abs(float(table["m"][-1]) - M)
    if not dev <= M_END_TOL:
        problems.append((f"|m(end) - M| = {dev:.3e} > {M_END_TOL:g} "
                         f"(oracle M = {M:.12g})", True))
    if not fit["alpha"] < 0.0:
        problems.append((f"decay fit alpha = {fit['alpha']:.6g} is not "
                         "negative", True))
    if need_exponential and not fit["r2"] >= FIT_R2_MIN:
        message = f"decay fit r2 = {fit['r2']:.6g} < {FIT_R2_MIN}"
        points = (stepper_fixed_points_step(model, dx, n)
                  if model["kind"] == "step" else [])
        if len(points) > 1:
            # the fit measured against one of several stepper fixed
            # points, picked by stepper_equilibrium without a report
            problems.append((message + f"; the stepper has {len(points)} "
                             "fixed points, m = " + ", ".join(
                                 f"{p:.12g}" for p in points), False))
        else:
            problems.append((message, True))
    return problems


def check_spectrum(model, dx, n, eigs, kernel):
    """Eigenvalues in the CLI's order (zero mode first, then by
    descending real part) and the zero-mode cell values."""
    problems = []
    near = np.abs(eigs) < 5.0 * dx
    if int(near.sum()) != 1:
        problems.append((f"{int(near.sum())} eigenvalues within {5 * dx:g} "
                         "of 0, expected exactly 1", True))
    M = stationary_activity(model, dx, n)
    profile = stationary_profile(model, dx, n, M)
    mismatch = float(np.abs(kernel - profile).sum()) * dx
    if not mismatch <= 10.0 * dx:
        problems.append((f"zero mode vs profile L1 {mismatch:.3e} > "
                         f"{10 * dx:g}", True))
    rest = eigs[~near]
    if rest.size == 0:
        problems.append(("no eigenvalue besides the zero mode", True))
        return problems
    gap_mode = rest[int(np.argmax(rest.real))]
    root = chi_root_near(model, dx, n, M, gap_mode)
    tol = ROOT_REL_TOL * max(1.0, abs(gap_mode))
    if root is None or abs(root - gap_mode) > tol:
        got = "no convergence" if root is None else f"{root:.12g}"
        problems.append((f"gap mode {gap_mode:.12g} is not a root of chi "
                         f"(Newton from it: {got}; tol {tol:.1e})", True))
    return problems


def check_activity(model, dx, f, outcome):
    """One implicit-activity draw.  outcome is ("value", m) or
    ("ambiguous", roots)."""
    kind, payload = outcome
    if model["kind"] == "step":
        roots = activity_roots_step(model, dx, f)
        if len(roots) > 1:
            if kind == "ambiguous":
                return []
            return [(f"the map has {len(roots)} roots "
                     f"{', '.join(f'{r:.12g}' for r in roots)} but the solver "
                     f"returned m = {payload:.12g} without reporting the "
                     "ambiguity", False)]
        if len(roots) != 1:
            return [("plateau enumeration found no root", True)]
        oracle = roots[0]
    else:
        oracle = activity_root_brentq(model, dx, f)
    if kind == "ambiguous":
        return [(f"solver reported {len(payload)} roots where the oracle "
                 f"has one, {oracle:.12g}", True)]
    dev = abs(payload - oracle)
    if not dev <= ACTIVITY_TOL:
        return [(f"|m - oracle| = {dev:.3e} > {ACTIVITY_TOL:g} "
                 f"(m = {payload:.12g}, oracle {oracle:.12g})", True)]
    return []


def check_stationary(model, dx, n, M):
    """A stationary activity from solve_steady_state or regime_scan."""
    oracle = stationary_activity(model, dx, n)
    dev = abs(M - oracle)
    if not dev <= STEADY_M_TOL:
        return [(f"lambda = {model['lambda']:.6g}: |M - oracle| = "
                 f"{dev:.3e} > {STEADY_M_TOL:g}", True)]
    return []
