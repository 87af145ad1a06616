"""Time integration of the age-structured network on the locked mesh
dt = dx (exact transport characteristics).

Each step: decay the density by the survival factor exp(-k dt), book
the absorbed mass plus the mass advected past the age horizon as the
discharge p, shift the density one cell toward older ages, and reinject
p in the youngest cell.  Cell mass is conserved to rounding by
construction.  step() and run() share one kernel, _advance; run() steps
inside two preallocated buffers and takes the factors exp(-k dt) from
the rate family's survival().
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Optional

import numpy as np

from . import _roots
from .delay_kernel import DelayKernel, DischargeHistory
from .errors import (AmbiguousActivityError, DegenerateInputError,
                     InvariantViolationError, ModelInconsistencyError)
from .firing_rate import estimate_xi, half_rate_age
from .grid import AgeGrid, DensityState

__all__ = [
    "SimulationConfig", "SimulationTrace", "ActivitySolution", "SolverCounts",
    "DecayFit", "solve_activity_implicit", "kappa0", "step", "run",
    "decay_fit", "stepper_equilibrium",
]


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    grid: AgeGrid
    model: object
    kernel: DelayKernel = dataclasses.field(default_factory=DelayKernel.dirac)
    t_end: float = 10.0
    record_every: int = 10
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 200
    q: float = 1.0
    allow_zero_kappa0: bool = False

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.fixed_point_tol <= 0.0:
            raise ValueError("fixed_point_tol must be positive")
        if self.fixed_point_max_iter < 1:
            raise ValueError("fixed_point_max_iter must be >= 1")
        if self.q < 0.0:
            raise ValueError("q must be >= 0")

    @property
    def dt(self):
        """Time step, locked to the age resolution."""
        return self.grid.dx


@dataclasses.dataclass(frozen=True)
class ActivitySolution:
    m: float
    iterations: int
    method: str


@dataclasses.dataclass(frozen=True)
class SolverCounts:
    """Which path each implicit activity solve of a run took: the
    solves settled by fixed-point iteration, the solves that fell back
    to the family's activity_roots (labelled "scan"), and the most
    iterations any solve used."""

    fixed_point: int
    scan: int
    max_iterations: int


@dataclasses.dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray
    m_series: np.ndarray
    p_series: np.ndarray
    mass_series: np.ndarray
    linf_series: np.ndarray
    l1q_series: np.ndarray
    l1_dist_to_F: Optional[np.ndarray]
    final_state: DensityState
    kappa0: float
    dt: float
    activity_solves: SolverCounts


@dataclasses.dataclass(frozen=True)
class DecayFit:
    alpha: float
    C: float
    r2: float
    window: tuple
    n_points: int


def kappa0(model, grid, f0):
    """Rest-rate mass int k(x, 0) f0(x) dx; positive kappa0 keeps the
    discharge bounded away from zero along the whole run."""
    values = f0.values if isinstance(f0, DensityState) else np.asarray(
        f0, dtype=float)
    return float(np.dot(model.rate(grid.midpoints, 0.0), values)) * grid.dx


def solve_activity_implicit(model, grid, values, tol=1e-12, max_iter=200,
                            warm_start=None):
    """Solve the implicit activity m = int k(x, lam*m) f(x) dx for a
    density of mass approx 1.

    Iterates the model's activity_map G from warm_start (default G(0)),
    clamped to [0, k1].  G is nondecreasing, so the iterates move
    monotonically toward a root and never cross it.  If they have not
    settled within tol after max_iter steps, model.activity_roots lists
    every fixed point of G: zero roots means the model violates its own
    bounds, several make the dynamics ambiguous, and both cases raise.

    Ambiguity is detected only on that stalled path: an iteration that
    settles returns the root it reached, even when the step family's
    staircase G holds a second one a few cells away."""
    G = model.activity_map(grid, values)
    k1 = model.k1

    mu = G(0.0) if warm_start is None else float(warm_start)
    mu = min(max(mu, 0.0), k1)
    for it in range(1, max_iter + 1):
        target = G(mu)
        if abs(target - mu) <= tol:
            return ActivitySolution(m=mu, iterations=it, method="fixed-point")
        mu = min(max(target, 0.0), k1)

    # stalled: the family lists every root, which also detects ambiguity
    roots = model.activity_roots(grid, values)
    if not roots:
        raise ModelInconsistencyError(
            "no solution of m = int k(x, lam*m) f dx in "
            f"[0, {k1!r}]; the rate family breaks its stated bounds")
    if len(roots) > 1:
        raise AmbiguousActivityError(
            "the implicit activity admits " + str(len(roots))
            + " solutions: " + ", ".join(f"{r:.6g}" for r in roots),
            roots)
    return ActivitySolution(m=roots[0], iterations=max_iter, method="scan")


def _advance(values, total, survival, out, dx, t, m):
    """The transport kernel of step() and run().

    values is the density and total its cell sum.  The survivors go to
    out[1:], one cell older, and the discharge p to out[0], so out has
    one cell more than values and out[:-1] is the new density.  Returns
    p and the new cell sum."""
    survived = out[1:]
    np.multiply(values, survival, out=survived)
    absorbed = (total - float(survived.sum())) * dx
    outflow = float(survived[-1]) * dx
    p = (absorbed + outflow) / dx
    out[0] = p
    if p < 0.0 or out[-2] < 0.0:
        raise InvariantViolationError(
            "negative density produced by a transport step",
            {"t": t, "p": p, "m": m})
    return p, float(out[:-1].sum())


def step(state, m, config):
    """One transport step at activity m.  Returns (new_state, p)."""
    grid = config.grid
    values = state.values
    out = np.empty(grid.n_cells + 1)
    p, total = _advance(values, float(values.sum()),
                        config.model.survival(grid, m), out, grid.dx,
                        state.t, m)
    return DensityState(values=out[:-1], mass=total * grid.dx, m=m, p=p,
                        t=state.t + grid.dx), p


def _check_strong_regime_gate(config, k0_mass):
    """A vanishing rest-rate mass with no delay forfeits the discharge
    lower bound; in the strong regime that combination is refused."""
    model = config.model
    if getattr(model, "lam", 0.0) == 0.0:
        return
    est = estimate_xi(model, x_max=config.grid.x_max)
    if math.isfinite(est.lambda_strong) and abs(model.lam) >= est.lambda_strong:
        raise DegenerateInputError(
            "initial density carries no rest-rate mass (kappa0 = 0) and the "
            "connectivity sits in the strong regime; the discharge can die "
            "out and the relaxation guarantee is void.  Pass "
            "allow_zero_kappa0=True to run anyway.")


def run(config, f0, steady=None):
    """Integrate the network from f0 up to t_end.

    f0 may be a DensityState, an array of cell values, or a callable
    of age.  If steady is given (a SteadyState), the trace records the
    L1 distance to its profile at every sample.

    Every step checks that the density stays nonnegative and that m
    and p stay finite.  Running checks on every recorded sample: unit
    mass within 1e-10, sup bound, p >= 0 with its absorbed part (p less
    the outflow past x_max) at most k1, m in [0, k1], and for
    kappa0 > 0 the uniform activity floor once t passes the half-rate
    age.  Under a delay kernel m is a mean of past p, so its cap is the
    largest p pushed instead of k1.  The trace counts the path each
    activity solve took.
    """
    grid, model, kernel = config.grid, config.model, config.kernel
    dt = config.dt
    if not isinstance(f0, DensityState):
        f0 = grid.project(f0)
    state = f0
    k1 = model.k1
    k0 = model.k0

    k0_mass = kappa0(model, grid, state)
    if k0_mass <= 0.0 and kernel.is_dirac and not config.allow_zero_kappa0:
        _check_strong_regime_gate(config, k0_mass)

    x0 = half_rate_age(model)
    sup_bound = float(np.max(state.values)) + k1 + 10.0 * grid.dx
    m_floor = min(k0_mass, 0.5 * k0) * math.exp(-k1 * x0) - 10.0 * grid.dx

    # initial activity: the self-consistent discharge of f0, which also
    # pads the pre-history for delayed kernels
    solves = {"fixed-point": 0, "scan": 0}
    most_iterations = 0

    def _solve(values, warm_start=None):
        nonlocal most_iterations
        sol = solve_activity_implicit(model, grid, values,
                                      tol=config.fixed_point_tol,
                                      max_iter=config.fixed_point_max_iter,
                                      warm_start=warm_start)
        solves[sol.method] += 1
        most_iterations = max(most_iterations, sol.iterations)
        return sol.m

    m0 = _solve(state.values)

    history = None
    weights = None
    if not kernel.is_dirac:
        _, weights = kernel.weights(dt)
        history = DischargeHistory.constant(m0, weights.size, dt)

    n_steps = int(round(config.t_end / dt))
    if n_steps < 1:
        raise ValueError("t_end shorter than one time step")

    F = steady.F if steady is not None else None

    times = []
    m_series = []
    p_series = []
    mass_series = []
    linf_series = []
    l1q_series = []
    dist_series = None if F is None else []

    def _record(t, values, mass, m, p, absorbed):
        times.append(t)
        m_series.append(m)
        p_series.append(p)
        mass_series.append(mass)
        sup = float(np.max(values))
        linf_series.append(sup)
        l1q_series.append(grid.l1q_norm(values, config.q))
        if dist_series is not None:
            dist_series.append(grid.l1_distance(values, F))
        diag = {"t": t, "m": m, "p": p, "mass": mass}
        if not (math.isfinite(m) and math.isfinite(p)
                and math.isfinite(mass)):
            raise InvariantViolationError("non-finite state", diag)
        if abs(mass - 1.0) > 1e-10:
            raise InvariantViolationError("mass drifted off 1", diag)
        if sup > sup_bound:
            diag["sup_bound"] = sup_bound
            raise InvariantViolationError("density exceeded its sup bound",
                                          diag)
        if absorbed > k1 * (1.0 + 1e-12) or p < 0.0:
            diag["absorbed"] = absorbed
            raise InvariantViolationError("discharge left [0, k1]", diag)
        if m > m_cap * (1.0 + 1e-12) or m < 0.0:
            diag["cap"] = m_cap
            raise InvariantViolationError("activity left [0, cap]", diag)
        if k0_mass > 0.0 and t >= x0 and m < m_floor:
            diag["floor"] = m_floor
            raise InvariantViolationError(
                "activity fell below its uniform lower bound", diag)

    m_cap = k1 if history is None else m0
    _record(0.0, state.values, state.mass, m0, m0, m0)

    # the density lives in cur[:cells]; each step writes the next one
    # into nxt and the two swap, so the loop allocates no cell arrays
    cells = grid.n_cells
    cur = np.empty(cells + 1)
    nxt = np.empty(cells + 1)
    cur[:cells] = state.values
    total = float(state.values.sum())
    t = state.t
    m = p = m0
    for n in range(1, n_steps + 1):
        values = cur[:cells]
        if kernel.is_dirac:
            try:
                m = _solve(values, warm_start=m)
            except AmbiguousActivityError as exc:
                exc.t = t
                raise
        else:
            m = float(weights @ history.lagged(weights.size))
        p, total = _advance(values, total, model.survival(grid, m), nxt,
                            grid.dx, t, m)
        cur, nxt = nxt, cur
        t = n * dt
        if history is not None:
            history.push(p)
            m_cap = max(m_cap, p)
        if not (math.isfinite(p) and math.isfinite(m)):
            raise InvariantViolationError(
                "non-finite step output", {"t": t, "m": m, "p": p})
        if n % config.record_every == 0 or n == n_steps:
            _record(t, cur[:cells], total * grid.dx, m, p,
                    p - float(cur[cells]))

    final = DensityState(values=cur[:cells].copy(), mass=total * grid.dx,
                         m=m, p=p, t=t)
    return SimulationTrace(
        times=np.asarray(times),
        m_series=np.asarray(m_series),
        p_series=np.asarray(p_series),
        mass_series=np.asarray(mass_series),
        linf_series=np.asarray(linf_series),
        l1q_series=np.asarray(l1q_series),
        l1_dist_to_F=None if dist_series is None else np.asarray(dist_series),
        final_state=final,
        kappa0=k0_mass,
        dt=dt,
        activity_solves=SolverCounts(
            fixed_point=solves["fixed-point"], scan=solves["scan"],
            max_iterations=most_iterations),
    )


def decay_fit(trace, window):
    """Least-squares line through log ||f(t) - F||_1 over the window.

    Returns slope alpha, prefactor C and the r^2 of the fit.  Distances
    at the rounding floor (1e-13) are cut from the window tail with a
    warning; they carry no decay information."""
    if trace.l1_dist_to_F is None:
        raise ValueError("trace has no recorded distance to a steady state; "
                         "rerun with steady=...")
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("window must satisfy t0 < t1")
    sel = (trace.times >= t0) & (trace.times <= t1)
    t = trace.times[sel]
    d = trace.l1_dist_to_F[sel]
    floor = 1e-13
    if np.any(d <= floor):
        cut = int(np.argmax(d <= floor))
        if cut < 3:
            raise ValueError("distance sits at the rounding floor over the "
                             "whole window; nothing to fit")
        warnings.warn("distance reaches the rounding floor inside the fit "
                      "window; shrinking the window", stacklevel=2)
        t, d = t[:cut], d[:cut]
    if t.size < 3:
        raise ValueError("need at least 3 samples in the fit window")
    logd = np.log(d)
    slope, intercept = np.polyfit(t, logd, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(alpha=float(slope), C=float(np.exp(intercept)), r2=r2,
                    window=(float(t[0]), float(t[-1])), n_points=int(t.size))


def stepper_equilibrium(model, grid, tol=1e-13):
    """Fixed point of the discrete time-stepper with no delay.

    The profile the simulation itself relaxes to: it satisfies
    f_{j+1} = f_j exp(-k(x_j, lam*m) dx) with unit mass and an activity
    m consistent with the midpoint quadrature of k f.  It sits within
    O(dx) of the cell-exact stationary profile of solve_steady_state;
    measuring a relaxation rate from a trace is only meaningful against
    this profile, because the distance to any other reference saturates
    at that O(dx) offset.  Returned as a SteadyState so it can be
    passed to run(steady=...)."""
    from .steady_state import SteadyState

    mids = grid.midpoints
    dx = grid.dx

    def profile(m):
        s = model.survival(grid, m)
        f = np.empty(grid.n_cells)
        f[0] = 1.0
        np.cumprod(s[:-1], out=f[1:])
        return f / (f.sum() * dx)

    def phi(m):
        f = profile(m)
        return float(np.dot(model.rate(mids, m), f)) * dx - m

    fa = phi(0.0)
    if fa <= 0.0:
        m_star = 0.0
    else:
        a, b = _roots.bisect(phi, 0.0, model.k1, fa, width=tol)
        m_star = 0.5 * (a + b)
    F = profile(m_star)
    k_mid = np.asarray(model.rate(mids, m_star))
    if grid.n_cells >= 3:
        dF = (F[2:] - F[:-2]) / (2.0 * dx)
        residual_ode = float(np.max(np.abs(dF + k_mid[1:-1] * F[1:-1])))
    else:
        residual_ode = 0.0
    return SteadyState(M=m_star, F=F, lam=float(model.lam),
                       residual_ode=residual_ode,
                       residual_activity=abs(phi(m_star)))
