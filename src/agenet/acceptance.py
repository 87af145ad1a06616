"""Desk-scale acceptance checks for the whole package.

Eight end-to-end criteria, each a single pass/fail line with the
measured numbers: conservation, closed-form steady states, density
and activity bounds, the linear spectral gap, nonlinear relaxation in
the weak regime, delay/no-delay agreement, first-order grid
convergence, and the implicit-activity contract.  Heavy intermediates
(the long relaxation runs) are cached so `agenet accept` and the test
suite can share them within one process.

Every tolerance here is fixed; a failing criterion prints its numbers
and fails.  Nothing adapts to make a line pass.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np
from scipy import optimize

from .delay_kernel import DelayKernel
from .evolution import (SimulationConfig, decay_fit, run,
                        solve_activity_implicit, stepper_equilibrium)
from .firing_rate import (ConstantRate, SmoothSaturatingRate, StepRate,
                          estimate_xi, half_rate_age)
from .grid import AgeGrid, preset_density
from .linear_analysis import spectrum
from .steady_state import solve_steady_state

__all__ = ["CriterionResult", "run_suite", "format_line", "CRITERIA"]

DESK_DX = 1e-3
X_MAX = 10.0


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _grid(dx=DESK_DX, x_max=X_MAX):
    return AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))


# ---------------------------------------------------------------------------
# shared heavy intermediates

@lru_cache(maxsize=None)
def _bound_runs():
    """The run set over which conservation and bounds are asserted.

    Covers all three rate families, two initial shapes (flat and a
    one-cell spike), and a distributed delay.
    """
    grid = _grid()
    runs = []
    for f0_name in ("uniform01", "spike"):
        model = ConstantRate(k0=2.0)
        cfg = SimulationConfig(grid=grid, model=model, t_end=10.0,
                               record_every=10)
        trace = run(cfg, preset_density(grid, f0_name))
        runs.append((f"constant k0=2 f0={f0_name}", model, trace))
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    cfg = SimulationConfig(grid=grid, model=model, t_end=10.0,
                           record_every=10)
    trace = run(cfg, preset_density(grid, "uniform01"))
    runs.append(("step lam=0.05 f0=uniform01", model, trace))
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.1)
    cfg = SimulationConfig(grid=grid, model=model,
                           kernel=DelayKernel.exponential(theta=2.0),
                           t_end=10.0, record_every=10)
    trace = run(cfg, preset_density(grid, "uniform01"))
    runs.append(("smooth lam=0.1 exponential delay", model, trace))
    return tuple(runs)


@lru_cache(maxsize=None)
def _weak_step_material():
    """Relaxation run and spectrum for the weak-regime step model.

    The trace is measured against the discrete stepper equilibrium, the
    profile the scheme actually relaxes to; the spectral gap comes from
    the generator on the 5e-3 mesh this criterion has always used, so
    its printed line stays comparable across versions.
    """
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    grid = _grid()
    equilibrium = stepper_equilibrium(model, grid)
    cfg = SimulationConfig(grid=grid, model=model, t_end=30.0,
                           record_every=10)
    trace = run(cfg, preset_density(grid, "uniform01"), steady=equilibrium)
    spec_grid = _grid(dx=5e-3)
    steady = solve_steady_state(model, spec_grid)
    report = spectrum(model, spec_grid, steady)
    return model, grid, equilibrium, trace, report


# ---------------------------------------------------------------------------
# criteria

def criterion_mass_conservation():
    """Unit mass at every recorded time of every run in the set."""
    worst = 0.0
    for label, _, trace in _bound_runs():
        drift = float(np.max(np.abs(trace.mass_series - 1.0)))
        worst = max(worst, drift)
    passed = worst <= 1e-9
    return passed, f"max |<f> - 1| = {worst:.3e} over {len(_bound_runs())} runs (tol 1e-9)"


def criterion_steady_closed_forms():
    """Stationary solver against the two closed-form cases."""
    grid = _grid()
    ss = solve_steady_state(ConstantRate(k0=2.0), grid)
    err_m = abs(ss.M - 2.0)
    exact = 2.0 * np.exp(-2.0 * grid.midpoints)
    err_f = grid.l1_distance(ss.F, exact)
    ss_step = solve_steady_state(StepRate(sigma_plus=0.5, sigma_minus=0.25,
                                          lam=0.0), grid)
    err_step = abs(ss_step.M - 2.0 / 3.0)
    passed = err_m <= 1e-10 and err_f <= 1e-3 and err_step <= 1e-8
    return passed, (f"constant: |M - 2| = {err_m:.2e} (tol 1e-10), "
                    f"||F - 2e^(-2x)||_1 = {err_f:.2e} (tol 1e-3); "
                    f"step lam=0: |M - 2/3| = {err_step:.2e} (tol 1e-8)")


def criterion_bounds():
    """Sup bound on the density, activity cap, and the activity floor."""
    problems = []
    details = []
    for label, model, trace in _bound_runs():
        k1 = model.k1
        dx = trace.dt
        sup_bound = trace.linf_series[0] + k1 + 10.0 * dx
        sup_excess = float(np.max(trace.linf_series)) - sup_bound
        p_excess = float(np.max(trace.p_series)) - k1 * (1.0 + 1e-12)
        if sup_excess > 0.0:
            problems.append(f"{label}: sup bound exceeded by {sup_excess:.2e}")
        if p_excess > 0.0:
            problems.append(f"{label}: p exceeds k1 by {p_excess:.2e}")
        if trace.kappa0 > 0.0:
            x0 = half_rate_age(model)
            floor = 0.5 * model.k0 * math.exp(-k1 * x0) - 10.0 * dx
            after = trace.times >= x0
            m_min = float(np.min(trace.m_series[after]))
            if m_min < floor:
                problems.append(f"{label}: m dips to {m_min:.4g} below the "
                                f"floor {floor:.4g}")
            details.append(f"min m = {m_min:.3f} >= floor {floor:.3f}")
    passed = not problems
    if passed:
        detail = ("sup and activity caps hold on all runs; "
                  + "; ".join(details))
    else:
        detail = "; ".join(problems)
    return passed, detail


def criterion_spectral_gap():
    """Constant-rate generator: simple zero mode, the rest well left."""
    dx = 5e-3
    grid = _grid(dx=dx)
    model = ConstantRate(k0=2.0)
    ss = solve_steady_state(model, grid)
    rep = spectrum(model, grid, ss)
    near_zero = int(np.sum(np.abs(rep.eigenvalues) < 5.0 * dx))
    others = rep.eigenvalues[np.abs(rep.eigenvalues) >= 5.0 * dx]
    worst_re = float(np.max(others.real))
    passed = (near_zero == 1 and worst_re < -model.k0 / 2.0
              and rep.kernel_match <= 10.0 * dx)
    return passed, (f"{near_zero} eigenvalue inside |z| < {5 * dx:g}, "
                    f"others Re <= {worst_re:.4f} (need < {-model.k0 / 2}), "
                    f"kernel match {rep.kernel_match:.2e} (tol {10 * dx:g})")


def criterion_relaxation():
    """Exponential relaxation in the weak regime, rate against the gap."""
    model, grid, _, trace, report = _weak_step_material()
    est = estimate_xi(model)
    weak = model.lam < est.lambda_weak
    fit = decay_fit(trace, (5.0, 30.0))
    gap = report.gap
    dev = abs(fit.alpha - gap)
    dev_tol = max(0.1 * abs(gap), 5.0 * DESK_DX)
    passed = (weak and fit.alpha < -0.05 and fit.r2 >= 0.99
              and dev <= dev_tol)
    return passed, (f"lam=0.05 weak (lambda_weak = {est.lambda_weak:.3f}), "
                    f"alpha = {fit.alpha:.4f}, r2 = {fit.r2:.5f}, "
                    f"|alpha - gap| = {dev:.4f} (tol {dev_tol:.4f})")


def criterion_delay_agreement():
    """Distributed delay lands on the same activity; rate stays negative
    and approaches the no-delay rate as the kernel concentrates at 0."""
    model, grid, equilibrium, trace_nodelay, _ = _weak_step_material()
    M = solve_steady_state(model, grid).M
    dev_nodelay = abs(float(trace_nodelay.m_series[-1]) - M)

    cfg2 = SimulationConfig(grid=grid, model=model,
                            kernel=DelayKernel.exponential(theta=2.0),
                            t_end=20.0, record_every=10)
    trace2 = run(cfg2, preset_density(grid, "uniform01"), steady=equilibrium)
    dev_delay = abs(float(trace2.m_series[-1]) - M)
    fit2 = decay_fit(trace2, (5.0, 20.0))

    cfg16 = SimulationConfig(grid=grid, model=model,
                             kernel=DelayKernel.exponential(theta=16.0),
                             t_end=30.0, record_every=10)
    trace16 = run(cfg16, preset_density(grid, "uniform01"),
                  steady=equilibrium)
    fit16 = decay_fit(trace16, (5.0, 30.0))
    fit0 = decay_fit(trace_nodelay, (5.0, 30.0))
    rel = abs(fit16.alpha - fit0.alpha) / abs(fit0.alpha)

    passed = (dev_nodelay <= 1e-3 and dev_delay <= 1e-3
              and fit2.alpha < 0.0 and rel <= 0.2)
    return passed, (f"|m(end) - M| = {dev_nodelay:.2e} (no delay), "
                    f"{dev_delay:.2e} (theta=2), both tol 1e-3; "
                    f"delay alpha = {fit2.alpha:.4f} < 0; theta=16 "
                    f"alpha within {rel:.3f} of no-delay (tol 0.2)")


def criterion_grid_convergence():
    """Halving dx halves the distance between successive solutions."""
    model = ConstantRate(k0=2.0)
    finals = {}
    for dx in (4e-3, 2e-3, 1e-3, 5e-4):
        grid = _grid(dx=dx)
        cfg = SimulationConfig(grid=grid, model=model, t_end=10.0,
                               record_every=1000)
        finals[dx] = run(cfg, preset_density(grid, "uniform01")) \
            .final_state.values
    diffs = []
    for dx in (4e-3, 2e-3, 1e-3):
        coarse = np.repeat(finals[dx], 2)
        fine = finals[dx / 2.0]
        diffs.append(float(np.sum(np.abs(coarse - fine))) * dx / 2.0)
    ratios = [diffs[0] / diffs[1], diffs[1] / diffs[2]]
    passed = all(1.7 <= r <= 2.3 for r in ratios)
    return passed, ("||f_dx(10) - f_dx/2(10)||_1 ratios "
                    + ", ".join(f"{r:.4f}" for r in ratios)
                    + " (need within [1.7, 2.3])")


def _draw_weak_model(rng, f_sup):
    """Random rate model with a coupling under the contraction cap for
    a density of the given sup norm."""
    family = rng.integers(3)
    if family == 0:
        return ConstantRate(k0=float(rng.uniform(0.5, 3.0)),
                            lam=float(rng.uniform(0.0, 2.0)))
    if family == 1:
        k0 = float(rng.uniform(0.2, 1.0))
        probe = SmoothSaturatingRate(
            k0=k0, k1=k0 + float(rng.uniform(0.5, 2.0)),
            mu_scale=float(rng.uniform(0.5, 2.0)),
            x_scale=float(rng.uniform(0.5, 2.0)))
    else:
        sig_minus = float(rng.uniform(0.05, 0.45))
        probe = StepRate(
            sigma_plus=float(rng.uniform(sig_minus + 0.05, 0.95)),
            sigma_minus=sig_minus, decay=float(rng.uniform(0.5, 2.0)))
    est = estimate_xi(probe, mu_range=(0.0, max(1.0, probe.k1)),
                      f_inf_scale=f_sup)
    cap = min(est.lambda_weak, 2.0)
    lam = float(rng.uniform(0.0, 0.9 * cap))
    return dataclasses.replace(probe, lam=lam)


def criterion_implicit_activity():
    """Residual and oracle agreement over random weak-regime draws.

    Draws whose activity map has more than one fixed point are redrawn:
    the step family's staircase quadrature can split the continuum root
    into a close pair (a discretization accident, not a regime
    property).  The redraw count is reported.
    """
    rng = np.random.default_rng(20260822)
    grid = _grid(dx=0.02)
    mids = grid.midpoints
    dx = grid.dx
    worst_res = 0.0
    worst_dev = 0.0
    redraws = 0
    for _ in range(200):
        f = rng.gamma(2.0, size=grid.n_cells) + 1e-3
        f /= f.sum() * dx
        for attempt in range(50):
            model = _draw_weak_model(rng, float(f.max()))
            if len(model.stepper(grid).roots(f)) == 1:
                break
            redraws += 1
        else:
            return False, "could not draw a well-posed config in 50 tries"
        sol = solve_activity_implicit(model, grid, f)

        def h(m):
            return float(np.dot(model.rate(mids, m), f)) * dx - m

        worst_res = max(worst_res, abs(h(sol.m)))
        oracle = optimize.brentq(h, 0.0, model.k1 * (1.0 + 1e-6),
                                 xtol=1e-14)
        worst_dev = max(worst_dev, abs(sol.m - oracle))
    passed = worst_res <= 1e-10 and worst_dev <= 1e-8
    return passed, (f"200 draws ({redraws} redraws): max |Phi| = "
                    f"{worst_res:.2e} (tol 1e-10), max |m - bisection "
                    f"oracle| = {worst_dev:.2e} (tol 1e-8)")


CRITERIA = (
    (1, "mass conservation", criterion_mass_conservation),
    (2, "steady-state closed forms", criterion_steady_closed_forms),
    (3, "density and activity bounds", criterion_bounds),
    (4, "linear spectral gap", criterion_spectral_gap),
    (5, "weak-regime exponential relaxation", criterion_relaxation),
    (6, "delay/no-delay agreement", criterion_delay_agreement),
    (7, "first-order grid convergence", criterion_grid_convergence),
    (8, "implicit activity contract", criterion_implicit_activity),
)


def format_line(result):
    word = "PASS" if result.passed else "FAIL"
    return f"{word} {result.number}. {result.name}: {result.detail}"


def run_suite(report=None):
    """Run all criteria in order, returning the list of results.

    A criterion that raises is recorded as failed with the exception in
    the detail line; the remaining criteria still run.
    """
    results = []
    for number, name, fn in CRITERIA:
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CriterionResult(number=number, name=name, passed=passed,
                                 detail=detail)
        results.append(result)
        if report is not None:
            report(format_line(result))
    return results
