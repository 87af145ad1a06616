"""How fast does a weakly coupled network forget its initial state?

A hard-threshold population starts far from equilibrium (everyone fired
within the last time unit), and we watch the L1 distance to the
discrete equilibrium shrink.  In the weak-coupling regime the distance
decays exponentially, and the fitted rate should sit next to the
spectral gap of the linearized dynamics.
"""

import numpy as np

from agenet import (AgeGrid, SimulationConfig, StepRate, decay_fit,
                    estimate_xi, preset_density, run, solve_steady_state,
                    spectrum, stepper_equilibrium)

dx = 5e-3
grid = AgeGrid(dx=dx, n_cells=int(round(8.0 / dx)))
model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)

est = estimate_xi(model)
print(f"threshold model, coupling lam = {model.lam}")
print(f"Lipschitz modulus xi = {est.xi:.4f}")
print(f"weak regime up to lam = {est.lambda_weak:.3f}; "
      f"we are {'inside' if model.lam < est.lambda_weak else 'OUTSIDE'} it")
print()

ss = solve_steady_state(model, grid)
print(f"stationary activity M = {ss.M:.6f} "
      f"(threshold at rest {model.threshold(ss.M):.4f})")

equilibrium = stepper_equilibrium(model, grid)
print(f"discrete stepper equilibrium M = {equilibrium.M:.6f} "
      f"(differs from the cell-exact M by {abs(equilibrium.M - ss.M):.2e}, "
      "the first-order scheme bias)")
print()

cfg = SimulationConfig(grid=grid, model=model, t_end=30.0, record_every=20)
trace = run(cfg, preset_density(grid, "uniform01"), steady=equilibrium)
print("relaxation run, t_end = 30, everyone initially of age < 1:")
for t_mark in (0.0, 1.0, 5.0, 15.0, 30.0):
    i = int(np.argmin(np.abs(trace.times - t_mark)))
    print(f"  t = {trace.times[i]:5.1f}   m = {trace.m_series[i]:.6f}   "
          f"||f - F||_1 = {trace.l1_dist_to_F[i]:.3e}")

fit = decay_fit(trace, (5.0, 30.0))
print()
print(f"fit of log ||f - F||_1 over [5, 30]: slope alpha = {fit.alpha:.4f}, "
      f"r^2 = {fit.r2:.5f}")

report = spectrum(model, grid, ss)
print(f"spectral gap of the linearization: {report.gap:.4f}")
print(f"|alpha - gap| = {abs(fit.alpha - report.gap):.4f}")
print()
print("the nonlinear decay rate and the linear gap agree to within the",
      "mesh bias; halve dx and the two move closer")
