"""What does the coupling strength do to the stationary network?

Sweep the connectivity of a threshold population from uncoupled to
moderately excited.  Stronger coupling lowers the firing threshold at
the fixed point, so the stationary activity climbs; the root stays
unique the whole way here, and each steady state keeps a negative
spectral gap.
"""

import dataclasses

from agenet import (AgeGrid, StepRate, estimate_xi, regime_scan,
                    solve_steady_state, spectrum)

dx = 5e-3
grid = AgeGrid(dx=dx, n_cells=int(round(8.0 / dx)))
base = StepRate(sigma_plus=0.5, sigma_minus=0.25)

est = estimate_xi(base)
print(f"weak-regime boundary for this family: lam < {est.lambda_weak:.3f}")
print()

lambdas = [0.0, 0.2, 0.5, 0.8, 1.0, 1.5, 2.0]
rows = regime_scan(base, lambdas, grid)

print(f"{'lam':>5}  {'M':>9}  {'threshold':>9}  {'gap':>8}  unique")
for row in rows:
    model = dataclasses.replace(base, lam=row.lam)
    M = row.roots[0]
    ss = solve_steady_state(model, grid)
    gap = spectrum(model, grid, ss).gap
    print(f"{row.lam:5.2f}  {M:9.6f}  {model.threshold(M):9.6f}  "
          f"{gap:8.4f}  {'yes' if row.unique else 'NO'}")

print()
print("activity rises as coupling drops the threshold; every root here")
print("is unique and every gap negative, so each steady state attracts")
