"""Per-layer step cost: microseconds per transport step, per transport
kernel call and per implicit activity solve, at 10k cells.

    python3 tools/step_cost.py [SRC] [--repeats 7] [--steps 2000]

SRC is the `src` directory of the checkout to measure (default: this
checkout's).  For each rate family under the Dirac kernel and the
exponential kernel (theta = 2), `run()` integrates the `uniform01`
preset for `--steps` steps, recording once at the end; a step's cost is
the run's wall time over its steps, so run()'s one-off set-up is
spread over them.  The kernel cost is one call of `evolution._advance`,
the transport alone, on that density with the family's survival factors
at its activity.  The solve cost is one cold `solve_activity_implicit`
on the same density, called as a public caller calls it (the map sums
the density itself).  The families take turns inside each repeat, so a
drift in host speed reaches all of them alike.  Prints one JSON object
with the medians over the repeats; the measurement takes no seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

DX, CELLS = 1e-3, 10_000
SOLVE_CALLS = 200
ADVANCE_CALLS = 500


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "src"))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.steps < 1:
        parser.error("--repeats and --steps must be positive")
    src = Path(args.src).resolve()
    if not (src / "agenet" / "__init__.py").is_file():
        parser.error(f"no agenet package under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    import agenet
    from agenet import evolution

    grid = agenet.AgeGrid(dx=DX, n_cells=CELLS)
    f0 = agenet.preset_density(grid, "uniform01")
    kernels = {"dirac": agenet.DelayKernel.dirac(),
               "exponential": agenet.DelayKernel.exponential(theta=2.0)}
    families = {
        "constant": agenet.ConstantRate(k0=1.0),
        "step": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
        "smooth": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    }
    configs = {
        (fam, ker): agenet.SimulationConfig(
            grid=grid, model=model, kernel=kernel, t_end=args.steps * DX,
            record_every=args.steps)
        for fam, model in families.items() for ker, kernel in kernels.items()}

    # _advance(values, total, survival, out, t, m); trees before the
    # one-sum kernel also take dx, after out
    takes_dx = "dx" in inspect.signature(evolution._advance).parameters
    total = float(f0.values[0]) + float(f0.values[1:].sum())   # cell sum
    out = np.empty(CELLS + 1)
    advance_args = {}
    for fam, model in families.items():
        m = agenet.solve_activity_implicit(model, grid, f0.values).m
        tail = (DX, 0.0, m) if takes_dx else (0.0, m)
        advance_args[fam] = (f0.values, total, model.survival(grid, m), out,
                             *tail)

    step_us = {key: [] for key in configs}
    advance_us = {fam: [] for fam in families}
    solve_us = {fam: [] for fam in families}
    for _ in range(args.repeats):
        for key, cfg in configs.items():
            t = perf_counter()
            agenet.run(cfg, f0)
            step_us[key].append((perf_counter() - t) / args.steps * 1e6)
        for fam, fam_args in advance_args.items():
            calls = []
            for _ in range(ADVANCE_CALLS):
                t = perf_counter()
                evolution._advance(*fam_args)
                calls.append(perf_counter() - t)
            advance_us[fam].append(statistics.median(calls) * 1e6)
        for fam, model in families.items():
            calls = []
            for _ in range(SOLVE_CALLS):
                t = perf_counter()
                agenet.solve_activity_implicit(model, grid, f0.values)
                calls.append(perf_counter() - t)
            solve_us[fam].append(statistics.median(calls) * 1e6)

    out = {
        "cells": CELLS,
        "dx": DX,
        "steps_per_run": args.steps,
        "repeats": args.repeats,
        "advance_calls_per_repeat": ADVANCE_CALLS,
        "solve_calls_per_repeat": SOLVE_CALLS,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "run_step_us_p50": {
            fam: {ker: round(statistics.median(step_us[fam, ker]), 2)
                  for ker in kernels} for fam in families},
        "advance_us_p50": {
            fam: round(statistics.median(advance_us[fam]), 2)
            for fam in families},
        "solve_activity_implicit_us_p50": {
            fam: round(statistics.median(solve_us[fam]), 2)
            for fam in families},
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
