"""Per-layer step cost: microseconds per transport step, per transport
kernel call and per implicit activity solve, at 10k cells.

    python3 tools/step_cost.py [SRC ...] [--rounds 7] [--steps 2000]

Each SRC is the `src` directory of a checkout to measure (default: this
checkout's).  Every round starts one fresh interpreter per SRC, with the
order of the trees rotating from round to round, so that two trees
given together are measured in alternating pairs and a drift in host
speed reaches both alike.  In each interpreter, for each rate family
under the Dirac kernel, the exponential kernel (theta = 2) and the
gamma kernel (shape 2, rate 4), `run()` integrates the `uniform01`
preset for `--steps` steps, recording once at the end, after one
untimed run of a tenth as many steps; a step's cost
is the run's wall time over its steps, so run()'s one-off set-up is
spread over them.  The kernel cost is the median of single calls of
`evolution._advance`, the transport alone, on that density at its
activity, with the family's bound stepper as run() passes it (trees
before the bound stepper are not supported).  The solve cost is the median of single cold
`solve_activity_implicit` calls on the same density, called as a public
caller calls it (the stepper sums the density itself).  The families take
turns, so a drift in host speed within a round reaches all of them
alike.  Prints one JSON object: per SRC, the median over the rounds and
the per-round figures; each run's last activity and discharge, which
must be the same in every round, are printed once per SRC so that trees
can be compared for equal output.  The measurement takes no seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DX, CELLS = 1e-3, 10_000

CHILD = r"""
import json, statistics, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import numpy as np
import agenet
from agenet import evolution
steps, dx, cells = int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
SOLVE_CALLS, ADVANCE_CALLS = 200, 500

grid = agenet.AgeGrid(dx=dx, n_cells=cells)
f0 = agenet.preset_density(grid, "uniform01")
kernels = {"dirac": agenet.DelayKernel.dirac(),
           "exponential": agenet.DelayKernel.exponential(theta=2.0),
           "gamma": agenet.DelayKernel.gamma(shape=2.0, rate=4.0)}
families = {
    "constant": agenet.ConstantRate(k0=1.0),
    "step": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    "smooth": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
}


def config(model, kernel, n):
    return agenet.SimulationConfig(grid=grid, model=model, kernel=kernel,
                                   t_end=n * dx, record_every=n)


step_us, last = {}, {}
for fam, model in families.items():
    step_us[fam], last[fam] = {}, {}
    for ker, kernel in kernels.items():
        agenet.run(config(model, kernel, max(1, steps // 10)), f0)
        cfg = config(model, kernel, steps)
        t = perf_counter()
        trace = agenet.run(cfg, f0)
        step_us[fam][ker] = (perf_counter() - t) / steps * 1e6
        last[fam][ker] = [repr(float(trace.m_series[-1])),
                          repr(float(trace.p_series[-1]))]

# _advance(values, total, stepper, out, t, m)
total = float(f0.values[0]) + float(f0.values[1:].sum())   # cell sum
out = np.empty(cells + 1)
advance_us, solve_us = {}, {}
for fam, model in families.items():
    m = agenet.solve_activity_implicit(model, grid, f0.values).m
    stepper = model.stepper(grid)
    calls = []
    for _ in range(ADVANCE_CALLS):
        t = perf_counter()
        evolution._advance(f0.values, total, stepper, out, 0.0, m)
        calls.append(perf_counter() - t)
    advance_us[fam] = statistics.median(calls) * 1e6
for fam, model in families.items():
    calls = []
    for _ in range(SOLVE_CALLS):
        t = perf_counter()
        agenet.solve_activity_implicit(model, grid, f0.values)
        calls.append(perf_counter() - t)
    solve_us[fam] = statistics.median(calls) * 1e6
print(json.dumps([agenet.__file__, np.__version__,
                  {"run_step_us": step_us, "advance_us": advance_us,
                   "solve_activity_implicit_us": solve_us}, last]))
"""


def _measure(src, steps):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(steps), repr(DX),
         str(CELLS)],
        capture_output=True, text=True, timeout=1200, check=True)
    origin, numpy_version, us, last = json.loads(
        done.stdout.strip().splitlines()[-1])
    if Path(origin).resolve().parent != src / "agenet":
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return numpy_version, us, last


def _summary(rounds):
    # the median over the rounds and the per-round figures of each
    # nested entry of the first round
    def walk(entry, path):
        if isinstance(entry, dict):
            return {key: walk(value, path + (key,))
                    for key, value in entry.items()}
        by_round = []
        for r in rounds:
            for key in path:
                r = r[key]
            by_round.append(r)
        return {"us_p50": round(statistics.median(by_round), 2),
                "us_by_round": [round(v, 2) for v in by_round]}
    return walk(rounds[0], ())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*",
                        default=[str(Path(__file__).resolve().parent.parent
                                     / "src")])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.steps < 1:
        parser.error("--rounds and --steps must be positive")
    trees = [Path(s).resolve() for s in args.src]
    for src in trees:
        if not (src / "agenet" / "__init__.py").is_file():
            parser.error(f"no agenet package under {src}")

    rounds = {src: [] for src in trees}
    seen = {src: None for src in trees}
    numpy_version = None
    for r in range(args.rounds):
        for src in trees[r % len(trees):] + trees[:r % len(trees)]:
            numpy_version, us, last = _measure(src, args.steps)
            if seen[src] not in (None, last):
                raise SystemExit(f"{src} gave different runs in different "
                                 "rounds")
            rounds[src].append(us)
            seen[src] = last

    out = {
        "cells": CELLS,
        "dx": DX,
        "steps_per_run": args.steps,
        "rounds": args.rounds,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy_version},
        "trees": [{"src": str(src), "cost": _summary(rounds[src]),
                   "last_m_p": seen[src]} for src in trees],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
