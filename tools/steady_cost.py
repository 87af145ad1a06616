"""Stationary-solve cost: milliseconds and residual evaluations per
`solve_steady_state` call and per `regime_scan` row, on seven models, at
1000 and 10k cells.

    python3 tools/steady_cost.py [SRC ...] [--rounds 7] [--calls 5]

Each SRC is the `src` directory of a checkout to measure (default: this
checkout's).  The grids have x_max = 10 (dx 1e-2 and 1e-3).  The models
are the constant family, the step family at lam 0.3 and 1.5, and the
smooth family at lam 0.6, 3 and 8 and with k1 = 6; each scan row is
`regime_scan(model, [lam], grid)` at the model's own coupling.  The
solve and the scan use their defaults.  An evaluation is one call of
`steady_state._Profile.parts`, counted once per model and kind: the
count does not depend on timing.
Every round starts one fresh interpreter per SRC, with the order of the
trees rotating from round to round, so that two trees given together
are measured in alternating pairs and a drift in host speed reaches
both alike.  In each interpreter the models take turns, each timing
`--calls` calls of each kind after one untimed, counted call, and the
round keeps the median call.  Prints one JSON object: per SRC, per size
and model, the median over the rounds and the per-round medians, and
the evaluations; the stationary activities M and the scan's roots,
which must be the same in every round, are printed once per SRC so
that trees can be compared.
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

CHILD = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import agenet
from agenet import steady_state
calls = int(sys.argv[2])
models = {
    "constant": agenet.ConstantRate(k0=1.5),
    "step-0.3": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    "step-1.5": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.5),
    "smooth-0.6": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    "smooth-3": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=3.0),
    "smooth-8": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=8.0),
    "smooth-k1-6": agenet.SmoothSaturatingRate(k0=0.5, k1=6.0, lam=0.6),
}
kinds = {
    "solve": lambda m, g: agenet.solve_steady_state(m, g).M,
    "scan_row": lambda m, g: agenet.regime_scan(m, [m.lam], g)[0].roots,
}
parts = steady_state._Profile.parts
evaluations = [0]


def counted(profile, M):
    evaluations[0] += 1
    return parts(profile, M)


ms, evals, values = {}, {}, {}
for cells in (1000, 10000):
    grid = agenet.AgeGrid(dx=10.0 / cells, n_cells=cells)
    ms[cells], evals[cells], values[cells] = {}, {}, {}
    for kind, fn in kinds.items():
        ms[cells][kind], evals[cells][kind], values[cells][kind] = {}, {}, {}
        for name, model in models.items():
            steady_state._Profile.parts = counted
            evaluations[0] = 0
            value = fn(model, grid)
            steady_state._Profile.parts = parts
            times = []
            for _ in range(calls):
                t = time.perf_counter()
                fn(model, grid)
                times.append(time.perf_counter() - t)
            ms[cells][kind][name] = statistics.median(times) * 1e3
            evals[cells][kind][name] = evaluations[0]
            values[cells][kind][name] = repr(value)
print(json.dumps([agenet.__file__, ms, evals, values]))
"""


def _measure(src, calls):
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(calls)],
                          capture_output=True, text=True, timeout=1200,
                          check=True)
    origin, ms, evals, values = json.loads(
        done.stdout.strip().splitlines()[-1])
    if Path(origin).resolve().parent != src / "agenet":
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return ms, evals, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*",
                        default=[str(Path(__file__).resolve().parent.parent
                                     / "src")])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be positive")
    trees = [Path(s).resolve() for s in args.src]
    for src in trees:
        if not (src / "agenet" / "__init__.py").is_file():
            parser.error(f"no agenet package under {src}")

    rounds = {src: [] for src in trees}
    seen = {src: None for src in trees}
    for r in range(args.rounds):
        for src in trees[r % len(trees):] + trees[:r % len(trees)]:
            ms, evals, values = _measure(src, args.calls)
            if seen[src] not in (None, (evals, values)):
                raise SystemExit(f"{src} gave different stationary "
                                 "activities or evaluation counts in "
                                 "different rounds")
            rounds[src].append(ms)
            seen[src] = evals, values

    def summary(src):
        first, evals = rounds[src][0], seen[src][0]
        return {cells: {kind: {name: {
            "ms_p50": round(statistics.median(
                r[cells][kind][name] for r in rounds[src]), 4),
            "ms_by_round": [round(r[cells][kind][name], 4)
                            for r in rounds[src]],
            "evaluations": evals[cells][kind][name],
        } for name in first[cells][kind]} for kind in first[cells]}
            for cells in first}

    out = {
        "rounds": args.rounds,
        "calls_per_round": args.calls,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "trees": [{"src": str(src), "cost": summary(src),
                   "values": seen[src][1]} for src in trees],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
