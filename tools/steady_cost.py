"""Stationary-solve cost: milliseconds per `solve_steady_state` call and
per `regime_scan` row, for each rate family, at 1000 and 10k cells.

    python3 tools/steady_cost.py [SRC ...] [--rounds 7] [--calls 5]

Each SRC is the `src` directory of a checkout to measure (default: this
checkout's).  The grids have x_max = 10 (dx 1e-2 and 1e-3); the solve
and the scan use their defaults (200 and 400 scan points), and the scan
takes the couplings 0.1, 0.3 and 0.6, so a row is a third of a call.
Every round starts one fresh interpreter per SRC, with the order of the
trees rotating from round to round, so that two trees given together
are measured in alternating pairs and a drift in host speed reaches
both alike.  In each interpreter the families take turns, each timing
`--calls` calls of each kind after one untimed call, and the round
keeps the median call.  Prints one JSON object: per SRC, per size and
family, the median over the rounds and the per-round medians; the
stationary activities M and the scan's roots, which must be the same
in every round, are printed once per SRC so that trees can be
compared.
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
calls = int(sys.argv[2])
families = {
    "constant": agenet.ConstantRate(k0=1.5, lam=0.3),
    "smooth": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.3),
    "step": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
}
lambdas = [0.1, 0.3, 0.6]
kinds = {
    "solve_ms": lambda m, g: agenet.solve_steady_state(m, g).M,
    "scan_row_ms": lambda m, g: [r.roots for r in
                                 agenet.regime_scan(m, lambdas, g)],
}
per_call = {"solve_ms": 1, "scan_row_ms": len(lambdas)}
ms, values = {}, {}
for cells in (1000, 10000):
    grid = agenet.AgeGrid(dx=10.0 / cells, n_cells=cells)
    ms[cells], values[cells] = {}, {}
    for kind, fn in kinds.items():
        ms[cells][kind], values[cells][kind] = {}, {}
        for fam, model in families.items():
            value = fn(model, grid)
            times = []
            for _ in range(calls):
                t = time.perf_counter()
                fn(model, grid)
                times.append(time.perf_counter() - t)
            ms[cells][kind][fam] = (statistics.median(times) * 1e3
                                    / per_call[kind])
            values[cells][kind][fam] = repr(value)
print(json.dumps([agenet.__file__, ms, values]))
"""


def _measure(src, calls):
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(calls)],
                          capture_output=True, text=True, timeout=1200,
                          check=True)
    origin, ms, values = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(origin).resolve().parent != src / "agenet":
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return ms, values


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
            ms, values = _measure(src, args.calls)
            if seen[src] not in (None, values):
                raise SystemExit(f"{src} gave different stationary "
                                 "activities in different rounds")
            rounds[src].append(ms)
            seen[src] = values

    def summary(src):
        first = rounds[src][0]
        return {cells: {kind: {fam: {
            "ms_p50": round(statistics.median(
                r[cells][kind][fam] for r in rounds[src]), 4),
            "ms_by_round": [round(r[cells][kind][fam], 4)
                            for r in rounds[src]],
        } for fam in first[cells][kind]} for kind in first[cells]}
            for cells in first}

    out = {
        "rounds": args.rounds,
        "calls_per_round": args.calls,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "trees": [{"src": str(src), "cost": summary(src),
                   "values": seen[src]} for src in trees],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
