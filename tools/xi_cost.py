"""Regime-estimate cost: milliseconds per `estimate_xi` call, for each
rate family, at two settings.

    python3 tools/xi_cost.py [SRC ...] [--rounds 7] [--calls 30]

Each SRC is the `src` directory of a checkout to measure (default: this
checkout's).  The settings are the `regime` draws' (`samples=9`,
`mu_range=(0, max(1, k1))`, `f_inf_scale=2`) and `estimate_xi`'s
defaults (33 samples on (0, 1)).  Every round starts one fresh
interpreter per SRC, with the order of the trees rotating from round
to round, so that two trees given together are measured in alternating
pairs and a drift in host speed reaches both alike.  In each
interpreter the families take turns, each timing `--calls` calls at
each setting after one untimed call, and the round keeps the median
call.  Prints one JSON object: per SRC, per setting and family, the
median over the rounds and the per-round medians; the estimates
themselves, which must be the same in every round, are printed once
per SRC so that trees can be compared.
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
settings = {
    "regime_draw": lambda m: dict(samples=9, mu_range=(0.0, max(1.0, m.k1)),
                                  f_inf_scale=2.0),
    "defaults": lambda m: {},
}
ms, estimates = {}, {}
for name, kwargs in settings.items():
    ms[name], estimates[name] = {}, {}
    for fam, model in families.items():
        kw = kwargs(model)
        est = agenet.estimate_xi(model, **kw)
        times = []
        for _ in range(calls):
            t = time.perf_counter()
            agenet.estimate_xi(model, **kw)
            times.append(time.perf_counter() - t)
        ms[name][fam] = statistics.median(times) * 1e3
        estimates[name][fam] = [repr(est.xi), repr(est.lambda_weak),
                                repr(est.lambda_strong)]
print(json.dumps([agenet.__file__, ms, estimates]))
"""


def _measure(src, calls):
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(calls)],
                          capture_output=True, text=True, timeout=600,
                          check=True)
    origin, ms, estimates = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(origin).resolve().parent != src / "agenet":
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return ms, estimates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*",
                        default=[str(Path(__file__).resolve().parent.parent
                                     / "src")])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--calls", type=int, default=30)
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
            ms, estimates = _measure(src, args.calls)
            if seen[src] not in (None, estimates):
                raise SystemExit(f"{src} gave different estimates in "
                                 "different rounds")
            rounds[src].append(ms)
            seen[src] = estimates

    def summary(src):
        first = rounds[src][0]
        return {name: {fam: {
            "ms_p50": round(statistics.median(
                r[name][fam] for r in rounds[src]), 4),
            "ms_by_round": [round(r[name][fam], 4) for r in rounds[src]],
        } for fam in first[name]} for name in first}

    out = {
        "rounds": args.rounds,
        "calls_per_round": args.calls,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "trees": [{"src": str(src), "estimate_xi": summary(src),
                   "estimates": seen[src]} for src in trees],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
