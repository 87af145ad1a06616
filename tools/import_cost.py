"""Import cost: seconds for a fresh interpreter to `import agenet,
agenet.cli`, and the scipy modules that import leaves loaded.

    python3 tools/import_cost.py [SRC ...] [--pairs 10]

Each SRC is the `src` directory of a checkout to measure (default: this
checkout's).  Every round starts one fresh interpreter per SRC, timing
the import as perfbench's `setup_s` does, with the order of the trees
rotating from round to round, so that two trees given together are
measured in alternating pairs and a drift in host speed reaches both
alike.  Prints one JSON object: per SRC, the median and quartiles of
the import seconds over `--pairs` rounds, the seconds of each round,
and the scipy modules the import left in `sys.modules`, which must be
the same in every round.
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

CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "t = time.perf_counter(); import agenet, agenet.cli; "
         "seconds = time.perf_counter() - t; import json; "
         "print(json.dumps([seconds, agenet.__file__, sorted("
         "m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.'))]))")


def _fresh_import(src):
    done = subprocess.run([sys.executable, "-c", CHILD, str(src)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    seconds, origin, scipy_modules = json.loads(
        done.stdout.strip().splitlines()[-1])
    if Path(origin).resolve().parent != src / "agenet":
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return seconds, scipy_modules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*",
                        default=[str(Path(__file__).resolve().parent.parent
                                     / "src")])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    trees = [Path(s).resolve() for s in args.src]
    for src in trees:
        if not (src / "agenet" / "__init__.py").is_file():
            parser.error(f"no agenet package under {src}")

    seconds = {src: [] for src in trees}
    loaded = {src: None for src in trees}
    for r in range(args.pairs):
        for src in trees[r % len(trees):] + trees[:r % len(trees)]:
            t, modules = _fresh_import(src)
            if loaded[src] not in (None, modules):
                raise SystemExit(f"the import from {src} left different "
                                 "scipy modules loaded in different rounds")
            seconds[src].append(t)
            loaded[src] = modules

    def quartiles(values):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"p25": round(q1, 4), "p50": round(q2, 4), "p75": round(q3, 4)}

    out = {
        "rounds": args.pairs,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "trees": [{
            "src": str(src),
            "import_s": quartiles(seconds[src]),
            "import_s_by_round": [round(t, 4) for t in seconds[src]],
            "scipy_modules_loaded": len(loaded[src]),
            "scipy_subpackages_loaded": sorted(
                {".".join(m.split(".")[:2]) for m in loaded[src]}),
        } for src in trees],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
