"""CLI snapshot: every CSV, stdout and stderr of the `agenet` subcommands
on a fixed set of configs, written under one directory.

    python3 tools/cli_snapshot.py SRC OUT

SRC is the `src` directory of the checkout to run; OUT is created and
must not exist yet.  The configs, defined below, cover the three rate
families, the Dirac, exponential and sampled kernels, gamma kernels of
integer and non-integer shape, and the three initial presets, on 1000
cells (x_max 10).  The step and smooth families under the Dirac kernel
also run at x_max 5 and 20, so that outputs which depend on the
horizon, such as the sweep's `xi`, show in a diff: x_max 10 is also
`estimate_xi`'s default horizon.  The step family runs at x_max 0.2
too, below its threshold at every activity, so that the errors of a
diverging normalization integral show as well.  Each runs `simulate` then `decay-fit`
on its trace, `steady-state`, `spectrum` and `sweep`; `--print-defaults`
and `accept` (the acceptance suite, with its per-criterion CSV) run
once.  One more job runs `simulate` on `broken.json`, a config with a
bad value in every section and a value of the wrong JSON type, so its
stderr (every config problem, named section.key) and its exit code 1
show in a diff too.  Every command runs in a fresh interpreter with OUT as its
working directory and relative paths, so the printed file names do not
depend on OUT, and the checkout's own path is written as SRC in stderr
(warnings name the module they come from).  For each command, OUT holds
its CSVs, `<config>.<command>.stdout` and `.stderr`, and its exit code
in `exit_codes.txt`.  Two checkouts' snapshots compare with

    diff -r OUT_A OUT_B

and match byte for byte when the CLI's output has not changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from agenet.cli import main; sys.exit(main(sys.argv[2:]))")

DX = 0.01
RUN = {"t_end": 20.0, "record_every": 10, "window": [5.0, 20.0]}
SWEEP = {"lambdas": [0.0, 0.3, 0.6]}
MODELS = {
    "constant": {"kind": "constant", "k0": 1.0},
    "step": {"kind": "step", "sigma_plus": 0.5, "sigma_minus": 0.25,
             "lambda": 0.3},
    "smooth": {"kind": "smooth", "k0": 0.5, "k1": 2.0, "lambda": 0.6},
}
KERNELS = {
    "dirac": {"kind": "dirac"},
    "exponential": {"kind": "exponential", "theta": 2.0},
    "gamma": {"kind": "gamma", "shape": 2.0, "rate": 4.0},
    "gamma-2.5": {"kind": "gamma", "shape": 2.5, "rate": 4.0},
    "sampled": {"kind": "sampled", "y": [0.0, 0.5, 1.0], "b": [0.0, 2.0, 0.0]},
}
# a bad value in every section, one of them not a number
BROKEN = {
    "grid": {"dx": -0.01, "x_max": 10.0},
    "model": {"kind": "step", "sigma_plus": 0.3, "sigma_minus": 0.4},
    "kernel": {"kind": "gamma", "shape": 0.5, "rate": 4.0},
    "run": {"t_end": "long", "record_every": 10, "window": [30.0, 5.0]},
    "sweep": {"lambdas": [-1.0]},
    "q": -1.0,
}
# (name, model, kernel, preset, x_max): each family under the Dirac
# kernel, the smooth family under each delay kernel, the step family
# from each preset, the step and smooth families under the Dirac
# kernel at two more horizons, and the step family at a horizon below
# sigma_minus, where no threshold lies on the grid
CONFIGS = [
    ("constant-dirac-uniform01", "constant", "dirac", "uniform01", 10.0),
    ("step-dirac-uniform01", "step", "dirac", "uniform01", 10.0),
    ("smooth-dirac-uniform01", "smooth", "dirac", "uniform01", 10.0),
    ("smooth-exponential-uniform01", "smooth", "exponential", "uniform01",
     10.0),
    ("smooth-gamma-uniform01", "smooth", "gamma", "uniform01", 10.0),
    ("smooth-gamma-2.5-uniform01", "smooth", "gamma-2.5", "uniform01",
     10.0),
    ("smooth-sampled-uniform01", "smooth", "sampled", "uniform01", 10.0),
    ("step-dirac-exp2", "step", "dirac", "exp2", 10.0),
    ("step-dirac-spike", "step", "dirac", "spike", 10.0),
    ("step-dirac-uniform01-x5", "step", "dirac", "uniform01", 5.0),
    ("step-dirac-uniform01-x20", "step", "dirac", "uniform01", 20.0),
    ("smooth-dirac-uniform01-x5", "smooth", "dirac", "uniform01", 5.0),
    ("smooth-dirac-uniform01-x20", "smooth", "dirac", "uniform01", 20.0),
    ("step-dirac-uniform01-x0.2", "step", "dirac", "uniform01", 0.2),
]


def _commands(name):
    config = f"{name}.json"
    return [
        ("simulate", ["simulate", "--config", config,
                      "--out", f"{name}.simulate.csv"]),
        ("decay-fit", ["decay-fit", "--trace", f"{name}.simulate.csv",
                       "--window", *map(str, RUN["window"]),
                       "--out", f"{name}.decay-fit.csv"]),
        ("steady-state", ["steady-state", "--config", config,
                          "--out", f"{name}.steady-state.csv"]),
        ("spectrum", ["spectrum", "--config", config,
                      "--eigs-out", f"{name}.spectrum-eigs.csv",
                      "--kernel-out", f"{name}.spectrum-kernel.csv"]),
        ("sweep", ["sweep", "--config", config,
                   "--out", f"{name}.sweep.csv"]),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of a checkout")
    parser.add_argument("out", help="a new directory for the snapshot")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "agenet" / "__init__.py").is_file():
        parser.error(f"no agenet package under {src}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=False)

    jobs = [("defaults", "print-defaults", ["--print-defaults"]),
            ("suite", "accept", ["accept", "--out", "suite.accept.csv"]),
            ("broken", "simulate", ["simulate", "--config", "broken.json",
                                    "--out", "broken.simulate.csv"])]
    (out / "broken.json").write_text(json.dumps(BROKEN, indent=1) + "\n")
    for name, model, kernel, preset, x_max in CONFIGS:
        config = {"grid": {"dx": DX, "x_max": x_max},
                  "model": MODELS[model],
                  "kernel": KERNELS[kernel], "run": {**RUN, "f0": preset},
                  "sweep": SWEEP}
        (out / f"{name}.json").write_text(json.dumps(config, indent=1) + "\n")
        jobs += [(name, command, cli_args)
                 for command, cli_args in _commands(name)]

    env = {**os.environ, "PYTHONPATH": str(src)}
    codes = []
    for name, command, cli_args in jobs:
        done = subprocess.run([sys.executable, "-c", CHILD, str(src),
                               *cli_args], cwd=out, env=env,
                              capture_output=True, text=True, timeout=600)
        stem = f"{name}.{command}"
        (out / f"{stem}.stdout").write_text(done.stdout)
        (out / f"{stem}.stderr").write_text(
            done.stderr.replace(str(src), "SRC"))
        codes.append(f"{name} {command} {done.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    print(f"wrote {len(jobs)} commands' output under {out}")


if __name__ == "__main__":
    main()
