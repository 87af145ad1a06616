"""Repeat the benchmark over seeds and summarize it as a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 10 --first-seed 11 \
        --out perfbench/baseline-repeat.json

The second set, on other seeds, shows how far two sets of the same
code agree on this host.

For each workload this runs run.py once per seed with tracing off and
once with tracing on (first seed), one process at a time, and records
per metric the median and quartiles over the seeds, the spread
(interquartile distance over median) that BENCHMARK.json's bounds are
judged against, the workload-only figures from the `# extra` line,
and the per-layer table of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    extra = next(json.loads(line[len("# extra "):]) for line in lines
                 if line.startswith("# extra "))
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    fails = [line for line in lines if line.startswith("FAIL ")]
    return json.loads(lines[-1]), extra, machine, fails


def _summary(values):
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": list(seeds),
              "workloads": {}}
    for name in names:
        results, extras, failures = [], [], []
        for seed in seeds:
            result, extra, machine, fails = _run(name, seed,
                                                 spec["run_seconds"], 0)
            results.append(result)
            extras.append(extra)
            failures += [f"seed {seed}: {line}" for line in fails]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        traced, _, _, _ = _run(name, args.first_seed, spec["run_seconds"], 1)
        entry = {
            "end_to_end": {m: _summary([r["metrics"][m]["value"]
                                        for r in results])
                           for m in results[0]["metrics"]},
            "extra": {k: _summary([e[k]["value"] for e in extras])
                      for k in extras[0] if isinstance(extras[0][k], dict)},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "failures": failures,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
        report["workloads"][name] = entry
        report["machine"] = machine
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
