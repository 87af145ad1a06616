"""agenet benchmark: one workload from one seed, in one process.

    python3 perfbench/run.py --workload relax-implicit --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/`.  The workloads (see workloads.py and BENCHMARK.json):

  relax-implicit  simulate + decay-fit through the CLI, Dirac kernel
  relax-delay     the same with exponential and gamma delay kernels
  spectrum        dense linearized spectra through the CLI
  regime          weak-regime activity draws, regime_scan, steady state

A round runs the workload's fixed case list once.  A run makes
`--seconds` // ROUND_ALLOWANCE_S[workload] rounds (see workloads.py),
a number that does not depend on how fast the rounds go.  Every output
of every round is checked against the oracles in oracle.py after its
round, outside the timed region.  A case fails once if any of its
outputs is wrong; failed cases are listed by case on stdout, and never
retried.

With `--trace 0` the last stdout line is a JSON object whose metrics
are the end-to-end figures, taken with tracing off.  Timings are in
seconds at a nominal host speed (see hostspeed.py): a timer samples
three fixed reference kernels every half second while the cases run,
and each case's time is scaled by the kernels' speed around it, so
that the host's drift cancels.  Set-up is scaled by the run's median
kernel speed.  The measured figures, the kernels' medians and that
median scale go on the `# extra` line.

  setup_s      median of three imports of agenet and agenet.cli (this
               process, and two fresh interpreters started after the
               rounds), plus the median of three generations of the
               inputs
  wall_s       median over the rounds of the round's summed case times
  case_s_p50   median over the cases of each case's median repeat
  peak_rss_mb  peak resident memory of this process

Medians, because the host's speed also jumps by up to 1.8x from one
second to the next.  Figures that only some workloads have
(cell_steps_per_s on relax-*, case_s_p90 on regime) and failed_frac go
on the `# extra` line too.  With `--trace 1` each case runs untraced and traced back
to back, half the rounds' worth of pairs (at least one), and the
metrics are the per-layer figures of tracing.py, measured and not
scaled, with the traced spans written under .perfbench_out/.

`correct` is false when a check found a wrong value; `failed` also
counts cases that raised, exited non-zero, or returned one of several
activity roots without reporting the ambiguity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GENERATE_SAMPLES = 3
FRESH_IMPORTS = 2       # spread over the gaps after the rounds
HOST_SAMPLES = 3        # kernel samples before the first round
IMPORT_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
               "t = time.perf_counter(); import agenet, agenet.cli; "
               "print(time.perf_counter() - t)")


def _import_program():
    """Import agenet from this checkout; the seconds it took."""
    if not (SRC / "agenet" / "__init__.py").is_file():
        raise SystemExit(f"no agenet package under {SRC}; run from the root "
                         "of a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import agenet
    import agenet.cli  # noqa: F401
    seconds = perf_counter() - t0
    if Path(agenet.__file__).resolve().parent != SRC / "agenet":
        raise SystemExit(f"imported agenet from {agenet.__file__}, not {SRC}")
    return seconds


def _fresh_import_seconds():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads():
    """Threads each bundled OpenBLAS will use, as the environment set
    them; read, never changed."""
    import ctypes
    import numpy
    import scipy
    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    counts[f"{package.__name__}:{path.name}"] = fn()
                    break
    return counts


def machine_record():
    import numpy
    import scipy
    blas = {}
    for package in (numpy, scipy):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[package.__name__] = f"{info.get('name')} {info.get('version')}"
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": env,
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    in_process_import = _import_program()

    import hostspeed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: "
                     + ", ".join(workloads.WORKLOADS) + ")")
    folder = OUT / args.workload
    gen_seconds = []
    for _ in range(GENERATE_SAMPLES):
        t0 = perf_counter()
        cases = workloads.generate(args.workload, args.seed)
        workloads.write_inputs(cases, folder)
        gen_seconds.append(perf_counter() - t0)

    machine = machine_record()
    print("# machine " + json.dumps(machine, sort_keys=True), flush=True)
    host = hostspeed.HostSpeed()
    host.sample(HOST_SAMPLES)
    workloads.clock = host.clock

    rounds = max(1, int(args.seconds
                        // workloads.ROUND_ALLOWANCE_S[args.workload]))
    tracer = tracing.Tracer() if args.trace else None
    runs = {case.cid: [] for case in cases}       # (traced, outcome)
    problems = {case.cid: {} for case in cases}   # message -> run numbers
    wrong = False

    def check(case, out):
        """Check one output before the case runs again and rewrites its
        files; a case fails once, whatever the number of its runs that
        went wrong."""
        nonlocal wrong
        for message, w in workloads.verdict(case, out, args.workload):
            wrong = wrong or w
            problems[case.cid].setdefault(message, []).append(
                str(len(runs[case.cid]) - 1))

    traced_windows = {}
    imports = [in_process_import]
    # per untraced run of a case, the host-speed samples that scale it:
    # the last one before it, those taken while it ran, the first after
    speed_samples = {case.cid: [] for case in cases}
    if tracer is None:
        for r in range(1, rounds + 1):
            with host.sampling():
                for case in cases:
                    first = host.count() - 1
                    runs[case.cid].append((False, workloads.execute(case,
                                                                    folder)))
                    speed_samples[case.cid].append((first, host.count() + 1))
            host.sample()
            for case in cases:
                check(case, runs[case.cid][-1][1])
            for _ in range(FRESH_IMPORTS * r // rounds
                           - FRESH_IMPORTS * (r - 1) // rounds):
                imports.append(_fresh_import_seconds())
    else:
        # each case runs untraced and traced back to back, in alternating
        # order, so that both halves of a pair see the same host speed
        for pair in range(math.ceil(rounds / 2)):
            for i, case in enumerate(cases):
                for traced in ((False, True) if (pair + i) % 2 == 0
                               else (True, False)):
                    label = f"{pair}/{case.cid}"
                    if traced:
                        tracer.case = label
                        tracer.install()
                    first = host.count() - 1
                    t0 = perf_counter()
                    out = workloads.execute(case, folder)
                    t1 = perf_counter()
                    if traced:
                        tracer.uninstall()
                        traced_windows[label] = (t0, t1)
                    else:
                        host.sample()
                        speed_samples[case.cid].append((first,
                                                        host.count()))
                    runs[case.cid].append((traced, out))
                    check(case, out)

    failures = [f"case {cid}: " + "; ".join(
                    f"run {','.join(ns)}: {message}"
                    for message, ns in found.items())
                for cid, found in problems.items() if found]
    for line in failures:
        print(f"FAIL {args.workload} {line}")

    def fastest(case, traced):
        return min(out.seconds for t, out in runs[case.cid] if t == traced)

    def untraced(case, field="seconds"):
        return [getattr(out, field) for t, out in runs[case.cid] if not t]

    def scaled(case, field="seconds"):
        """The untraced runs of a case at the nominal host speed."""
        return [v * host.scale(*span) for v, span in
                zip(untraced(case, field), speed_samples[case.cid])]

    scale = host.scale()
    case_s = [statistics.median(scaled(case)) for case in cases]
    round_s = [sum(r) for r in zip(*(scaled(case) for case in cases))]
    measured_case_s = [statistics.median(untraced(case)) for case in cases]
    measured_round_s = [sum(r) for r in
                        zip(*(untraced(case) for case in cases))]
    if tracer is not None:
        # pairs ran back to back, so the fastest of each side compares
        # the two at the same host speed
        overhead = (sum(fastest(case, True) for case in cases)
                    / sum(fastest(case, False) for case in cases) - 1.0)
        metrics = tracing.layer_metrics(tracer.spans, traced_windows,
                                        math.ceil(rounds / 2), overhead)
        tracing.write_spans(tracer.spans, folder / "spans.csv")
    else:
        setup_s = statistics.median(imports) + statistics.median(gen_seconds)
        metrics = {
            "setup_s": _metric(setup_s * scale, "s"),
            "wall_s": _metric(statistics.median(round_s), "s"),
            "case_s_p50": _metric(statistics.median(case_s), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    extra = {"rounds": rounds, "cases": len(cases),
             "failed_frac": _metric(len(failures) / len(cases), "ratio"),
             "host_scale": _metric(scale, "ratio"),
             "host_samples": len(host.samples["python"])}
    for name in host.samples:
        extra[f"host_{name}_ms"] = _metric(host.kernel_s(name) * 1e3, "ms")
    if tracer is None:
        extra.update({
            "measured_setup_s": _metric(setup_s, "s"),
            "measured_wall_s": _metric(statistics.median(measured_round_s),
                                       "s"),
            "measured_case_s_p50": _metric(
                statistics.median(measured_case_s), "s")})
    simulate_s = sum(statistics.median(scaled(case, "simulate_s"))
                     for case in cases)
    if simulate_s:
        cell_steps = sum(case.n_cells * round(case.t_end / case.dx)
                         for case in cases if case.kind == "relax")
        extra["cell_steps_per_s"] = _metric(cell_steps / simulate_s, "1/s")
    if len(case_s) >= 100:
        extra["case_s_p90"] = _metric(
            statistics.quantiles(case_s, n=10)[-1], "s")
    print("# extra " + json.dumps(extra, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": not wrong, "attempted": len(cases),
              "failed": len(failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, extra=extra, machine=machine,
                  failures=failures, round_seconds=measured_round_s,
                  speed_samples=speed_samples,
                  import_seconds=imports, host_seconds=host.samples,
                  case_seconds={cid: [out.seconds for _, out in pairs]
                                for cid, pairs in runs.items()})
    (folder / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
