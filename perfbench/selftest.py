"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Runs one small real case of each kind, shows that its check passes,
then feeds the same check deliberately wrong answers (a perturbed
stationary activity, a shifted gap mode, a wrong root, a silent pick
of one of several roots, ...) and shows that each is counted as a
failed case.  A checker that can never fail measures nothing.  Exits 1
if any expectation is not met.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run

run._import_program()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

FOLDER = run.OUT / "selftest"


def _rewrite(path, column, change, name):
    """A copy of a CSV with one column changed by change(values)."""
    cols = wl._read_columns(path)
    cols[column] = change(cols[column].copy())
    out = FOLDER / name
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join("%.12g" % v for v in row) + "\n")
    return out


def _bump_last(delta):
    def change(v):
        v[-1] += delta
        return v
    return change


def _with_files(out, **files):
    return dataclasses.replace(out, files=dict(out.files, **files))


def _with_value(out, value):
    return dataclasses.replace(out, value=value)


def relax_items():
    model = wl._step_model(0.2)
    case = wl.Case("relax", "relax", model, wl.DESK_DX, 10000,
                   config=wl._config(model, wl.DESK_DX, t_end=10.0),
                   t_end=10.0, window=(3.0, 10.0))
    wl.write_inputs([case], FOLDER)
    out = wl.execute(case, FOLDER)
    trace, fit = out.files["trace"], out.files["fit"]

    def mass(v):
        v[len(v) // 2] += 1e-8
        return v
    yield "relax: as computed", case, out, False
    yield "relax: mass drift 1e-8", case, _with_files(
        out, trace=_rewrite(trace, "mass", mass, "mass.csv")), True
    yield "relax: m(end) off M by 2e-3", case, _with_files(
        out, trace=_rewrite(trace, "m", _bump_last(2e-3), "m.csv")), True
    yield "relax: positive alpha", case, _with_files(
        out, fit=_rewrite(fit, "alpha", lambda v: -v, "alpha.csv")), True
    yield "relax: r2 = 0.98", case, _with_files(
        out, fit=_rewrite(fit, "r2", lambda v: v * 0 + 0.98, "r2.csv")), True
    yield "relax: simulate exited 2", case, dataclasses.replace(
        out, error="simulate exited 2"), True

    # a coupling at which the step stepper has two fixed points
    model = wl._step_model(0.2921200826620952)
    case = wl.Case("relax-two", "relax", model, wl.DESK_DX, 10000,
                   config=wl._config(model, wl.DESK_DX, t_end=10.0),
                   t_end=10.0, window=(3.0, 10.0))
    wl.write_inputs([case], FOLDER)
    yield ("relax: two stepper fixed points, as computed", case,
           wl.execute(case, FOLDER), None)


def spectrum_items():
    model = wl._smooth_model(0.5)
    dx = 0.02
    case = wl.Case("spec", "spectrum", model, dx, 500,
                   config=wl._config(model, dx))
    wl.write_inputs([case], FOLDER)
    out = wl.execute(case, FOLDER)
    eigs, kernel = out.files["eigs"], out.files["kernel"]

    def shift_gap(v):
        v[1:3] += 1e-3      # the gap pair follows the zero mode
        return v

    def put_last(value):
        def change(v):
            v[-1] = value
            return v
        return change

    def bend(v):
        v[: v.size // 4] *= 1.5
        return v
    yield "spectrum: as computed", case, out, False
    yield "spectrum: gap mode shifted by 1e-3", case, _with_files(
        out, eigs=_rewrite(eigs, "re", shift_gap, "gap.csv")), True
    near_zero = _rewrite(_rewrite(eigs, "re", put_last(0.5 * dx), "zero.csv"),
                         "im", put_last(0.0), "zero.csv")
    yield "spectrum: second eigenvalue near 0", case, _with_files(
        out, eigs=near_zero), True
    yield "spectrum: zero mode off the profile", case, _with_files(
        out, kernel=_rewrite(kernel, "v", bend, "kernel.csv")), True


def _multi_root_draw():
    """The first seeded step draw whose staircase has several roots,
    with the coupling the draw computes."""
    rng = np.random.default_rng(7)
    for i in range(5000):
        case = wl._draw(f"step-{i}", "step", rng)
        out = wl.execute(case, FOLDER)
        lam = out.value[0]
        model = dict(case.model, **{"lambda": lam})
        roots = oracle.activity_roots_step(model, case.dx, case.density)
        if len(roots) > 1:
            return case, out, roots
    raise RuntimeError("no multi-root step draw in 5000 tries")


def regime_items():
    rng = np.random.default_rng(11)
    smooth = wl._draw("smooth", "smooth", rng)
    out = wl.execute(smooth, FOLDER)
    lam, (_, m) = out.value
    yield "draw: smooth as computed", smooth, out, False
    yield "draw: smooth m off by 1e-7", smooth, _with_value(
        out, (lam, ("value", m + 1e-7))), True
    yield "draw: smooth reported ambiguous", smooth, _with_value(
        out, (lam, ("ambiguous", [m, m + 0.1]))), True

    step = wl._draw("step", "step", rng)
    out = wl.execute(step, FOLDER)
    lam, (_, m) = out.value
    yield "draw: step as computed", step, out, False
    yield "draw: step wrong root", step, _with_value(
        out, (lam, ("value", m + 1e-6))), True
    yield "draw: step ambiguity with one root", step, _with_value(
        out, (lam, ("ambiguous", [m, m + 0.1]))), True

    multi, out, roots = _multi_root_draw()
    lam = out.value[0]
    yield "draw: several roots, reported", multi, _with_value(
        out, (lam, ("ambiguous", roots))), False
    yield "draw: several roots, silent pick", multi, _with_value(
        out, (lam, ("value", roots[0]))), True
    yield "draw: several roots, as computed", multi, out, None

    model = wl._smooth_model(0.8, 0.4, 1.5, 1.2, 0.8)
    steady = wl.Case("steady", "steady", model, 0.01, 1000)
    out = wl.execute(steady, FOLDER)
    yield "steady: as computed", steady, out, False
    yield "steady: M off by 1e-6", steady, _with_value(
        out, out.value + 1e-6), True
    scan = wl.Case("scan", "scan", dict(model, **{"lambda": 0.0}), 0.01,
                   1000, lambdas=(0.3, 1.1))
    out = wl.execute(scan, FOLDER)
    (l0, r0), (l1, r1) = out.value
    yield "scan: as computed", scan, out, False
    yield "scan: root off by 1e-6", scan, _with_value(
        out, [(l0, (r0[0] + 1e-6,)), (l1, r1)]), True
    yield "scan: two roots", scan, _with_value(
        out, [(l0, r0 + (0.9,)), (l1, r1)]), True


def main():
    if FOLDER.exists():
        shutil.rmtree(FOLDER)
    FOLDER.mkdir(parents=True)
    unmet = 0
    for items in (relax_items, spectrum_items, regime_items):
        for label, case, out, should_fail in items():
            workload = "relax-implicit" if case.kind == "relax" else ""
            problems = wl.verdict(case, out, workload)
            failed = bool(problems)
            if should_fail is None:
                word = "FAILED" if failed else "passed"
                print(f"note  {label}: the program's own answer {word}"
                      + (f" ({problems[0][0]})" if problems else ""))
                continue
            ok = failed == should_fail
            unmet += not ok
            got = "counted failed" if failed else "counted passed"
            print(f"{'ok' if ok else 'UNMET':5s} {label}: {got}"
                  + (f" ({problems[0][0]})" if problems else ""))
    print(f"{unmet} unmet expectations")
    return 1 if unmet else 0


if __name__ == "__main__":
    sys.exit(main())
