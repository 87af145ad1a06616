"""Command-line front end: one JSON config per run, CSV out.

Exit codes: 0 on success, 1 for usage or config problems and for
numerical failures (no bracket, a spectrum that cannot be certified),
2 when a running invariant of the scheme fails, 3 when the activity
solver finds no root or several.  All CSV floats are written with 12
significant digits and no wall-clock data, so identical configs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .delay_kernel import DelayKernel
from .errors import (AmbiguousActivityError, BracketError, ConfigError,
                     DegenerateInputError, InvariantViolationError,
                     ModelInconsistencyError, SpectrumCountError)
from .evolution import (SimulationConfig, decay_fit, run,
                        stepper_equilibrium)
from .firing_rate import (ConstantRate, SmoothSaturatingRate, StepRate,
                          estimate_xi)
from .grid import AgeGrid, preset_density
from .linear_analysis import spectrum
from .steady_state import regime_scan, solve_steady_state, steady_state_at

__all__ = ["RunConfig", "parse_config", "default_config", "main"]

_PRESETS = ("uniform01", "exp2", "spike")
# the run block's keys in the order --print-defaults writes them; their
# defaults, and q's, are the RunConfig fields'
_RUN_KEYS = ("t_end", "record_every", "f0", "window", "allow_zero_kappa0")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _preset(value):
    return None if value in _PRESETS else (
        f"unknown preset {value!r} (known: {', '.join(_PRESETS)})")


def _window(value):
    if isinstance(value, tuple) and len(value) == 2 \
            and all(map(_is_number, value)) and 0.0 <= value[0] < value[1]:
        return None
    return "expected [t0, t1] with 0 <= t0 < t1"


def _couplings(value):
    bad = [v for v in value if not 0.0 <= _number(v) < math.inf]
    return f"entries must be finite and nonnegative, got {bad[:3]!r}" \
        if bad else None


_RUN_RULES = dict(SimulationConfig._rules, f0=_preset, window=_window,
                  lambdas=_couplings)


@dataclasses.dataclass(frozen=True)
class RunConfig(SimulationConfig):
    """A parsed config: what run() takes, plus the subcommands' own
    keys, the initial preset f0, sweep's fit window and couplings."""

    f0: str = "uniform01"
    window: tuple = (5.0, 30.0)
    lambdas: tuple = ()

    # in config order: the run block, sweep.lambdas, then q
    _rules = tuple((name, _RUN_RULES[name])
                   for name in (*_RUN_KEYS, "lambdas", "q"))


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_GRID = {"dx": 1e-3, "x_max": 10.0}

# kind: (rate family, {key: (field, default)}), the keys in the order
# --print-defaults writes them
_MODELS = {
    "constant": (ConstantRate, {"k0": ("k0", 1.0), "lambda": ("lam", 0.0)}),
    "smooth": (SmoothSaturatingRate,
               {"k0": ("k0", 0.5), "k1": ("k1", 2.0), "lambda": ("lam", 0.0),
                "mu_scale": ("mu_scale", 1.0),
                "x_scale": ("x_scale", 1.0)}),
    "step": (StepRate, {"sigma_plus": ("sigma_plus", 0.5),
                        "sigma_minus": ("sigma_minus", 0.25),
                        "lambda": ("lam", 0.0), "decay": ("decay", 1.0)}),
}
# kind: {key: DelayKernel field}; a number key defaults to 2.0
_KERNEL_KEYS = {
    "dirac": {},
    "exponential": {"theta": "theta"},
    "gamma": {"shape": "shape", "rate": "theta"},
    "sampled": {"y": "y_samples", "b": "b_samples"},
}


def default_config():
    """The complete default config; `--print-defaults` emits it and it
    parses back unchanged."""
    run = {key: _DEFAULTS[key] for key in _RUN_KEYS}
    run["window"] = list(run["window"])
    return {
        "grid": dict(_GRID),
        "model": {"kind": "constant", **{key: default for key, (_, default)
                                         in _MODELS["constant"][1].items()}},
        "kernel": {"kind": "dirac"},
        "run": run,
        "sweep": {"lambdas": list(_DEFAULTS["lambdas"])},
        "q": _DEFAULTS["q"],
    }


def _number(v):
    # a value that is not a JSON number reads as -inf, which every range
    # refuses, so no check across fields reads it either; an integer too
    # large for a float reads as the infinity of its sign
    if not _is_number(v):
        return -math.inf
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _merge(section, block, defaults, problems):
    """User block over defaults, flagging unknown keys by full name."""
    merged = dict(defaults)
    for key, value in block.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            problems.append((f"{section}.{key}",
                             f"unknown key (known: {known})"))
            continue
        merged[key] = value
    return merged


def _build(problems, cls, values, section, names, raw=None):
    """cls(**values), or None with its problems added to problems.

    names maps a field to its config name; any other field is named
    section.field, and a problem of the whole object section.  A
    message that quotes a field of names as "field = " quotes its name.
    A field whose value in raw is not a JSON number reads "expected a
    number" instead of the constructor's message."""
    try:
        return cls(**values)
    except ConfigError as exc:
        for field, message in exc.problems:
            if raw and not _is_number(raw.get(field, 0.0)):
                message = f"expected a number, got {raw[field]!r}"
            for other, name in names.items():
                message = message.replace(f" {other} = ", f" {name} = ")
            problems.append((names.get(field, section if field is None
                                       else f"{section}.{field}"), message))


def _validate_grid(block, problems):
    merged = _merge("grid", block, _GRID, problems)
    dx, x_max = _number(merged["dx"]), _number(merged["x_max"])
    try:
        n_cells = round(x_max / dx)
    except (ArithmeticError, ValueError):
        n_cells = 2     # dx is 0 or a value is not finite: AgeGrid judges dx
    # x_max stands for n_cells; dx is not in names, so the two-cell
    # message quotes it bare
    grid = _build(problems, AgeGrid, {"dx": dx, "n_cells": n_cells}, "grid",
                  {"n_cells": "grid.x_max"}, {"dx": merged["dx"]})
    if not math.isfinite(x_max):
        problems.append(("grid.x_max", "must be finite"
                         if _is_number(merged["x_max"])
                         else f"expected a number, got {merged['x_max']!r}"))
    elif grid is not None and n_cells > 2_000_000:
        problems.append(("grid", f"x_max/dx = {n_cells} cells exceeds the "
                         "2e6 cap; coarsen dx or shorten x_max"))
    elif grid is not None and abs(n_cells * dx - x_max) > 1e-9 * x_max:
        problems.append(("grid.x_max",
                         "must be an integer multiple of grid.dx"))
    return grid


def _validate_model(block, problems):
    kind = block.get("kind", "constant")
    if kind not in _MODELS:
        known = ", ".join(sorted(_MODELS))
        problems.append(("model.kind",
                         f"unknown kind {kind!r} (known: {known})"))
        return None
    family, keys = _MODELS[kind]
    merged = _merge("model", {k: v for k, v in block.items() if k != "kind"},
                    {key: default for key, (_, default) in keys.items()},
                    problems)
    raw = {field: merged[key] for key, (field, _) in keys.items()}
    return _build(problems, family,
                  {field: _number(v) for field, v in raw.items()}, "model",
                  {field: f"model.{key}" for key, (field, _) in keys.items()},
                  raw)


def _validate_kernel(block, problems):
    kind = block.get("kind", "dirac")
    if kind not in _KERNEL_KEYS:
        known = ", ".join(sorted(_KERNEL_KEYS))
        problems.append(("kernel.kind",
                         f"unknown kind {kind!r} (known: {known})"))
        return None
    keys = _KERNEL_KEYS[kind]
    problems += [(f"kernel.{key}", f"unknown key for kind {kind!r}")
                 for key in block if key != "kind" and key not in keys]
    if kind == "sampled":
        bad = [(f"kernel.{key}", "expected a list of at least two numbers")
               for key in keys if not (isinstance(block.get(key), list)
                                       and len(block[key]) >= 2
                                       and all(map(_is_number, block[key])))]
        if bad:
            problems += bad
            return None
    # the rate and shape rules say "must be a ... number", so a value of
    # another type gets their own message, as -inf; a sample too large
    # for a float reads as infinite, which the mass rule refuses
    values = {field: list(map(_number, block[key])) if kind == "sampled"
              else _number(block.get(key, 2.0)) for key, field in keys.items()}
    return _build(problems, DelayKernel, {"kind": kind, **values}, "kernel",
                  {field: f"kernel.{key}" for key, field in keys.items()})


def parse_config(path):
    """Read a JSON run config and build its RunConfig.

    The constructors of the grid, the rate family, the kernel and
    RunConfig hold every range rule.  This function checks only what
    JSON adds: unknown sections and keys, the type of each value, the
    shape of each list, the 2e6-cell cap and that x_max is an integer
    multiple of dx.  It raises ConfigError carrying every problem
    found, each named by its section.key, so one pass over the message
    fixes the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                [(None, f"config is not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([(None, "config must be a JSON object")])

    problems = []
    sections = {"grid", "model", "kernel", "run", "sweep", "q"}
    for key in raw:
        if key not in sections:
            problems.append((key, "unknown section (known: "
                             + ", ".join(sorted(sections)) + ")"))
    for name in ("grid", "model", "kernel", "run", "sweep"):
        if name in raw and not isinstance(raw[name], dict):
            problems.append((name, "expected an object"))
            raw = {k: v for k, v in raw.items() if k != name}

    grid = _validate_grid(raw.get("grid", {}), problems)
    model = _validate_model(raw.get("model", {}), problems)
    kernel = _validate_kernel(raw.get("kernel", {}), problems)
    run_block = _merge("run", raw.get("run", {}),
                       {key: _DEFAULTS[key] for key in _RUN_KEYS}, problems)
    lambdas = _merge("sweep", raw.get("sweep", {}), {"lambdas": []},
                     problems)["lambdas"]
    if not isinstance(lambdas, list):
        problems.append(("sweep.lambdas", "expected a list of couplings"))
        lambdas = []
    window = run_block["window"]
    # a q that is not a number reads as -inf, which q's own rule,
    # "moment exponent must be a nonnegative number", refuses
    config = _build(
        problems, RunConfig,
        dict(run_block, grid=grid, model=model, kernel=kernel,
             t_end=_number(run_block["t_end"]),
             window=tuple(map(_number, window)) if isinstance(window, list)
             else window,
             lambdas=tuple(lambdas),
             q=_number(raw.get("q", _DEFAULTS["q"]))),
        "run", {"lambdas": "sweep.lambdas", "q": "q"},
        {"t_end": run_block["t_end"]})
    if problems:
        raise ConfigError(problems)
    return config


# ---------------------------------------------------------------------------
# CSV helpers

def _fmt(x):
    if x is None:
        return ""
    return "%.12g" % x


def _csv_text(text):
    # free text as one CSV field: no separators, no line breaks
    return " ".join(text.replace(",", ";").split())


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args):
    cfg = parse_config(args.config)
    f0 = preset_density(cfg.grid, cfg.f0)
    try:
        steady = stepper_equilibrium(cfg.model, cfg.grid)
    except (BracketError, ValueError) as exc:
        print(f"note: no equilibrium reference ({exc}); the l1_dist "
              "column will be empty", file=sys.stderr)
        steady = None
    trace = run(cfg, f0, steady=steady)
    # Python floats format as the numpy scalars do, at a fraction of the
    # cost; a missing distance formats as an empty field
    dist = trace.l1_dist_to_F
    columns = [trace.times, trace.m_series, trace.p_series,
               trace.mass_series, dist, trace.linf_series,
               trace.l1q_series]
    columns = [[None] * trace.times.size if column is None
               else column.tolist() for column in columns]
    rows = [[_fmt(x) for x in row] for row in zip(*columns)]
    _write_csv(args.out, ["t", "m", "p", "mass", "l1_dist", "linf", "l1q"],
               rows)
    drift = float(np.max(np.abs(trace.mass_series - 1.0)))
    print(f"wrote {args.out}: {trace.times.size} samples to t = "
          f"{_fmt(trace.times[-1])}, final m = {_fmt(trace.m_series[-1])}, "
          f"max |mass - 1| = {_fmt(drift)}")
    return 0


def _cmd_steady_state(args):
    cfg = parse_config(args.config)
    ss = solve_steady_state(cfg.model, cfg.grid)
    print(f"M = {_fmt(ss.M)}")
    print(f"profile residual = {_fmt(ss.residual_ode)}")
    print(f"activity residual = {_fmt(ss.residual_activity)}")
    if args.out:
        rows = [[_fmt(x), _fmt(v)]
                for x, v in zip(cfg.grid.midpoints, ss.F)]
        _write_csv(args.out, ["x", "F"], rows)
        print(f"wrote {args.out}: {len(rows)} cells")
    return 0


def _cmd_spectrum(args):
    cfg = parse_config(args.config)
    grid = cfg.grid
    if not cfg.kernel.is_dirac:
        print(f"note: the {cfg.kernel.kind} delay kernel does not enter the "
              "linearization with the rates frozen at M, so the spectrum is "
              "the Dirac kernel's (the activity feedback d_m k that would "
              "carry it is an open ROADMAP item)", file=sys.stderr)
    ss = solve_steady_state(cfg.model, grid)
    rep = spectrum(cfg.model, grid, ss)
    print(f"eigenvalue nearest 0: {_fmt(rep.zero_eigenvalue.real)} + "
          f"{_fmt(rep.zero_eigenvalue.imag)}i")
    print(f"spectral gap = {_fmt(rep.gap)}")
    print(f"kernel/profile L1 mismatch = {_fmt(rep.kernel_match)}")
    if args.eigs_out:
        rows = [[_fmt(z.real), _fmt(z.imag)] for z in rep.eigenvalues]
        _write_csv(args.eigs_out, ["re", "im"], rows)
        print(f"wrote {args.eigs_out}: {len(rows)} eigenvalues")
    if args.kernel_out:
        rows = [[_fmt(x), _fmt(v)]
                for x, v in zip(grid.midpoints, rep.kernel_vector)]
        _write_csv(args.kernel_out, ["x", "v"], rows)
        print(f"wrote {args.kernel_out}: {len(rows)} cells")
    return 0


def _sweep_row(cfg, scan_row):
    """One sweep row.  A numeric failure sets the status from its type
    and keeps its message in the detail."""
    lam = scan_row.lam
    row = {"lambda": lam, "M": None, "xi": None, "gap": None,
           "alpha": None, "r2": None, "unique": None, "status": "ok",
           "detail": ""}
    try:
        if not scan_row.roots:
            row["status"] = "no-steady-state"
            row["detail"] = "no stationary activity at this coupling"
            return row
        row["unique"] = scan_row.unique
        model = dataclasses.replace(cfg.model, lam=lam)
        row["M"] = scan_row.roots[0]
        row["xi"] = estimate_xi(model, x_max=cfg.grid.x_max).xi

        ss = steady_state_at(model, cfg.grid, row["M"])
        row["gap"] = spectrum(model, cfg.grid, ss).gap

        equilibrium = stepper_equilibrium(model, cfg.grid)
        trace = run(dataclasses.replace(cfg, model=model),
                    preset_density(cfg.grid, cfg.f0), steady=equilibrium)
        w0, w1 = cfg.window
        w1 = min(w1, cfg.t_end)
        fit = decay_fit(trace, (w0, w1))
        row["alpha"] = fit.alpha
        row["r2"] = fit.r2
    except AmbiguousActivityError as exc:
        row.update(M=None, xi=None, gap=None, alpha=None, r2=None,
                   unique=None, status="ambiguous", detail=str(exc))
    except (ModelInconsistencyError, BracketError) as exc:
        row.update(status="no-root", detail=str(exc))
    except InvariantViolationError as exc:
        row.update(status="invariant-violation", detail=str(exc))
    except (DegenerateInputError, ValueError, SpectrumCountError) as exc:
        row.update(status="error", detail=str(exc))
    return row


def _cmd_sweep(args):
    cfg = parse_config(args.config)
    if not cfg.lambdas:
        raise ConfigError([("sweep.lambdas", "must be nonempty for a sweep")])
    if cfg.window[0] >= cfg.t_end:
        raise ConfigError([(
            "run.window", f"the fit window starts at {_fmt(cfg.window[0])}, "
            f"not before run.t_end = {_fmt(cfg.t_end)}, so no sweep row "
            "would have samples to fit; lower the start or raise run.t_end")])
    scan = regime_scan(cfg.model, list(cfg.lambdas), cfg.grid)
    rows = [_sweep_row(cfg, scan_row) for scan_row in scan]
    csv_rows = []
    for row in rows:
        unique = row["unique"]
        csv_rows.append([
            _fmt(row["lambda"]), _fmt(row["M"]), _fmt(row["xi"]),
            _fmt(row["gap"]), _fmt(row["alpha"]), _fmt(row["r2"]),
            "" if unique is None else str(int(unique)), row["status"],
            _csv_text(row["detail"])])
    _write_csv(args.out, ["lambda", "M", "xi", "gap", "alpha", "r2",
                          "unique", "status", "detail"], csv_rows)
    n_ok = sum(1 for row in rows if row["status"] == "ok")
    print(f"wrote {args.out}: {len(rows)} rows, {n_ok} ok")
    return 0


def _trace_field(field):
    # an empty or unreadable field reads as NaN
    try:
        return float(field)
    except ValueError:
        return math.nan


def _read_trace(path):
    """The t and l1_dist columns of a trace CSV, as arrays.  float()
    rounds each field correctly, as any correct parser does."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, not a trace CSV")
    header = [name.strip() for name in lines[0].split(",")]
    if "t" not in header:
        raise ValueError(f"{path}: not a trace CSV (no t column)")
    if "l1_dist" not in header:
        raise ValueError(f"{path}: no l1_dist column")
    if len(lines) == 1:
        raise ValueError(f"{path}: a header but no rows")
    at, dist_at = header.index("t"), header.index("l1_dist")
    times, dist = [], []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path}: a row has {len(fields)} fields, the "
                             f"header {len(header)}")
        times.append(_trace_field(fields[at]))
        dist.append(_trace_field(fields[dist_at]))
    return np.array(times), np.array(dist)


def _cmd_decay_fit(args):
    times, dist = _read_trace(args.trace)
    if not np.all(np.isfinite(dist)):
        raise ValueError(f"{args.trace}: l1_dist column has empty or "
                         "non-finite entries; rerun simulate with a "
                         "solvable equilibrium")
    window = tuple(args.window) if args.window else \
        (float(times[0]), float(times[-1]))
    fake = SimpleNamespace(times=times, l1_dist_to_F=dist)
    fit = decay_fit(fake, window)
    print(f"alpha = {_fmt(fit.alpha)}")
    print(f"C = {_fmt(fit.C)}")
    print(f"r2 = {_fmt(fit.r2)}")
    print(f"window = [{_fmt(fit.window[0])}, {_fmt(fit.window[1])}], "
          f"{fit.n_points} points")
    if args.out:
        _write_csv(args.out, ["alpha", "C", "r2", "t0", "t1", "n_points"],
                   [[_fmt(fit.alpha), _fmt(fit.C), _fmt(fit.r2),
                     _fmt(fit.window[0]), _fmt(fit.window[1]),
                     str(fit.n_points)]])
        print(f"wrote {args.out}")
    return 0


def _cmd_accept(args):
    from .acceptance import run_suite
    results = run_suite(report=print)
    if args.out:
        rows = [[str(r.number), r.name, "pass" if r.passed else "fail",
                 r.detail.replace(",", ";")] for r in results]
        _write_csv(args.out, ["criterion", "name", "result", "detail"],
                   rows)
        print(f"wrote {args.out}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# driver

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1; 2 and 3 are
    reserved for invariant violations and activity ambiguity."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="agenet",
        description="Age-structured neuron network simulator: transport "
                    "with activity-dependent discharge, steady states, "
                    "spectra, and relaxation rates.")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default JSON config and exit")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("simulate", parents=[], help="integrate a run "
                       "config and write the trace CSV")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="trace CSV path")

    p = sub.add_parser("steady-state",
                       help="solve the stationary profile and activity")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", help="profile CSV path (x, F)")

    p = sub.add_parser("spectrum", help="leading spectrum of the "
                       "linearization at the steady state")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--eigs-out", help="leading-eigenvalue CSV path (re, im)")
    p.add_argument("--kernel-out", help="zero-mode CSV path (x, v)")

    p = sub.add_parser("sweep", help="per-coupling summary over "
                       "sweep.lambdas")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="summary CSV path")

    p = sub.add_parser("decay-fit", help="fit an exponential to the "
                       "l1_dist column of a trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV from simulate")
    p.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"),
                   help="fit window (default: the whole trace)")
    p.add_argument("--out", help="one-row fit CSV path")

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--out", help="per-criterion report CSV path")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "steady-state": _cmd_steady_state,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "decay-fit": _cmd_decay_fit,
    "accept": _cmd_accept,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(json.dumps(default_config(), indent=2))
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --print-defaults)")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (AmbiguousActivityError, ModelInconsistencyError) as exc:
        print(f"activity solver: {exc}", file=sys.stderr)
        return 3
    except (ValueError, BracketError, SpectrumCountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
