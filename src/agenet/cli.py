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
from .linear_analysis import build_generator, spectrum
from .steady_state import regime_scan, solve_steady_state

__all__ = ["RunConfig", "parse_config", "default_config", "main"]

_PRESETS = ("uniform01", "exp2", "spike")


@dataclasses.dataclass(frozen=True)
class RunConfig(SimulationConfig):
    """A parsed config: what run() takes, plus the subcommands' own
    keys, the initial preset f0, sweep's fit window and couplings."""

    f0: str = "uniform01"
    window: tuple = (5.0, 30.0)
    lambdas: tuple = ()


# the run block's keys in the order --print-defaults writes them; their
# defaults, and q's, are the RunConfig fields'
_RUN_KEYS = ("t_end", "record_every", "f0", "window", "allow_zero_kappa0")
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

# kind: (rate family, its keys and their defaults); model.lambda is the
# family's lam, nonnegative, and every other key must be positive
_MODELS = {
    "constant": (ConstantRate, {"k0": 1.0, "lambda": 0.0}),
    "smooth": (SmoothSaturatingRate,
               {"k0": 0.5, "k1": 2.0, "lambda": 0.0, "mu_scale": 1.0,
                "x_scale": 1.0}),
    "step": (StepRate, {"sigma_plus": 0.5, "sigma_minus": 0.25,
                        "lambda": 0.0, "decay": 1.0}),
}
_KERNEL_KEYS = {
    "dirac": (),
    "exponential": ("theta",),
    "gamma": ("shape", "rate"),
    "sampled": ("y", "b"),
}


def default_config():
    """The complete default config; `--print-defaults` emits it and it
    parses back unchanged."""
    run = {key: _DEFAULTS[key] for key in _RUN_KEYS}
    run["window"] = list(run["window"])
    return {
        "grid": {"dx": 1e-3, "x_max": 10.0},
        "model": {"kind": "constant", **_MODELS["constant"][1]},
        "kernel": {"kind": "dirac"},
        "run": run,
        "sweep": {"lambdas": list(_DEFAULTS["lambdas"])},
        "q": _DEFAULTS["q"],
    }


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(block, section, key, errors, positive=False, nonnegative=False):
    v = block[key]
    name = f"{section}.{key}"
    if not _is_number(v):
        errors.append(f"{name}: expected a number, got {v!r}")
        return None
    v = float(v)
    if not math.isfinite(v):
        errors.append(f"{name}: must be finite")
        return None
    if positive and v <= 0.0:
        errors.append(f"{name}: must be positive, got {v:g}")
        return None
    if nonnegative and v < 0.0:
        errors.append(f"{name}: must be nonnegative, got {v:g}")
        return None
    return v


def _integer(block, section, key, errors, minimum=1):
    v = block[key]
    name = f"{section}.{key}"
    if not isinstance(v, int) or isinstance(v, bool):
        errors.append(f"{name}: expected an integer, got {v!r}")
        return None
    if v < minimum:
        errors.append(f"{name}: must be at least {minimum}, got {v}")
        return None
    return v


def _merge(section, block, defaults, errors):
    """User block over defaults, flagging unknown keys by full name."""
    merged = dict(defaults)
    for key, value in block.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            errors.append(f"{section}.{key}: unknown key (known: {known})")
            continue
        merged[key] = value
    return merged


def _validate_grid(block, errors):
    merged = _merge("grid", block, {"dx": 1e-3, "x_max": 10.0}, errors)
    dx = _number(merged, "grid", "dx", errors, positive=True)
    x_max = _number(merged, "grid", "x_max", errors, positive=True)
    if dx is None or x_max is None:
        return None
    n_cells = int(round(x_max / dx))
    if n_cells < 2:
        errors.append("grid.x_max: must cover at least two cells of "
                      f"width dx = {dx:g}")
        return None
    if n_cells > 2_000_000:
        errors.append(f"grid: x_max/dx = {n_cells} cells exceeds the "
                      "2e6 cap; coarsen dx or shorten x_max")
        return None
    if abs(n_cells * dx - x_max) > 1e-9 * x_max:
        errors.append("grid.x_max: must be an integer multiple of grid.dx")
        return None
    return AgeGrid(dx=dx, n_cells=n_cells)


def _validate_model(block, errors):
    kind = block.get("kind", "constant")
    if kind not in _MODELS:
        known = ", ".join(sorted(_MODELS))
        errors.append(f"model.kind: unknown kind {kind!r} (known: {known})")
        return None
    family, defaults = _MODELS[kind]
    merged = _merge("model", {k: v for k, v in block.items() if k != "kind"},
                    defaults, errors)
    before = len(errors)
    params = {"lam": _number(merged, "model", "lambda", errors,
                             nonnegative=True)}
    for key in defaults:
        if key != "lambda":
            params[key] = _number(merged, "model", key, errors,
                                  positive=True)
    k0, k1 = params.get("k0"), params.get("k1")
    if None not in (k0, k1) and k1 < k0:
        errors.append(f"model.k1: saturated rate {k1:g} must be at "
                      f"least the rest rate model.k0 = {k0:g}")
    low, high = params.get("sigma_minus"), params.get("sigma_plus")
    if None not in (low, high):
        if not low < high:
            errors.append(
                f"model.sigma_minus: rest threshold {low:g} must be "
                f"strictly below the excited threshold model.sigma_plus = "
                f"{high:g}")
        elif high >= 1.0:
            errors.append(f"model.sigma_plus: must be below 1, got {high:g}")
    return None if len(errors) > before else family(**params)


def _validate_kernel(block, errors):
    kind = block.get("kind", "dirac")
    if kind not in _KERNEL_KEYS:
        known = ", ".join(sorted(_KERNEL_KEYS))
        errors.append(f"kernel.kind: unknown kind {kind!r} (known: {known})")
        return None
    for key in block:
        if key != "kind" and key not in _KERNEL_KEYS[kind]:
            errors.append(f"kernel.{key}: unknown key for kind {kind!r}")
    before = len(errors)
    if kind == "dirac":
        return DelayKernel.dirac() if len(errors) == before else None
    if kind != "sampled":
        # a positive rate and a gamma shape
        params = {}
        if kind == "gamma":
            params["shape"] = block.get("shape", 2.0)
            if not _is_number(params["shape"]) or params["shape"] < 1.0:
                errors.append("kernel.shape: must be a number >= 1")
            elif not math.isfinite(params["shape"]):
                errors.append("kernel.shape: must be finite")
        key = "theta" if kind == "exponential" else "rate"
        params[key] = block.get(key, 2.0)
        if not _is_number(params[key]) or params[key] <= 0.0:
            errors.append(f"kernel.{key}: must be a positive number")
        elif not math.isfinite(params[key]):
            errors.append(f"kernel.{key}: must be finite")
        if len(errors) > before:
            return None
        return getattr(DelayKernel, kind)(
            **{k: float(v) for k, v in params.items()})
    y = block.get("y")
    b = block.get("b")
    for key, arr in (("y", y), ("b", b)):
        if (not isinstance(arr, list) or len(arr) < 2
                or not all(_is_number(v) for v in arr)):
            errors.append(f"kernel.{key}: expected a list of at least two "
                          "numbers")
    if len(errors) > before:
        return None
    try:
        return DelayKernel.sampled(np.asarray(y, dtype=float),
                                   np.asarray(b, dtype=float))
    except ValueError as exc:
        errors.append(f"kernel: {exc}")
        return None


def _validate_run(block, errors):
    merged = _merge("run", block, {key: _DEFAULTS[key] for key in _RUN_KEYS},
                    errors)
    out = {
        "t_end": _number(merged, "run", "t_end", errors, positive=True),
        "record_every": _integer(merged, "run", "record_every", errors),
        "f0": merged["f0"],
        "allow_zero_kappa0": merged["allow_zero_kappa0"],
    }
    if out["f0"] not in _PRESETS:
        errors.append(f"run.f0: unknown preset {out['f0']!r} (known: "
                      + ", ".join(_PRESETS) + ")")
    window = merged["window"]
    if (not isinstance(window, (list, tuple)) or len(window) != 2
            or not all(_is_number(v) for v in window)
            or not 0.0 <= float(window[0]) < float(window[1])):
        errors.append("run.window: expected [t0, t1] with 0 <= t0 < t1")
    else:
        out["window"] = (float(window[0]), float(window[1]))
    if not isinstance(out["allow_zero_kappa0"], bool):
        errors.append("run.allow_zero_kappa0: must be true or false")
    return out


def _validate_sweep(block, errors):
    merged = _merge("sweep", block, {"lambdas": []}, errors)
    lambdas = merged["lambdas"]
    if not isinstance(lambdas, list):
        errors.append("sweep.lambdas: expected a list of couplings")
        return ()
    bad = [v for v in lambdas
           if not _is_number(v) or not math.isfinite(v) or v < 0.0]
    if bad:
        errors.append("sweep.lambdas: entries must be finite and "
                      f"nonnegative, got {bad[:3]!r}")
        return ()
    return tuple(float(v) for v in lambdas)


def parse_config(path):
    """Read and validate a JSON run config.

    Raises ConfigError carrying every problem found, each named by its
    section.key, so one pass over the message fixes the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    errors = []
    sections = {"grid", "model", "kernel", "run", "sweep", "q"}
    for key in raw:
        if key not in sections:
            errors.append(f"{key}: unknown section (known: "
                          + ", ".join(sorted(sections)) + ")")
    for name in ("grid", "model", "kernel", "run", "sweep"):
        if name in raw and not isinstance(raw[name], dict):
            errors.append(f"{name}: expected an object")
            raw = {k: v for k, v in raw.items() if k != name}

    grid = _validate_grid(raw.get("grid", {}), errors)
    model = _validate_model(raw.get("model", {}), errors)
    kernel = _validate_kernel(raw.get("kernel", {}), errors)
    run_block = _validate_run(raw.get("run", {}), errors)
    lambdas = _validate_sweep(raw.get("sweep", {}), errors)
    q = raw.get("q", _DEFAULTS["q"])
    if not _is_number(q) or not 0.0 <= float(q) < math.inf:
        errors.append("q: moment exponent must be a nonnegative number")

    if errors:
        raise ConfigError(errors)
    return RunConfig(grid=grid, model=model, kernel=kernel, lambdas=lambdas,
                     q=float(q), **run_block)


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
    dist = trace.l1_dist_to_F
    rows = []
    for i in range(trace.times.size):
        rows.append([
            _fmt(trace.times[i]), _fmt(trace.m_series[i]),
            _fmt(trace.p_series[i]), _fmt(trace.mass_series[i]),
            _fmt(dist[i]) if dist is not None else "",
            _fmt(trace.linf_series[i]), _fmt(trace.l1q_series[i])])
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
    rep = spectrum(build_generator(cfg.model, grid, ss))
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

        ss = solve_steady_state(model, cfg.grid)
        row["gap"] = spectrum(build_generator(model, cfg.grid, ss)).gap

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
        raise ConfigError(["sweep.lambdas: must be nonempty for a sweep"])
    if cfg.window[0] >= cfg.t_end:
        raise ConfigError([
            f"run.window: the fit window starts at {_fmt(cfg.window[0])}, "
            f"not before run.t_end = {_fmt(cfg.t_end)}, so no sweep row "
            "would have samples to fit; lower the start or raise run.t_end"])
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


def _cmd_decay_fit(args):
    data = np.genfromtxt(args.trace, delimiter=",", names=True)
    if data.dtype.names is None or "t" not in data.dtype.names:
        raise ConfigError([f"{args.trace}: not a trace CSV (no t column)"])
    if "l1_dist" not in data.dtype.names:
        raise ConfigError([f"{args.trace}: no l1_dist column"])
    times = np.atleast_1d(data["t"])
    dist = np.atleast_1d(data["l1_dist"])
    if np.any(~np.isfinite(dist)):
        raise ConfigError([f"{args.trace}: l1_dist column has empty or "
                           "non-finite entries; rerun simulate with a "
                           "solvable equilibrium"])
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
