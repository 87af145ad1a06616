"""Command-line interface: config validation, outputs, exit codes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agenet
from agenet import (AgeGrid, ConfigError, ConstantRate, DelayKernel,
                    InvariantViolationError, SmoothSaturatingRate,
                    SpectrumCountError, StepRate)
from agenet import cli
from agenet.cli import RunConfig, _fmt, default_config, main, parse_config
from agenet.steady_state import ScanRow


def _write_config(tmp_path, overrides=None, name="config.json"):
    cfg = {
        "grid": {"dx": 0.01, "x_max": 4.0},
        "model": {"kind": "constant", "k0": 1.0},
        "run": {"t_end": 1.0, "record_every": 10, "window": [0.5, 1.0]},
    }
    for section, block in (overrides or {}).items():
        if isinstance(block, dict) and isinstance(cfg.get(section), dict):
            cfg[section].update(block)
        else:
            cfg[section] = block
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _fresh_python(code, *args):
    """Run `code` in a fresh interpreter that imports this agenet; return
    the last line it prints."""
    src = str(Path(agenet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def test_importing_the_cli_loads_no_scipy():
    # scipy costs more than the rest of the import together; only a
    # gamma kernel of non-integer shape loads it, when it needs it
    code = ("import json, sys, agenet, agenet.cli; "
            f"print(json.dumps({_SCIPY_LOADED}))")
    assert json.loads(_fresh_python(code)) == []


_MAIN_THEN_SCIPY = ("import json, sys; from agenet.cli import main; "
                    "code = main(sys.argv[1:]); "
                    f"print(json.dumps([code, {_SCIPY_LOADED}]))")


_KERNEL_BLOCKS = {"dirac": {"kind": "dirac"},
                  "exponential": {"kind": "exponential", "theta": 2.0},
                  "gamma": {"kind": "gamma", "shape": 2.0, "rate": 4.0},
                  "gamma-2.5": {"kind": "gamma", "shape": 2.5, "rate": 4.0}}


@pytest.mark.parametrize("command, kernel", [
    ("simulate", "dirac"), ("simulate", "exponential"), ("simulate", "gamma"),
    ("simulate", "gamma-2.5"), ("decay-fit", "dirac"),
    ("steady-state", "dirac"), ("spectrum", "dirac"), ("sweep", "dirac")])
def test_subcommands_load_scipy_only_for_the_gamma_kernel(
        tmp_path, command, kernel):
    # a gamma kernel of integer shape runs as a chain of running means;
    # one of another shape needs its density and quantile from
    # scipy.special
    cfg = _write_config(tmp_path, {"grid": {"dx": 0.05, "x_max": 4.0},
                                   "kernel": _KERNEL_BLOCKS[kernel],
                                   "sweep": {"lambdas": [0.0, 0.7]}})
    out = tmp_path / "out.csv"
    if command == "decay-fit":
        trace = tmp_path / "trace.csv"
        trace.write_text("t,l1_dist\n" + "".join(
            f"{t},{np.exp(-0.5 * t)}\n" for t in np.linspace(0.0, 10.0, 21)))
        argv = ["decay-fit", "--trace", str(trace), "--out", str(out)]
    elif command == "spectrum":
        argv = ["spectrum", "--config", str(cfg), "--eigs-out", str(out)]
    else:
        argv = [command, "--config", str(cfg), "--out", str(out)]
    code, loaded = json.loads(_fresh_python(_MAIN_THEN_SCIPY, *argv))
    assert code == 0
    assert out.is_file()
    if kernel == "gamma-2.5":
        assert "scipy.special" in loaded
        subpackages = {".".join(m.split(".")[:2]) for m in loaded}
        assert subpackages.isdisjoint(
            {"scipy.stats", "scipy.sparse", "scipy.optimize"})
    else:
        assert loaded == []


# ---------------------------------------------------------------------------
# config parsing

def test_default_config_round_trips(tmp_path):
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(default_config()))
    cfg = parse_config(path)
    assert cfg.grid.n_cells == 10000
    assert cfg.model.k0 == 1.0
    assert cfg.kernel.is_dirac
    assert cfg.t_end == 10.0
    assert cfg.window == (5.0, 30.0)
    assert cfg.lambdas == ()
    assert cfg.q == 1.0


def test_print_defaults(capsys):
    assert main(["--print-defaults"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == default_config()


def test_parse_collects_every_problem_at_once(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "grid": {"dx": -0.01, "x_max": 10.0, "bogus": 1},
        "model": {"kind": "step", "sigma_plus": 0.3, "sigma_minus": 0.4},
        "kernel": {"kind": "exponential", "theta": -2.0},
        "run": {"f0": "gauss", "window": [3.0]},
        "sweep": {"lambdas": [0.1, -1.0]},
        "q": -2.0,
        "mystery": {},
    }))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(path)
    text = "\n".join(exc_info.value.errors)
    assert "grid.dx: must be positive, got -0.01" in text
    assert "grid.bogus: unknown key" in text
    assert ("model.sigma_minus: rest threshold 0.4 must be strictly below "
            "the excited threshold model.sigma_plus = 0.3") in text
    assert "kernel.theta: must be a positive number" in text
    assert "run.f0: unknown preset 'gauss'" in text
    assert "run.window: expected [t0, t1]" in text
    assert "sweep.lambdas: entries must be finite and nonnegative" in text
    assert "q: moment exponent" in text
    assert "mystery: unknown section" in text
    assert len(exc_info.value.errors) >= 9


_INF = float("inf")   # json writes Infinity, which json.load reads back
_NAN = float("nan")   # and NaN
_KNOWN_RUN = "allow_zero_kappa0, f0, record_every, t_end, window"

# a broken config and the exact problems it yields, text and order.
# Each row carries its own test id, so deleting a row renames no other
# case; the rows that pytest once named by position keep those names.
_CONFIG_ERRORS = [
    # each model kind: a bad value, a wrong type, an unknown key
    ("raw0-problems0",
     {"model": {"kind": "constant", "k0": -1.0}},
     ["model.k0: must be positive, got -1"]),
    ("raw1-problems1",
     {"model": {"kind": "constant", "k0": "fast"}},
     ["model.k0: expected a number, got 'fast'"]),
    ("raw2-problems2",
     {"model": {"kind": "constant", "k1": 2.0}},
     ["model.k1: unknown key (known: k0, lambda)"]),
    ("raw3-problems3",
     {"model": {"kind": "smooth", "x_scale": 0.0}},
     ["model.x_scale: must be positive, got 0"]),
    ("raw4-problems4",
     {"model": {"kind": "smooth", "mu_scale": [1.0]}},
     ["model.mu_scale: expected a number, got [1.0]"]),
    ("raw5-problems5",
     {"model": {"kind": "smooth", "sigma_plus": 0.5}},
     ["model.sigma_plus: unknown key (known: k0, k1, lambda, mu_scale, "
      "x_scale)"]),
    ("raw6-problems6",
     {"model": {"kind": "step", "decay": -2.0}},
     ["model.decay: must be positive, got -2"]),
    ("raw7-problems7",
     {"model": {"kind": "step", "sigma_plus": True}},
     ["model.sigma_plus: expected a number, got True"]),
    ("raw8-problems8",
     {"model": {"kind": "step", "k0": 1.0}},
     ["model.k0: unknown key (known: decay, lambda, sigma_minus, "
      "sigma_plus)"]),
    ("raw9-problems9",
     {"model": {"kind": "linear"}},
     ["model.kind: unknown kind 'linear' (known: constant, smooth, step)"]),
    # model.lambda is checked before the family's own keys
    ("raw10-problems10",
     {"model": {"kind": "constant", "lambda": -0.5, "k0": _INF}},
     ["model.lambda: must be nonnegative, got -0.5",
      "model.k0: must be finite"]),
    ("raw11-problems11",
     {"model": {"kind": "step", "lambda": "strong", "sigma_plus": -0.5,
                "bogus": 1}},
     ["model.bogus: unknown key (known: decay, lambda, sigma_minus, "
      "sigma_plus)",
      "model.lambda: expected a number, got 'strong'",
      "model.sigma_plus: must be positive, got -0.5"]),
    ("raw12-problems12",
     {"model": {"kind": "smooth", "k0": -1.0, "k1": -2.0, "lambda": -1.0,
                "mu_scale": 0, "x_scale": None}},
     ["model.lambda: must be nonnegative, got -1",
      "model.k0: must be positive, got -1",
      "model.k1: must be positive, got -2",
      "model.mu_scale: must be positive, got 0",
      "model.x_scale: expected a number, got None"]),
    # the checks across keys
    ("raw13-problems13",
     {"model": {"kind": "smooth", "k0": 2.0, "k1": 1.5}},
     ["model.k1: saturated rate 1.5 must be at least the rest rate "
      "model.k0 = 2"]),
    ("raw14-problems14",
     {"model": {"kind": "smooth", "k0": 2.0, "k1": 1.5, "lambda": -1.0}},
     ["model.lambda: must be nonnegative, got -1",
      "model.k1: saturated rate 1.5 must be at least the rest rate "
      "model.k0 = 2"]),
    ("raw15-problems15",
     {"model": {"kind": "step", "sigma_plus": 0.3, "sigma_minus": 0.3}},
     ["model.sigma_minus: rest threshold 0.3 must be strictly below the "
      "excited threshold model.sigma_plus = 0.3"]),
    ("raw16-problems16",
     {"model": {"kind": "step", "sigma_plus": 1.0, "sigma_minus": 0.25}},
     ["model.sigma_plus: must be below 1, got 1"]),
    ("raw17-problems17",
     {"model": {"kind": "step", "sigma_plus": 1.5, "sigma_minus": 2.0,
                "decay": 0.0}},
     ["model.decay: must be positive, got 0",
      "model.sigma_minus: rest threshold 2 must be strictly below the "
      "excited threshold model.sigma_plus = 1.5"]),
    # exponential and gamma kernels: rate and shape
    ("raw18-problems18",
     {"kernel": {"kind": "exponential", "theta": 0.0}},
     ["kernel.theta: must be a positive number"]),
    ("raw19-problems19",
     {"kernel": {"kind": "exponential", "theta": "2"}},
     ["kernel.theta: must be a positive number"]),
    ("raw20-problems20",
     {"kernel": {"kind": "exponential", "theta": -1.0, "shape": 2.0}},
     ["kernel.shape: unknown key for kind 'exponential'",
      "kernel.theta: must be a positive number"]),
    ("raw21-problems21",
     {"kernel": {"kind": "gamma", "shape": 0.5}},
     ["kernel.shape: must be a number >= 1"]),
    ("raw22-problems22",
     {"kernel": {"kind": "gamma", "rate": 0.0}},
     ["kernel.rate: must be a positive number"]),
    ("raw23-problems23",
     {"kernel": {"kind": "gamma", "shape": "two", "rate": -1.0}},
     ["kernel.shape: must be a number >= 1",
      "kernel.rate: must be a positive number"]),
    ("raw24-problems24",
     {"kernel": {"kind": "exponential", "theta": _INF}},
     ["kernel.theta: must be finite"]),
    ("raw25-problems25",
     {"kernel": {"kind": "exponential", "theta": _NAN}},
     ["kernel.theta: must be finite"]),
    ("raw26-problems26",
     {"kernel": {"kind": "gamma", "rate": _INF}},
     ["kernel.rate: must be finite"]),
    ("raw27-problems27",
     {"kernel": {"kind": "gamma", "shape": _INF}},
     ["kernel.shape: must be finite"]),
    ("raw28-problems28",
     {"kernel": {"kind": "gamma", "shape": _NAN}},
     ["kernel.shape: must be finite"]),
    ("raw29-problems29",
     {"kernel": {"kind": "gamma", "theta": 1.0}},
     ["kernel.theta: unknown key for kind 'gamma'"]),
    ("raw30-problems30",
     {"kernel": {"kind": "cauchy"}},
     ["kernel.kind: unknown kind 'cauchy' (known: dirac, exponential, "
      "gamma, sampled)"]),
    ("raw31-problems31",
     {"kernel": {"kind": "dirac", "theta": 1.0}},
     ["kernel.theta: unknown key for kind 'dirac'"]),
    # sampled kernels: y and b
    ("raw32-problems32",
     {"kernel": {"kind": "sampled", "b": [0.0, 1.0, 0.0]}},
     ["kernel.y: expected a list of at least two numbers"]),
    ("raw33-problems33",
     {"kernel": {"kind": "sampled", "y": [0.0, 1.0, 2.0], "b": [1.0]}},
     ["kernel.b: expected a list of at least two numbers"]),
    ("raw34-problems34",
     {"kernel": {"kind": "sampled", "y": "0 1 2", "b": [0.0, "1", 0.0]}},
     ["kernel.y: expected a list of at least two numbers",
      "kernel.b: expected a list of at least two numbers"]),
    ("raw35-problems35",
     {"kernel": {"kind": "sampled", "y": [0.0, 1.0], "b": [0.0, 1.0, 0.0]}},
     ["kernel: need matching 1d arrays of at least 2 samples"]),
    ("raw36-problems36",
     {"kernel": {"kind": "sampled", "y": [0.0, 1.0, 2.0],
                 "b": [0.0, 1.0, 0.0], "theta": 1.0}},
     ["kernel.theta: unknown key for kind 'sampled'"]),
    # no kernel kind takes a delta: each kernel's exponential moment is
    # finite for every parameter value
    ("raw37-problems37",
     {"kernel": {"kind": "dirac", "delta": 1.0}},
     ["kernel.delta: unknown key for kind 'dirac'"]),
    ("raw38-problems38",
     {"kernel": {"kind": "exponential", "theta": 2.0, "delta": 1.0}},
     ["kernel.delta: unknown key for kind 'exponential'"]),
    ("raw39-problems39",
     {"kernel": {"kind": "gamma", "shape": 2.0, "rate": 3.0, "delta": 1.0}},
     ["kernel.delta: unknown key for kind 'gamma'"]),
    ("raw40-problems40",
     {"kernel": {"kind": "sampled", "y": [0.0, 1.0, 2.0],
                 "b": [0.0, 1.0, 0.0], "delta": 1.0}},
     ["kernel.delta: unknown key for kind 'sampled'"]),
    ("raw41-problems41",
     {"kernel": {"kind": "exponential", "theta": 0.0, "delta": 1.0}},
     ["kernel.delta: unknown key for kind 'exponential'",
      "kernel.theta: must be a positive number"]),
    # every run key, one at a time and all at once
    ("raw42-problems42",
     {"run": {"t_end": 0.0}}, ["run.t_end: must be positive, got 0"]),
    ("raw43-problems43",
     {"run": {"t_end": "long"}},
     ["run.t_end: expected a number, got 'long'"]),
    ("raw44-problems44",
     {"run": {"record_every": 0}},
     ["run.record_every: must be at least 1, got 0"]),
    ("raw45-problems45",
     {"run": {"record_every": 2.5}},
     ["run.record_every: expected an integer, got 2.5"]),
    ("raw46-problems46",
     {"run": {"record_every": True}},
     ["run.record_every: expected an integer, got True"]),
    ("raw47-problems47",
     {"run": {"f0": "gauss"}},
     ["run.f0: unknown preset 'gauss' (known: uniform01, exp2, spike)"]),
    # the activity solve's tolerance and cap are constants, not keys
    ("raw48-problems48",
     {"run": {"fixed_point_tol": 1e-12}},
     [f"run.fixed_point_tol: unknown key (known: {_KNOWN_RUN})"]),
    ("raw49-problems49",
     {"run": {"fixed_point_max_iter": 200}},
     [f"run.fixed_point_max_iter: unknown key (known: {_KNOWN_RUN})"]),
    ("raw51-problems51",
     {"run": {"window": [30.0, 5.0]}},
     ["run.window: expected [t0, t1] with 0 <= t0 < t1"]),
    ("raw52-problems52",
     {"run": {"window": [-1.0, 5.0]}},
     ["run.window: expected [t0, t1] with 0 <= t0 < t1"]),
    ("raw53-problems53",
     {"run": {"window": "all"}},
     ["run.window: expected [t0, t1] with 0 <= t0 < t1"]),
    ("raw54-problems54",
     {"run": {"allow_zero_kappa0": 1}},
     ["run.allow_zero_kappa0: must be true or false"]),
    ("raw55-problems55",
     {"run": {"dt": 0.1}}, [f"run.dt: unknown key (known: {_KNOWN_RUN})"]),
    ("raw56-problems56",
     {"run": {"t_end": -1.0, "record_every": 0, "f0": 3,
              "window": [1.0], "allow_zero_kappa0": "no", "seed": 7}},
     [f"run.seed: unknown key (known: {_KNOWN_RUN})",
      "run.t_end: must be positive, got -1",
      "run.record_every: must be at least 1, got 0",
      "run.f0: unknown preset 3 (known: uniform01, exp2, spike)",
      "run.window: expected [t0, t1] with 0 <= t0 < t1",
      "run.allow_zero_kappa0: must be true or false"]),
    # the other sections, then a problem in every section at once
    ("raw57-problems57",
     {"grid": {"dx": 0.0, "x_max": "ten"}},
     ["grid.dx: must be positive, got 0",
      "grid.x_max: expected a number, got 'ten'"]),
    ("raw58-problems58",
     {"grid": {"dx": 0.5, "x_max": 0.5}},
     ["grid.x_max: must cover at least two cells of width dx = 0.5"]),
    ("raw59-problems59",
     {"sweep": {"lambdas": 0.5}},
     ["sweep.lambdas: expected a list of couplings"]),
    ("raw60-problems60",
     {"sweep": {"lambdas": [0.1, _INF]}, "q": "one"},
     ["sweep.lambdas: entries must be finite and nonnegative, got [inf]",
      "q: moment exponent must be a nonnegative number"]),
    ("raw61-problems61",
     {"model": [], "kernel": 3, "run": None},
     ["model: expected an object", "kernel: expected an object",
      "run: expected an object"]),
    ("raw62-problems62",
     {"grid": {"dx": -1.0}, "model": {"kind": "step", "lambda": -1.0},
      "kernel": {"kind": "gamma", "shape": 0.0}, "run": {"t_end": 0.0},
      "sweep": {"lambdas": [-1.0]}, "q": -1.0, "extra": {}},
     ["extra: unknown section (known: grid, kernel, model, q, run, sweep)",
      "grid.dx: must be positive, got -1",
      "model.lambda: must be nonnegative, got -1",
      "kernel.shape: must be a number >= 1",
      "run.t_end: must be positive, got 0",
      "sweep.lambdas: entries must be finite and nonnegative, got [-1.0]",
      "q: moment exponent must be a nonnegative number"]),
    # a non-finite q is a config error too, not a bare ValueError from
    # RunConfig
    ("q-infinite", {"q": _INF},
     ["q: moment exponent must be a nonnegative number"]),
    ("q-nan", {"q": _NAN},
     ["q: moment exponent must be a nonnegative number"]),
]


@pytest.mark.parametrize("raw, problems", [
    pytest.param(raw, problems, id=name)
    for name, raw, problems in _CONFIG_ERRORS])
def test_config_error_corpus(tmp_path, raw, problems):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(path)
    assert exc_info.value.errors == problems


@pytest.mark.parametrize("field, value, message", [
    ("window", (30.0, 5.0), "window: expected [t0, t1] with 0 <= t0 < t1"),
    ("f0", "gauss",
     "f0: unknown preset 'gauss' (known: uniform01, exp2, spike)"),
    ("lambdas", (-1.0,),
     "lambdas: entries must be finite and nonnegative, got [-1.0]"),
    ("allow_zero_kappa0", "no", "allow_zero_kappa0: must be true or false"),
])
def test_run_config_checks_the_keys_only_the_cli_checked(field, value,
                                                          message):
    # each of these once built a RunConfig; the message is the corpus
    # text without its section
    with pytest.raises(ConfigError) as exc_info:
        RunConfig(grid=AgeGrid(dx=0.01, n_cells=400),
                  model=ConstantRate(k0=1.0), **{field: value})
    assert exc_info.value.errors == [message]


def test_run_config_lists_every_bad_field_in_config_order():
    with pytest.raises(ConfigError) as exc_info:
        RunConfig(grid=AgeGrid(dx=0.01, n_cells=400),
                  model=ConstantRate(k0=1.0), q=-1.0, lambdas=(_NAN,),
                  allow_zero_kappa0=1, window=(1.0,), f0="flat",
                  record_every=0, t_end=-2.0)
    assert [field for field, _ in exc_info.value.problems] == [
        "t_end", "record_every", "f0", "window", "allow_zero_kappa0",
        "lambdas", "q"]


# the drift guard: parse_config refuses a value exactly when the
# constructor that owns it does, and words each problem as that
# constructor, named by section.key.  A JSON value that is not a
# number is the CLI's to report; the constructor then sees -inf, which
# no range admits, in its place.

# a value that no field takes: negative, zero, infinite, NaN, bool or str
_BAD = st.one_of(st.floats(-5.0, -0.01), st.just(0.0), st.just(_INF),
                 st.just(_NAN), st.booleans(), st.sampled_from(["fast", "2"]))


def _is_json_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _seen(v):
    return float(v) if _is_json_number(v) else -_INF


_SCALE = st.floats(0.1, 3.0)
_MODEL_VALUES = {
    "constant": {"k0": _SCALE, "lambda": st.floats(0.0, 2.0)},
    "smooth": {"k0": _SCALE, "k1": _SCALE, "lambda": st.floats(0.0, 2.0),
               "mu_scale": _SCALE, "x_scale": _SCALE},
    "step": {"sigma_plus": st.floats(0.05, 1.2),
             "sigma_minus": st.floats(0.05, 1.2),
             "lambda": st.floats(0.0, 2.0), "decay": _SCALE},
}
_KERNEL_VALUES = {"exponential": {"theta": st.floats(0.5, 5.0)},
                  "gamma": {"shape": st.floats(0.5, 4.0),
                            "rate": st.floats(0.5, 5.0)}}
_RUN_VALUES = {"t_end": st.floats(0.5, 50.0),
               "record_every": st.integers(1, 20),
               "f0": st.sampled_from(["uniform01", "exp2", "spike"]),
               "window": st.tuples(st.floats(0.0, 10.0),
                                   st.floats(0.5, 30.0)).map(
                   lambda w: [w[0], w[0] + w[1]]),
               "allow_zero_kappa0": st.booleans()}


def _constructor_problems(build, names, raw=None):
    """The problems of build() as parse_config names them: names maps a
    field to its section.key; a number key whose JSON value in raw is
    not a number reads the type text."""
    try:
        build()
    except ConfigError as exc:
        out = []
        for field, message in exc.problems:
            if raw is not None and not _is_json_number(raw.get(field, 0)):
                message = f"expected a number, got {raw[field]!r}"
            message = message.replace(" k0 = ", " model.k0 = ").replace(
                " sigma_plus = ", " model.sigma_plus = ")
            out.append(f"{names[field]}: {message}")
        return out
    return []


def _expected_problems(config):
    grid, model, kernel = config["grid"], config["model"], config["kernel"]
    run, lambdas, q = config["run"], config["sweep"]["lambdas"], config["q"]
    dx, x_max = _seen(grid["dx"]), _seen(grid["x_max"])
    try:
        n_cells = round(x_max / dx)
    except (ArithmeticError, ValueError):
        n_cells = 2
    problems = _constructor_problems(
        lambda: AgeGrid(dx=dx, n_cells=n_cells),
        {"dx": "grid.dx", "n_cells": "grid.x_max"}, {"dx": grid["dx"]})
    if not math.isfinite(x_max):
        problems.append("grid.x_max: " + (
            "must be finite" if _is_json_number(grid["x_max"])
            else f"expected a number, got {grid['x_max']!r}"))
    family = {"constant": ConstantRate, "smooth": SmoothSaturatingRate,
              "step": StepRate}[model["kind"]]
    fields = {("lam" if key == "lambda" else key): value
              for key, value in model.items() if key != "kind"}
    problems += _constructor_problems(
        lambda: family(**{f: _seen(v) for f, v in fields.items()}),
        {f: "model." + ("lambda" if f == "lam" else f) for f in fields},
        fields)
    theta = kernel.get("theta", kernel.get("rate"))
    problems += _constructor_problems(
        lambda: DelayKernel(kind=kernel["kind"], theta=_seen(theta),
                            shape=_seen(kernel.get("shape", 1.0))),
        {"theta": "kernel." + ("theta" if "theta" in kernel else "rate"),
         "shape": "kernel.shape"})
    if not isinstance(lambdas, list):
        problems.append("sweep.lambdas: expected a list of couplings")
        lambdas = []
    window = run["window"]
    problems += _constructor_problems(
        lambda: RunConfig(
            grid=None, model=None, t_end=_seen(run["t_end"]),
            record_every=run["record_every"], f0=run["f0"],
            window=tuple(window) if isinstance(window, list) else window,
            allow_zero_kappa0=run["allow_zero_kappa0"],
            lambdas=tuple(lambdas), q=_seen(q)),
        {**{key: f"run.{key}" for key in _RUN_VALUES},
         "lambdas": "sweep.lambdas", "q": "q"},
        {"t_end": run["t_end"]})
    return problems


@st.composite
def _configs(draw):
    """A config with a valid value for each field, and up to four of
    them (the x_max and q slots included) replaced by a bad value."""
    kind = draw(st.sampled_from(sorted(_MODEL_VALUES)))
    kernel = draw(st.sampled_from(sorted(_KERNEL_VALUES)))
    slots = {("grid", "dx"): st.sampled_from([0.01, 0.02, 0.05]),
             ("grid", "x_max"): st.sampled_from([2.0, 4.0]),
             **{("model", key): valid
                for key, valid in _MODEL_VALUES[kind].items()},
             **{("kernel", key): valid
                for key, valid in _KERNEL_VALUES[kernel].items()},
             **{("run", key): valid for key, valid in _RUN_VALUES.items()},
             ("sweep", "lambdas"): st.lists(st.floats(0.0, 2.0), max_size=2),
             ("q", None): st.floats(0.0, 3.0)}
    bad = draw(st.sets(st.sampled_from(sorted(slots, key=str)), max_size=4))
    config = {"grid": {}, "model": {"kind": kind}, "kernel": {"kind": kernel},
              "run": {}, "sweep": {}}
    for (section, key), valid in slots.items():
        value = draw(_BAD if (section, key) in bad else valid)
        if key is None:
            config[section] = value
        elif key == "lambdas" and (section, key) in bad:
            # a bad entry in a list, or a bad value in place of the list
            config[section][key] = draw(st.sampled_from(
                [[0.5, value], value]))
        else:
            config[section][key] = value
    return config


@settings(max_examples=300, deadline=None)
@given(config=_configs())
def test_the_cli_refuses_exactly_what_the_constructors_refuse(
        tmp_path_factory, config):
    path = tmp_path_factory.mktemp("drift") / "config.json"
    path.write_text(json.dumps(config))
    expected = _expected_problems(config)
    try:
        parsed = parse_config(path)
    except ConfigError as exc:
        assert exc.errors == expected
    else:
        assert expected == []
        assert parsed.model.lam == config["model"]["lambda"]
        assert parsed.grid.x_max == pytest.approx(config["grid"]["x_max"])
        assert parsed.t_end == config["run"]["t_end"]
        assert parsed.q == config["q"]


@pytest.mark.parametrize("block, model", [
    ({"kind": "constant", "k0": 1.5, "lambda": 0.25},
     ConstantRate(k0=1.5, lam=0.25)),
    ({"kind": "smooth", "k0": 0.4, "k1": 2.5, "lambda": 0.7,
      "mu_scale": 1.3, "x_scale": 0.8},
     SmoothSaturatingRate(k0=0.4, k1=2.5, lam=0.7, mu_scale=1.3,
                          x_scale=0.8)),
    ({"kind": "step", "sigma_plus": 0.6, "sigma_minus": 0.2, "lambda": 0.3,
      "decay": 2.0},
     StepRate(sigma_plus=0.6, sigma_minus=0.2, lam=0.3, decay=2.0)),
], ids=["constant", "smooth", "step"])
def test_every_model_key_reaches_the_dataclass(tmp_path, block, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": block}))
    assert parse_config(path).model == model


@pytest.mark.parametrize("block, kernel", [
    ({"kind": "exponential", "theta": 3.0},
     DelayKernel.exponential(theta=3.0)),
    ({"kind": "exponential"}, DelayKernel.exponential(theta=2.0)),
    ({"kind": "gamma", "shape": 3.0, "rate": 1.5},
     DelayKernel.gamma(shape=3.0, rate=1.5)),
    ({"kind": "gamma"}, DelayKernel.gamma(shape=2.0, rate=2.0)),
], ids=["exponential", "exponential-defaults", "gamma", "gamma-defaults"])
def test_every_kernel_key_reaches_the_dataclass(tmp_path, block, kernel):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"kernel": block}))
    assert parse_config(path).kernel == kernel


def test_parse_rejects_malformed_json_and_geometry(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    off_grid = _write_config(tmp_path, {"grid": {"dx": 0.3, "x_max": 1.0}})
    with pytest.raises(ConfigError, match="integer multiple"):
        parse_config(off_grid)


def test_parse_builds_kernels(tmp_path):
    path = _write_config(tmp_path, {
        "kernel": {"kind": "gamma", "shape": 2.0, "rate": 2.0}})
    cfg = parse_config(path)
    assert cfg.kernel.kind == "gamma"
    path2 = _write_config(tmp_path, {
        "kernel": {"kind": "sampled", "y": [0.0, 1.0, 2.0],
                   "b": [0.0, 1.0, 0.0]}}, name="sampled.json")
    assert parse_config(path2).kernel.kind == "sampled"
    path3 = _write_config(tmp_path, {
        "kernel": {"kind": "sampled", "y": [0.0, 1.0, 2.0],
                   "b": [0.0, 3.0, 0.0]}}, name="unnorm.json")
    with pytest.raises(ConfigError, match="normalize"):
        parse_config(path3)


def test_fmt_writes_twelve_significant_digits():
    assert _fmt(None) == ""
    assert _fmt(1.0) == "1"
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(1.5e-13) == "1.5e-13"


# ---------------------------------------------------------------------------
# subcommands

def test_simulate_writes_deterministic_trace(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == "t,m,p,mass,l1_dist,linf,l1q"
    assert len(lines) == 12  # header plus 11 samples
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"  # constant rate: activity is k0 from the start
    assert first[3] == "1"
    assert "wrote" in capsys.readouterr().out


def test_steady_state_command(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "profile.csv"
    assert main(["steady-state", "--config", str(cfg),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    m_line = next(line for line in printed.splitlines()
                  if line.startswith("M = "))
    assert float(m_line.split("=")[1]) == pytest.approx(1.0, abs=1e-9)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,F"
    assert len(lines) == 401


def test_spectrum_command_plain(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"grid": {"dx": 0.05, "x_max": 4.0}})
    eigs = tmp_path / "eigs.csv"
    kern = tmp_path / "kernel.csv"
    assert main(["spectrum", "--config", str(cfg), "--eigs-out", str(eigs),
                 "--kernel-out", str(kern)]) == 0
    printed = capsys.readouterr().out
    assert "spectral gap = " in printed
    # the 16 leading modes, one more to keep the last conjugate pair
    # whole, the exact zero mode first
    lines = eigs.read_text().splitlines()
    assert len(lines) == 18
    assert lines[1] == "0,0"
    assert len(kern.read_text().splitlines()) == 81


@pytest.mark.parametrize("kernel", [
    {"kind": "exponential", "theta": 2.0},
    {"kind": "gamma", "shape": 2.0, "rate": 4.0},
], ids=["exponential", "gamma"])
def test_spectrum_command_with_delay_matches_dirac(tmp_path, capsys, kernel):
    # with the rates frozen at M the delay kernel never feeds back, so a
    # delayed config has the Dirac config's spectrum, byte for byte
    eigs, kern = tmp_path / "eigs.csv", tmp_path / "kernel.csv"
    outputs = []
    for name, block in (("dirac", {"kind": "dirac"}), ("delay", kernel)):
        cfg = _write_config(tmp_path, {"grid": {"dx": 0.05, "x_max": 4.0},
                                       "kernel": block}, name=f"{name}.json")
        assert main(["spectrum", "--config", str(cfg), "--eigs-out",
                     str(eigs), "--kernel-out", str(kern)]) == 0
        captured = capsys.readouterr()
        outputs.append((eigs.read_bytes(), kern.read_bytes(), captured.out,
                        captured.err))
    (d_eigs, d_kern, d_out, d_err), (eigs_b, kern_b, out, err) = outputs
    assert (eigs_b, kern_b, out) == (d_eigs, d_kern, d_out)
    assert d_err == ""
    assert err.startswith(f"note: the {kernel['kind']} delay kernel")
    assert "the activity feedback d_m k" in err


def test_spectrum_runs_on_the_default_grid(tmp_path, capsys):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(default_config()))
    eigs = tmp_path / "eigs.csv"
    assert main(["spectrum", "--config", str(cfg),
                 "--eigs-out", str(eigs)]) == 0
    lines = eigs.read_text().splitlines()
    assert lines[0] == "re,im" and lines[1] == "0,0"
    assert 16 <= len(lines) - 1 <= 17
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("k0", [1.0, 0.1])
def test_spectrum_on_a_long_age_horizon(tmp_path, capsys, k0):
    # x_max = 50 is the 5/k0 rule of thumb at k0 = 0.1; the nonzero
    # modes sit just left of Re = -k0
    cfg = _write_config(tmp_path, {"grid": {"dx": 0.1, "x_max": 50.0},
                                   "model": {"kind": "constant", "k0": k0}})
    eigs = tmp_path / "eigs.csv"
    assert main(["spectrum", "--config", str(cfg),
                 "--eigs-out", str(eigs)]) == 0
    printed = capsys.readouterr().out
    gap = float(printed.split("spectral gap = ")[1].split()[0])
    assert -k0 - 0.01 < gap < -k0
    assert 16 <= len(eigs.read_text().splitlines()) - 1 <= 17


def _load_benchmark_oracle():
    # the benchmark's independent spectrum check, loaded read-only from
    # perfbench/ (not a package)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_csv(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([[float(v) for v in row] for row in rows])


@pytest.mark.parametrize("model, dx, kernel", [
    ({"kind": "step", "sigma_plus": 0.5, "sigma_minus": 0.25,
      "lambda": 0.3, "decay": 1.0}, 0.01, None),
    ({"kind": "smooth", "k0": 0.5, "k1": 2.0, "lambda": 0.6,
      "mu_scale": 1.0, "x_scale": 1.0}, 0.01, None),
    ({"kind": "smooth", "k0": 0.5, "k1": 2.0, "lambda": 0.55,
      "mu_scale": 1.0, "x_scale": 1.0}, 0.016,
     {"kind": "exponential", "theta": 2.8}),
], ids=["step", "smooth", "smooth-delay"])
def test_spectrum_passes_the_benchmark_oracle(tmp_path, capsys, model, dx,
                                              kernel):
    # shaped like the benchmark's spectrum cases: 1000 cells, and a
    # delayed config on 625 cells
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps({"grid": {"dx": dx, "x_max": 10.0},
                               "model": model,
                               "kernel": kernel or {"kind": "dirac"}}))
    eigs, kern = tmp_path / "eigs.csv", tmp_path / "kernel.csv"
    assert main(["spectrum", "--config", str(cfg), "--eigs-out", str(eigs),
                 "--kernel-out", str(kern)]) == 0
    table = _read_csv(eigs)
    problems = _load_benchmark_oracle().check_spectrum(
        model, dx, round(10.0 / dx), table[:, 0] + 1j * table[:, 1],
        _read_csv(kern)[:, 1])
    assert problems == []


def test_sweep_constant_family(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"sweep": {"lambdas": [0.0, 0.7]}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,M,xi,gap,alpha,r2,unique,status,detail"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "0.7"]
    # a constant rate never feels the coupling: identical physics per row
    assert rows[0][1:] == rows[1][1:]
    assert rows[0][1] == "1"  # M = k0
    assert rows[0][6] == "1" and rows[0][7] == "ok"
    assert rows[0][8] == ""   # an ok row carries no detail
    # the discrete relaxation rate of a constant rate is exactly -k0
    assert float(rows[0][4]) == pytest.approx(-1.0, abs=1e-9)
    assert float(rows[0][5]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_is_deterministic_in_input_order(tmp_path, capsys):
    path = tmp_path / "step.json"
    path.write_text(json.dumps({
        "grid": {"dx": 0.01, "x_max": 4.0},
        "model": {"kind": "step", "sigma_plus": 0.5, "sigma_minus": 0.25},
        "run": {"t_end": 3.0, "record_every": 10, "window": [0.5, 3.0]},
        "sweep": {"lambdas": [0.8, 0.0, 0.3]},
    }))
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = [line.split(",") for line in outs[0].decode().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.8", "0", "0.3"]
    assert all(r[7] == "ok" for r in rows)


def test_sweep_requires_lambdas(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "sweep.lambdas" in capsys.readouterr().err


def test_sweep_rejects_a_window_after_t_end_before_any_run(
        tmp_path, capsys, monkeypatch):
    # x_max 8 past t_end 5: no mass reaches the age horizon in simulate
    cfg = _write_config(tmp_path, {"grid": {"dx": 0.01, "x_max": 8.0},
                                   "run": {"t_end": 5.0,
                                           "window": [12.0, 30.0]},
                                   "sweep": {"lambdas": [0.0, 0.7]}})
    out = tmp_path / "s.csv"

    def never(*args, **kwargs):
        raise AssertionError("the sweep simulated a bad window")

    monkeypatch.setattr(cli, "regime_scan", never)
    monkeypatch.setattr(cli, "run", never)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run.window" in err and "run.t_end" in err
    assert not out.exists()
    # simulate ignores the window, so the same config is valid there
    monkeypatch.undo()
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "t.csv")]) == 0


def _crafted_config(model, grid):
    return RunConfig(grid=grid, model=model, kernel=DelayKernel.dirac(),
                     t_end=1.0, record_every=10, f0="uniform01",
                     window=(0.2, 1.0), allow_zero_kappa0=False,
                     lambdas=(1.0,), q=1.0)


def _four_plateau_model():
    def sigma(u):
        if u < 0.3:
            return 0.5
        if u < 0.6:
            return 0.9
        if u < 0.9:
            return 0.15
        return 0.05

    return StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0, decay=1.0,
                    sigma=sigma, sigma_modulus=10.0)


def test_sweep_row_statuses():
    grid = AgeGrid(dx=0.01, n_cells=400)
    cfg = _crafted_config(ConstantRate(k0=1.0), grid)
    row = cli._sweep_row(cfg, ScanRow(lam=0.3, roots=(), unique=False))
    assert row["status"] == "no-steady-state"
    assert row["detail"] == "no stationary activity at this coupling"
    assert row["M"] is None and row["alpha"] is None

    amb_cfg = _crafted_config(_four_plateau_model(),
                              AgeGrid(dx=0.01, n_cells=200))
    # the row reads its M from the scan row and solves no second time,
    # so no second root search warns of several roots
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = cli._sweep_row(amb_cfg, ScanRow(lam=1.0, roots=(0.5,),
                                              unique=True))
    assert row["status"] == "ambiguous"
    assert row["detail"].startswith("the implicit activity admits")
    # ambiguity wipes every numeric column, including ones already set
    assert all(row[k] is None
               for k in ("M", "xi", "gap", "alpha", "r2", "unique"))


def test_sweep_xi_uses_the_grid_horizon():
    # x_max = 5: the horizon's slope gives xi 1.80, not the 4.05 of the
    # default x_max = 10
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.3)
    grid = AgeGrid(dx=0.02, n_cells=250)
    scan = agenet.regime_scan(model, [0.3], grid)
    row = cli._sweep_row(_crafted_config(model, grid), scan[0])
    assert row["status"] == "ok"
    assert grid.x_max != 10.0
    assert row["xi"] == agenet.estimate_xi(model, x_max=grid.x_max).xi
    assert row["xi"] != agenet.estimate_xi(model).xi


def test_sweep_row_freezes_the_spectrum_at_the_printed_root(monkeypatch):
    # the gap is the spectrum's at the scan's root, the M that the row
    # prints, with the profile of solve_steady_state at that M
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.3)
    grid = AgeGrid(dx=0.02, n_cells=250)
    scan = agenet.regime_scan(model, [0.3], grid)
    frozen, spectrum = [], cli.spectrum

    def spy(model, grid, steady):
        frozen.append(steady)
        return spectrum(model, grid, steady)

    def never(*args):
        raise AssertionError("the sweep solved for M a second time")
    monkeypatch.setattr(cli, "spectrum", spy)
    monkeypatch.setattr(cli, "solve_steady_state", never)
    row = cli._sweep_row(_crafted_config(model, grid), scan[0])
    assert row["status"] == "ok"
    steady, = frozen
    assert steady.M == row["M"] == scan[0].roots[0]
    # one builder of the stationary pair serves the sweep and the solve,
    # whose 200-cell search lands one ulp from this 400-cell scan's root
    assert np.array_equal(
        steady.F, agenet.steady_state_at(model, grid, row["M"]).F)
    solved = agenet.solve_steady_state(model, grid)
    assert np.array_equal(
        solved.F, agenet.steady_state_at(model, grid, solved.M).F)


def test_uncertified_spectrum_exits_1_and_marks_the_sweep_row(
        tmp_path, capsys, monkeypatch):
    def uncertified(model, grid, steady):
        raise SpectrumCountError(
            "the argument principle counts 5 roots,\nNewton locates 4")

    monkeypatch.setattr(cli, "spectrum", uncertified)
    cfg = _write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg)]) == 1
    assert "error: the argument principle" in capsys.readouterr().err
    grid = AgeGrid(dx=0.01, n_cells=400)
    row = cli._sweep_row(_crafted_config(ConstantRate(k0=1.0), grid),
                         ScanRow(lam=0.0, roots=(1.0,), unique=True))
    assert row["status"] == "error"
    assert row["detail"] == ("the argument principle counts 5 roots,\n"
                             "Newton locates 4")
    # the sweep CSV keeps the message on one line, in one field
    cfg = _write_config(tmp_path, {"sweep": {"lambdas": [0.0]}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["status"] == "error"
    assert row["detail"] == ("the argument principle counts 5 roots; "
                             "Newton locates 4")


def test_decay_fit_command(tmp_path, capsys):
    t = np.linspace(0.0, 10.0, 21)
    trace = tmp_path / "trace.csv"
    trace.write_text("t,l1_dist\n" + "\n".join(
        f"{ti},{np.exp(-0.5 * ti)}" for ti in t) + "\n")
    out = tmp_path / "fit.csv"
    assert main(["decay-fit", "--trace", str(trace), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    alpha_line = next(line for line in printed.splitlines()
                      if line.startswith("alpha = "))
    assert float(alpha_line.split("=")[1]) == pytest.approx(-0.5, abs=1e-9)
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,C,r2,t0,t1,n_points"
    assert len(lines) == 2


def test_the_trace_reader_reads_what_genfromtxt_reads(tmp_path):
    # a simulate trace, columns in their order, read bit for bit as
    # np.genfromtxt reads it: both round each field correctly
    config = _write_config(tmp_path, {"model": {
        "kind": "smooth", "k0": 0.5, "k1": 2.0, "lambda": 0.6}})
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out",
                 str(trace)]) == 0
    times, dist = cli._read_trace(trace)
    data = np.genfromtxt(trace, delimiter=",", names=True)
    assert times.size == 11
    assert times.tobytes() == data["t"].tobytes()
    assert dist.tobytes() == data["l1_dist"].tobytes()


def test_decay_fit_rejects_bad_traces(tmp_path, capsys):
    # a bad trace is not a config problem: stderr reads "error: ..."
    no_t = tmp_path / "not.csv"
    no_t.write_text("time,l1_dist\n0,1\n1,0.5\n")
    assert main(["decay-fit", "--trace", str(no_t)]) == 1
    assert capsys.readouterr().err == (
        f"error: {no_t}: not a trace CSV (no t column)\n")
    no_col = tmp_path / "nocol.csv"
    no_col.write_text("t,dist\n0,1\n1,0.5\n2,0.25\n")
    assert main(["decay-fit", "--trace", str(no_col)]) == 1
    assert capsys.readouterr().err == f"error: {no_col}: no l1_dist column\n"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["decay-fit", "--trace", str(empty)]) == 1
    assert capsys.readouterr().err == (
        f"error: {empty}: empty file, not a trace CSV\n")
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,l1_dist\n")
    assert main(["decay-fit", "--trace", str(header_only)]) == 1
    assert capsys.readouterr().err == (
        f"error: {header_only}: a header but no rows\n")
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("t,l1_dist\n0,1\n1,\n2,0.25\n")
    assert main(["decay-fit", "--trace", str(gappy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gappy}: ") and "non-finite" in err
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,l1_dist\n0,1\n1\n2,0.25\n")
    assert main(["decay-fit", "--trace", str(ragged)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ragged}: a row has 1 fields, the header 2\n")
    ok = tmp_path / "ok.csv"
    ok.write_text("t,l1_dist\n0,1\n1,0.5\n2,0.25\n")
    assert main(["decay-fit", "--trace", str(ok),
                 "--window", "1.9", "2.0"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("section, key, problem", [
    ("grid", "x_max", "grid.x_max: must be finite"),
    ("grid", "dx", "grid.dx: must be finite"),
    ("model", "k0", "model.k0: must be finite"),
    ("run", "t_end", "run.t_end: must be finite"),
])
def test_an_integer_too_large_for_a_float_is_a_config_error(
        tmp_path, capsys, section, key, problem):
    # json reads 1 followed by 400 zeros as an int that no float holds;
    # it reads as infinite, which the field's own rule refuses
    bad = _write_config(tmp_path, {section: {key: 10 ** 400}})
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert f"config error: {problem}\n" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["y", "b"])
def test_a_sampled_kernel_entry_too_large_for_a_float_is_a_config_error(
        tmp_path, capsys, key):
    # the entry reads as infinite, so the samples' mass is infinite too
    kernel = {"kind": "sampled", "y": [0, 0.5, 1], "b": [0, 2, 0]}
    kernel[key] = kernel[key][:2] + [10 ** 400]
    bad = _write_config(tmp_path, {"kernel": kernel})
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == (
        "config error: kernel: sampled kernel mass inf is not 1 within "
        "1e-8; normalize the samples first\n")


def test_too_large_couplings_and_windows_read_as_infinite(tmp_path, capsys):
    bad = _write_config(tmp_path, {"sweep": {"lambdas": [0.1, 10 ** 400]}})
    assert main(["sweep", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: sweep.lambdas: entries must be finite")
    config = parse_config(_write_config(
        tmp_path, {"run": {"window": [0.5, 10 ** 400]}}))
    assert config.window == (0.5, math.inf)


def test_exit_one_on_config_problems(tmp_path, capsys):
    bad = _write_config(tmp_path, {"grid": {"dx": -0.5}})
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    # the activity solve's tolerance and cap are no longer config keys
    for key, value in (("fixed_point_tol", 1e-12),
                       ("fixed_point_max_iter", 200)):
        old = _write_config(tmp_path, {"run": {key: value}})
        assert main(["simulate", "--config", str(old),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert (f"run.{key}: unknown key (known: {_KNOWN_RUN})"
                in capsys.readouterr().err)
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_one_on_usage_errors():
    with pytest.raises(SystemExit) as exc_info:
        main(["bogus-subcommand"])
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate"])  # missing --config/--out
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1


def test_exit_two_on_invariant_violation(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def explode(config, f0, steady=None):
        raise InvariantViolationError("mass drifted off 1", {"t": 0.1})

    monkeypatch.setattr(cli, "run", explode)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_exit_three_on_ambiguous_activity(tmp_path, capsys, monkeypatch):
    # no JSON-expressible model reaches this branch (the built-in
    # families give monotone activity maps), so inject a crafted config
    crafted = _crafted_config(_four_plateau_model(),
                              AgeGrid(dx=0.01, n_cells=200))
    monkeypatch.setattr(cli, "parse_config", lambda path: crafted)
    dummy = _write_config(tmp_path)
    assert main(["simulate", "--config", str(dummy),
                 "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "activity solver" in err
    assert "2 solutions" in err
