"""Layer cost: the time one layer of agenet takes, in fresh interpreters.

    python3 tools/layer_cost.py LAYER [SRC ...] [--rounds 7] [--calls N]
                                [--steps N]

LAYER is import, step, steady, xi, equilibrium or spectrum, the function
below whose docstring says what it times.  Each SRC is the `src`
directory of a checkout (default: this checkout's).  Each round runs the
layer once per SRC in a fresh interpreter, the order rotating from round
to round, so trees given together run in alternating pairs.  A layer
returns its timings and its outputs that do not depend on time; a tree
whose interpreter imported agenet from elsewhere, or whose outputs
differ between rounds, is refused.  A layer that does not read
`--calls` or `--steps` refuses it.  Prints one JSON object: the host,
and per SRC the median, quartiles (from two rounds) and per-round value
of every timing, and the outputs once, so trees compare for equal output.
A figure that is the median of N calls is the median of the mean call
time over min(N, 20) batches that make exactly N calls between them,
so the clock's own cost stays out of a µs-scale call.
Each SRC after the first also gets `ratio_to_first`: per round, each
timing over the first SRC's timing in the same round, summarized the
same way.  The host's speed moves from round to round, and a ratio of
two runs made back to back cancels most of that drift.
"""

# The import layer times `import agenet, agenet.cli` as perfbench's
# setup_s does, after loading no more than sys and time: so this module
# imports nothing else at top level, and each layer imports agenet.
import os
import sys
from time import perf_counter

TOOLS = os.path.dirname(os.path.realpath(__file__))
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import layer_cost; "
         "layer_cost.child(*sys.argv[3:])")
# the round that this interpreter runs, which child() sets from the
# `round` that main() passes to every child; a layer may read it to vary
# its order from round to round
ROUND = 0


def _families():
    # the step layer's three family models
    import agenet
    return {
        "constant": agenet.ConstantRate(k0=1.0),
        "step": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
        "smooth": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    }


# _median_s times at most this many batches of calls
_BATCHES = 20


def _median_s(fn, calls):
    # the median seconds per call of fn over min(calls, _BATCHES)
    # batches that make `calls` calls between them: a batch of many fast
    # calls keeps the clock's own cost out of each call's time
    from statistics import median
    batches = min(calls, _BATCHES)
    times = []
    for b in range(batches):
        size = (calls + b) // batches   # the sizes sum to calls
        t = perf_counter()
        for _ in range(size):
            fn()
        times.append((perf_counter() - t) / size)
    return median(times)


def agenet_import():
    """import: seconds for a fresh interpreter's `import agenet,
    agenet.cli`; the output is the scipy modules that import loaded."""
    t = perf_counter()
    import agenet, agenet.cli  # noqa: E401, F401
    seconds = perf_counter() - t
    return {"import_s": seconds}, {"scipy_modules": sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}


def step(*, steps=2000):
    """step: microseconds at 10k cells (dx 1e-3).  `run_step_us`: on
    `uniform01`, whose support starts on the youngest tenth of the
    mesh, and on `exp2`, whose support is the whole mesh, for each
    family model under the Dirac, exponential (theta 2) and gamma
    (shape 2, rate 4) kernels, the wall time of `run()` for `steps`
    steps, recording once at the end, over its steps, after one untimed
    run of a tenth as many.  `advance_us`: the median of 500
    calls of the transport kernel alone, `evolution._transport`, on
    `uniform01` at its activity with the bound stepper, as run() calls
    it: the density is a window that slides one cell per call through
    a buffer of 2n cells, decaying further with each call, and each
    call hands the next the cell sum it returns and the density's
    front, one cell further on, with the tail that run() keeps of a
    run family's density (none for the smooth family).
    `solve_activity_implicit_us`: the median of 200 cold public calls on
    that density.  `warm_solve_us`: the median of 2000 calls of
    `stepper.solve(values, total, m, tail)` on the Dirac run's final
    density from `uniform01`, its cell sum and last activity, with the
    tail that run() would keep of it, the call run() makes on every
    Dirac step.  The outputs are each run's last activity
    and discharge, and each warm solve's (m, iterations, method).
    Paired comparisons of this layer need `--rounds 15` or more: on a
    2-core host the per-round ratios of two trees' `run_step_us` ranged
    from 0.31 to 2.0 within one 7-round run."""
    import agenet
    from agenet import evolution
    dx, cells = 1e-3, 10_000
    grid = agenet.AgeGrid(dx=dx, n_cells=cells)
    densities = {name: agenet.preset_density(grid, name)
                 for name in ("uniform01", "exp2")}
    f0 = densities["uniform01"]
    kernels = {"dirac": agenet.DelayKernel.dirac(),
               "exponential": agenet.DelayKernel.exponential(theta=2.0),
               "gamma": agenet.DelayKernel.gamma(shape=2.0, rate=4.0)}
    families = _families()

    def config(model, kernel, n):
        return agenet.SimulationConfig(grid=grid, model=model, kernel=kernel,
                                       t_end=n * dx, record_every=n)

    step_us, last, settled = {}, {}, {}
    for name, start in densities.items():
        step_us[name], last[name] = {}, {}
        for fam, model in families.items():
            step_us[name][fam], last[name][fam] = {}, {}
            for ker, kernel in kernels.items():
                agenet.run(config(model, kernel, max(1, steps // 10)), start)
                cfg = config(model, kernel, steps)
                t = perf_counter()
                trace = agenet.run(cfg, start)
                step_us[name][fam][ker] = (perf_counter() - t) / steps * 1e6
                last[name][fam][ker] = [repr(float(trace.m_series[-1])),
                                        repr(float(trace.p_series[-1]))]
                if ker == "dirac" and start is f0:
                    settled[fam] = (trace.final_state.values,
                                    float(trace.m_series[-1]))

    advance_us = {fam: _advance_us(model, grid, f0.values)
                  for fam, model in families.items()}
    solve_us = {}
    for fam, model in families.items():
        solve_us[fam] = _median_s(lambda: agenet.solve_activity_implicit(
            model, grid, f0.values), 200) * 1e6
    warm_us, warm = {}, {}
    for fam, model in families.items():
        values, m = settled[fam]
        total = agenet.cell_sum(values)
        stepper = model.stepper(grid)
        solve = stepper.solve
        tail = evolution._bind_tail(stepper, values, m)
        m_warm, iterations, method = solve(values, total, m, tail)
        warm[fam] = [repr(float(m_warm)), iterations, method]
        warm_us[fam] = _median_s(lambda: solve(values, total, m, tail),
                                 2000) * 1e6
    return ({"run_step_us": step_us, "advance_us": advance_us,
             "solve_activity_implicit_us": solve_us,
             "warm_solve_us": warm_us},
            {"last_m_p": last, "warm_solve": warm})


def _advance_us(model, grid, values):
    # the median µs of 500 calls of the kernel as run() calls it:
    # _transport(buf, s, window, total, stepper, m, t, live, tail) on
    # the window buf[s:s + n], which slides one cell toward the start of
    # buf per call (500 calls stay short of the start, and of a tail's
    # fold), carrying the cell sum, the front and the tail that run()
    # keeps
    import numpy as np
    import agenet
    from agenet import evolution
    cells = grid.n_cells
    m = agenet.solve_activity_implicit(model, grid, values).m
    stepper = model.stepper(grid)
    buf = np.empty(2 * cells)
    buf[cells:] = values
    carried = {"s": cells, "total": agenet.cell_sum(values),
               "live": evolution._front(values)}
    tail = evolution._bind_tail(stepper, buf[cells:], m)

    def transport():
        s, live = carried["s"], carried["live"]
        _, carried["total"] = evolution._transport(
            buf, s, buf[s:s + cells], carried["total"], stepper, m, 0.0,
            live, tail)
        carried["s"] = s - 1
        if live is not None:
            carried["live"] = live + 1 if live + 1 < cells else None
    return _median_s(transport, 500) * 1e6


def steady(*, calls=5):
    """steady: milliseconds per `solve_steady_state` call and per
    `regime_scan(model, [lam], grid)` row, both with their defaults, at
    1000 and 10k cells (x_max 10), on seven models.  The models take
    turns, each timing `calls` calls of each kind after one untimed one;
    round r starts from the model r places down the list, so no model
    always follows the same one.  `profile_us`: the median
    microseconds, over 200 calls, to bind `model.stepper(grid)` per
    model, the binding that each root search makes.  `evaluation_us`:
    the median microseconds, over 2000 calls, of one evaluation of the
    normalization integral (the stepper's `stationary_integral`) per
    model, at the solve's M.  The outputs are M, the scan's roots and
    the untimed call's evaluations (the calls of the integral that its
    root searches make)."""
    import functools
    import agenet
    from agenet import steady_state
    step = functools.partial(agenet.StepRate, sigma_plus=0.5,
                             sigma_minus=0.25)
    smooth = functools.partial(agenet.SmoothSaturatingRate, k0=0.5)
    models = {"constant": agenet.ConstantRate(k0=1.5),
              "step-0.3": step(lam=0.3), "step-1.5": step(lam=1.5),
              "smooth-0.6": smooth(k1=2.0, lam=0.6),
              "smooth-3": smooth(k1=2.0, lam=3.0),
              "smooth-8": smooth(k1=2.0, lam=8.0),
              "smooth-k1-6": smooth(k1=6.0, lam=0.6)}
    names = list(models)
    shift = ROUND % len(names)
    models = {name: models[name] for name in names[shift:] + names[:shift]}
    kinds = {
        "solve": lambda m, g: agenet.solve_steady_state(m, g).M,
        "scan_row": lambda m, g: agenet.regime_scan(m, [m.lam], g)[0].roots,
    }
    evaluations = [0]

    def count(fn):
        def counted(*args):
            evaluations[0] += 1
            return fn(*args)
        return counted

    # every root search passes the stepper's integral to
    # _stationary_roots, which counts the calls of its wrapper
    uncounted = steady_state._stationary_roots

    def counted(integral, *rest):
        return uncounted(count(integral), *rest)

    def evaluation(model, grid):
        integral = model.stepper(grid).stationary_integral
        M = agenet.solve_steady_state(model, grid).M
        return _median_s(lambda: integral(M), 2000) * 1e6

    ms, evals, values, profile_us, evaluation_us = {}, {}, {}, {}, {}
    for cells in (1000, 10000):
        grid = agenet.AgeGrid(dx=10.0 / cells, n_cells=cells)
        ms[cells], evals[cells], values[cells] = {}, {}, {}
        profile_us[cells] = {
            name: _median_s(lambda: model.stepper(grid), 200) * 1e6
            for name, model in models.items()}
        evaluation_us[cells] = {name: evaluation(model, grid)
                                for name, model in models.items()}
        for kind, fn in kinds.items():
            ms[cells][kind], evals[cells][kind] = {}, {}
            values[cells][kind] = {}
            for name, model in models.items():
                steady_state._stationary_roots = counted
                evaluations[0] = 0
                value = fn(model, grid)
                steady_state._stationary_roots = uncounted
                ms[cells][kind][name] = _median_s(
                    lambda: fn(model, grid), calls) * 1e3
                evals[cells][kind][name] = evaluations[0]
                values[cells][kind][name] = repr(value)
    return ({"ms": ms, "profile_us": profile_us,
             "evaluation_us": evaluation_us},
            {"evaluations": evals, "values": values})


def xi(*, calls=30):
    """xi: milliseconds per `estimate_xi` call for each rate family, at
    the `regime` draws' settings and at the defaults, each timing
    `calls` calls after one untimed one.  The outputs are the estimates."""
    import agenet
    families = {
        "constant": agenet.ConstantRate(k0=1.5, lam=0.3),
        "smooth": agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.3),
        "step": agenet.StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    }
    settings = {"regime_draw": lambda m: dict(
        samples=9, mu_range=(0.0, max(1.0, m.k1)), f_inf_scale=2.0),
        "defaults": lambda m: {}}
    ms, estimates = {}, {}
    for name, kwargs in settings.items():
        ms[name], estimates[name] = {}, {}
        for fam, model in families.items():
            kw = kwargs(model)
            est = agenet.estimate_xi(model, **kw)
            ms[name][fam] = _median_s(
                lambda: agenet.estimate_xi(model, **kw), calls) * 1e3
            estimates[name][fam] = [repr(est.xi), repr(est.lambda_weak),
                                    repr(est.lambda_strong)]
    return {"ms": ms}, {"estimates": estimates}


def equilibrium(*, calls=10):
    """equilibrium: milliseconds per `stepper_equilibrium` call on the
    step layer's family models at 10k cells (dx 1e-3), each timing
    `calls` calls after one untimed one.  The outputs are M."""
    import agenet
    grid = agenet.AgeGrid(dx=1e-3, n_cells=10_000)
    ms, M = {}, {}
    for fam, model in _families().items():
        M[fam] = repr(agenet.stepper_equilibrium(model, grid).M)
        ms[fam] = _median_s(
            lambda: agenet.stepper_equilibrium(model, grid), calls) * 1e3
    return {"ms": ms}, {"M": M}


def spectrum(*, calls=5):
    """spectrum: milliseconds per `spectrum(model, grid, steady)` call on
    the step layer's family models at 1000 cells (dx 1e-2), as in the
    spectrum workload, on the CLI's default config ("default": constant
    k0 = 1 at 10k cells, dx 1e-3), and on the smooth model at 10k cells
    ("smooth-10k", dx 1e-3, a `sweep` row's spectrum), each timing
    `calls` calls after one untimed one, at a stationary pair solved
    once.  The outputs are the gaps and, for the untimed call, the
    evaluations of chi it computed (calls of `linear_analysis._Chi._terms`
    and `_Chi._closed`), the calls it made for chi (of `_Chi.at`), which
    a point already computed answers for free, `walk`: the steps that
    its walks along paths (`linear_analysis._Path`) proposed, each a
    call for chi after the walk's first, and the steps they kept, each
    a sample past the first, `phases`: the evaluations computed under
    `linear_analysis._half_plane` ("lines", the count lines) and under
    `linear_analysis._complex_roots` ("rectangles", their sides, cuts
    and Newton's iteration), `newton`: those of them computed under
    `linear_analysis._newton`, and `splits`: the calls of
    `linear_analysis._Box.split`.  Each is wrapped by name, so trees
    that define these names pair."""
    import agenet
    from agenet import linear_analysis
    families = _families()
    cases = {fam: (model, agenet.AgeGrid(dx=1e-2, n_cells=1000))
             for fam, model in families.items()}
    cases["default"] = (agenet.ConstantRate(k0=1.0),
                        agenet.AgeGrid(dx=1e-3, n_cells=10_000))
    cases["smooth-10k"] = (families["smooth"],
                           agenet.AgeGrid(dx=1e-3, n_cells=10_000))
    chi = linear_analysis._Chi
    counted = {"evaluations": ("_terms", "_closed"), "calls": ("at",)}
    methods = {key: getattr(chi, key)
               for keys in counted.values() for key in keys}
    phases = {"lines": "_half_plane", "rectangles": "_complex_roots"}
    spans = {**phases, "newton": "_newton"}   # newton within rectangles
    count = dict.fromkeys([*counted, "proposed", "kept", *spans, "splits"], 0)
    searches = {key: getattr(linear_analysis, key) for key in spans.values()}
    box = linear_analysis._Box
    split = box.split

    def counting(name, method):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return method(*args, **kwargs)
        return wrapper

    def in_phase(name, search):
        # the evaluations computed while the search runs count under name
        def wrapper(*args, **kwargs):
            before = count["evaluations"]
            try:
                return search(*args, **kwargs)
            finally:
                count[name] += count["evaluations"] - before
        return wrapper

    path = linear_analysis._Path
    walk_path = path.__init__

    def walking(self, *args, **kwargs):
        # a walk that stops on a root proposed steps too, and kept none
        before = count["calls"]
        try:
            walk_path(self, *args, **kwargs)
        finally:
            count["proposed"] += max(count["calls"] - before - 1, 0)
        if self.s is not None:
            count["kept"] += len(self.s) - 1

    ms, gap, walk, by_phase, newton, splits = {}, {}, {}, {}, {}, {}
    counts = {name: {} for name in counted}
    for case, (model, grid) in cases.items():
        steady = agenet.solve_steady_state(model, grid)

        def call():
            return agenet.spectrum(model, grid, steady)
        count.update(dict.fromkeys(count, 0))
        for name, keys in counted.items():
            for key in keys:
                setattr(chi, key, counting(name, methods[key]))
        for name, key in spans.items():
            setattr(linear_analysis, key, in_phase(name, searches[key]))
        path.__init__ = walking
        box.split = counting("splits", split)
        gap[case] = repr(call().gap)
        path.__init__ = walk_path
        box.split = split
        for key, method in methods.items():
            setattr(chi, key, method)
        for key, search in searches.items():
            setattr(linear_analysis, key, search)
        for name in counted:
            counts[name][case] = count[name]
        walk[case] = {"proposed": count["proposed"], "kept": count["kept"]}
        by_phase[case] = {name: count[name] for name in phases}
        newton[case], splits[case] = count["newton"], count["splits"]
        ms[case] = _median_s(call, calls) * 1e3
    return {"ms": ms}, {"gap": gap, **counts, "walk": walk,
                        "phases": by_phase, "newton": newton,
                        "splits": splits}


LAYERS = {"import": agenet_import, "step": step, "steady": steady, "xi": xi,
          "equilibrium": equilibrium, "spectrum": spectrum}


def child(layer, *settings):
    """Run one layer here; print agenet's origin, numpy's version, the
    timings and the outputs as one JSON line.  The settings hold the
    layer's own and `round`, the round being run."""
    global ROUND
    given = {name: int(value)
             for name, value in (s.split("=") for s in settings)}
    ROUND = given.pop("round")
    timings, outputs = LAYERS[layer](**given)
    import json
    import agenet
    import numpy
    print(json.dumps([agenet.__file__, numpy.__version__, timings,
                      outputs]))


def _measure(layer, src, settings):
    import json
    import subprocess
    done = subprocess.run(
        [sys.executable, "-c", CHILD, src, TOOLS, layer,
         *(f"{name}={value}" for name, value in settings.items())],
        capture_output=True, text=True, timeout=1200, check=True)
    origin, numpy_version, timings, outputs = json.loads(
        done.stdout.strip().splitlines()[-1])
    if os.path.dirname(os.path.realpath(origin)) != os.path.join(src,
                                                                 "agenet"):
        raise SystemExit(f"imported agenet from {origin}, not {src}")
    return numpy_version, timings, outputs


def _summary(entries):
    # the per-round values of one timing, or of a dict of them, as the
    # median, the quartiles and the values
    import statistics
    if isinstance(entries[0], dict):
        return {key: _summary([e[key] for e in entries])
                for key in entries[0]}
    out = {"p50": round(statistics.median(entries), 4)}
    if len(entries) > 1:
        q1, _, q3 = statistics.quantiles(entries, n=4, method="inclusive")
        out = {"p25": round(q1, 4), **out, "p75": round(q3, 4)}
    return {**out, "by_round": [round(v, 4) for v in entries]}


def _ratio(timings, first):
    # one round's timings, or a dict of them, over the first tree's
    if isinstance(timings, dict):
        return {key: _ratio(timings[key], first[key]) for key in timings}
    return timings / first


def main(argv=None):
    import argparse
    import json
    import platform
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("src", nargs="*",
                        default=[os.path.join(TOOLS, os.pardir, "src")])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--calls", type=int)
    parser.add_argument("--steps", type=int)
    args = parser.parse_args(argv)
    settings = dict(LAYERS[args.layer].__kwdefaults__ or {})
    given = {name: getattr(args, name) for name in ("calls", "steps")
             if getattr(args, name) is not None}
    for name in sorted(given.keys() - settings.keys()):
        parser.error(f"the {args.layer} layer does not read --{name}")
    settings.update(given)
    if args.rounds < 1 or min(settings.values(), default=1) < 1:
        parser.error("--rounds, --calls and --steps must be positive")
    if args.layer == "import" and args.rounds < 2:
        parser.error("the import layer needs --rounds of at least 2 to "
                     "give quartiles")
    trees = [os.path.realpath(src) for src in args.src]
    for src in trees:
        if not os.path.isfile(os.path.join(src, "agenet", "__init__.py")):
            parser.error(f"no agenet package under {src}")

    # keyed by position, so that one tree given twice is measured twice
    rounds = [[] for _ in trees]
    outputs = {}
    order = list(range(len(trees)))
    for r in range(args.rounds):
        for i in order[r % len(trees):] + order[:r % len(trees)]:
            # every child learns the round it runs
            numpy_version, timings, out = _measure(
                args.layer, trees[i], {**settings, "round": r})
            if outputs.setdefault(i, out) != out:
                raise SystemExit(f"{trees[i]} gave different {args.layer} "
                                 "outputs in different rounds")
            rounds[i].append(timings)

    reports = []
    for i, src in enumerate(trees):
        report = {"src": src, "timings": _summary(rounds[i])}
        if i:
            report["ratio_to_first"] = _summary([
                _ratio(timings, first)
                for timings, first in zip(rounds[i], rounds[0])])
        reports.append({**report, "outputs": outputs[i]})

    print(json.dumps({
        "layer": args.layer, "rounds": args.rounds, **settings,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy_version},
        "trees": reports,
    }, indent=1))


if __name__ == "__main__":
    main()
