"""Per-layer spans, recorded from outside the program.

The layers are the modules of `agenet`.  `Tracer.install` replaces
each public function of a layer with a timing wrapper at every module
attribute that callers reach it through (so `agenet.cli.run` and
`agenet.evolution.step` are both covered), and wraps the methods of
the rate families, `AgeGrid`, `DelayKernel` and `DischargeHistory` on
their classes.  `uninstall` puts the originals back.  Nothing in `src`
is edited.

Each call yields one span: name, start, end, parent span, case id, and
for a few calls a detail read from the result (the solver path of an
implicit activity solve, the order of a dense generator).  Spans stay
in memory; `write_spans` saves them when the run ends.  Parents are
tracked per thread, so calls made inside a worker pool of the program
are spans without a parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

LAYERS = ("grid", "firing_rate", "steady_state", "delay_kernel",
          "evolution", "linear_analysis", "cli")

# (layer, class name, methods, span prefix); methods of all rate
# families share one span name, e.g. firing_rate.rate
METHODS = (
    ("firing_rate", "ConstantRate", ("rate", "cumulative"), ""),
    ("firing_rate", "SmoothSaturatingRate", ("rate", "cumulative"), ""),
    ("firing_rate", "StepRate", ("rate", "cumulative"), ""),
    ("grid", "AgeGrid", ("integrate", "l1_distance", "l1q_norm", "project"),
     ""),
    ("delay_kernel", "DelayKernel", ("weights", "density", "memory_horizon"),
     ""),
    ("delay_kernel", "DischargeHistory", ("push", "lagged"), "history_"),
)


def _solver_detail(sol):
    return (sol.iterations, sol.method)


def _matrix_order(system):
    return system.A.shape[0]


DETAILS = {
    "evolution.solve_activity_implicit": _solver_detail,
    "linear_analysis.build_generator": _matrix_order,
    "linear_analysis.build_delay_system": _matrix_order,
}


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    case: Optional[str]
    detail: object


class Tracer:
    def __init__(self):
        self.spans = []
        self.case = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        detail_of = DETAILS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            detail = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                detail = "raised " + type(exc).__name__
                raise
            else:
                t1 = perf_counter()
                if detail_of is not None:
                    detail = detail_of(result)
                return result
            finally:
                stack.pop()
                spans.append(Span(sid, parent, name, t0, t1, self.case,
                                  detail))
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "agenet"
                                         or key.startswith("agenet."))]
        for layer in LAYERS:
            module = sys.modules["agenet." + layer]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapped)
        for layer, cls_name, methods, prefix in METHODS:
            cls = getattr(sys.modules["agenet." + layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{prefix}{meth}", fn))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid,parent,name,t0,t1,case,detail\n")
        for s in spans:
            detail = "" if s.detail is None else str(s.detail).replace(",", ";")
            fh.write(f"{s.sid},{'' if s.parent is None else s.parent},"
                     f"{s.name},{s.t0:.9f},{s.t1:.9f},{s.case or ''},"
                     f"{detail}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


# (metric, unit); the names the traced run reports, in order
PER_LAYER = (
    ("evolution.solve_activity_implicit.calls", "count"),
    ("evolution.solve_activity_implicit.us_p50", "us"),
    ("evolution.solve_activity_implicit.us_p99", "us"),
    ("evolution.solve_activity_implicit.iters_mean", "count"),
    ("evolution.solve_activity_implicit.fallback_frac", "ratio"),
    ("evolution.step.calls", "count"),
    ("evolution.step.us_p50", "us"),
    ("evolution.run.self_s", "s"),
    ("evolution.stepper_equilibrium.ms", "ms"),
    ("evolution.decay_fit.ms", "ms"),
    ("delay_kernel.history_push.calls", "count"),
    ("delay_kernel.history_push.us_p50", "us"),
    ("delay_kernel.history_lagged.us_p50", "us"),
    ("delay_kernel.weights.calls", "count"),
    ("firing_rate.rate.calls", "count"),
    ("firing_rate.rate.us_p50", "us"),
    ("firing_rate.cumulative.calls", "count"),
    ("firing_rate.cumulative.s", "s"),
    ("firing_rate.estimate_xi.calls", "count"),
    ("firing_rate.estimate_xi.ms_p50", "ms"),
    ("firing_rate.cumulative_per_xi", "count"),
    ("steady_state.solve_steady_state.calls", "count"),
    ("steady_state.solve_steady_state.ms_p50", "ms"),
    ("steady_state.regime_scan.s", "s"),
    ("steady_state.cumulative_per_solve", "count"),
    ("linear_analysis.build_generator.ms_p50", "ms"),
    ("linear_analysis.spectrum.s_p50", "s"),
    ("linear_analysis.delay_spectrum.s_p50", "s"),
    ("linear_analysis.matrix_order_max", "count"),
    ("linear_analysis.matrix_mb", "MB-computed"),
    ("grid.l1_distance.calls", "count"),
    ("grid.l1q_norm.calls", "count"),
    ("grid.self_s", "s"),
    ("cli.parse_config.ms", "ms"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


def layer_metrics(spans, traced_windows, passes, overhead):
    """Per-layer numbers from the spans of the traced runs.

    Counts, `.s` totals and self times are per pass over the case list
    (every pass runs the same cases, and totals add up the spans of all
    threads); `_p50`, `_p99`, `.ms` and `.us` figures are quantiles of
    single calls.  traced_windows maps the case label of each traced
    case run (the tracer's `case`) to its (start, end); overhead is the traced over the untraced time of the
    same cases, less one, as the run measured it."""
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent] += s.t1 - s.t0
    parent_name = {s.sid: s.name for s in spans}
    parent_of = {s.sid: s.parent for s in spans}

    def calls(name):
        return len(by_name[name]) / passes

    def durations(name, scale):
        return [(s.t1 - s.t0) * scale for s in by_name[name]]

    def p50(name, scale):
        return _quantile(durations(name, scale), 0.5)

    def total_s(name):
        return sum(durations(name, 1.0)) / passes

    def self_s(names):
        return sum(s.t1 - s.t0 - children[s.sid]
                   for name in names for s in by_name[name]) / passes

    def under(name, ancestor):
        """Calls of `name` with `ancestor` somewhere above them."""
        count = 0
        for s in by_name[name]:
            p = s.parent
            while p is not None:
                if parent_name[p] == ancestor:
                    count += 1
                    break
                p = parent_of[p]
        return count

    def per(count, name):
        n = len(by_name[name])
        return count / n if n else 0.0

    solves = by_name["evolution.solve_activity_implicit"]
    ok = [s.detail for s in solves if isinstance(s.detail, tuple)]
    orders = [s.detail for name in ("linear_analysis.build_generator",
                                    "linear_analysis.build_delay_system")
              for s in by_name[name] if isinstance(s.detail, int)]
    order = max(orders, default=0)
    grid_names = [n for n in by_name if n.startswith("grid.")]

    by_case = defaultdict(list)
    for s in spans:
        by_case[s.case].append((s.t0, s.t1))
    covered = 0.0
    for label, (a, b) in traced_windows.items():
        covered += _union_length([(max(t0, a), min(t1, b))
                                  for t0, t1 in by_case[label]
                                  if t1 > a and t0 < b])
    traced_wall = sum(b - a for a, b in traced_windows.values())

    values = {
        "evolution.solve_activity_implicit.calls":
            calls("evolution.solve_activity_implicit"),
        "evolution.solve_activity_implicit.us_p50":
            p50("evolution.solve_activity_implicit", 1e6),
        "evolution.solve_activity_implicit.us_p99": _quantile(
            durations("evolution.solve_activity_implicit", 1e6), 0.99),
        "evolution.solve_activity_implicit.iters_mean":
            statistics.fmean(d[0] for d in ok) if ok else 0.0,
        "evolution.solve_activity_implicit.fallback_frac":
            sum(d[1] in ("bisect", "scan") for d in ok) / len(ok)
            if ok else 0.0,
        "evolution.step.calls": calls("evolution.step"),
        "evolution.step.us_p50": p50("evolution.step", 1e6),
        "evolution.run.self_s": self_s(["evolution.run"]),
        "evolution.stepper_equilibrium.ms":
            p50("evolution.stepper_equilibrium", 1e3),
        "evolution.decay_fit.ms": p50("evolution.decay_fit", 1e3),
        "delay_kernel.history_push.calls":
            calls("delay_kernel.history_push"),
        "delay_kernel.history_push.us_p50":
            p50("delay_kernel.history_push", 1e6),
        "delay_kernel.history_lagged.us_p50":
            p50("delay_kernel.history_lagged", 1e6),
        "delay_kernel.weights.calls": calls("delay_kernel.weights"),
        "firing_rate.rate.calls": calls("firing_rate.rate"),
        "firing_rate.rate.us_p50": p50("firing_rate.rate", 1e6),
        "firing_rate.cumulative.calls": calls("firing_rate.cumulative"),
        "firing_rate.cumulative.s": total_s("firing_rate.cumulative"),
        "firing_rate.estimate_xi.calls": calls("firing_rate.estimate_xi"),
        "firing_rate.estimate_xi.ms_p50":
            p50("firing_rate.estimate_xi", 1e3),
        "firing_rate.cumulative_per_xi": per(
            under("firing_rate.cumulative", "firing_rate.estimate_xi"),
            "firing_rate.estimate_xi"),
        "steady_state.solve_steady_state.calls":
            calls("steady_state.solve_steady_state"),
        "steady_state.solve_steady_state.ms_p50":
            p50("steady_state.solve_steady_state", 1e3),
        "steady_state.regime_scan.s": total_s("steady_state.regime_scan"),
        "steady_state.cumulative_per_solve": per(
            under("firing_rate.cumulative", "steady_state.solve_steady_state"),
            "steady_state.solve_steady_state"),
        "linear_analysis.build_generator.ms_p50":
            p50("linear_analysis.build_generator", 1e3),
        "linear_analysis.spectrum.s_p50": p50("linear_analysis.spectrum", 1.0),
        "linear_analysis.delay_spectrum.s_p50":
            p50("linear_analysis.delay_spectrum", 1.0),
        "linear_analysis.matrix_order_max": order,
        "linear_analysis.matrix_mb": 8.0 * order * order / 2**20,
        "grid.l1_distance.calls": calls("grid.l1_distance"),
        "grid.l1q_norm.calls": calls("grid.l1q_norm"),
        "grid.self_s": self_s(grid_names),
        "cli.parse_config.ms": p50("cli.parse_config", 1e3),
        "cli.main.self_s": self_s(["cli.main"]),
        "trace.overhead_frac": overhead,
        "trace.uncovered_frac": 1.0 - covered / traced_wall,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER}
