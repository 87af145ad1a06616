"""Time integration of the age-structured network on the locked mesh
dt = dx (exact transport characteristics).

Each step: decay the density by the survival factor exp(-k dt), shift
the survivors one cell toward older ages, and reinject in the youngest
cell the discharge p, the mass the survivors no longer hold on the
mesh: the absorbed mass plus the mass advected past the age horizon.
So p is the cell sum less the survivors that stay, and the new cell
sum is p plus those survivors: mass is conserved by construction.
step() and run() share one kernel, _transport.

The rate family's bound stepper, model.stepper(grid), holds the one
copy of the activity map and of the factors exp(-k dt): its solve() is
the implicit activity solve, falling back to its roots() list when the
iteration stalls, and its decay() multiplies the density by the
factors where it lies.  run() binds one stepper for its initial solve
and all its steps and carries the cell sum from step to step.  Its
density is a window of one buffer twice its length: each step decays
the window in place and writes p in the cell before it, so the window
slides one cell toward the buffer's start and the shift costs
nothing; it is copied back to the end once per n_cells steps.  A step
that decays the window decays only the cells before the density's
front (bit for bit).  A run family's cells from the threshold cell of
the step's activity on all decay by one factor, and the cells below it
keep their value, so run() keeps the density as a tail (_Tail): the
cells from its cut, the threshold cell, raw times one running scale,
with their raw sum, and the sum of the cells below the cut, both
carried as scalars.  Its steps then decay and sum no cell, whatever
the threshold; the activity map reads the carried head sum, the cut
moves by the few cells a threshold passes, and both sums are taken
afresh when the scale is folded back, on a schedule of the step
count.  The smooth family's rate is separable, so run() steps it in
blocks (_Block): a short series in moments of the cells' age factor,
taken once per block, gives each step's survivors, and the window is
written once per block.  Where a block would hold one step, run()
decays the window as step() does, bit for bit; otherwise its bits
differ from a loop of step() at the rounding of the cell sum.
solve_activity_implicit() binds a stepper per call, solves from a cold
start, and also refuses a settled root of a staircase map that holds
another.  stepper_equilibrium()
builds its profiles from one bound stepper too, decaying a vector of
ones, so the reference a run relaxes to uses the run's own factors.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Optional

import numpy as np

from . import _roots
from .delay_kernel import DelayKernel
from .errors import (AmbiguousActivityError, ConfigError,
                     DegenerateInputError, InvariantViolationError,
                     _integer, _out_of_range)
from .firing_rate import estimate_xi, half_rate_age
from .grid import (AgeGrid, DensityState, _l1_distance, _moment_weight,
                   _weighted_integral, cell_sum)

__all__ = [
    "SimulationConfig", "SimulationTrace", "ActivitySolution", "SolverCounts",
    "DecayFit", "solve_activity_implicit", "kappa0", "step", "run",
    "decay_fit", "stepper_equilibrium",
]

# the width to which stepper_equilibrium bisects its activity
_EQUILIBRIUM_WIDTH = 1e-13


def _duration(value):
    return None if 0.0 < value < math.inf else _out_of_range(value, "positive")


def _sample_step(value):
    # a float would record off its multiples
    return _integer(value) or (
        None if value >= 1 else f"must be at least 1, got {value}")


def _flag(value):
    return None if isinstance(value, bool) else "must be true or false"


def _moment(value):
    return None if 0.0 <= value < math.inf \
        else "moment exponent must be a nonnegative number"


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    grid: AgeGrid
    model: object
    kernel: DelayKernel = dataclasses.field(default_factory=DelayKernel.dirac)
    t_end: float = 10.0
    record_every: int = 10
    q: float = 1.0
    allow_zero_kappa0: bool = False

    # (field, rule) in the order problems are listed; a rule maps a
    # value to its problem, or to None.  A subclass lists its own.
    _rules = (("t_end", _duration), ("record_every", _sample_step),
              ("allow_zero_kappa0", _flag), ("q", _moment))

    def __post_init__(self):
        problems = [(name, message) for name, rule in self._rules
                    if (message := rule(getattr(self, name))) is not None]
        if problems:
            raise ConfigError(problems)

    @property
    def dt(self):
        """Time step, locked to the age resolution."""
        return self.grid.dx


@dataclasses.dataclass(frozen=True)
class ActivitySolution:
    m: float
    iterations: int
    method: str


@dataclasses.dataclass(frozen=True)
class SolverCounts:
    """Which path each implicit activity solve of a run took: the
    solves settled by fixed-point iteration, the solves that stalled
    and took the one root that the stepper's roots() listed (labelled
    "scan"), and the most iterations any solve used."""

    fixed_point: int
    scan: int
    max_iterations: int


@dataclasses.dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray
    m_series: np.ndarray
    p_series: np.ndarray
    mass_series: np.ndarray
    linf_series: np.ndarray
    l1q_series: np.ndarray
    l1_dist_to_F: Optional[np.ndarray]
    final_state: DensityState
    kappa0: float
    dt: float
    activity_solves: SolverCounts


@dataclasses.dataclass(frozen=True)
class DecayFit:
    alpha: float
    C: float
    r2: float
    window: tuple
    n_points: int


def kappa0(model, grid, f0):
    """Rest-rate mass int k(x, 0) f0(x) dx; positive kappa0 keeps the
    discharge bounded away from zero along the whole run."""
    values = f0.values if isinstance(f0, DensityState) else np.asarray(
        f0, dtype=float)
    return float(np.dot(model.rate(grid.midpoints, 0.0), values)) * grid.dx


def solve_activity_implicit(model, grid, values):
    """Solve the implicit activity m = int k(x, lam*m) f(x) dx for a
    density of mass approx 1.

    The family's stepper, model.stepper(grid), solves it: this function
    binds one per call, and run() binds one for all its steps.  The
    stepper binds the family's activity map G, the integral above on
    the midpoint mesh, with its closed-form slope where the family has
    one, and one loop shared by every family iterates on it from G(0),
    clamped to [0, k1], until |G(mu) - mu| <= 1e-12.  It takes Newton
    steps on G(mu) - mu wherever the slope is below 1 (the smooth
    family), and the fixed-point step mu -> G(mu) otherwise: the
    constant family, whose one value settles in one or two steps, the
    step family's staircase, and a smooth map whose slope reaches 1.
    G is nondecreasing, so the fixed-point iterates move monotonically
    toward a root and never cross it.  The smooth family's G is concave
    too, so Newton's iterates lie above the root after the first step
    and then fall to it monotonically.  A settled Newton solve returns
    the clamped Newton update mu + (G(mu) - mu)/(1 - G'(mu)), not mu:
    mu can sit up to 1e-12/(1 - G'(mu)) off the root, while the
    update's error is second order in that, and it costs no further
    map evaluation.  A settled fixed-point solve returns mu.  Either
    kind of step counts as method "fixed-point".  If the iterates have
    not settled after 200 steps, the stepper's roots() lists every
    fixed point of G in [0, k1]: one is returned as method "scan", none
    means the model violates its own bounds (ModelInconsistencyError),
    and several make the dynamics ambiguous (AmbiguousActivityError).

    A settled iteration on a map that may hold several roots (the step
    family's staircase, whose stepper has one_root false) is checked
    against the stepper's roots() list too: if G holds a second root,
    even a cell away from the one reached, AmbiguousActivityError names
    them all.  The smooth and constant maps hold one root by
    construction and take no check.  run() calls its stepper's solve
    directly, with a warm start and the cell sum it carries, and
    without the check, so a trajectory through such a staircase keeps
    the root its iteration reaches."""
    stepper = model.stepper(grid)
    m, iterations, method = stepper.solve(values)
    if method == "fixed-point" and not stepper.one_root:
        roots = stepper.roots(values)
        if len(roots) > 1:
            raise AmbiguousActivityError.listing(roots)
    return ActivitySolution(m=m, iterations=iterations, method=method)


# A step sets p = total - rest to 0 where it lies below zero but within
# _CLEARANCE * (n + 2) * total.  Survival factors in (0, 1] keep the
# exact discharge nonnegative.  total and rest are sums of n
# nonnegative cells in different orders, each within
# (n - 1)u/(1 - (n - 1)u) of its exact value (u the unit roundoff), so
# p rounds at most about n eps total below it; the bound leaves a
# margin of 4 (eps = 2**-52).  Below the bound, p is no rounding.
_CLEARANCE = 4.0 * 2.0 ** -52
_FOLD = 2.0 ** -500     # run() folds a tail whose scale falls below it

# A smooth block of K steps has K dx k1 <= _TAU, so dx T <= _TAU, and
# its series takes the fewest terms whose remainder, at most
# _TAU**Q/Q!/(1 - _TAU/(Q + 1)) times M_0, is 2**-56 M_0 or less: 9.
# At dx k1 >= _TAU/2 a block holds one step; past _MOST_STEPS steps
# its per-step slot sums would cost more than its moments save.
_TAU = 0.0390625
_TERMS = next(q for q in range(1, 64) if _TAU ** q / math.factorial(q)
              / (1.0 - _TAU / (q + 1)) <= 2.0 ** -56)
_FACTORIALS = tuple(float(math.factorial(q)) for q in range(_TERMS))
_MOST_STEPS = 32
_CHUNK = 128            # cells per chunk of a block's moment sums

_add, _max = np.add.reduce, np.maximum.reduce


class _Tail:
    """A run family's density in run(), split at its cut, the threshold
    cell of the last step's activity.  Every cell from the cut on fires
    at k and decays by one factor per step: the window holds those cells
    raw, scale times raw being the density, and raw is their sum.  The
    cells below the cut keep their value, and head is their sum.  A cut
    at the end of the window keeps no raw cell."""

    __slots__ = ("cell_of", "factor", "cut", "scale", "raw", "head", "out")
    is_block = False

    def __init__(self, cell_of, factor, window, m):
        self.cell_of, self.factor = cell_of, factor
        self.cut = cut = cell_of(m)
        self.scale, self.head = 1.0, float(_add(window[:cut]))
        self.raw = float(_add(window[cut:]))
        self.out = np.empty(len(window))    # the density that read() writes

    def fold(self, window):
        # the scale into the cells, and both sums afresh
        cut = self.cut
        cells = window[cut:]
        np.multiply(cells, self.scale, out=cells)
        self.scale = 1.0
        self.head, self.raw = float(_add(window[:cut])), float(_add(cells))

    def below(self, window, idx):
        # the sum of the idx cells below cell idx: the head, moved by the
        # cells between idx and the cut
        cut = self.cut
        if idx == cut:
            return self.head
        if idx > cut:
            return self.head + self.scale * float(_add(window[cut:idx]))
        return self.head - float(_add(window[idx:cut]))

    def move(self, window, m):
        # the cut to the threshold cell at m: the cells that cross it
        # are scaled in or out of the raw tail
        cut, idx = self.cut, self.cell_of(m)
        if idx > cut:
            cells = window[cut:idx]
            raw = float(_add(cells))
            self.head += self.scale * raw
            self.raw -= raw
            np.multiply(cells, self.scale, out=cells)
        elif idx < cut:
            cells = window[idx:cut]
            self.head -= float(_add(cells))
            np.divide(cells, self.scale, out=cells)
            self.raw += float(_add(cells))
        self.cut = idx
        return idx

    def read(self, window):
        # the density, into the tail's own buffer
        out, cut = self.out, self.cut
        out[:cut] = window[:cut]
        np.multiply(window[cut:], self.scale, out=out[cut:])
        return out

    def outflow(self, cell):
        # the density of the raw cell past x_max
        return cell * self.scale if self.cut < len(self.out) else cell


def _series(terms, a):
    # sum_q terms[-1 - q] a^q by Horner's rule, the highest power first
    total = 0.0
    for term in terms:
        total = total * a + term
    return total


class _Block:
    """The smooth family's density in run(), stepped in blocks of K
    steps.  Its rate g(m) (1 - e_j), e_j = exp(-x_j/x_scale), is
    separable, and i cells older e is e_j r^i, r = exp(-dx/x_scale): after
    c steps of a block, a cell that began it at cell j holds
    exp(dx (e_j T - S)) of its value, S the sum of the gains g_i and T
    that of g_i r^i.  The window keeps those cells raw; their moments
    M_q = sum f_j e_j^q, taken once, give the survivors of the cells
    that stay on the mesh all block, exp(-dx S) sum_q (dx T)^q/q! M_q.
    Slot z holds the cell that leaves past x_max at step z, then the
    cell that step makes of p, e = e_0 r^-(z+1): each is
    coef exp(dx (e T - S)).  The map's weight is dx (total - E1), E1 =
    sum e f from M_1.. and the slots.  At its last step the block writes
    the window (one exp pass) and takes the next moments; a sample reads
    the density into scratch.  Cells from front on are zero."""

    __slots__ = ("gain", "e", "e0", "r", "dx", "steps", "scratch",
                 "front", "within", "starts", "sums", "coefs", "es",
                 "values", "born", "m0", "terms", "firsts", "done", "S",
                 "T", "rho", "shrink", "out")
    is_block = True

    def __init__(self, gain, e, r, dx, steps, scratch, window):
        self.gain, self.e, self.e0, self.r = gain, e, float(e[0]), r
        self.dx, self.steps, self.scratch = dx, steps, scratch
        front = _front(window)
        self.front = len(window) if front is None else front
        # in the chunk of B = min(_CHUNK, n) cells from cell c B on,
        # e_j^q is starts[c, q - 2] within[q - 2, j - c B]
        powers = np.arange(2, _TERMS + 1)
        self.within = (e[:_CHUNK] / e[0]) ** powers[:, None]
        self.starts = e[::self.within.shape[1], None] ** powers
        self.sums = np.empty_like(self.starts)
        # the slots' coefs and e, their values over exp(-dx S) at the
        # last step, and the cells that a read makes of them
        self.coefs, self.es, self.values, self.born = (
            np.empty(steps) for _ in range(4))
        self.open(window)

    def open(self, window):
        # M_0 a pairwise sum, as every cell sum; M_1, which E1 reads as
        # it is, a dot product; M_2.. each chunk's dot products with the
        # table's rows (a matrix product would take OpenBLAS buffers, 0.3
        # MB more peak RSS), which round e^q a few ulps apart.  The cells
        # that leave go to the slots.
        n, steps, width = len(window), self.steps, self.within.shape[1]
        stay = min(self.front, n - steps)
        chunks, last = divmod(stay, width)
        sums = self.sums[:chunks + 1]
        np.vecdot(window[:chunks * width].reshape(chunks, 1, width),
                  self.within, out=sums[:chunks])
        np.vecdot(window[chunks * width:stay], self.within[:, :last],
                  out=sums[chunks])
        f = window[:stay]
        high = np.vecdot(sums, self.starts[:chunks + 1], axis=0)
        moments = [float(_add(f)), float(np.dot(f, self.e[:stay])),
                   *high.tolist()]
        # Horner's coefficients, the highest power first
        self.m0 = moments[0]
        self.terms = [moments[q] / _FACTORIALS[q]
                      for q in range(_TERMS - 1, 0, -1)]
        self.firsts = [moments[q + 1] / _FACTORIALS[q]
                       for q in range(_TERMS - 1, -1, -1)]
        self.coefs[:] = window[:n - steps - 1:-1]
        self.es[:] = self.e[:n - steps - 1:-1]
        self.values[:] = self.coefs
        self.done, self.S, self.T = 0, 0.0, 0.0
        self.rho = self.shrink = 1.0

    def weight(self, total):
        # dx (total - E1), E1 = sum e f over the window
        first = (_series(self.firsts, self.dx * self.T)
                 + float(np.dot(self.values, self.es)))
        return (total - self.rho * self.shrink * first) * self.dx

    def rest(self, m):
        # the survivors kept on the mesh after a step at m; the slot of
        # the cell that leaves holds the outflow
        g, rho = self.gain(m), self.rho
        self.S = S = self.S + g
        self.T = T = self.T + g * rho
        self.rho = rho * self.r
        a, b = self.dx * T, self.dx * S
        values, z = self.values, self.done
        np.multiply(self.es, a, values)
        np.exp(values, values)
        np.multiply(values, self.coefs, values)
        self.shrink = shrink = math.exp(-b)
        self.out = shrink * float(values[z])
        values[z] = 0.0
        # M_0 plus a change that rounds at its own size, so p rounds
        # within an ulp of total, as a full-mesh step's does
        m0 = self.m0
        return m0 + (m0 * math.expm1(-b) + shrink * (
            a * _series(self.terms, a) + float(_add(values))))

    def settle(self, buf, s, p):
        # p to the slot of the cell that left; the block's last step
        # writes the window and opens the next block
        z = self.done
        self.es[z] = e = self.e0 / self.rho
        self.coefs[z] = p * math.exp(self.dx * (self.S - e * self.T))
        self.values[z] = p / self.shrink
        self.done = z = z + 1
        if z == self.steps:
            window = buf[s - 1:s - 1 + len(self.e)]
            self.fold(window)
            self.open(window)

    def _cells(self, window, out):
        # the density after the block's steps so far into out: the raw
        # cells times exp(dx (e T - S)), and the slots' cells made of p,
        # the youngest first
        done, a, b = self.done, self.dx * self.T, self.dx * self.S
        live = min(self.front, len(window) - done)
        cells, born = self.scratch[done:done + live], self.born[:done]
        for x, e in ((cells, self.e[:live]), (born, self.es[:done])):
            np.multiply(e, a, out=x)
            np.subtract(x, b, out=x)
            np.exp(x, out=x)
        np.multiply(cells, window[done:done + live],
                    out=out[done:done + live])
        np.multiply(born, self.coefs[:done], out=born)
        out[:done] = born[::-1]
        return live

    def read(self, window):
        # the density, into the scratch buffer
        out = self.scratch
        out[self.done + self._cells(window, out):] = 0.0
        return out

    def fold(self, window):
        # the density into the window; the front moves by the steps done
        self._cells(window, window)
        self.front = min(self.front + self.done, len(window))

    def outflow(self, cell):
        # the cell past x_max, which the last step's slot held
        return self.out


def _bind_tail(stepper, window, m):
    """The form in which run() keeps a stepper's density at activity m:
    for a run family the tail, where a step keeps at least half of each
    cell, so the scale stays normal between folds; for the smooth family
    the block, where one holds at least two steps.  Otherwise None."""
    hook = getattr(stepper, "_tail", None)
    if hook is not None:
        cell_of, factor = hook()
        return _Tail(cell_of, factor, window, m) if factor >= 0.5 else None
    hook = getattr(stepper, "_block", None)
    if hook is None:
        return None
    gain, e, r, dx, k1, scratch = hook()
    steps = min(int(_TAU / (dx * k1)), _MOST_STEPS, len(window) - 1)
    if steps < 2:
        return None
    return _Block(gain, e, r, dx, steps, scratch, window)


def _transport(buf, s, window, total, stepper, m, t, live=None, tail=None):
    """The transport kernel of step() and run().

    The density is window, the view buf[s:s + n] with s >= 1, and total
    its cell sum.  With no tail, the family's stepper decays it in place
    by the survival factors at m, but only before live, the front past
    which every cell is zero (bit for bit).  With a tail, the tail's cut
    moves to the threshold cell at m and its scale takes the factor of
    every cell from there on, so no cell is decayed; with a block (its
    is_block true), the block takes the step and no cell is decayed
    either.  p goes to buf[s - 1]: the new density is
    buf[s - 1:s - 1 + n], one cell older, and buf[s - 1 + n] the
    outflow past x_max.  p is total less rest, the survivors kept on the
    mesh: the sum of the window but its last cell, with a tail its head
    plus the scale times the raw sum but the last cell, and with a block
    its series and scalar cells.  p then joins the head, and the cell
    that crosses the cut joins the raw tail, or p takes the slot of the
    block's cell that left.  Where nothing fires, p can round below
    zero: within the _CLEARANCE bound it is then 0, and below it the
    step raises InvariantViolationError.  Returns p and the new cell sum
    p + rest, total up to one rounding."""
    n = len(window)
    block = tail is not None and tail.is_block
    if tail is None:
        stepper.decay(window[:live], m)
        rest = float(_add(window[:-1]))
    elif block:
        rest = tail.rest(m)
    else:
        cut = tail.move(window, m)
        if cut < n:
            tail.scale *= tail.factor
            kept = tail.raw - float(window[-1])
            rest = tail.head + tail.scale * kept
        else:
            rest = tail.head - float(window[-1])
    p = total - rest
    if -_CLEARANCE * (n + 2) * total <= p < 0.0:
        p = 0.0
    buf[s - 1] = p
    if p < 0.0 or window[-2] < 0.0:
        raise InvariantViolationError(
            "negative density produced by a transport step",
            {"t": t, "p": p, "m": m})
    if block:
        tail.settle(buf, s, p)
    elif tail is not None:
        cell = float(buf[s - 1 + cut])
        tail.head = (tail.head + p) - cell
        if cut < n:
            buf[s - 1 + cut] = cell = cell / tail.scale
            tail.raw = kept + cell
    return p, p + rest


def _check_nonnegative(values, t):
    """Refuse a density with a negative cell.  _transport then keeps
    every cell nonnegative, since its survival factors lie in (0, 1],
    so its own check reads only p and the last cell kept."""
    low = int(np.argmin(values))
    if values[low] < 0.0:
        raise InvariantViolationError(
            "negative density in the input state",
            {"t": t, "cell": low, "value": float(values[low])})


def _front(values):
    """One past the last nonzero cell of values, or None when that is
    past the last cell: the cells from the front on are zero."""
    nonzero = np.flatnonzero(values)
    live = int(nonzero[-1]) + 1 if nonzero.size else 0
    return live if live < values.size else None


def step(state, m, config):
    """One transport step at activity m.  Returns (new_state, p); the
    new state's mass is a fresh sum of its cells.

    The new state's time is state.t + dx, one rounding per step, while
    run() records f0.t + n*dt: a loop of step() matches run()'s
    densities (the smooth family's bit for bit), but after 3000 steps of
    dx = 0.01 from 0 its clock reads 30.00000000000189."""
    grid = config.grid
    values = state.values
    _check_nonnegative(values, state.t)
    cells = grid.n_cells
    buf = np.empty(cells + 1)
    buf[1:] = values
    p, _ = _transport(buf, 1, buf[1:], cell_sum(values),
                      config.model.stepper(grid), m, state.t)
    new = buf[:-1]
    return DensityState(values=new, mass=float(_add(new)) * grid.dx, m=m,
                        p=p, t=state.t + grid.dx), p


def _check_strong_regime_gate(config):
    """A vanishing rest-rate mass with no delay forfeits the discharge
    lower bound; in the strong regime that combination is refused."""
    model = config.model
    if getattr(model, "lam", 0.0) == 0.0:
        return
    est = estimate_xi(model, x_max=config.grid.x_max)
    if math.isfinite(est.lambda_strong) and abs(model.lam) >= est.lambda_strong:
        raise DegenerateInputError(
            "initial density carries no rest-rate mass (kappa0 = 0) and the "
            "connectivity sits in the strong regime; the discharge can die "
            "out and the relaxation guarantee is void.  Pass "
            "allow_zero_kappa0=True to run anyway.")


def run(config, f0, steady=None):
    """Integrate the network from f0 for t_end time units.

    f0 may be a DensityState, an array of cell values, or a callable
    of age.  If steady is given (a SteadyState), the trace records the
    L1 distance to its profile at every sample.  The clock starts at
    f0.t (0 for an array or a callable), so a run continued from a final
    state goes on where that one stopped, as a loop of step() does.

    A DensityState f0 with a negative cell raises
    InvariantViolationError up front (project() refuses a negative
    array or callable).  From a nonnegative density, survival factors
    in (0, 1] keep every survivor nonnegative, so each step checks only
    p and the last cell kept on the mesh, and that m and p stay finite.
    One loop steps every kernel.  With no delay each step solves m with
    the bound stepper's warm solve, and the trace counts the path each
    solve took.  Under a delay kernel m is the activity of
    kernel.history(dt, m0): a recursion over a few running means for
    the exponential and integer-shape gamma kernels, a dot product of
    weights(dt) with the past p for the others.  Either way it is a
    convex mean of m0 and the p pushed so far, so its cap is the
    largest of those instead of k1.  Each sample is one row (t, m, p,
    mass, sup, l1q, l1_dist), and the trace's series are its columns.
    Running checks on every row: unit mass within 1e-10, sup bound,
    p >= 0 with its absorbed part (p less the outflow past x_max) at
    most k1, m in [0, cap], and for kappa0 > 0 the uniform activity
    floor once t - f0.t passes the half-rate age.  The recorded mass is
    a fresh sum of the cells, not the cell sum that the steps carry,
    which they conserve exactly.  A sample reads a run family's tail,
    or a smooth block, into its own buffer, and takes its distance to F
    in place there, so no bit depends on record_every.
    """
    grid, model, kernel = config.grid, config.model, config.kernel
    dt = config.dt
    if not isinstance(f0, DensityState):
        f0 = grid.project(f0)
    _check_nonnegative(f0.values, f0.t)
    k1 = model.k1
    k0 = model.k0

    k0_mass = kappa0(model, grid, f0)
    if k0_mass <= 0.0 and kernel.is_dirac and not config.allow_zero_kappa0:
        _check_strong_regime_gate(config)

    x0 = half_rate_age(model)
    sup_bound = float(np.max(f0.values)) + k1 + 10.0 * grid.dx
    m_floor = min(k0_mass, 0.5 * k0) * math.exp(-k1 * x0) - 10.0 * grid.dx

    # initial activity: the self-consistent discharge of f0, which also
    # pads the pre-history for delayed kernels, from the same bound
    # stepper as every step's solve.  The density's cell sum goes to
    # every solve; _transport returns the next one.
    stepper = model.stepper(grid)
    solve = stepper.solve
    total = cell_sum(f0.values)
    m0, most_iterations, method = solve(f0.values, total)
    solves = {"fixed-point": 0, "scan": 0, method: 1}

    history = None if kernel.is_dirac else kernel.history(dt, m0)

    n_steps = int(round(config.t_end / dt))
    if n_steps < 1:
        raise ValueError("t_end shorter than one time step")

    F = steady.F if steady is not None else None

    # one row (t, m, p, mass, sup, l1q, l1_dist) per sample, its moment
    # norm read through one work buffer and its distance through scratch,
    # which may be values itself; the density stays nonnegative, so its
    # moment norm needs no abs
    rows = []
    weight, work = _moment_weight(grid, config.q), np.empty(grid.n_cells)

    def _record(t, values, m, p, absorbed, scratch=work):
        mass = float(_add(values)) * grid.dx
        sup = float(_max(values))
        rows.append((t, m, p, mass, sup,
                     _weighted_integral(weight, values, grid.dx, work),
                     None if F is None
                     else _l1_distance(values, F, grid.dx, scratch)))
        diag = {"t": t, "m": m, "p": p, "mass": mass}
        if not (math.isfinite(m) and math.isfinite(p)
                and math.isfinite(mass)):
            raise InvariantViolationError("non-finite state", diag)
        if abs(mass - 1.0) > 1e-10:
            raise InvariantViolationError("mass drifted off 1", diag)
        if sup > sup_bound:
            diag["sup_bound"] = sup_bound
            raise InvariantViolationError("density exceeded its sup bound",
                                          diag)
        if absorbed > k1 * (1.0 + 1e-12) or p < 0.0:
            diag["absorbed"] = absorbed
            raise InvariantViolationError("discharge left [0, k1]", diag)
        if m > m_cap * (1.0 + 1e-12) or m < 0.0:
            diag["cap"] = m_cap
            raise InvariantViolationError("activity left [0, cap]", diag)
        if k0_mass > 0.0 and t - t0 >= x0 and m < m_floor:
            diag["floor"] = m_floor
            raise InvariantViolationError(
                "activity fell below its uniform lower bound", diag)

    t0 = t = f0.t
    m_cap = k1 if history is None else m0
    _record(t0, f0.values, m0, m0, m0)

    # the density is the window buf[s:s + cells]; each step writes p in
    # the cell before it and slides it there, and a window at the start
    # is copied back to the end, so the loop allocates no cell arrays.
    # A run family's density is kept as a tail, cut at the threshold
    # cell of m0, and the smooth family's as a block where one holds two
    # steps; a sample reads either into its own buffer.  Otherwise ages
    # advance one cell per step, and so does the density's front live,
    # one past its last nonzero cell: None once it spans the mesh.
    cells = grid.n_cells
    buf = np.empty(2 * cells)
    s = cells
    buf[s:] = f0.values
    tail = _bind_tail(stepper, buf[s:], m0)
    live = _front(f0.values) if tail is None else None
    # a run family's tail folds on a schedule of the step count, and a
    # block folds itself as its steps end
    folds = tail is not None and not tail.is_block
    m = p = m0
    if history is not None:
        activity, push = history.activity, history.push
    record_every, isfinite = config.record_every, math.isfinite
    for n in range(1, n_steps + 1):
        if not s:
            buf[cells:] = buf[:cells]
            s = cells
        window = buf[s:s + cells]
        if folds and (s == cells or tail.scale < _FOLD):
            tail.fold(window)
        if history is None:
            try:
                m, iterations, method = solve(window, total, m, tail)
            except AmbiguousActivityError as exc:
                exc.t = t
                raise
            solves[method] += 1
            if iterations > most_iterations:
                most_iterations = iterations
        else:
            m = activity()
        p, total = _transport(buf, s, window, total, stepper, m, t, live,
                              tail)
        s -= 1
        if live is not None:
            live = live + 1 if live + 1 < cells else None
        t = t0 + n * dt
        if history is not None:
            push(p)
            m_cap = max(m_cap, p)
        if not (isfinite(p) and isfinite(m)):
            raise InvariantViolationError(
                "non-finite step output", {"t": t, "m": m, "p": p})
        if n % record_every == 0 or n == n_steps:
            outflow = float(buf[s + cells])
            if tail is None:
                _record(t, buf[s:s + cells], m, p, p - outflow)
            else:
                outflow = tail.outflow(outflow)
                density = tail.read(buf[s:s + cells])
                _record(t, density, m, p, p - outflow, density)

    # the last step is always recorded, with a fresh mass
    times, m_series, p_series, mass_series, linf_series, l1q_series, \
        dist_series = (np.asarray(column) for column in zip(*rows))
    if tail is not None:
        tail.fold(buf[s:s + cells])
    final = DensityState(values=buf[s:s + cells].copy(),
                         mass=rows[-1][3], m=m, p=p, t=t)
    return SimulationTrace(
        times=times,
        m_series=m_series,
        p_series=p_series,
        mass_series=mass_series,
        linf_series=linf_series,
        l1q_series=l1q_series,
        l1_dist_to_F=None if F is None else dist_series,
        final_state=final,
        kappa0=k0_mass,
        dt=dt,
        activity_solves=SolverCounts(
            fixed_point=solves["fixed-point"], scan=solves["scan"],
            max_iterations=most_iterations),
    )


def decay_fit(trace, window):
    """Least-squares line through log ||f(t) - F||_1 over the window.

    Returns slope alpha, prefactor C and the r^2 of the fit.  Distances
    at the rounding floor (1e-13) are cut from the window tail with a
    warning; they carry no decay information."""
    if trace.l1_dist_to_F is None:
        raise ValueError("trace has no recorded distance to a steady state; "
                         "rerun with steady=...")
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("window must satisfy t0 < t1")
    sel = (trace.times >= t0) & (trace.times <= t1)
    t = trace.times[sel]
    d = trace.l1_dist_to_F[sel]
    floor = 1e-13
    if np.any(d <= floor):
        cut = int(np.argmax(d <= floor))
        if cut < 3:
            raise ValueError("distance sits at the rounding floor over the "
                             "whole window; nothing to fit")
        warnings.warn("distance reaches the rounding floor inside the fit "
                      "window; shrinking the window", stacklevel=2)
        t, d = t[:cut], d[:cut]
    if t.size < 3:
        raise ValueError("need at least 3 samples in the fit window")
    logd = np.log(d)
    slope, intercept = np.polyfit(t, logd, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(alpha=float(slope), C=float(np.exp(intercept)), r2=r2,
                    window=(float(t[0]), float(t[-1])), n_points=int(t.size))


def stepper_equilibrium(model, grid):
    """Fixed point of the discrete time-stepper with no delay.

    The profile the simulation itself relaxes to: it satisfies
    f_{j+1} = f_j exp(-k(x_j, lam*m) dx) with unit mass and an activity
    m consistent with the midpoint quadrature of k f.  It sits within
    O(dx) of the cell-exact stationary profile of solve_steady_state;
    measuring a relaxation rate from a trace is only meaningful against
    this profile, because the distance to any other reference saturates
    at that O(dx) offset.  Returned as a SteadyState so it can be
    passed to run(steady=...)."""
    from .steady_state import SteadyState, _residual_ode

    mids = grid.midpoints
    dx = grid.dx
    # the run's own factors: decay on ones gives them bit for bit,
    # since 1.0 * x = x
    decay = model.stepper(grid).decay
    factors = np.empty(grid.n_cells)

    def profile(m):
        factors.fill(1.0)
        s = decay(factors, m)
        f = np.empty(grid.n_cells)
        f[0] = 1.0
        np.cumprod(s[:-1], out=f[1:])
        return f / (f.sum() * dx)

    def phi(m):
        f = profile(m)
        return float(np.dot(model.rate(mids, m), f)) * dx - m

    fa = phi(0.0)
    if fa <= 0.0:
        m_star = 0.0
    else:
        a, b = _roots.bisect(phi, 0.0, model.k1, fa,
                             width=_EQUILIBRIUM_WIDTH)
        m_star = 0.5 * (a + b)
    F = profile(m_star)
    return SteadyState(M=m_star, F=F, lam=float(model.lam),
                       residual_ode=_residual_ode(model, grid, F, m_star),
                       residual_activity=abs(phi(m_star)))
