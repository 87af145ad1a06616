"""Firing-rate families k(x, lam*mu) for the age-structured network.

A rate model maps the age x (time elapsed since a neuron's last
discharge) and the raw network activity mu to an instantaneous firing
rate.  The coupling strength lam is stored on the model and applied
internally, so every caller passes the unscaled activity.

All families are nonnegative, nondecreasing in both age and activity,
and bounded by k1.  k0 is the resting rate of an old neuron
(the large-age limit of k(., 0)).

Each family computes its own closed forms behind one protocol: rate,
cumulative K(x, mu) = int_0^x k, activity_slope (the slope of
K(x_max, .) in the activity, from which estimate_xi takes the regime
bounds in closed form) and stepper; half_rate_age reads the age that
each family states in closed form.

stepper(grid) binds a family to a grid; README's rate family protocol
states its contract in full.  There are two steppers.  The constant and
step families are run families: the rate is 0 below a threshold age
and a run rate k past it (threshold 0 and k = k0 for the constant
family, sigma and 1 for the step family), so both bind one run stepper,
with the highest threshold that the family reaches (0, sigma_plus, or
inf for a custom sigma) as the reach of its prefix sums.  The smooth
family binds its own.  A stepper holds:

- the activity map G(mu) = int k(x, lam*mu) f dx on the midpoint mesh.
  bind(values, total, tail) returns mu -> (G(mu), G'(mu)), with 1.0 for
  the slope where the family takes fixed-point steps.  solve(values,
  total, warm, tail), one loop for every family, iterates on it until
  |G(mu) - mu| <= _TOL = 1e-12 and after _MAX_ITER = 200 steps falls
  back to roots(values, total), every fixed point in [0, k1].  run()
  passes the form it keeps of the density: the run map then reads a
  run family's tail's carried head sum for its prefix sums, the smooth
  map its block's weight, and roots() the density that either reads.
  one_root
  is true when G has at most one fixed point by construction: the
  smooth map, and a run map whose threshold reaches no midpoint, one
  plateau (the constant family's among them);
- the one-step factors exp(-k(x_j, lam*mu) dx).  decay(window, mu)
  multiplies a prefix of the mesh's cells by them in place, bit for bit
  the rate expression, where run() keeps no tail (_tail()) or block
  (_block()) of the density;
- the rate's stationary and linear forms.  stationary_integral(M) is
  the normalization integral I(M) = int exp(-K(x, lam*M)) dx on the
  mesh, with the horizon tail, in the family's closed form, and
  stationary(M) the profile F at M with the shares of the mass that
  the cells absorb and that exp(-K(x_max)) leaves at the horizon: the
  smooth stepper reads K = gain(M) * A(x) from age pieces bound once
  per grid, the run stepper the run 0 below the threshold, read as 0
  where the map falls below it, and k past it.  The run stepper's
  runs(mu) gives the rates on the mesh as (rate, cells) runs,
  ((0.0, j), (k, n - j)) with j the threshold cell and an empty run
  left out; the smooth stepper's gives None.

total is the density's cell sum, grid.cell_sum(values): a caller that
already holds it passes it.  Each constant is bound on the first call
that reads it, so a stationary solve binds none of the stepping ones.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _roots
from .errors import (AmbiguousActivityError, ConfigError,
                     ModelInconsistencyError, _passed, _range_problems)
from .grid import cell_sum

__all__ = [
    "ConstantRate",
    "SmoothSaturatingRate",
    "StepRate",
    "RegimeEstimate",
    "estimate_xi",
    "half_rate_age",
]


def _check_mu(mu):
    # a Python float is a scalar; skip the slower ndim test for it
    if not isinstance(mu, float) and np.ndim(mu) != 0:
        raise ValueError("activity mu must be a scalar")
    if not 0.0 <= float(mu) < math.inf:
        raise ValueError("activity mu must be finite and nonnegative")


def _check_domain(x, mu):
    _check_mu(mu)
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("age x must be nonnegative")


def _match_shape(x, out):
    # scalar in, scalar out; array in, array out
    return float(out) if np.ndim(x) == 0 else out


def _age_integral(x, x_scale):
    # int_0^x (1 - exp(-y/x_scale)) dy in closed form
    return x + x_scale * np.expm1(-x / x_scale)


@lru_cache(maxsize=2)
def _age_pieces(grid, x_scale):
    # the smooth family's stationary pieces, which lam does not enter,
    # read-only: A on the edges, dA, dx/dA with 0 on the idle cells,
    # the idle cells and A'(x_max)
    ages = _age_integral(grid.edges, x_scale)
    rise = np.diff(ages)
    with np.errstate(divide="ignore", over="ignore"):
        weight = grid.dx / rise
    idle = np.flatnonzero((rise <= 0.0) | np.isinf(weight))
    weight[idle] = 0.0
    for piece in (ages, rise, weight, idle):
        piece.flags.writeable = False
    return ages, rise, weight, idle, float(-np.expm1(-grid.x_max / x_scale))


# The implicit activity solve settles at |G(mu) - mu| <= _TOL and,
# after _MAX_ITER steps, falls back to the stepper's list of roots.
_TOL = 1e-12
_MAX_ITER = 200
# the most floats the smooth family's half-rate age walks from its guess
_WALK = 64


class _Stepper:
    """The implicit activity solve, one loop for every family.  A
    family's stepper supplies roots() and bind(values, total, tail), the
    map mu -> (G(mu), G'(mu)) for that density, with 1.0 for the slope
    where the family takes fixed-point steps.  run() passes the form
    that it keeps of the density, a run family's tail (evolution._Tail)
    or the smooth family's block (evolution._Block): the map then reads
    its carried sums or its weight, and a stalled solve reads the
    density from tail.read(values)."""

    __slots__ = ()

    def solve(self, values, total=None, warm=None, tail=None):
        G = self.bind(values, total, tail)
        k1, tol = self._model.k1, _TOL
        mu = G(0.0)[0] if warm is None else float(warm)
        # min(max(mu, 0.0), k1), bit for bit, without two calls
        mu = 0.0 if mu < 0.0 else k1 if mu > k1 else mu
        for it in range(1, _MAX_ITER + 1):
            target, slope = G(mu)
            settled = abs(target - mu) <= tol
            if slope < 1.0:
                # Newton's update, returned even when settled: it sits
                # far closer to the root than mu
                target = mu + (target - mu) / (1.0 - slope)
            elif settled:
                return mu, it, "fixed-point"
            mu = 0.0 if target < 0.0 else k1 if target > k1 else target
            if settled:
                return mu, it, "fixed-point"
        # the iteration has not settled: the list of every root, read
        # from the density itself, also detects ambiguity
        roots = self.roots(values if tail is None else tail.read(values),
                           total)
        if not roots:
            raise ModelInconsistencyError(
                "no solution of m = int k(x, lam*m) f dx in "
                f"[0, {k1!r}]; the rate family breaks its stated bounds")
        if len(roots) > 1:
            raise AmbiguousActivityError.listing(roots)
        return roots[0], _MAX_ITER, "scan"

    def runs(self, mu):
        # the spectrum reads the rates per cell unless a family states
        # them as runs
        return None


class _SmoothStepper(_Stepper):
    """SmoothSaturatingRate on one grid: the age shape is bound on first
    use, the activity map is gain(mu) times one dot product per density,
    or the weight of run()'s block, and each step of its solve is a
    Newton step on the closed-form slope.  The rate is separable, and
    _block() gives what run() steps in blocks from.  Its stationary
    forms read K = gain(mu) * A(x) from the grid's age pieces."""

    __slots__ = ("_model", "_grid", "_shape", "_factors", "_minus_dx",
                 "_scale", "_dx", "_gain", "_rate", "_span", "_ages", "_E",
                 "_dE")
    one_root = True     # gain is concave

    def __init__(self, model, grid):
        self._model, self._grid = model, grid
        # the age pieces and the buffers of exp(-K) on the edges and its
        # cell increments, on the first stationary_integral
        self._ages = self._E = self._dE = None
        # the age factor 1 - exp(-x/x_scale), on the first _weight or
        # decay, and the work buffer of decay's factors, -dx and the
        # gain's slot, on the first decay: the stationary solve reads
        # none of them
        self._shape = self._factors = self._minus_dx = None
        self._scale = None
        self._dx = grid.dx
        self._gain = model.gain
        # gain'(mu) = (k1 - k0)(lam/mu_scale) exp(-lam*mu/mu_scale), and
        # G = gain * w with gain(0) = k0, so w = G(0)/k0 and
        # G'(mu) = span * w * exp(-rate * mu)
        self._rate = model.lam / model.mu_scale
        self._span = (model.k1 - model.k0) * self._rate

    def _bind_shape(self):
        self._shape = -np.expm1(-self._grid.midpoints / self._model.x_scale)

    def _bind_decay(self):
        if self._shape is None:
            self._bind_shape()
        self._factors = np.empty(self._grid.n_cells)
        # 0-d arrays, as the run stepper's factor: -dx, and the slot
        # each decay writes its gain to
        self._minus_dx = np.array(-self._dx)
        self._scale = np.empty(())

    def _weight(self, values):
        # the age integral of G = gain(mu) * weight; the cell sum does
        # not enter the separable map
        if self._shape is None:
            self._bind_shape()
        return float(np.dot(self._shape, values)) * self._dx

    def roots(self, values, total=None):
        # gain is concave, so G(mu) - mu has at most one root
        gain, k1 = self._gain, self._model.k1
        weight = self._weight(values)
        if gain(k1) * weight > k1:
            return []
        a, b = _roots.bisect(lambda mu: gain(mu) * weight - mu, 0.0, k1,
                             gain(0.0) * weight)
        return [0.5 * (a + b)]

    def bind(self, values, total=None, tail=None):
        # run() passes the block that it keeps of the density
        gain, rate = self._gain, self._rate
        weight = self._weight(values) if tail is None else tail.weight(total)
        scale = self._span * (gain(0.0) * weight / self._model.k0)
        if not scale:
            # G is constant: fixed-point steps
            return lambda mu: (gain(mu) * weight, 1.0)
        return lambda mu: (gain(mu) * weight, scale * math.exp(-rate * mu))

    def decay(self, window, mu):
        # the factors exp(-(gain * shape) * dx) of the window's cells, a
        # prefix of the mesh, bit for bit the rate expression (negation
        # is exact), then window times them
        _check_mu(mu)
        if self._factors is None:
            self._bind_decay()
        shape, factors = self._shape, self._factors
        cells = len(window)
        if cells < len(factors):
            shape, factors = shape[:cells], factors[:cells]
        scale = self._scale
        scale[()] = self._gain(mu)
        np.multiply(shape, scale, out=factors)
        np.multiply(factors, self._minus_dx, out=factors)
        np.exp(factors, out=factors)
        return np.multiply(window, factors, out=window)

    def _gain_at(self, mu):
        _check_mu(mu)
        return self._gain(mu)

    def _block(self):
        # run()'s blocks: the checked gain, exp(-x/x_scale) on the
        # midpoints and exp(-dx/x_scale), dx, k1, and decay's buffer as
        # scratch
        if self._factors is None:
            self._bind_decay()
        x_scale = self._model.x_scale
        e = np.divide(self._grid.midpoints, -x_scale)
        return (self._gain_at, np.exp(e, out=e), math.exp(-self._dx / x_scale),
                self._dx, self._model.k1, self._factors)

    def stationary_integral(self, M):
        # I(M) with K = g * A(x), g = gain(M): E = exp(-g*A) on the edges
        # and dE = E * expm1(-g*dA) on the cells, into the buffers, then
        # I = dot(dE, dx/dA) / (-g) + E(x_max) / (g*A'(x_max)); an idle
        # cell, dA <= 0, holds dx*E
        _check_mu(M)
        if self._E is None:
            n = self._grid.n_cells
            self._ages = _age_pieces(self._grid, self._model.x_scale)
            self._E, self._dE = np.empty(n + 1), np.empty(n)
        ages, rise, weight, idle, end_age = self._ages
        g, E, dE = self._gain(M), self._E, self._dE
        # -g*A and -g*dA round as -(g*A) and -(g*dA): negation is exact
        np.exp(np.multiply(ages, -g, out=E), out=E)
        np.expm1(np.multiply(rise, -g, out=dE), out=dE)
        dE *= E[:-1]
        k_end = g * end_age
        tail = float(E[-1]) / k_end if k_end > 0.0 else math.inf
        cells = float(np.dot(dE, weight)) / -g
        if idle.size:
            cells += self._dx * float(E[idle].sum())
        return cells + tail

    def stationary(self, M):
        # F = M * (cell integral) / dx from the formula that
        # stationary_integral(M) evaluates, the mass share that the
        # cells absorb and exp(-K(x_max))
        self.stationary_integral(M)
        _, _, weight, idle, _ = self._ages
        dx, E, dE = self._dx, self._E, self._dE
        cell_int = dE * weight / -self._gain(M)
        cell_int[idle] = dx * E[idle]
        return M * cell_int / dx, -float(dE.sum()), float(E[-1])


class _RunStepper(_Stepper):
    """A run family on one grid: the rate is 0 below the threshold map
    and k past it.  The activity map is a staircase over threshold
    cells: while the threshold falls in cell j it takes the plateau
    mass - (k*head)*dx, the mass past cell j, with mass (k*total)*dx
    and head the sum of the cells below j: heads[j-1] of the one heads
    buffer, so the map holds until the next bind or roots call, or in
    run() the tail's carried head sum, moved to j by the few cells
    between.  Its solve takes fixed-point steps; the map, decay and the
    tail reuse the cell that one of them last landed in at the same mu,
    as a warm start or a step after a solve does.  Every cell from the
    threshold cell on fires at k: _tail() gives the threshold cell's
    lookup and exp(-k dx), from which run() keeps those cells as one
    scaled tail."""

    __slots__ = ("_model", "_grid", "_threshold", "_k", "_top", "_mids",
                 "_reach", "_heads", "_dx", "_decay", "_mu", "_idx")

    def __init__(self, model, grid, threshold, k, top):
        self._model, self._grid = model, grid
        self._threshold, self._k, self._top = threshold, float(k), top
        # on first use by a stepping call: the stationary forms read
        # none of them
        self._reach = self._mids = self._heads = None
        self._dx = grid.dx
        self._decay = None              # exp(-k * dx), on the first decay
        self._mu = self._idx = None     # the last mu and its cell

    def _bind_cells(self):
        grid = self._grid
        # The cells that the prefix sums must cover: no threshold passes
        # the highest, so the sums stop at its cell (inf keeps every
        # cell, and a top of 0, the constant family's, none)
        self._reach = int(grid.midpoints.searchsorted(
            self._top, side="right")) if self._top else 0
        self._heads = np.empty(self._reach)
        # bisect_right on these midpoints counts those <= t, as
        # midpoints.searchsorted(t, side="right") does, at a third of its
        # per-call cost.  No threshold passes the reach cell's midpoint.
        cells = min(self._reach + 1, grid.n_cells) if self._top else 0
        self._mids = grid.midpoints[:cells].tolist()

    @property
    def one_root(self):
        # G is one plateau when no midpoint lies at or below the highest
        # threshold; a staircase can hold several roots
        if self._mids is None:
            self._bind_cells()
        return not self._reach

    def _bind_decay(self):
        # exp(-k * dx), taken from a vector exp like the full expression,
        # kept as a 0-d array: a multiply skips a Python float's conversion
        self._decay = np.exp(-np.full(1, self._k) * self._dx)
        self._decay.shape = ()
        if self._mids is None:
            self._bind_cells()

    def _cell(self, mu):
        # the threshold cell at mu, which run()'s tail reads with no
        # decay call to check mu
        if mu != self._mu:
            _check_mu(mu)
            self._mu, self._idx = mu, bisect.bisect_right(
                self._mids, self._threshold(mu))
        return self._idx

    def _plateaus(self, values, total):
        # The mass (k times the cell sum times dx) and heads, the
        # sequential prefix sums (cumsum's ufunc, without its dispatch).
        # The two sums round differently, so a tail with no mass can
        # come out a hair below zero; every reader clamps it there.
        if self._mids is None:
            self._bind_cells()
        if total is None:
            total = cell_sum(values)
        if self._reach:
            np.add.accumulate(values[:self._reach], out=self._heads)
        return (self._k * total) * self._dx, self._heads

    def roots(self, values, total=None):
        # plateau j is a root exactly when its own threshold falls in
        # cell j too, so j never passes the cells that heads covers
        mass, heads = self._plateaus(values, total)
        threshold, mids = self._threshold, self._mids
        tails = [mass] + np.maximum(mass - (self._k * heads) * self._dx,
                                    0.0).tolist()
        return sorted(tail for j, tail in enumerate(tails)
                      if bisect.bisect_right(mids, threshold(tail)) == j)

    def bind(self, values, total=None, tail=None):
        # one plateau formula, whose head below(idx), the sum of the idx
        # cells below the threshold cell, comes from the prefix sums or
        # from a run's tail
        if tail is None:
            mass, heads = self._plateaus(values, total)

            def below(idx):
                return float(heads[idx - 1])
        else:
            mass = (self._k * total) * self._dx

            def below(idx):
                return tail.below(values, idx)
        if not self._reach:     # one plateau: no prefix sum, no lookup
            return lambda mu: (mass, 1.0)
        threshold, mids, k, dx = self._threshold, self._mids, self._k, self._dx
        cell_of = bisect.bisect_right

        def G(mu):
            if mu == self._mu:
                idx = self._idx
            else:
                idx = cell_of(mids, threshold(mu))
                self._mu, self._idx = mu, idx
            if not idx:
                return mass, 1.0
            # max(plateau, 0.0), bit for bit, without the call
            plateau = mass - (k * below(idx)) * dx
            return (0.0 if plateau < 0.0 else plateau), 1.0
        return G

    def decay(self, window, mu):
        # cells below the threshold cell keep their value (a factor of
        # 1), the rest decay by exp(-k * dx): window * exp(-rate * dx)
        # bit for bit
        _check_mu(mu)
        if self._decay is None:
            self._bind_decay()
        tail = window[self._cell(mu):]
        np.multiply(tail, self._decay, out=tail)
        return window

    def _tail(self):
        # the threshold cell's lookup and exp(-k * dx), the factor of
        # every cell from it on
        if self._decay is None:
            self._bind_decay()
        return self._cell, float(self._decay)

    def _stationary_run(self, M):
        # the run's threshold T at M, read as 0 where the map falls below
        # it, and its cell j, x_j <= T < x_j+1; j is n_cells when T lies
        # at or past x_max
        _check_mu(M)
        T = max(self._threshold(M), 0.0)
        return T, int(self._grid.edges.searchsorted(T, side="right")) - 1

    def stationary_integral(self, M):
        # With r = x_j+1 - T, the cells below j hold dx each, cell j has
        # the mean rate k*r/dx, and the cells past it and the tail
        # telescope: I = j*dx + dx*(1 - exp(-k*r))/(k*r) + exp(-k*r)/k.
        # With j = n_cells no cell fires and I is infinite.
        T, j = self._stationary_run(M)
        if j == self._grid.n_cells:
            return math.inf
        k, dx = self._k, self._dx
        # x_j+1 is (j + 1) * dx, bit for bit grid.edges[j + 1]
        kr = k * ((j + 1) * dx - T)
        return j * dx + dx * -math.expm1(-kr) / kr + math.exp(-kr) / k

    def stationary(self, M):
        # F from stationary_integral's cell integrals, the share of the
        # mass that the cells absorb and the share exp(-K(x_max)) left
        # at the horizon.  F is M below the threshold cell j; past it
        # each cell holds M*E*(1 - exp(-k*dx))/(k*dx), with
        # E = exp(-k*(x - T)) on its left edge, bit for bit exp(-K)
        T, j = self._stationary_run(M)
        grid = self._grid
        F = np.full(grid.n_cells, M)
        if j == grid.n_cells:
            return F, 0.0, 1.0
        k, dx = self._k, self._dx
        kr = k * ((j + 1) * dx - T)
        fired = -math.expm1(-kr)
        F[j] = M * fired / kr
        E = np.exp(-(k * (grid.edges[j + 1:] - T)))
        shed = -math.expm1(-k * dx)
        F[j + 1:] = M * E[:-1] * shed / (k * dx)
        return F, fired + shed * float(E[:-1].sum()), float(E[-1])

    def runs(self, mu):
        # the rates on the mesh as (rate, cells) runs: 0 below the
        # threshold cell and k from it on, an empty run left out
        _check_mu(mu)
        if self._mids is None:
            self._bind_cells()
        j, n = self._cell(mu), self._grid.n_cells
        return tuple(run for run in ((0.0, j), (self._k, n - j)) if run[1])


def _from_birth(mu):
    # the constant family's threshold: every age fires
    return 0.0


@dataclasses.dataclass(frozen=True)
class ConstantRate:
    """Age- and activity-independent rate, k(x, mu) = k0."""

    k0: float
    lam: float = 0.0

    def __post_init__(self):
        problems = _range_problems(self, ("lam",), ("k0",))
        if problems:
            raise ConfigError(problems)

    @property
    def k1(self):
        return self.k0

    def rate(self, x, mu):
        _check_domain(x, mu)
        out = np.full(np.shape(x), self.k0)
        return _match_shape(x, out if out.ndim else self.k0)

    def cumulative(self, x, mu):
        _check_domain(x, mu)
        return _match_shape(x, self.k0 * np.asarray(x, dtype=float))

    def activity_slope(self, x_max):
        return 0.0, 0.0, 0.0

    def _half_rate_age(self):
        return 0.0

    def stepper(self, grid):
        return _RunStepper(self, grid, _from_birth, self.k0, 0.0)


@dataclasses.dataclass(frozen=True)
class SmoothSaturatingRate:
    """Smooth saturating rate k(x, m) = gain(lam*m) * (1 - exp(-x/x_scale)).

    The activity gain k0 + (k1-k0)*(1 - exp(-mu/mu_scale)) rises from
    k0 at rest to k1 under strong drive, so the rate is nondecreasing
    in both arguments, bounded by k1, and k(x, 0) -> k0 for old ages.
    """

    k0: float
    k1: float
    lam: float = 0.0
    mu_scale: float = 1.0
    x_scale: float = 1.0

    def __post_init__(self):
        problems = _range_problems(self, ("lam",),
                                   ("k0", "k1", "mu_scale", "x_scale"))
        if self.k1 < self.k0 and _passed(problems, "k0", "k1"):
            problems += (("k1", f"saturated rate {self.k1:g} must be at "
                          f"least the rest rate k0 = {self.k0:g}"),)
        if problems:
            raise ConfigError(problems)

    def gain(self, mu):
        mu_eff = self.lam * float(mu)
        return self.k0 - (self.k1 - self.k0) * math.expm1(-mu_eff / self.mu_scale)

    def rate(self, x, mu):
        _check_domain(x, mu)
        xs = np.asarray(x, dtype=float)
        out = self.gain(mu) * (-np.expm1(-xs / self.x_scale))
        return _match_shape(x, out)

    def cumulative(self, x, mu):
        _check_domain(x, mu)
        out = self.gain(mu) * _age_integral(np.asarray(x, dtype=float),
                                            self.x_scale)
        return _match_shape(x, out)

    def activity_slope(self, x_max):
        # gain'(u) times the age integral up to x_max
        age = float(_age_integral(x_max, self.x_scale))
        return (0.0, (self.k1 - self.k0) / self.mu_scale * age,
                1.0 / self.mu_scale)

    def _half_rate_age(self):
        # the rest rate k0 (1 - exp(-x/x_scale)) reaches k0/2 at
        # x_scale ln 2; rounding puts the first float that reaches it a
        # float or so away while k0/2 is a normal float
        def reaches(x):
            return self.rate(x, 0.0) >= self.k0 / 2.0
        x = self.x_scale * math.log(2.0)
        for _ in range(_WALK):
            below = math.nextafter(x, 0.0)
            if not reaches(x):
                x = math.nextafter(x, math.inf)
            elif below < x and reaches(below):
                x = below
            else:
                return x
        raise ValueError(f"the rest rate's rounding at k0 = {self.k0!r} puts "
                         f"its half-rate age more than {_WALK} floats from "
                         "x_scale ln 2")

    def stepper(self, grid):
        return _SmoothStepper(self, grid)


@dataclasses.dataclass(frozen=True)
class StepRate:
    """Hard-threshold rate: k(x, m) = 1 if x > sigma(lam*m), else 0.

    The threshold map sigma is nonincreasing with sigma(0) = sigma_plus
    and sigma(inf) = sigma_minus, so stronger activity lowers the
    firing threshold.  The built-in family is
    sigma(mu) = sigma_minus + (sigma_plus - sigma_minus)*exp(-decay*mu).

    A custom `sigma` callable may be supplied, together with
    `sigma_modulus`, a bound on |sigma'| from which estimate_xi takes
    the regime bounds; the constructor refuses one without the other.
    The map counts in equality and hashing as Python compares it, so a
    function compares by identity.  The indicator is evaluated exactly,
    never smoothed; a threshold below 0 fires every age.
    """

    sigma_plus: float = 0.5
    sigma_minus: float = 0.25
    lam: float = 0.0
    decay: float = 1.0
    sigma: Optional[Callable[[float], float]] = None
    sigma_modulus: Optional[float] = None

    def __post_init__(self):
        low, high = self.sigma_minus, self.sigma_plus
        if 0.0 < low < high < 1.0:
            # so both thresholds pass their own checks and the ordering
            problems = _range_problems(self, ("lam",), ("decay",))
        else:
            problems = _range_problems(
                self, ("lam",), ("sigma_plus", "sigma_minus", "decay"))
            if _passed(problems, "sigma_minus", "sigma_plus"):
                problems += ((
                    ("sigma_plus", f"must be below 1, got {high:g}")
                    if low < high else
                    ("sigma_minus", f"rest threshold {low:g} must be strictly "
                     f"below the excited threshold sigma_plus = {high:g}")),)
        if (self.sigma is None) != (self.sigma_modulus is None):
            problems += (("sigma_modulus", "a custom sigma and its "
                          "sigma_modulus must be given together"),)
        elif self.sigma_modulus is not None:
            # estimate_xi trusts the declared bound on |sigma'|
            problems += _range_problems(self, ("sigma_modulus",), ())
        if problems:
            raise ConfigError(problems)

    @property
    def k0(self):
        return 1.0

    @property
    def k1(self):
        return 1.0

    def threshold(self, mu):
        """Firing threshold sigma(lam*mu)."""
        mu_eff = self.lam * float(mu)
        if self.sigma is not None:
            value = float(self.sigma(mu_eff))
            if not math.isfinite(value):
                # rate and cumulative would disagree on it
                raise ModelInconsistencyError(
                    f"the custom threshold map gives sigma({mu_eff!r}) = "
                    f"{value!r}, not a finite age")
            return value
        span = self.sigma_plus - self.sigma_minus
        return self.sigma_minus + span * math.exp(-self.decay * mu_eff)

    def rate(self, x, mu):
        _check_domain(x, mu)
        out = (np.asarray(x, dtype=float) > self.threshold(mu)).astype(float)
        return _match_shape(x, out)

    def cumulative(self, x, mu):
        _check_domain(x, mu)
        xs = np.asarray(x, dtype=float)
        # a threshold below 0 fires every age, as in rate
        out = np.maximum(0.0, xs - max(self.threshold(mu), 0.0))
        return _match_shape(x, out)

    def activity_slope(self, x_max):
        # K(x_max, u) = max(0, x_max - sigma(u)), so the slope is
        # -sigma'(u) = decay (sigma(u) - sigma_minus) once the threshold
        # has fallen below x_max, and 0 before.  A custom sigma gives its
        # declared bound on |sigma'| instead, with no decay.
        if self.sigma is not None:
            return 0.0, self.sigma_modulus, 0.0
        top = min(x_max, self.sigma_plus) - self.sigma_minus
        if top <= 0.0:
            return 0.0, 0.0, 0.0
        # sigma(onset) = x_max; onset is 0 when x_max >= sigma_plus
        onset = math.log((self.sigma_plus - self.sigma_minus) / top) \
            / self.decay
        return onset, self.decay * top, self.decay

    def _half_rate_age(self):
        # the rest rate is 1 past threshold(0) and 0 up to it
        rest = self.threshold(0.0)
        return 0.0 if rest < 0.0 else math.nextafter(rest, math.inf)

    def stepper(self, grid):
        # a custom sigma may go anywhere; the built-in one is
        # nonincreasing, so none passes its value at rest
        top = math.inf if self.sigma is not None else self.threshold(0.0)
        return _RunStepper(self, grid, self.threshold, 1.0, top)


@dataclasses.dataclass(frozen=True)
class RegimeEstimate:
    """Lipschitz modulus and the couplings it delimits, in closed form.

    xi bounds how fast the rate profile moves in L1 per unit of
    activity.  lambda_weak is the largest coupling below which the
    contraction factor stays under 1 (activity fixed points provably
    unique there); lambda_strong is the smallest coupling beyond which
    the factor, taken over high activities, stays under 1 again.  Each
    is exact for the built-in families, up to rounding; a custom
    threshold map, which StepRate accepts only with its sigma_modulus,
    gives the bounds that modulus implies.
    """

    xi: float
    lambda_weak: float
    lambda_strong: float


def _lambert_w_lower(z):
    """The -1 branch of Lambert W: the w <= -1 with w exp(w) = z, for
    -1/e <= z < 0, and its limit -inf at z = 0 (an underflowed z).

    Newton on w + log(-w) = log(-z), which is increasing and concave in
    w < -1, so after the first step the iterates rise to the root; the
    loop stops when they no longer rise.  It starts from the series in
    p = sqrt(2 (e z + 1)) near the branch point and from the logarithmic
    asymptote nearer 0, and takes at most six steps."""
    if z == 0.0:
        return -math.inf
    q = math.e * z + 1.0
    if q <= 0.0:
        return -1.0
    if z < -0.25:
        p = math.sqrt(2.0 * q)
        w = -1.0 - p - p * p / 3.0
    else:
        l1 = math.log(-z)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    target = math.log(-z)
    for it in range(20):
        step = (w + math.log(-w) - target) * w / (w + 1.0)
        if it and not step < 0.0:
            break
        w -= step
    return w


# estimate_xi reads a regime coupling past this cap as inf
_LAM_CAP = 1e4


def estimate_xi(model, x_max=10.0, mu_range=(0.0, 1.0), samples=33,
                f_inf_scale=1.0, mu_inf=None):
    """The L1-in-age Lipschitz modulus of mu -> k(., lam*mu) and the
    couplings it delimits, in closed form.

    k is monotone in mu, so the L1 distance of two rate profiles cut at
    the horizon x_max is |K(x_max, lam*b) - K(x_max, lam*a)|, and xi,
    the modulus over mu_range = (lo, hi), is lam times the supremum of
    D(u) = dK(x_max, u)/du over [lam*lo, lam*hi].  The family gives D as
    model.activity_slope(x_max) = (onset, peak, rate): D is 0 below
    onset and peak * exp(-rate*(u - onset)) past it, so its supremum on
    [a, b] is 0 when b <= onset and D(max(a, onset)) otherwise.

    With C = 2 k1 (f_inf_scale + k1), the contraction factor at
    coupling lam is C times the modulus at lam:
      - over (0, hi) it is C*peak*lam once lam*hi passes onset, so
        lambda_weak, the least coupling where it reaches 1, is
        max(onset/hi, 1/(C*peak));
      - over (mu_inf, k1), with mu_inf = k1/10 by default and the upper
        end 2*mu_inf when k1 <= mu_inf, it is
        g(lam) = C*peak*lam*exp(-rate*(lam*mu_inf - onset)) once
        lam*mu_inf passes onset, and below that it rises linearly to
        g(onset/mu_inf).  lambda_strong, the greatest coupling where
        the factor is at least 1, is the last crossing of 1 by g,
        -W_{-1}(z)/(rate*mu_inf) with z = -rate*mu_inf*exp(-rate*onset)
        /(C*peak), if that lies past onset/mu_inf, and 0 if g stays
        below 1 there (z < -1/e included).  With rate*mu_inf = 0 the
        factor grows without bound and lambda_strong is inf.
    A coupling past _LAM_CAP = 1e4 reads as inf.  samples must be at
    least 2 but the result does not depend on it: nothing is sampled.
    Every family bounds D: a custom threshold map comes with its
    declared sigma_modulus, which is D's peak, with onset and rate 0.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (0.0 <= lo < hi):
        raise ValueError("mu_range must be nondegenerate and nonnegative")
    if samples < 2:
        raise ValueError("need at least two activity samples")
    m_inf = (model.k1 / 10.0) if mu_inf is None else float(mu_inf)
    for name, value in (("x_max", x_max), ("f_inf_scale", f_inf_scale),
                        ("mu_inf", m_inf)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
    onset, peak, rate = model.activity_slope(float(x_max))
    scale = 2.0 * model.k1 * (f_inf_scale + model.k1) * peak

    lam = model.lam
    xi = 0.0
    if peak > 0.0 and lam * hi > onset:
        xi = lam * peak * math.exp(-rate * max(lam * lo - onset, 0.0))

    lambda_weak = max(onset / hi, 1.0 / scale) if scale > 0.0 else math.inf
    # with no decay the strong factor grows without bound
    lambda_strong = 0.0 if scale <= 0.0 else math.inf
    decay = rate * m_inf
    if scale > 0.0 and decay > 0.0:
        z = -decay * math.exp(-rate * onset) / scale
        last = -_lambert_w_lower(z) / decay if z >= -1.0 / math.e else 0.0
        # short of onset/mu_inf the factor stays below g(onset/mu_inf)
        lambda_strong = last if last * m_inf >= onset else 0.0
    if lambda_weak > _LAM_CAP:
        lambda_weak = math.inf
    if lambda_strong >= _LAM_CAP:
        lambda_strong = math.inf
    return RegimeEstimate(xi=xi, lambda_weak=lambda_weak,
                          lambda_strong=lambda_strong)


def half_rate_age(model):
    """Smallest age x0 past which the resting rate stays >= k0/2, as
    each family states it: 0 for the constant family, the float just
    past threshold(0) for the step family (0 when that is negative),
    and for the smooth family the first float from x_scale ln 2 on
    which the rate expression reaches k0/2.

    Monotonicity in mu extends the floor to every activity: for any
    mu >= 0, k(x, mu) >= k0/2 for x >= x0.
    """
    return model._half_rate_age()
