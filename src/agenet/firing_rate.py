"""Firing-rate families k(x, lam*mu) for the age-structured network.

A rate model maps the age x (time elapsed since a neuron's last
discharge) and the raw network activity mu to an instantaneous firing
rate.  The coupling strength lam is stored on the model and applied
internally, so every caller passes the unscaled activity.

All families are nonnegative, nondecreasing in both age and activity,
and bounded by k1.  k0 is the resting rate of an old neuron
(the large-age limit of k(., 0)).

Each family computes its own closed forms behind one protocol: rate,
cumulative K(x, mu) = int_0^x k, cumulative_over (K at one age for an
array of activities), survival (the one-step factors
exp(-k(x_j, lam*mu) dx) on the midpoint mesh), activity_map
(mu -> int k(x, lam*mu) f dx on the midpoint mesh), activity_roots
(every fixed point of that map, for the implicit activity solve when
its iteration stalls) and lipschitz_known (whether estimate_xi can
trust xi).

Age profiles on a mesh depend only on the family's shape parameters
and the grid (and the step family's survival only on its threshold
cell), so they are computed once and cached, read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

from . import _roots

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


def _check_over(x, mus):
    mus = np.asarray(mus, dtype=float)
    if np.ndim(x) != 0 or mus.ndim != 1:
        raise ValueError("need one age x and a 1-d array of activities")
    if not float(x) >= 0.0:
        raise ValueError("age x must be nonnegative")
    if not np.all((mus >= 0.0) & (mus < math.inf)):
        raise ValueError("activities mu must be finite and nonnegative")
    return float(x), mus


def _match_shape(x, out):
    # scalar in, scalar out; array in, array out
    return float(out) if np.ndim(x) == 0 else out


# Per-grid profiles, keyed on the frozen AgeGrid.  Each cache keeps at
# most this many vectors of one float per cell, so memory stays bounded.
_PROFILE_CACHE = 16


def _frozen(values):
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=_PROFILE_CACHE)
def _constant_survival(k0, grid):
    # computed as np.exp(-rate(midpoints, mu) * dx) computes it
    return _frozen(np.exp(-np.full(grid.n_cells, k0) * grid.dx))


@functools.lru_cache(maxsize=_PROFILE_CACHE)
def _unit_decay(grid):
    # exp(-1 * dx), taken from a vector exp like the full expression
    return float(np.exp(-np.ones(1) * grid.dx)[0])


@functools.lru_cache(maxsize=_PROFILE_CACHE)
def _saturating_shape(x_scale, grid):
    # the age factor 1 - exp(-x/x_scale) of the smooth family
    return _frozen(-np.expm1(-grid.midpoints / x_scale))


# A relaxing run's threshold settles in one cell: on the benchmark's
# step relaxations 99.3-99.9% of calls hit, and a 1-, 4- or 16-entry
# cache misses within 7 calls of each other per 10k steps.  Each entry
# holds one float per cell, so the cache keeps only a few.
_STEP_SURVIVAL_CACHE = 4


@functools.lru_cache(maxsize=_STEP_SURVIVAL_CACHE)
def _step_survival(grid, idx):
    # cells from idx on lie past the threshold and decay by exp(-dx),
    # the rest by 1
    out = np.empty(grid.n_cells)
    out[:idx] = 1.0
    out[idx:] = _unit_decay(grid)
    return _frozen(out)


@dataclasses.dataclass(frozen=True)
class ConstantRate:
    """Age- and activity-independent rate, k(x, mu) = k0."""

    k0: float
    lam: float = 0.0
    lipschitz_known = True      # a class constant, not a field

    def __post_init__(self):
        if self.k0 <= 0.0:
            raise ValueError("k0 must be positive")
        if self.lam < 0.0:
            raise ValueError("coupling lam must be nonnegative")

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

    def cumulative_over(self, x, mus):
        x, mus = _check_over(x, mus)
        return np.full(mus.shape, self.k0 * x)

    def survival(self, grid, mu):
        _check_mu(mu)
        return _constant_survival(self.k0, grid)

    def activity_map(self, grid, values):
        total = self.k0 * float(np.sum(values)) * grid.dx
        return lambda mu: total

    def activity_roots(self, grid, values):
        return [self.activity_map(grid, values)(0.0)]


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
    lipschitz_known = True      # a class constant, not a field

    def __post_init__(self):
        if self.k0 <= 0.0:
            raise ValueError("k0 must be positive")
        if self.k1 < self.k0:
            raise ValueError("k1 must be >= k0")
        if self.mu_scale <= 0.0 or self.x_scale <= 0.0:
            raise ValueError("mu_scale and x_scale must be positive")
        if self.lam < 0.0:
            raise ValueError("coupling lam must be nonnegative")

    def gain(self, mu):
        mu_eff = self.lam * float(mu)
        return self.k0 - (self.k1 - self.k0) * math.expm1(-mu_eff / self.mu_scale)

    def _age_integral(self, x):
        # int_0^x (1 - exp(-y/x_scale)) dy in closed form
        return x + self.x_scale * np.expm1(-x / self.x_scale)

    def rate(self, x, mu):
        _check_domain(x, mu)
        xs = np.asarray(x, dtype=float)
        out = self.gain(mu) * (-np.expm1(-xs / self.x_scale))
        return _match_shape(x, out)

    def cumulative(self, x, mu):
        _check_domain(x, mu)
        out = self.gain(mu) * self._age_integral(np.asarray(x, dtype=float))
        return _match_shape(x, out)

    def cumulative_over(self, x, mus):
        x, mus = _check_over(x, mus)
        gains = self.k0 - (self.k1 - self.k0) * np.expm1(
            -(self.lam * mus) / self.mu_scale)
        return gains * self._age_integral(x)

    def survival(self, grid, mu):
        _check_mu(mu)
        # in place, bit for bit np.exp(-(gain * shape) * dx): negation
        # is exact
        out = _saturating_shape(self.x_scale, grid) * self.gain(mu)
        out *= -grid.dx
        return np.exp(out, out=out)

    def activity_map(self, grid, values):
        # separable: one dot product per density, then O(1) per mu
        shape = _saturating_shape(self.x_scale, grid)
        weight = float(np.dot(shape, values)) * grid.dx
        return lambda mu: self.gain(mu) * weight

    def activity_roots(self, grid, values):
        # gain is concave, so G(mu) - mu has at most one root
        G = self.activity_map(grid, values)
        if G(self.k1) > self.k1:
            return []
        a, b = _roots.bisect(lambda mu: G(mu) - mu, 0.0, self.k1, G(0.0))
        return [0.5 * (a + b)]


@dataclasses.dataclass(frozen=True)
class StepRate:
    """Hard-threshold rate: k(x, m) = 1 if x > sigma(lam*m), else 0.

    The threshold map sigma is nonincreasing with sigma(0) = sigma_plus
    and sigma(inf) = sigma_minus, so stronger activity lowers the
    firing threshold.  The built-in family is
    sigma(mu) = sigma_minus + (sigma_plus - sigma_minus)*exp(-decay*mu).

    A custom `sigma` callable may be supplied.  Pass `sigma_modulus`
    (a bound on |sigma'|) along with it; without one, lipschitz_known
    is False and regime estimation reports the Lipschitz modulus as
    unknown (xi = inf).  The indicator is evaluated exactly, never
    smoothed.
    """

    sigma_plus: float = 0.5
    sigma_minus: float = 0.25
    lam: float = 0.0
    decay: float = 1.0
    sigma: Optional[Callable[[float], float]] = dataclasses.field(
        default=None, compare=False)
    sigma_modulus: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.sigma_minus < self.sigma_plus < 1.0):
            raise ValueError(
                "thresholds must satisfy 0 < sigma_minus < sigma_plus < 1")
        if self.decay <= 0.0:
            raise ValueError("decay must be positive")
        if self.lam < 0.0:
            raise ValueError("coupling lam must be nonnegative")

    @property
    def k0(self):
        return 1.0

    @property
    def k1(self):
        return 1.0

    @property
    def lipschitz_known(self):
        return self.sigma is None or self.sigma_modulus is not None

    def threshold(self, mu):
        """Firing threshold sigma(lam*mu)."""
        mu_eff = self.lam * float(mu)
        if self.sigma is not None:
            return float(self.sigma(mu_eff))
        span = self.sigma_plus - self.sigma_minus
        return self.sigma_minus + span * math.exp(-self.decay * mu_eff)

    def rate(self, x, mu):
        _check_domain(x, mu)
        out = (np.asarray(x, dtype=float) > self.threshold(mu)).astype(float)
        return _match_shape(x, out)

    def cumulative(self, x, mu):
        _check_domain(x, mu)
        xs = np.asarray(x, dtype=float)
        out = np.maximum(0.0, xs - self.threshold(mu))
        return _match_shape(x, out)

    def cumulative_over(self, x, mus):
        x, mus = _check_over(x, mus)
        # the scalar map, so each entry equals cumulative(x, mu) exactly
        thresholds = np.array([self.threshold(mu) for mu in mus.tolist()])
        return np.maximum(0.0, x - thresholds)

    def survival(self, grid, mu):
        # one cached, read-only profile per threshold cell
        _check_mu(mu)
        idx = np.searchsorted(grid.midpoints, self.threshold(mu),
                              side="right")
        return _step_survival(grid, int(idx))

    def _tails(self, grid, values):
        # tails[j] is the mass past cell j: the total (one pairwise sum)
        # minus the sequential prefix sums.  The two round differently,
        # so a tail with no mass can come out a hair below zero; it is
        # clamped there.  The built-in sigma is nonincreasing, so no
        # threshold passes threshold(0) and the prefix sums stop at its
        # cell; a custom sigma may go anywhere and keeps them all.
        reach = grid.n_cells
        if self.sigma is None:
            reach = int(np.searchsorted(grid.midpoints, self.threshold(0.0),
                                        side="right"))
        total = float(values.sum()) * grid.dx
        heads = np.concatenate(([0.0], np.cumsum(values[:reach]))) * grid.dx
        return np.maximum(total - heads, 0.0)

    def activity_map(self, grid, values):
        # cells past the threshold fire at rate 1: an exact tail sum,
        # O(1) per mu >= 0
        mids = grid.midpoints
        tails = self._tails(grid, values)

        def G(mu):
            return tails[np.searchsorted(mids, self.threshold(mu),
                                         side="right")]
        return G

    def activity_roots(self, grid, values):
        # G is a staircase: while the threshold falls in cell j it takes
        # the value tails[j], which is a root exactly when its own
        # threshold falls in cell j too, so j never passes the cells
        # that tails covers
        tails = self._tails(grid, values)
        thresholds = [self.threshold(g) for g in tails.tolist()]
        cells = np.searchsorted(grid.midpoints, thresholds, side="right")
        return sorted(tails[cells == np.arange(tails.size)].tolist())


@dataclasses.dataclass(frozen=True)
class RegimeEstimate:
    """Sampled Lipschitz modulus and the couplings it delimits.

    xi bounds how fast the rate profile moves in L1 per unit of
    activity.  lambda_weak is the largest coupling below which the
    sampled contraction factor stays under 1 (activity fixed points
    provably unique there); lambda_strong is the smallest coupling
    beyond which the factor, sampled over high activities, stays under
    1 again.  Both are sampled estimates, not certificates.
    """

    xi: float
    lambda_weak: float
    lambda_strong: float


def estimate_xi(model, x_max=10.0, mu_range=(0.0, 1.0), samples=33,
                f_inf_scale=1.0, mu_inf=None, lam_cap=1e4):
    """Estimate the L1-in-age Lipschitz modulus of mu -> k(., lam*mu).

    xi is the largest sampled difference quotient
        |K(x_max, mu2) - K(x_max, mu1)| / |mu2 - mu1|
    over adjacent samples of mu_range (the integral is truncated at
    the horizon x_max); K is nondecreasing in mu, so a wider pair's
    quotient is a weighted mean of adjacent ones.  lambda_weak and
    lambda_strong are found by bisection on the contraction factor
        2 * k1 * xi(lam) * (f_inf_scale + k1) < 1,
    sampled over (0, mu_range[1]) for the weak side and over
    (mu_inf, k1) for the strong side (mu_inf defaults to k1/10).
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (0.0 <= lo < hi):
        raise ValueError("mu_range must be nondegenerate and nonnegative")
    if samples < 2:
        raise ValueError("need at least two activity samples")
    if not model.lipschitz_known:
        # e.g. a custom threshold map with no declared modulus
        return RegimeEstimate(xi=math.inf, lambda_weak=0.0,
                              lambda_strong=math.inf)
    k1 = model.k1
    unit = dataclasses.replace(model, lam=1.0)

    def xi_at(lam, mus):
        # Monotonicity in mu makes |k(., b) - k(., a)| single-signed, so
        # the L1 difference collapses to |K(x_max, b) - K(x_max, a)|.
        kx = unit.cumulative_over(x_max, lam * mus)
        return float(np.max(np.abs(np.diff(kx)) / np.diff(mus)))

    def factor(lam, mus):
        return 2.0 * k1 * xi_at(lam, mus) * (f_inf_scale + k1)

    xi = xi_at(model.lam, np.linspace(lo, hi, samples))

    weak_mus = np.linspace(0.0, hi, samples)
    if factor(lam_cap, weak_mus) < 1.0:
        lambda_weak = math.inf
    else:
        # the width of 60 halvings of [0, lam_cap], 1e-14 at the
        # default cap; the 1.5 keeps rounding from adding or dropping one
        lambda_weak, _ = _roots.bisect(
            lambda lam: -1.0 if factor(lam, weak_mus) < 1.0 else 1.0,
            0.0, lam_cap, -1.0, width=1.5 * lam_cap * 2.0 ** -60)

    m_inf = (k1 / 10.0) if mu_inf is None else float(mu_inf)
    strong_mus = np.linspace(m_inf, k1 if k1 > m_inf else 2.0 * m_inf,
                             samples)
    lams = np.geomspace(1e-3, lam_cap, 49)
    facs = np.array([factor(l, strong_mus) for l in lams])
    if np.all(facs < 1.0):
        lambda_strong = 0.0
    elif facs[-1] >= 1.0:
        lambda_strong = math.inf
    else:
        j = int(np.max(np.nonzero(facs >= 1.0)[0]))
        _, lambda_strong = _roots.bisect(
            lambda lam: -1.0 if factor(lam, strong_mus) < 1.0 else 1.0,
            lams[j], lams[j + 1], 1.0)

    return RegimeEstimate(xi=float(xi), lambda_weak=float(lambda_weak),
                          lambda_strong=float(lambda_strong))


def _rising_threshold(fn, target, x_cap=1e6):
    # smallest x with fn(x) >= target, for nondecreasing fn
    if fn(0.0) >= target:
        return 0.0
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > x_cap:
            raise ValueError("rate never reaches the requested level")
    # a sign, not fn - target: fn may sit on target over several floats
    return _roots.bisect(lambda x: 1.0 if fn(x) >= target else -1.0,
                         0.0, hi, -1.0)[1]


def half_rate_age(model):
    """Smallest age x0 past which the resting rate stays >= k0/2.

    Monotonicity in mu extends the floor to every activity: for any
    mu >= 0, k(x, mu) >= k0/2 for x >= x0.
    """
    return _rising_threshold(lambda x: model.rate(x, 0.0), model.k0 / 2.0)

