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
array of activities), activity_map (mu -> int k(x, lam*mu) f dx on the
midpoint mesh), activity_scan_size (the mesh the implicit activity
solve scans when its iteration stalls) and lipschitz_known (whether
estimate_xi can trust xi).
"""

from __future__ import annotations

import dataclasses
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
    "weight_threshold_age",
    "moment_tail_constant",
]


def _check_domain(x, mu):
    if np.ndim(mu) != 0:
        raise ValueError("activity mu must be a scalar")
    if not 0.0 <= float(mu) < math.inf:
        raise ValueError("activity mu must be finite and nonnegative")
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

    def activity_map(self, grid, values):
        total = self.k0 * float(np.sum(values)) * grid.dx
        return lambda mu: total

    def activity_scan_size(self, grid):
        return 1024


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

    def activity_map(self, grid, values):
        # separable: one dot product per density, then O(1) per mu
        shape = -np.expm1(-grid.midpoints / self.x_scale)
        weight = float(np.dot(shape, values)) * grid.dx
        return lambda mu: self.gain(mu) * weight

    def activity_scan_size(self, grid):
        return 1024


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

    def activity_map(self, grid, values):
        # cells past the threshold fire at rate 1: an exact tail sum
        mids = grid.midpoints
        csum = np.concatenate(([0.0], np.cumsum(values))) * grid.dx
        total = csum[-1]

        def G(mu):
            idx = np.searchsorted(mids, self.threshold(mu), side="right")
            return total - csum[idx]
        return G

    def activity_scan_size(self, grid):
        # about four mesh points per plateau of the staircase G, whose
        # jumps come every dx / (lam * |sigma'|) in mu
        modulus = self.sigma_modulus
        if modulus is None:
            modulus = (self.sigma_plus - self.sigma_minus) * self.decay
        jumps = abs(self.lam) * modulus * self.k1 / grid.dx
        return int(min(2e5, max(1024, 4.0 * jumps)))


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


def weight_threshold_age(model, q):
    """Smallest age x0 >= 1 with k(x, 0) - q/x >= k0/2 for all x >= x0.

    This is the pivot used by the moment bound below; both sides of
    the inequality are monotone, so a doubling bracket plus bisection
    finds it.
    """
    if q < 0.0:
        raise ValueError("moment exponent q must be nonnegative")
    x0 = _rising_threshold(
        lambda x: model.rate(x, 0.0) - (q / x if x > 0.0 else math.inf),
        model.k0 / 2.0)
    return max(1.0, x0)


def moment_tail_constant(model, q):
    """The additive constant K_q in the running moment bound
    ||f_t||_{L1,q} <= ||f_0||_{L1,q} + K_q, with K_q = 2*x0^q*(1+k1/k0)."""
    x0 = weight_threshold_age(model, q)
    return 2.0 * x0 ** q * (1.0 + model.k1 / model.k0)
