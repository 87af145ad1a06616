"""Delay kernels: probability measures weighting the discharge history.

The network activity is the discharge filtered through a kernel b,
m(t) = int p(t - y) b(dy).  Kernels must carry a finite exponential
moment int exp(delta*y) b(dy) for some delta > 0; heavy tails are
rejected at construction.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np
from scipy import stats

from .errors import ConfigError

__all__ = ["DelayKernel", "DischargeHistory"]

_QUANTILE = 1.0 - 1e-6  # the history buffer must cover this much of b


@dataclasses.dataclass(frozen=True)
class DelayKernel:
    """One of: Dirac mass at 0, Exponential(theta), Gamma(shape, rate),
    or a Sampled density on a time mesh.

    delta is the exponent of the certified moment int e^{delta*y} b(dy);
    the analytic moment is stored as delta_moment at construction and
    must be finite.
    """

    kind: str
    theta: float = 0.0
    shape: float = 1.0
    delta: float = 0.0
    y_samples: Optional[np.ndarray] = dataclasses.field(
        default=None, compare=False)
    b_samples: Optional[np.ndarray] = dataclasses.field(
        default=None, compare=False)

    @classmethod
    def dirac(cls):
        """No delay: the activity is the instantaneous discharge."""
        return cls(kind="dirac")

    @classmethod
    def exponential(cls, theta, delta=None):
        if theta <= 0.0:
            raise ValueError("exponential rate theta must be positive")
        delta = theta / 2.0 if delta is None else float(delta)
        if not (0.0 < delta < theta):
            raise ValueError(
                "delta must lie in (0, theta) for a finite exponential moment")
        return cls(kind="exponential", theta=theta, delta=delta)

    @classmethod
    def gamma(cls, shape, rate, delta=None):
        if rate <= 0.0:
            raise ValueError("gamma rate must be positive")
        if shape < 1.0:
            raise ValueError(
                "gamma shape must be >= 1 so the density is bounded at 0")
        delta = rate / 2.0 if delta is None else float(delta)
        if not (0.0 < delta < rate):
            raise ValueError(
                "delta must lie in (0, rate) for a finite exponential moment")
        return cls(kind="gamma", theta=rate, shape=shape, delta=delta)

    @classmethod
    def sampled(cls, y, b, delta=1.0):
        """Density given by samples (y_i, b(y_i)); linear interpolation
        in between, zero outside.  Must integrate to 1 within 1e-8."""
        y = np.asarray(y, dtype=float)
        b = np.asarray(b, dtype=float)
        if y.ndim != 1 or y.shape != b.shape or y.size < 2:
            raise ValueError("need matching 1d arrays of at least 2 samples")
        if np.any(np.diff(y) <= 0.0) or y[0] < 0.0:
            raise ValueError("sample times must be increasing and >= 0")
        if np.any(b < 0.0):
            raise ValueError("density samples must be nonnegative")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        mass = float(np.trapezoid(b, y))
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(
                f"sampled kernel mass {mass!r} is not 1 within 1e-8; "
                "normalize the samples first")
        return cls(kind="sampled", delta=float(delta), y_samples=y,
                   b_samples=b)

    @property
    def is_dirac(self):
        return self.kind == "dirac"

    @property
    def delta_moment(self):
        """The analytic moment int e^{delta*y} b(dy)."""
        if self.kind == "dirac":
            return 1.0
        if self.kind == "exponential":
            return self.theta / (self.theta - self.delta)
        if self.kind == "gamma":
            return (self.theta / (self.theta - self.delta)) ** self.shape
        return float(np.trapezoid(
            np.exp(self.delta * self.y_samples) * self.b_samples,
            self.y_samples))

    def density(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "dirac":
            raise ValueError("the Dirac kernel has no density")
        if self.kind == "exponential":
            return self.theta * np.exp(-self.theta * y)
        if self.kind == "gamma":
            return stats.gamma.pdf(y, a=self.shape, scale=1.0 / self.theta)
        return np.interp(y, self.y_samples, self.b_samples, left=0.0,
                         right=0.0)

    def memory_horizon(self):
        """Time span the history buffer must cover (the 1 - 1e-6
        quantile of b; the full support for sampled kernels)."""
        if self.kind == "dirac":
            return 0.0
        if self.kind == "exponential":
            return -math.log(1.0 - _QUANTILE) / self.theta
        if self.kind == "gamma":
            return float(stats.gamma.ppf(_QUANTILE, a=self.shape,
                                         scale=1.0 / self.theta))
        return float(self.y_samples[-1])

    def weights(self, dt):
        """Trapezoid weights of b on the lag mesh y_j = j*dt,
        renormalized so they sum to 1 exactly (a constant history then
        convolves to that constant with no mesh error)."""
        if self.kind == "dirac":
            raise ValueError("the Dirac kernel needs no weights")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        n = int(math.ceil(self.memory_horizon() / dt)) + 1
        lags = np.arange(n) * dt
        w = self.density(lags) * dt
        w[0] *= 0.5
        w[-1] *= 0.5
        total = w.sum()
        if total <= 0.0:
            raise ValueError("kernel weights vanish on this mesh")
        w /= total
        # push the last ulp of rounding into the largest weight so the
        # sum is exactly 1 and constant histories convolve exactly
        w[np.argmax(w)] += 1.0 - w.sum()
        return lags, w

    def discrete_delta_moment(self, dt):
        """Moment of the renormalized mesh weights; should track the
        analytic delta_moment once dt resolves the kernel."""
        lags, w = self.weights(dt)
        return float(np.sum(w * np.exp(self.delta * lags)))


class DischargeHistory:
    """Rolling record of past discharge values on the time mesh.

    Entry j holds p(t - j*dt); push() advances the window one step.
    Owned by a single simulation, never shared.
    """

    def __init__(self, values, dt):
        self._buf = np.array(values, dtype=float)
        if self._buf.ndim != 1 or self._buf.size == 0:
            raise ValueError("history must be a nonempty 1d array")
        self.dt = float(dt)

    @classmethod
    def constant(cls, value, length, dt):
        return cls(np.full(length, float(value)), dt)

    def __len__(self):
        return self._buf.size

    @property
    def current(self):
        return float(self._buf[0])

    def push(self, p):
        self._buf[1:] = self._buf[:-1]
        self._buf[0] = p

    def lagged(self, count):
        """The most recent `count` values, newest first."""
        if count > self._buf.size:
            raise ConfigError([
                f"history of length {self._buf.size} is shorter than the "
                f"kernel support ({count} mesh points); enlarge the buffer "
                "before the run starts"])
        return self._buf[:count]

