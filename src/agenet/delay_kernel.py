"""Delay kernels: probability measures weighting the discharge history.

The network activity is the discharge filtered through a kernel b,
m(t) = int p(t - y) b(dy).  The paper asks for a finite moment
int exp(delta*y) b(dy), delta > 0; every kernel here has one for every
parameter value (the sampled kernel has compact support), so no delta
is stored.  NaN and infinite parameters are refused.

A run convolves through kernel.history(dt, m0).  The exponential kernel
and the gamma kernels of integer shape s are a chain of s first-order
filters, so their history is s running means updated by a recursion,
O(s^2) per step and no buffer.  The sampled kernel and the gamma
kernels of other shapes keep a buffer of past discharges as long as
their weights(dt), and take one dot product per step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .errors import ConfigError, _passed

__all__ = ["DelayKernel", "DischargeHistory"]

# weights(dt) cover this much of b.  Only the sampled kernel and the
# gamma kernels of non-integer shape run on them, with a history buffer
# as long; the chain of the other kernels has untruncated weights.
_QUANTILE = 1.0 - 1e-6


# each kind and the fields it reads; the others keep their defaults
_KINDS = {"dirac": (), "exponential": ("theta",),
          "gamma": ("theta", "shape"), "sampled": ("y_samples", "b_samples")}


@dataclasses.dataclass(frozen=True)
class DelayKernel:
    """One of: Dirac mass at 0, Exponential(theta), Gamma(shape, rate),
    or a Sampled density on a time mesh.  A sampled kernel stores its
    samples as tuples of floats, so two kernels compare equal, and hash
    alike, exactly when their samples do.  The constructor checks every
    field, so a direct call and the classmethods refuse the same
    kernels with the same messages."""

    kind: str
    theta: float = 0.0
    shape: float = 1.0
    y_samples: Optional[tuple] = None
    b_samples: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError([("kind", f"unknown kernel kind {self.kind!r} "
                                "(known: " + ", ".join(_KINDS) + ")")])
        problems = []
        for field in dataclasses.fields(self)[1:]:
            value = getattr(self, field.name)
            if field.name not in _KINDS[self.kind] and value is not None \
                    and (field.default is None or value != field.default):
                problems.append((field.name, f"the {self.kind} kernel "
                                 f"takes no {field.name}"))
        # NaN fails every comparison, so test for the good range; a
        # shape below 1 makes the gamma density unbounded at 0
        if self.kind == "gamma" and not 1.0 <= self.shape < math.inf:
            problems.append(("shape", "must be a number >= 1"
                             if self.shape < 1.0 else "must be finite"))
        if self.kind in ("exponential", "gamma") \
                and not 0.0 < self.theta < math.inf:
            problems.append(("theta", "must be a positive number"
                             if self.theta <= 0.0 else "must be finite"))
        if self.kind == "sampled":
            y = np.asarray(self.y_samples, dtype=float)
            b = np.asarray(self.b_samples, dtype=float)
            if y.ndim != 1 or y.shape != b.shape or y.size < 2:
                problems.append(
                    (None, "need matching 1d arrays of at least 2 samples"))
            else:
                # NaN fails these tests, and inf makes the mass non-finite
                if not (np.all(np.diff(y) > 0.0) and y[0] >= 0.0):
                    problems.append(("y_samples", "sample times must be "
                                     "increasing and >= 0"))
                if not np.all(b >= 0.0):
                    problems.append(("b_samples",
                                     "density samples must be nonnegative"))
                mass = float(np.trapezoid(b, y))
                if _passed(problems, "y_samples", "b_samples") \
                        and not abs(mass - 1.0) <= 1e-8:
                    problems.append((None, f"sampled kernel mass {mass!r} "
                                     "is not 1 within 1e-8; normalize the "
                                     "samples first"))
        if problems:
            raise ConfigError(problems)
        if self.kind == "sampled":
            # stored as tuples of floats, as the classmethod gives them
            object.__setattr__(self, "y_samples", tuple(y.tolist()))
            object.__setattr__(self, "b_samples", tuple(b.tolist()))

    @classmethod
    def dirac(cls):
        """No delay: the activity is the instantaneous discharge."""
        return cls(kind="dirac")

    @classmethod
    def exponential(cls, theta):
        return cls(kind="exponential", theta=theta)

    @classmethod
    def gamma(cls, shape, rate):
        return cls(kind="gamma", theta=rate, shape=shape)

    @classmethod
    def sampled(cls, y, b):
        """Density given by samples (y_i, b(y_i)); linear interpolation
        in between, zero outside.  Must integrate to 1 within 1e-8."""
        return cls(kind="sampled", y_samples=y, b_samples=b)

    @property
    def is_dirac(self):
        return self.kind == "dirac"

    def density(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "dirac":
            raise ValueError("the Dirac kernel has no density")
        if self.kind == "exponential":
            return self.theta * np.exp(-self.theta * y)
        if self.kind == "gamma":
            # the Gamma(shape, rate) density, term for term as
            # scipy.stats.gamma.pdf forms it with scale s = 1/rate;
            # scipy.special is imported here, so that only the gamma
            # kernel pays for loading it
            from scipy import special
            s = 1.0 / self.theta
            return np.exp(special.xlogy(self.shape - 1.0, y / s) - y / s
                          - special.gammaln(self.shape)) / s
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
            from scipy import special
            return float(special.gammaincinv(self.shape, _QUANTILE)
                         * (1.0 / self.theta))
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

    def history(self, dt, m0):
        """The discharge history of a run on the time mesh dt, started
        from the constant pre-history m0.  Its activity() is the current
        m = sum_j w_j p(t - j*dt), with p(t) the newest value pushed,
        and push(p) records the next discharge.

        The exponential kernel and a gamma kernel of integer shape s
        give a _ChainHistory: the trapezoid weights j^(s-1) a^j with
        a = exp(-rate*dt), halved at j = 0 and not truncated, normalized
        to sum 1, convolved by a recursion in s running sums.  The
        sampled kernel and a gamma kernel of any other shape convolve
        weights(dt) with a DischargeHistory."""
        if self.kind == "dirac":
            raise ValueError("the Dirac kernel keeps no history")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.kind != "sampled" and float(self.shape).is_integer():
            return _ChainHistory(int(self.shape), self.theta * dt, m0)
        _, w = self.weights(dt)
        return _WeightedHistory(w, DischargeHistory.constant(m0, w.size))


class DischargeHistory:
    """Rolling record of past discharge values on the time mesh.

    Entry j of the window holds p(t - j*dt); push() advances the window
    one step.  The record is a mirrored ring: a buffer of 2N entries in
    which entries i and i + N are equal, so the window is always one
    contiguous slice, push() writes two entries, and lagged() returns a
    view without copying.  A view from lagged() is valid until the next
    push().  Owned by a single simulation, never shared.
    """

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("history must be a nonempty 1d array")
        self._size = values.size
        self._ring = np.concatenate((values, values))
        self._head = 0              # the window is _ring[_head:_head + N]

    @classmethod
    def constant(cls, value, length):
        return cls(np.full(length, float(value)))

    def __len__(self):
        return self._size

    def push(self, p):
        head = (self._head - 1) % self._size
        self._ring[head] = p
        self._ring[head + self._size] = p
        self._head = head

    def lagged(self, count):
        """The most recent `count` values, newest first: a read-only
        view, valid until the next push()."""
        if count > self._size:
            raise ValueError(
                f"history of length {self._size} is shorter than the "
                f"kernel support ({count} mesh points); enlarge the buffer "
                "before the run starts")
        view = self._ring[self._head:self._head + count]
        view.flags.writeable = False
        return view


class _WeightedHistory:
    """weights(dt) against a DischargeHistory as long: one dot product
    per activity()."""

    def __init__(self, weights, history):
        self._weights = weights
        self._history = history

    def activity(self):
        return float(self._weights @ self._history.lagged(self._weights.size))

    def push(self, p):
        self._history.push(p)


class _ChainHistory:
    """The discharge history of a chain of s first-order filters.

    With h_j = p(t - j*dt) (h_0 the newest value pushed) and
    a = exp(-rate*dt), the chain's activity is
    m = c (S_{s-1} + h_0/2 [s = 1]) over the running sums
    S_k = sum_{j >= 1} j^k a^j h_j, k < s, with c the normalization of
    the weights.  A push shifts every lag by one, and (j + 1)^k expands
    by the binomial theorem, so S_k <- a (h_0 + sum_{i <= k} C(k, i) S_i)
    before p becomes h_0.

    The state holds each S_k as a mean, U_k = S_k / L_k, where L_k is
    the sum a history of ones gives.  Then a push is a convex
    combination, U_k <- U_k + beta_k (h_0 - U_k)
    + sum_{i < k} alpha_ki (U_i - U_k), and a constant history stays
    exactly constant.  The coefficients come from the scaled sums
    x^(k+1)/k! L_k, x = rate*dt, which stay O(1) where L_k grows like
    k!/x^(k+1), so no shape overflows.  For s = 1 the chain is the
    exponential moving average U <- U + (1 - a)(h_0 - U)."""

    def __init__(self, shape, rate_dt, m0):
        x = rate_dt
        a = math.exp(-x)
        q = -math.expm1(-x)             # 1 - a
        e = [1.0]                       # e[d] = x^d / d!
        for d in range(1, shape):
            e.append(e[-1] * x / d)
        # scaled[k] = x^(k+1)/k! L_k solves
        # q scaled[k] = a (x e[k] + sum_{i < k} e[k - i] scaled[i])
        scaled = []
        for k in range(shape):
            scaled.append(a * (x * e[k] + sum(
                e[k - i] * scaled[i] for i in range(k))) / q)
        if not all(0.0 < v < math.inf for v in scaled[1:]):
            raise ValueError("kernel weights vanish on this mesh")
        # row 0 in closed form, so that a = 0 (rate*dt past the float
        # range) leaves s = 1 its one weight on h_0
        inflow = [q] + [a * x * e[k] / scaled[k] for k in range(1, shape)]
        rows = [[a * e[k - i] * scaled[i] / scaled[k] for i in range(k)]
                for k in range(shape)]
        self._terms = list(zip(inflow, rows))
        # the weight of h_0 in m: 1/2 against the sum a/q of the rest
        self._gain = q / (1.0 + a) if shape == 1 else 0.0
        self._means = [float(m0)] * shape
        self._newest = float(m0)

    def activity(self):
        u = self._means[-1]
        return u + self._gain * (self._newest - u)

    def push(self, p):
        h0, old = self._newest, self._means
        new = []
        k = 0
        for beta, row in self._terms:
            u = old[k]
            v = u + beta * (h0 - u)
            i = 0
            for alpha in row:
                v += alpha * (old[i] - u)
                i += 1
            new.append(v)
            k += 1
        self._means = new
        self._newest = p
