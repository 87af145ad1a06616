"""Linearized dynamics around a stationary profile.

The linearized generator freezes the rates at the stationary activity
M: it acts on cell averages with upwind transport at speed 1,
absorption at the frozen rates k(x, lam*M), and a boundary row that
books every absorbed or advected unit of mass back into the youngest
cell.  The feedback of the activity on the rates (the d_m k term) is
left out, and the delay kernel enters the linearization only through
that term, so the generator and its spectrum are the same for every
kernel.  Columns sum to zero exactly, so the generator conserves
mass and 0 is one of its eigenvalues, mirroring the conservation law
of the flow itself.

The generator is A = L + e0 c^T: L is lower bidiagonal (diagonal
-1/dx - k_j, subdiagonal 1/dx) and c is the boundary row (the rates,
plus 1/dx in the last cell for mass advected past the age horizon).
By the matrix determinant lemma its eigenvalues are the roots of the
renewal characteristic function

    chi(lam) = 1 - c^T (lam - L)^{-1} e0,

and (lam - L)^{-1} e0 is one cumulative product.  `_Chi` evaluates chi
in one of two forms (README's "Linear spectrum" gives the cost of
each per call):

- the run form, for the rates that the family's stepper states as
  runs of equal value, stepper.runs(M): the constant family (one run)
  and the step family (two: 0 below the threshold, 1 past it).  Within
  a run the cumulative product is geometric, so chi, chi' and the tail
  bound are sums of geometric series, O(runs) scalar arithmetic
  whatever n;
- the per-cell form, where the stepper states no runs (the smooth
  family's): the reciprocals, their prefix product and one sum (one
  prefix sum more for chi', and sum_j |c_j v_j| for the tail bound),
  in work buffers bound once per search, O(n).

Each evaluation (`_Chi.at`) computes chi and chi', in complex
arithmetic whether lam is real or not, in one of two kinds:

- chi and chi' (`at(z)`): the walks between two ends, Newton's
  iteration, and the arg of chi on a rectangle's side at a corner that
  its walk did not pass (at a walked sample the walk's arg is reused);
- chi, chi' and the tail bound (`at(z, tail=True)`): the count-line
  walks, which stop on it, and the search for a rectangle's right side,
  which runs only when no walked line holds the zero mode alone.  Both
  read it only as `>= _TAIL`.  It is sum_j |c_j v_j|, but
  where |1 - chi|, a lower bound on the sum, already passes _TAIL the
  per-cell form gives that instead.

A search computes each point once: `_Chi` keeps its results by z.

The only poles of chi are -1/dx - k_j, left of every line searched
here, and chi -> 1 as |Im lam| grows.  `spectrum` therefore runs no
eigensolver:

- it counts the roots with Re > sigma by the argument principle along
  the line Re = sigma, in steps over which chi changes by at most half,
  so that arg chi turns by at most pi/6;
- it moves sigma left until enough roots lie right of the line, but
  no further than chi is accurate: v_j grows like e^((-sigma - k) x)
  with the age x, so on a long age horizon the deepest usable line
  sits just left of the slowest rates;
- it needs no search for real roots: right of the poles every v_j is
  positive and falls as lam grows, and every c_j >= 0, so chi rises
  strictly along the real axis and its only real root is chi(0) = 0;
- it takes the complex roots from argument-principle rectangles, one
  per strip between two walked count lines whose counts differ, those
  lines its sides, and one right of the rightmost line only when that
  line holds more than the zero mode: the generator's columns sum to 0
  and its off-diagonal entries are nonnegative, so by Gershgorin no
  other mode has Re >= 0.  Each is bisected until each part holds one
  root, which Newton's iteration then polishes;
- it raises SpectrumCountError when the roots it located do not add
  up to the count, or when no mode but 0 lies right of the deepest
  line, so a report always holds certified modes and a finite gap.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import _roots
from .errors import SpectrumCountError

__all__ = ["SpectrumReport", "spectrum"]

_LEADING = 16           # the modes spectrum() reports, pairs kept whole
_MAX_GROWTH = 20.0      # largest log |v_j| on a count line: bounds the
                        # rounding error of chi by about 1e-16 * e^20
_SIGMA_STEP = 0.5       # the first count lines sit at -0.5, -1, -1.5, ...
_SPARE = 8              # a line with over _SPARE * need roots right of it
_SPLITS = 8             # is moved right, by at most _SPLITS bisections
_CHANGE = 0.5           # largest |q - 1|, q = chi(next)/chi(here), of a
                        # walk step; steps are proposed at 90% of it
_TAIL = 0.5             # past sum_j |c_j v_j| < _TAIL, chi cannot wind;
                        # at(z, tail=True)[2] is only compared with it
_ETA = 1e-6             # the rectangles start this far above the axis;
                        # a pair closer to it fails the count check
_SERIES = 0.05          # a run's sums from their power series up to
_TERMS = 10             # |L w| = _SERIES, to this many terms

_add = np.add.reduce


@dataclasses.dataclass(frozen=True)
class SpectrumReport:
    """The leading modes of a linearized generator.

    `eigenvalues` holds the 16 modes of largest real part, sorted
    by descending real part with conjugate pairs kept whole (so one
    more when the last pair would split), or every mode right of the
    search floor when there are fewer.  They are certified: a
    half-plane count by the argument principle says how many modes lie
    right of the line the search stopped at, and all of them were
    located.  The zero eigenvalue is exact, and `gap` is the largest
    real part among the other modes (negative for a stable profile).
    """

    eigenvalues: np.ndarray   # leading modes, by descending real part
    zero_eigenvalue: complex  # the conservation mode, exactly 0
    gap: float                # largest real part among the others
    kernel_vector: np.ndarray  # zero-mode eigenvector, unit L1 mass
    kernel_match: float       # L1 distance to the stationary profile


# ---------------------------------------------------------------------------
# the renewal characteristic function and its roots

class _OnPath(Exception):
    """chi nearly vanishes on a path, so arg chi is not defined there."""


def _log1p(w):
    """log(1 + w) for a complex w, accurate for small |w| (cmath has no
    log1p): there Re log(1 + w) = log1p(2 Re w + |w|^2) / 2."""
    a, b = w.real, w.imag
    if abs(a) + abs(b) >= 0.5:
        return cmath.log(1.0 + w)
    return complex(0.5 * math.log1p(a * (2.0 + a) + b * b),
                   math.atan2(b, 1.0 + a))


def _expm1(x):
    """exp(x) - 1 for a complex x, accurate for small |x| (cmath has no
    expm1): Re = expm1(Re x) cos(Im x) - 2 sin^2(Im x / 2)."""
    a, b = x.real, x.imag
    half = math.sin(0.5 * b)
    return complex(math.expm1(a) * math.cos(b) - 2.0 * half * half,
                   math.exp(a) * math.sin(b))


def _horner(coefficients, x):
    """The polynomial with these coefficients, highest power first, at x."""
    acc = 0.0
    for a in coefficients:
        acc = acc * x + a
    return acc


def _run_series(length):
    """The Taylor coefficients, highest power first, of a run's sums
    G = sum_m e^(-m u) and H = sum_m m e^(-m u), m = 1..length, in -u:
    S_k/k! and S_(k+1)/k! for k < _TERMS, with S_p = sum_m m^p.  For
    |length u| <= 1.05 _SERIES the terms left out are below 1e-17
    relative."""
    m = np.arange(1.0, length + 1.0)
    power = np.ones(length)
    sums = []
    for _ in range(_TERMS + 1):
        sums.append(float(power.sum()))
        power *= m
    scale = [1.0 / math.factorial(k) for k in range(_TERMS)]
    return ([sums[k] * scale[k] for k in reversed(range(_TERMS))],
            [sums[k + 1] * scale[k] for k in reversed(range(_TERMS))])


class _Chi:
    """chi(lam) = 1 - sum_j c_j v_j(lam) with v = (lam - L)^{-1} e0,
    that is v_j = dx prod_{i<=j} 1/(1 + dx (lam + k_i)).

    A family that states its rates as runs, (rate, cells) pairs in age
    order, gets chi in closed form per run, in O(runs) scalar
    arithmetic; otherwise each evaluation fills work buffers bound
    here, one term per cell.  Either way lam is evaluated in complex
    arithmetic, a float as a complex with imaginary part 0.  `at`
    computes chi, chi' and, when asked, the tail bound, and keeps its
    results by z, one memo per search: z enters only as dx z added to
    a real, so a float x and complex(x, +-0.0), one key, give the same
    bits."""

    def __init__(self, rates, dx, runs=None):
        self.dx = dx
        self._runs = None
        self._memo = {}   # z: (chi, chi', tail bound or None)
        if runs is not None:
            self._kappa, self._length = np.array(runs, dtype=float).T
            # per run: dx k, its length and the series of its sums
            self._runs = [(dx * k, L, _run_series(int(L)) if k else None)
                          for k, L in zip(self._kappa.tolist(),
                                          self._length.tolist())]
        else:
            # every cell a run of its own, for floor()
            self._kappa, self._length = rates, np.ones(rates.size)
            # complex, as the ufuncs would cast them on every call
            self.one_dxk = (1.0 + dx * rates).astype(complex)
            # the boundary row c (the rates, plus 1/dx in the last cell)
            # times dx
            self.cdx = np.array(rates, dtype=complex)
            self.cdx[-1] += 1.0 / dx
            self.cdx *= dx
            n = self.cdx.size
            # r, c v and cumsum(r); |c v|
            self._work = tuple(np.empty(n, complex) for _ in range(3))
            self._abs = np.empty(n)
            # |1 - chi| <= sum_j |c_j v_j|, each rounded within about
            # (n + 2) eps; the margin of 4 as in evolution._CLEARANCE
            self._decides = _TAIL * (1.0 + 4.0 * (n + 2) * 2.0 ** -52)
        self.pole = -float((1.0 + dx * self._kappa).min()) / dx

    def _terms(self, z):
        """The buffers (r, c v, cumsum r), with r = 1/(1 + dx (k + z))
        and c v = cdx cumprod(r) filled in."""
        r, cv, _ = self._work
        np.add(self.one_dxk, self.dx * z, out=r)
        np.divide(1.0, r, out=r)
        np.multiply.accumulate(r, out=cv)
        np.multiply(self.cdx, cv, out=cv)
        return self._work

    def _closed(self, z, tail=False):
        """(chi, chi', tail bound or None) summed run by run.

        Run r, of L cells at rate k, has w = dx (k + z) and
        rho = 1/(1 + w) = e^-u with u = log1p(w).  Its cells' prefix
        products are Q rho^m, m = 1..L, where Q = e^-(sum of L u over
        the runs before it), so its terms of chi sum to k dx Q G with
        G = sum rho^m = -expm1(-L u)/w, and those of chi' to
        dx k dx Q (C G + rho H), with C the sum of L rho over the runs
        before and H = sum m rho^m = (G - L rho^(L+1))/(w rho).  For
        |L w| <= _SERIES, w = 0 included, G and H come from their
        power series in u instead, which do not cancel.  The boundary
        row's 1/dx adds Q_R to 1 - chi and dx Q_R C_R to chi', with
        Q_R and C_R taken over every run.  The tail bound takes the same
        sums in |rho|."""
        dxz = self.dx * z
        fired = steep = bound = 0.0
        logq = c = 0.0
        for dxk, L, series in self._runs:
            w = dxk + dxz
            u = _log1p(w)
            rho = 1.0 / (1.0 + w)
            if dxk:
                q = cmath.exp(-logq)
                if abs(L * w) <= _SERIES:
                    G = _horner(series[0], -u)
                    H = _horner(series[1], -u)
                else:
                    em = _expm1(-L * u)
                    G = -em / w
                    H = (G - L * (1.0 + em) * rho) / (w * rho)
                fired += dxk * q * G
                steep += dxk * q * (c * G + rho * H)
                if tail:
                    a = u.real
                    sums = -math.expm1(-L * a) / math.expm1(a) if a else L
                    bound += abs(dxk) * abs(q) * sums
            c += L * rho
            logq += L * u
        q = cmath.exp(-logq)
        return (1.0 - fired - q,
                self.dx * (steep + q * c),
                bound + abs(q) if tail else None)

    def at(self, z, tail=False):
        """chi(z), chi'(z) and, when `tail`, the tail bound (None
        otherwise): sum_j |c_j v_j(z)|, which only falls as Re z or
        |Im z| grows.  Where |1 - chi(z)| >= _TAIL (1 + 4 (n + 2) eps),
        the per-cell form returns |1 - chi(z)|, below the sum but as
        sure to pass _TAIL."""
        known = self._memo.get(z)
        if known is not None and (known[2] is not None or not tail):
            return known if tail else (known[0], known[1], None)
        if self._runs is not None:
            found = self._closed(z, tail=tail)
        else:
            r, cv, sum_r = self._terms(z)
            np.add.accumulate(r, out=sum_r)
            f = complex(1.0 - _add(cv))
            bound = abs(1.0 - f) if tail else None
            if tail and not bound >= self._decides:
                bound = float(_add(np.abs(cv, out=self._abs)))
            found = (f, complex(self.dx * (cv @ sum_r)), bound)
        self._memo[z] = found
        return found

    def floor(self):
        """The deepest line Re = sigma < 0 that lies right of every pole
        and on which no |v_j| exceeds e^_MAX_GROWTH (the largest are on
        the real axis); every line between it and 0 does too.  On a
        long age horizon this is what bounds the search: left of
        -k(x), |v_j| grows like e^((-sigma - k) x).  Within a run
        log |v_j| is linear in j, so its largest value is at the run's
        first or last cell."""
        one_dxk, lengths = 1.0 + self.dx * self._kappa, self._length

        def excess(sigma):
            d = one_dxk + self.dx * sigma
            if not np.all(d > 0.0):
                return math.inf
            log_d = np.log(d)
            last = np.cumsum(lengths * log_d)
            first = last - (lengths - 1.0) * log_d
            return -float(min(last.min(), first.min())) - _MAX_GROWTH

        return _roots.bisect(excess, self.pole, 0.0, 1.0, width=1e-9)[1]


class _Path:
    """arg chi along a horizontal or vertical segment, as a continuous
    function of the moving coordinate s in [lo, hi].

    The segment is walked in steps h = 0.9 _CHANGE |chi|/|chi'|,
    halved until |q - 1| <= _CHANGE for q = chi(next)/chi(here), so
    arg chi turns by at most arcsin(_CHANGE) = pi/6 in a step.  With hi
    None the walk goes on until the tail bound drops below _TAIL, where
    |chi - 1| < 1/2 from there on, and hi is where it stopped; only
    such a walk reads the tail bound.  An unwalked path (walk=False)
    lies where the tail bound is below _TAIL throughout, so the
    principal arg is the continuous one.
    """

    def __init__(self, chi, fixed, lo, hi, vertical, walk=True):
        self.chi, self.fixed, self.vertical = chi, fixed, vertical
        self.hi = hi
        self.s = None
        if not walk:
            return
        bounded = hi is not None
        s = lo
        f, df, tail = chi.at(self.point(s), tail=not bounded)
        if f == 0.0:
            raise _OnPath
        ss, fs, args = [s], [f], [cmath.phase(f)]
        while (s < hi) if bounded else (tail >= _TAIL):
            h = 0.9 * _CHANGE * abs(f) / abs(df) if df else math.inf
            h = min(h, hi - s) if bounded else min(h, max(1.0, s - lo))
            while True:
                if h <= 1e-12 * max(1.0, abs(self.point(s))):
                    raise _OnPath
                # s + (hi - s) can round below hi, leaving a sliver
                s_next = hi if bounded and h >= hi - s else s + h
                g, dg, tail_g = chi.at(self.point(s_next), tail=not bounded)
                q = g / f
                if abs(q - 1.0) <= _CHANGE:
                    break
                h *= 0.5
            s, f, df, tail = s_next, g, dg, tail_g
            ss.append(s)
            fs.append(f)
            args.append(args[-1] + cmath.phase(q))
        self.hi = s
        self.s, self.f, self.args = np.array(ss), fs, args

    def point(self, s):
        return complex(self.fixed, s) if self.vertical \
            else complex(s, self.fixed)

    def phase(self, s):
        """The continuous arg chi at coordinate s: the stored one at a
        walked sample, else from one evaluation, chi.at, whose chi' it
        does not read."""
        if self.s is None:
            return cmath.phase(self.chi.at(self.point(s))[0])
        i = int(np.searchsorted(self.s, s, side="right")) - 1
        if self.s[i] == s:
            return self.args[i]
        f = self.chi.at(self.point(s))[0]
        return self.args[i] + cmath.phase(f / self.f[i])


@dataclasses.dataclass(frozen=True)
class _Box:
    """The rectangle [x0, x1] x [y0, y1] and the paths its sides lie on."""

    x0: float
    x1: float
    y0: float
    y1: float
    bottom: _Path
    right: _Path
    top: _Path
    left: _Path

    def winding(self):
        """The number of roots of chi inside, by the argument principle."""
        turns = (self.bottom.phase(self.x1) - self.bottom.phase(self.x0)
                 + self.right.phase(self.y1) - self.right.phase(self.y0)
                 - self.top.phase(self.x1) + self.top.phase(self.x0)
                 - self.left.phase(self.y1) + self.left.phase(self.y0))
        n = round(turns / (2.0 * math.pi))
        if abs(turns - 2.0 * math.pi * n) > 0.5 or n < 0:
            raise SpectrumCountError(
                f"arg chi turns by {turns:.6g} around the rectangle "
                f"[{self.x0:.6g}, {self.x1:.6g}] x [{self.y0:.6g}, "
                f"{self.y1:.6g}], not a whole number of times")
        return n

    def holds(self, z):
        pad = 1e-9 * max(1.0, abs(z))
        return (self.x0 - pad <= z.real <= self.x1 + pad
                and self.y0 - pad <= z.imag <= self.y1 + pad)

    def split(self, chi):
        """The two halves across the longer side.  The cut moves off the
        middle when a root sits on it."""
        w, h = self.x1 - self.x0, self.y1 - self.y0
        for share in (0.5, 0.4, 0.6, 0.3, 0.7):
            try:
                if h >= w:
                    ym = self.y0 + share * h
                    cut = _Path(chi, ym, self.x0, self.x1, vertical=False)
                    return (dataclasses.replace(self, y1=ym, top=cut),
                            dataclasses.replace(self, y0=ym, bottom=cut))
                xm = self.x0 + share * w
                cut = _Path(chi, xm, self.y0, self.y1, vertical=True)
                return (dataclasses.replace(self, x1=xm, right=cut),
                        dataclasses.replace(self, x0=xm, left=cut))
            except _OnPath:
                continue
        raise SpectrumCountError(
            f"roots of chi sit on every cut tried across [{self.x0:.6g}, "
            f"{self.x1:.6g}] x [{self.y0:.6g}, {self.y1:.6g}]")


def _newton(chi, box):
    """Newton's iteration on chi from the middle of the box: the root it
    settles on, or None when it leaves the box or does not settle.  It
    stops at a step below 1e-15 relative, or once steps below 1e-9
    relative stop halving: that is the rounding floor of chi."""
    z = complex(0.5 * (box.x0 + box.x1), 0.5 * (box.y0 + box.y1))
    last = math.inf
    for _ in range(60):
        f, df, _ = chi.at(z)
        if df == 0.0:
            return None
        dz = f / df
        z -= dz
        if not box.holds(z):
            return None
        step, scale = abs(dz), max(1.0, abs(z))
        if step <= 1e-15 * scale or (step <= 1e-9 * scale
                                     and step > 0.5 * last):
            return z
        last = step
    return None


def _count_line(chi, sigma):
    """The number of roots of chi with Re > sigma, and the walked path
    up the line Re = sigma from the real axis that it was read from.

    Along the line from +i inf to -i inf the region Re > sigma is on
    the left; chi is real on the axis and conjugate-symmetric, and
    its arg ends at 0 (mod 2 pi) far up the line, so the count is
    (arg chi(sigma) - arg chi(sigma + i inf)) / pi on the upper half.
    """
    line = _Path(chi, sigma, 0.0, None, vertical=True)
    start = 0.0 if line.f[0].real > 0.0 else math.pi
    end = line.args[-1] - line.args[0] + start - cmath.phase(line.f[-1])
    turns = (start - end) / math.pi
    n = round(turns)
    if abs(turns - n) > 0.25 or n < 0:
        raise SpectrumCountError(
            f"arg chi along Re = {sigma:.6g} turns by {turns:.6g} pi, not "
            "a whole multiple of pi")
    return n, line


def _count_near(chi, sigma):
    """(sigma', count, line) for a count line at sigma' = sigma, or a
    little right of it when a root sits on the line."""
    for shift in (0.0, 0.013, 0.031):
        moved = sigma * (1.0 - shift)
        try:
            count, line = _count_line(chi, moved)
        except _OnPath:
            continue
        return moved, count, line
    raise SpectrumCountError(
        f"roots of chi sit on every count line tried near Re = "
        f"{sigma:.6g}")


def _half_plane(chi, need):
    """The count lines walked, (sigma, count, line) by ascending sigma,
    from the first with at least `need` roots right of it, or with every
    root right of chi.floor() when fewer lie there.

    The lines step left from 0 by _SIGMA_STEP, the last step stopping
    at the floor.  When the first line with `need` roots holds more
    than _SPARE * need, the step that reached it is bisected, keeping
    a line with at least `need`, so that fewer roots are located.
    Raises SpectrumCountError when only the zero mode lies right of
    the floor, as then no gap can be reported."""
    floor = chi.floor()
    step = 0.0
    right = 0.0   # a line with fewer than `need` roots right of it
    lines = []
    while True:
        step = max(step - _SIGMA_STEP, floor)
        left = _count_near(chi, step)
        lines.append(left)
        if left[1] >= need or step == floor:
            break
        right = left[0]
    for _ in range(_SPLITS):
        if left[1] <= _SPARE * need:
            break
        mid = _count_near(chi, 0.5 * (left[0] + right))
        lines.append(mid)
        if mid[1] >= need:
            left = mid
        else:
            right = mid[0]
    if left[1] < 2:
        raise SpectrumCountError(
            f"only the zero mode lies right of Re = {left[0]:.6g}, the "
            f"deepest line on which chi is evaluated accurately: left of "
            f"it |v_j| passes e^{_MAX_GROWTH:g} (the rightmost pole of chi "
            f"is at -1/dx - min k = {chi.pole:.6g}); the spectral gap is "
            "below it")
    return sorted((line for line in lines if line[0] >= left[0]),
                  key=lambda line: line[0])


def _complex_roots(chi, lines):
    """The roots of chi with Re > lines[0][0] and Im > _ETA, one per box,
    from the count lines (sigma, count, line) by ascending sigma.  Two
    adjacent lines whose counts differ bound a strip up to the higher
    walk's end, which holds half the difference (0 is the only real
    root; a winding that differs raises SpectrumCountError).  Above a
    walk's end the tail bound is below _TAIL, so no side needs a walk
    there.  By Gershgorin on the generator's columns no mode but 0 has
    Re >= 0, so the rectangle [sigma, x_r] right of the last line, past
    which the tail bound is below _TAIL, is searched only when that line
    holds more than the zero mode.  Each box is bisected until each part
    holds one root and Newton's iteration from its middle stays in it."""
    if lines[-1][1] > 1:
        x_r = 1.0
        while chi.at(complex(x_r), tail=True)[2] >= _TAIL:
            x_r *= 2.0
        # unwalked, ending on the axis: its tail bound is below _TAIL
        lines = [*lines, (x_r, 1, _Path(chi, x_r, 0.0, 0.0, vertical=True,
                                        walk=False))]
    stack = []
    for (x0, n0, left), (x1, n1, right) in zip(lines, lines[1:]):
        if n0 == n1:
            continue
        y1 = max(left.hi, right.hi)
        box = _Box(x0, x1, _ETA, y1, left=left, right=right,
                   bottom=_Path(chi, _ETA, x0, x1, vertical=False),
                   top=_Path(chi, y1, x0, x1, vertical=False, walk=False))
        n = box.winding()
        if 2 * n != n0 - n1:
            raise SpectrumCountError(
                f"{n0 - n1} roots of chi lie in {x0:.6g} < Re < {x1:.6g}, "
                f"but arg chi winds {n} times around that strip's upper half")
        stack.append((box, n))
    roots = []
    while stack:
        box, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            z = _newton(chi, box)
            if z is not None:
                roots.append(z)
                continue
        if max(box.x1 - box.x0, box.y1 - box.y0) < 1e-9:
            raise SpectrumCountError(
                f"{n} roots of chi stay inside [{box.x0:.12g}, "
                f"{box.x1:.12g}] x [{box.y0:.12g}, {box.y1:.12g}]; a "
                "multiple root cannot be separated")
        low, high = box.split(chi)
        n_low = low.winding()
        if n_low > n:
            raise SpectrumCountError(
                f"a part of a rectangle holding {n} roots of chi counts "
                f"{n_low}")
        stack += [(low, n_low), (high, n - n_low)]
    return roots


def _modes(rates, dx, runs=None):
    """Every root of chi right of the line the search stopped at, which
    holds at least the _LEADING leading ones, by descending real part
    with the upper member of a pair first, and that line's sigma.  chi
    takes the rates per cell, or the runs when they are given.  Raises
    SpectrumCountError unless the located roots match the
    argument-principle count."""
    chi = _Chi(rates, dx, runs)
    lines = _half_plane(chi, _LEADING)
    sigma, count, _ = lines[0]
    upper = _complex_roots(chi, lines)
    if 1 + 2 * len(upper) != count:
        raise SpectrumCountError(
            f"the argument principle counts {count} roots of chi with Re > "
            f"{sigma:.6g}, but 0 and {len(upper)} conjugate pairs were "
            "located")
    # right of every pole each v_j > 0 falls and each c_j >= 0, so chi
    # rises strictly along the real axis and 0 is its only real root
    w = np.array([0.0] + upper + [z.conjugate() for z in upper],
                 dtype=complex)
    return w[np.lexsort((-w.imag, np.abs(w.imag), -w.real))], sigma


def _leading(w, count):
    """The first count of the sorted modes w, one more when the last
    would split a conjugate pair."""
    k = min(count, w.size)
    if k < w.size and w[k - 1].imag > 0.0 and w[k] == w[k - 1].conjugate():
        k += 1
    return w[:k]


def _gap(w):
    """The largest real part among the modes other than the exact 0."""
    return float(w[w != 0.0].real.max())


def _zero_mode(rates, dx):
    """The kernel of the generator in closed form, unit L1 mass: at
    lam = 0, v = dx cumprod(1/(1 + dx k)) solves -L v = e0 and the zero
    column sums give c^T v = 1, so A v = L v + e0 = 0."""
    v = np.cumprod(1.0 / (1.0 + dx * rates))
    return v / (float(v.sum()) * dx)


def _profile_match(grid, F, v):
    F_unit = F / (float(F.sum()) * grid.dx)
    return grid.l1_distance(v, F_unit)


def spectrum(model, grid, steady):
    """The 16 leading modes of the linearized generator at the
    stationary pair (steady.F, steady.M), the rates frozen at
    k(x, lam*M) on the grid's midpoints, from the roots of its renewal
    characteristic function.

    Reports the modes sorted by descending real part, with conjugate
    pairs kept whole (see SpectrumReport), the exact zero eigenvalue,
    the spectral gap (largest real part among the other modes, negative
    for a stable profile), the zero-mode eigenvector in closed form
    normalized as a density, and its L1 distance to the stationary
    profile.  The modes are certified by a half-plane count.  Raises
    SpectrumCountError when the located roots do not match it, which
    means a root could not be isolated or polished (a multiple or
    nearly multiple mode), or when no mode but 0 lies right of the
    deepest line on which chi is accurate (a grid so coarse that a
    pole of chi, at -1/dx - k, lies right of the gap); never a wrong
    answer returned silently.  Raises ValueError when the profile is
    not on this grid."""
    if steady.F.shape != (grid.n_cells,):
        raise ValueError(
            f"steady profile has {steady.F.shape[0]} cells but the grid "
            f"has {grid.n_cells}; recompute the steady state on this grid")
    rates = np.asarray(model.rate(grid.midpoints, steady.M), dtype=float)
    w, _ = _modes(rates, grid.dx, model.stepper(grid).runs(steady.M))
    v = _zero_mode(rates, grid.dx)
    return SpectrumReport(eigenvalues=_leading(w, _LEADING),
                          zero_eigenvalue=0j, gap=_gap(w),
                          kernel_vector=v,
                          kernel_match=_profile_match(grid, steady.F, v))
