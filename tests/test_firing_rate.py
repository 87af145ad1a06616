"""Rate families, their closed-form pieces, and the regime estimates."""

import bisect
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from agenet import (AgeGrid, AmbiguousActivityError, ConstantRate,
                    ModelInconsistencyError, SimulationConfig,
                    SmoothSaturatingRate, StepRate, cell_sum, estimate_xi,
                    half_rate_age, preset_density, regime_scan,
                    solve_steady_state, steady_state_at)
from agenet import _roots, firing_rate
from agenet.firing_rate import RegimeEstimate

# 5-point Gauss-Legendre rule on [-1, 1]; composite panels of this rule
# integrate the smooth rate family to machine precision.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)


def _panel_cumulative(rate_at, xs, panel=0.05):
    """Cumulative integral of rate_at over [0, x] for each x in xs, the
    quadrature oracle for closed-form cumulatives.

    Consecutive sorted targets are bridged with Gauss panels no wider
    than `panel`, and the panel integrals are accumulated.  xs is a 1d
    float array; rate_at must accept a flat array of ages.
    """
    order = np.argsort(xs, kind="stable")
    edges = np.concatenate([[0.0], xs[order]])
    gaps = np.diff(edges)
    n_panels = np.maximum(np.ceil(gaps / panel).astype(int), 1)
    widths = gaps / n_panels
    starts = np.repeat(edges[:-1], n_panels)
    pw = np.repeat(widths, n_panels)
    first = np.concatenate([[0], np.cumsum(n_panels)[:-1]])
    within = np.arange(int(n_panels.sum())) - np.repeat(first, n_panels)
    a = starts + within * pw
    nodes = a[:, None] + (pw[:, None] * 0.5) * (_GL_X[None, :] + 1.0)
    vals = rate_at(nodes.ravel()).reshape(nodes.shape)
    panel_ints = (pw * 0.5) * (vals @ _GL_W)
    seg_ints = np.add.reduceat(panel_ints, first)
    out = np.empty_like(xs)
    out[order] = np.cumsum(seg_ints)
    return out


def _random_smooth(rng):
    return SmoothSaturatingRate(
        k0=float(rng.uniform(0.2, 1.0)),
        k1=float(rng.uniform(1.0, 3.0)),
        lam=float(rng.uniform(0.0, 1.5)),
        mu_scale=float(rng.uniform(0.5, 2.0)),
        x_scale=float(rng.uniform(0.5, 2.0)))


# one model per family, the step family with and without a custom map
FAMILIES = [
    ConstantRate(k0=1.7, lam=0.4),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.8, mu_scale=0.7,
                         x_scale=1.3),
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.3, decay=2.0),
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=2.0,
             sigma=lambda u: 0.6 / (1.0 + u), sigma_modulus=0.6),
]
FAMILY_IDS = ["constant", "smooth", "step", "step-custom-sigma"]


def test_constant_rate_values():
    model = ConstantRate(k0=2.0)
    assert model.k1 == 2.0
    assert model.rate(0.7, 0.3) == 2.0
    assert np.array_equal(model.rate(np.array([0.0, 1.0]), 0.0), [2.0, 2.0])
    assert model.cumulative(3.0, 0.0) == 6.0


def test_constructor_invariants():
    with pytest.raises(ValueError):
        ConstantRate(k0=0.0)
    with pytest.raises(ValueError):
        ConstantRate(k0=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        SmoothSaturatingRate(k0=1.0, k1=0.5)
    with pytest.raises(ValueError):
        SmoothSaturatingRate(k0=1.0, k1=2.0, mu_scale=0.0)
    with pytest.raises(ValueError):
        StepRate(sigma_plus=0.3, sigma_minus=0.4)
    with pytest.raises(ValueError):
        StepRate(sigma_plus=1.2, sigma_minus=0.4)
    with pytest.raises(ValueError):
        StepRate(sigma_plus=0.5, sigma_minus=0.25, decay=0.0)


# (family, the keyword arguments of a valid model, its parameters)
_PARAMETERS = [
    (ConstantRate, dict(k0=1.0), ["k0", "lam"]),
    (SmoothSaturatingRate, dict(k0=0.5, k1=2.0),
     ["k0", "k1", "lam", "mu_scale", "x_scale"]),
    (StepRate, dict(), ["sigma_plus", "sigma_minus", "lam", "decay"]),
]


@pytest.mark.parametrize("family, kwargs, name", [
    pytest.param(family, kwargs, name, id=f"{family.__name__}-{name}")
    for family, kwargs, names in _PARAMETERS for name in names])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_non_finite_parameters(family, kwargs, name, bad):
    # a NaN fails every comparison, so a check written as "x < 0" let it
    # through; each message names the parameter
    with pytest.raises(ValueError,
                       match=f"^invalid configuration: {name}: must be "
                             "finite$"):
        family(**{**kwargs, name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
def test_step_rate_refuses_a_bad_sigma_modulus(bad):
    # estimate_xi trusts the declared bound on |sigma'|, so a NaN, an
    # infinite or a negative one is refused by name
    with pytest.raises(ValueError, match="^invalid configuration: "
                                         "sigma_modulus: must be"):
        StepRate(lam=0.3, sigma=lambda u: 0.6 / (1.0 + u),
                 sigma_modulus=bad)
    # a bound of zero (a constant threshold) stands
    assert StepRate(lam=0.3, sigma=lambda u: 0.4,
                    sigma_modulus=0.0).sigma_modulus == 0.0


def test_step_rate_pairs_a_custom_sigma_with_its_modulus():
    # estimate_xi needs the bound on |sigma'| of a custom map, and the
    # built-in map has its own: one without the other is refused
    with pytest.raises(ValueError, match="sigma and its sigma_modulus"):
        StepRate(lam=1.0, sigma=lambda u: 0.4)
    with pytest.raises(ValueError, match="sigma and its sigma_modulus"):
        StepRate(lam=1.0, sigma_modulus=0.6)
    model = StepRate(lam=1.0, sigma=lambda u: 0.4, sigma_modulus=0.0)
    assert dataclasses.replace(model, lam=2.0).sigma is model.sigma
    with pytest.raises(ValueError, match="sigma and its sigma_modulus"):
        dataclasses.replace(model, sigma_modulus=None)


def test_step_rate_compares_its_sigma_by_identity():
    # thresholds 0.465 and 0.45 at mu = 0.5, and xi 0.075 against 0:
    # the map is part of the model, so these differ and hash apart
    def flat(u):
        return 0.45

    builtin = StepRate(lam=0.3)
    custom = StepRate(lam=0.3, sigma=flat, sigma_modulus=0.0)
    assert builtin.threshold(0.5) != custom.threshold(0.5)
    assert builtin != custom and len({builtin, custom}) == 2
    again = StepRate(lam=0.3, sigma=flat, sigma_modulus=0.0)
    assert again == custom and hash(again) == hash(custom)
    # the same expression in another function is another map
    assert StepRate(lam=0.3, sigma=lambda u: 0.45,
                    sigma_modulus=0.0) != custom
    grid = AgeGrid(dx=0.01, n_cells=100)
    configs = {SimulationConfig(grid=grid, model=model)
               for model in (builtin, custom, again)}
    assert len(configs) == 2


def test_domain_checks():
    model = ConstantRate(k0=1.0)
    with pytest.raises(ValueError):
        model.rate(-0.5, 0.0)
    with pytest.raises(ValueError):
        model.rate(0.5, -0.1)
    with pytest.raises(ValueError):
        model.rate(0.5, np.array([0.1, 0.2]))
    for family in FAMILIES:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                family.rate(0.5, bad)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                family.cumulative(0.5, bad)


def test_smooth_rate_shape_and_bounds():
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=1.0)
    assert model.rate(0.0, 0.3) == 0.0
    assert model.gain(0.0) == 0.5
    x = np.linspace(0.0, 20.0, 200)
    r = model.rate(x, 0.7)
    assert np.all(r >= 0.0) and np.all(r <= 2.0)
    assert np.all(np.diff(r) >= 0.0)
    # nondecreasing in the activity as well
    assert np.all(model.rate(x, 1.4) >= r - 1e-15)


def test_smooth_cumulative_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = _random_smooth(rng)
        mu = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(0.5, 8.0))
        ref, _ = integrate.quad(lambda z: model.rate(z, mu), 0.0, x,
                                epsabs=1e-13, epsrel=1e-13)
        assert abs(model.cumulative(x, mu) - ref) < 1e-12


def test_smooth_cumulative_matches_gauss_panels():
    rng = np.random.default_rng(11)
    xs = np.concatenate([[0.0, 1e-3, 0.05], rng.uniform(0.0, 10.0, 40)])
    for _ in range(5):
        model = _random_smooth(rng)
        mu = float(rng.uniform(0.0, 2.0))
        ref = _panel_cumulative(lambda z: model.rate(z, mu), xs)
        np.testing.assert_allclose(model.cumulative(xs, mu), ref,
                                   rtol=0.0, atol=1e-12)


def test_smooth_cumulative_handles_arrays_and_order():
    model = SmoothSaturatingRate(k0=0.5, k1=2.0)
    xs = np.array([3.0, 0.5, 1.2, 0.0])
    out = model.cumulative(xs, 0.0)
    assert out.shape == xs.shape
    for xi, oi in zip(xs, out):
        assert oi == pytest.approx(model.cumulative(float(xi), 0.0), abs=1e-12)


def test_step_rate_threshold_and_indicator():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0, decay=2.0)
    assert model.threshold(0.0) == 0.5
    assert model.threshold(100.0) == pytest.approx(0.25, abs=1e-12)
    mus = np.linspace(0.0, 5.0, 50)
    ths = [model.threshold(m) for m in mus]
    assert all(a >= b for a, b in zip(ths, ths[1:]))
    assert model.rate(0.49, 0.0) == 0.0
    assert model.rate(0.51, 0.0) == 1.0
    assert model.cumulative(0.3, 0.0) == 0.0
    assert model.cumulative(1.5, 0.0) == 1.0
    assert model.k0 == 1.0 and model.k1 == 1.0


def test_a_threshold_below_zero_fires_every_age():
    # sigma(lam*mu) = 0.5 - 5 mu falls below 0 past mu = 0.1, where every
    # age fires: K(x) = x, I = 1, and the continuum root is M = 1 = k1
    model = StepRate(sigma=lambda u: 0.5 - u, sigma_modulus=1.0, lam=5.0)
    grid = AgeGrid(dx=0.01, n_cells=1000)
    assert abs(solve_steady_state(model, grid).M - 1.0) <= 1e-12
    row, = regime_scan(model, [5.0], grid)
    assert len(row.roots) == 1
    for mu in (0.0, 0.05, 0.1, 0.2, 1.0):
        assert model.cumulative(0.0, mu) == 0.0
        # the threshold, where it lies on [0, 10], is a panel edge
        xs = np.sort(np.concatenate([[max(model.threshold(mu), 0.0)],
                                     np.linspace(0.01, 10.0, 40)]))
        np.testing.assert_allclose(
            model.cumulative(xs, mu),
            _panel_cumulative(lambda z: model.rate(z, mu), xs),
            rtol=0.0, atol=1e-12)


def test_step_rate_custom_threshold_map():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=2.0,
                     sigma=lambda u: 0.6 / (1.0 + u), sigma_modulus=0.6)
    # lam scales the activity before sigma sees it
    assert model.threshold(1.0) == pytest.approx(0.2)
    assert model.rate(0.25, 1.0) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_threshold_that_is_not_finite_is_refused(bad):
    # rate and cumulative would disagree on it: a NaN threshold fires no
    # age in rate but makes K NaN, and -inf makes K infinite
    model = StepRate(lam=1.0, sigma=lambda u: bad, sigma_modulus=1.0)
    grid = AgeGrid(dx=0.01, n_cells=300)
    values = preset_density(grid, "uniform01").values
    stepper = model.stepper(grid)
    calls = [lambda: model.threshold(0.5), lambda: model.rate(0.3, 0.5),
             lambda: model.cumulative(np.array([0.3, 0.7]), 0.5),
             lambda: stepper.solve(values),
             lambda: stepper.decay(values.copy(), 0.5),
             lambda: stepper.stationary_integral(0.5),
             lambda: steady_state_at(model, grid, 0.5)]
    for call in calls:
        with pytest.raises(ModelInconsistencyError, match="not a finite age"):
            call()


def test_estimate_xi_constant_rate():
    est = estimate_xi(ConstantRate(k0=2.0, lam=1.0))
    assert est.xi == 0.0
    assert math.isinf(est.lambda_weak)
    assert est.lambda_strong == 0.0


def test_estimate_xi_frozen_step_values():
    # dK(10, u)/du = decay * span * exp(-decay * u) and C = 2 k1 (1 + k1)
    # = 4: xi = lam * span, lambda_weak = 1/(C span), and lambda_strong
    # = -W_{-1}(-0.1)/0.1 at mu_inf = k1/10.  The sampled estimator gave
    # xi = 0.012490 and lambda_weak = 1.01596.
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    est = estimate_xi(model)
    assert est.xi == pytest.approx(0.0125, rel=1e-15)
    assert est.lambda_weak == 1.0
    assert est.lambda_strong == pytest.approx(35.77152063957297, rel=1e-12)


def test_estimate_xi_frozen_smooth_values():
    # dK(10, u)/du = (k1 - k0) A(10) exp(-u) with the age integral
    # A(10) = 9 + exp(-10) and C = 2 k1 (1 + k1) = 12.  The sampled
    # estimator gave xi = 0.674476, lambda_weak = 0.0061734 and
    # lambda_strong = 39.245.
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.05)
    est = estimate_xi(model)
    slope = 1.5 * (9.0 + math.exp(-10.0))
    assert est.xi == pytest.approx(0.05 * slope, rel=1e-14)
    assert est.lambda_weak == pytest.approx(1.0 / (12.0 * slope), rel=1e-14)
    assert est.lambda_strong == pytest.approx(44.40473774708627, rel=1e-12)


def test_estimate_xi_step_horizon_below_sigma_plus():
    # with x_max = 0.3 the threshold passes the horizon at
    # u = log(span/(x_max - sigma_minus)) = log 5, and past it the slope
    # starts at decay * (x_max - sigma_minus) = 0.05; with C = 4 the
    # weak factor is 0 until lam*hi = log 5 and 0.2 lam after
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=2.0)
    est = estimate_xi(model, x_max=0.3)
    assert est.lambda_weak == pytest.approx(5.0, rel=1e-14)
    assert est.xi == pytest.approx(2.0 * 0.05, rel=1e-14)
    est = estimate_xi(model, x_max=0.3, mu_range=(0.0, 0.1))
    assert est.lambda_weak == pytest.approx(10.0 * math.log(5.0), rel=1e-14)
    # lam*hi = 0.2 stays below log 5: the profile cannot move
    assert est.xi == 0.0
    # the strong side's hump, 0.2 lam exp(-0.1 (lam - 10 log 5)), is the
    # same curve as with the horizon past sigma_plus
    assert est.lambda_strong == pytest.approx(
        estimate_xi(model).lambda_strong, rel=1e-12)
    # nearer sigma_minus the hump's last crossing, 35.77, falls short of
    # 10 log 50, where lam*mu_inf passes the onset: the factor peaks at
    # 0.02 * 10 log 50 = 0.78 and every coupling is strong
    assert estimate_xi(model, x_max=0.255).lambda_strong == 0.0
    # a horizon at or below sigma_minus never sees the threshold
    assert estimate_xi(model, x_max=0.25) == RegimeEstimate(
        xi=0.0, lambda_weak=math.inf, lambda_strong=0.0)


def test_estimate_xi_reads_the_declared_sigma_modulus():
    # a custom threshold map with |sigma'| <= M: xi = lam M, lambda_weak
    # = 1/(C M), and a slope bound with no decay never lets the strong
    # factor fall back under 1
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=2.0,
                     sigma=lambda u: 0.6 / (1.0 + u), sigma_modulus=0.6)
    est = estimate_xi(model, f_inf_scale=3.0)
    assert est.xi == pytest.approx(2.0 * 0.6, rel=1e-15)
    assert est.lambda_weak == pytest.approx(1.0 / (2.0 * 4.0 * 0.6),
                                            rel=1e-15)
    assert est.lambda_strong == math.inf


def test_estimate_xi_validation():
    model = ConstantRate(k0=1.0)
    with pytest.raises(ValueError):
        estimate_xi(model, mu_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        estimate_xi(model, mu_range=(-0.1, 1.0))
    with pytest.raises(ValueError):
        estimate_xi(model, samples=1)
    for name in ("x_max", "f_inf_scale", "mu_inf"):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                estimate_xi(model, **{name: bad})


def _sampled_estimate(model, x_max, mu_range, samples, f_inf_scale, mu_inf,
                      lam_cap=1e4):
    # the estimator that the closed forms replaced: the largest
    # difference quotient of the scalar K(x_max, .) between neighbouring
    # activity samples, and bisection in lam on the contraction factor
    # it gives, scanned over 49 couplings on the strong side
    k1 = model.k1
    unit = dataclasses.replace(model, lam=1.0)

    def sampled_xi(lam, mus):
        kx = np.array([unit.cumulative(x_max, lam * mu) for mu in mus])
        return float(np.max(np.abs(np.diff(kx)) / np.diff(mus)))

    def factor(lam, mus):
        return 2.0 * k1 * sampled_xi(lam, mus) * (f_inf_scale + k1)

    lo, hi = mu_range
    xi = sampled_xi(model.lam, np.linspace(lo, hi, samples))

    weak_mus = np.linspace(0.0, hi, samples)
    if factor(lam_cap, weak_mus) < 1.0:
        lambda_weak = math.inf
    else:
        lambda_weak, _ = _roots.bisect(
            lambda lam: -1.0 if factor(lam, weak_mus) < 1.0 else 1.0,
            0.0, lam_cap, -1.0, width=1.5 * lam_cap * 2.0 ** -60)

    m_inf = (k1 / 10.0) if mu_inf is None else float(mu_inf)
    strong_mus = np.linspace(m_inf, k1 if k1 > m_inf else 2.0 * m_inf,
                             samples)
    lams = np.geomspace(1e-3, lam_cap, 49)
    facs = np.array([factor(lam, strong_mus) for lam in lams])
    if np.all(facs < 1.0):
        lambda_strong = 0.0
    elif facs[-1] >= 1.0:
        lambda_strong = math.inf
    else:
        j = int(np.max(np.nonzero(facs >= 1.0)[0]))
        _, lambda_strong = _roots.bisect(
            lambda lam: -1.0 if factor(lam, strong_mus) < 1.0 else 1.0,
            lams[j], lams[j + 1], 1.0)
    return RegimeEstimate(xi=xi, lambda_weak=float(lambda_weak),
                          lambda_strong=float(lambda_strong))


@st.composite
def rate_models(draw):
    positive = st.floats(0.05, 5.0)
    lam = draw(st.floats(0.0, 5.0))
    kind = draw(st.sampled_from(["constant", "smooth", "step"]))
    if kind == "constant":
        return ConstantRate(k0=draw(positive), lam=lam)
    if kind == "smooth":
        k0 = draw(positive)
        return SmoothSaturatingRate(
            k0=k0, k1=k0 + draw(st.floats(0.0, 5.0)), lam=lam,
            mu_scale=draw(positive), x_scale=draw(positive))
    sigma_minus = draw(st.floats(0.01, 0.5))
    return StepRate(sigma_plus=sigma_minus + draw(st.floats(0.01, 0.48)),
                    sigma_minus=sigma_minus, lam=lam,
                    decay=draw(positive))


_positive = st.floats(0.05, 5.0)


@st.composite
def _regime_models(draw):
    kind = draw(st.sampled_from(["constant", "smooth", "step",
                                 "step-custom-sigma"]))
    lam = draw(st.floats(0.0, 3.0))
    if kind == "constant":
        return ConstantRate(k0=draw(_positive), lam=lam)
    if kind == "smooth":
        k0 = draw(_positive)
        return SmoothSaturatingRate(k0=k0, k1=k0 + draw(st.floats(0.0, 3.0)),
                                    lam=lam, mu_scale=draw(_positive),
                                    x_scale=draw(_positive))
    low = draw(st.floats(0.02, 0.9))
    high = draw(st.floats(low + 0.01, 0.99))
    if kind == "step":
        return StepRate(sigma_plus=high, sigma_minus=low, lam=lam,
                        decay=draw(_positive))
    rate = draw(_positive)
    return StepRate(sigma_plus=high, sigma_minus=low, lam=lam,
                    sigma=lambda u: low + (high - low) / (1.0 + rate * u),
                    sigma_modulus=(high - low) * rate)


@settings(max_examples=60, deadline=None)
@given(model=_regime_models(), x_max=st.floats(0.01, 20.0),
       lo=st.floats(0.0, 2.0), span=st.floats(0.01, 5.0),
       samples=st.integers(2, 40), f_inf_scale=st.floats(0.0, 10.0),
       mu_inf=st.none() | st.floats(0.01, 3.0))
def test_estimate_xi_bounds_the_sampled_estimator(model, x_max, lo, span,
                                                  samples, f_inf_scale,
                                                  mu_inf):
    # a difference quotient is the mean of the slope over its interval,
    # so the sampled modulus falls short of the supremum and the sampled
    # factor of the exact one: the closed-form xi is at least the
    # sampled one, the weak coupling at most and the strong one at least
    # its sampled value, up to the rounding of a quotient and the width
    # of the bisection
    settings_ = dict(x_max=x_max, mu_range=(lo, lo + span), samples=samples,
                     f_inf_scale=f_inf_scale, mu_inf=mu_inf)
    est = estimate_xi(model, **settings_)
    ref = _sampled_estimate(model, **settings_)
    assert est.xi >= ref.xi - 1e-9 * max(1.0, ref.xi)
    assert est.lambda_weak <= ref.lambda_weak * (1.0 + 1e-9)
    assert est.lambda_strong >= ref.lambda_strong * (1.0 - 1e-9)


def _onset(K, lo, hi):
    # the least activity in [lo, hi] past which K rises from its value
    # at lo, to within 1e-13 of the bracket; hi when it never rises
    if K(hi) <= K(lo):
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b or b - a < 1e-13 * max(1.0, b):
            break
        if K(mid) > K(lo):
            b = mid
        else:
            a = mid
    return b


@settings(max_examples=150, deadline=None)
@given(model=rate_models(), x_max=st.floats(0.01, 20.0),
       lo=st.floats(0.0, 2.0), span=st.floats(0.01, 5.0))
def test_xi_is_the_modulus_of_the_scalar_cumulative(model, x_max, lo, span):
    # fine difference quotients of mu -> K(x_max, lam*mu) on mu_range
    # never exceed xi and, where the slope peaks, come within 1e-6 of it
    hi = lo + span
    xi = estimate_xi(model, x_max=x_max, mu_range=(lo, hi)).xi
    h = 1e-8

    def K(mu):
        return model.cumulative(x_max, mu)

    # a quotient carries the rounding of two values of K
    noise = 8.0 * np.finfo(float).eps * model.k1 * x_max / h

    def quotient(mu):
        return (K(mu + h) - K(mu)) / h

    quotients = [quotient(mu) for mu in np.linspace(lo, hi - h, 101)]
    assert max(quotients) <= xi * (1.0 + 1e-12) + noise
    # the slope falls in the activity past the point where the
    # threshold first crosses the horizon, or from lo on
    start = min(_onset(K, lo, hi), hi - h)
    assert quotient(start) >= xi * (1.0 - 1e-6) - noise


@settings(max_examples=100, deadline=None)
@given(model=rate_models(), x_max=st.floats(0.01, 20.0),
       hi=st.floats(0.01, 5.0), f_inf_scale=st.floats(0.0, 10.0),
       mu_inf=st.none() | st.floats(0.01, 3.0))
# a horizon so near sigma_minus that the strong factor never reaches 1
@example(model=StepRate(sigma_plus=0.5, sigma_minus=0.25), x_max=0.255,
         hi=1.0, f_inf_scale=1.0, mu_inf=None)
def test_regime_couplings_are_the_crossings_of_the_factor(model, x_max, hi,
                                                         f_inf_scale,
                                                         mu_inf):
    # lambda_weak is where 2 k1 (f_inf_scale + k1) xi(lam) over (0, hi)
    # first reaches 1, lambda_strong where it last falls under 1 over
    # the strong side's activities, each xi from estimate_xi itself
    est = estimate_xi(model, x_max=x_max, mu_range=(0.0, hi),
                      f_inf_scale=f_inf_scale, mu_inf=mu_inf)
    k1 = model.k1
    scale = 2.0 * k1 * (f_inf_scale + k1)
    m_inf = k1 / 10.0 if mu_inf is None else mu_inf
    strong_range = (m_inf, k1 if k1 > m_inf else 2.0 * m_inf)

    def factor(lam, mu_range):
        coupled = dataclasses.replace(model, lam=lam)
        return scale * estimate_xi(coupled, x_max=x_max,
                                   mu_range=mu_range).xi

    if math.isfinite(est.lambda_weak):
        assert factor(est.lambda_weak * (1.0 - 1e-9), (0.0, hi)) < 1.0
        assert factor(est.lambda_weak * (1.0 + 1e-9), (0.0, hi)) >= 1.0
    else:
        assert factor(1e4, (0.0, hi)) < 1.0
    past = est.lambda_strong * np.geomspace(1.0 + 1e-6, 1e3, 50)
    if est.lambda_strong == 0.0:
        past = np.geomspace(1e-6, 1e4, 200)
    elif math.isfinite(est.lambda_strong):
        assert factor(est.lambda_strong, strong_range) == pytest.approx(
            1.0, rel=1e-9)
    else:
        past = [1e4]
    for lam in past:
        assert (factor(lam, strong_range) < 1.0) == math.isfinite(
            est.lambda_strong)


def _lambert_points():
    # -1/e < z < 0 from the branch point to the smallest normal float
    rng = np.random.default_rng(7)
    logs = rng.uniform(math.log(1e-300), -1.0, 400)
    near = -1.0 / math.e + 10.0 ** rng.uniform(-6.0, -1.0, 200)
    return np.concatenate([-np.exp(logs), near, [-0.25, -1e-300]])


def test_lambert_w_lower_matches_scipy():
    # scipy's lambertw on the -1 branch is accurate away from the branch
    # point; nearer than 1e-6 to -1/e it can be off by 1e-4, see below
    special = pytest.importorskip("scipy.special")
    for z in _lambert_points().tolist():
        if math.e * z + 1.0 < 1e-6:
            continue
        w = firing_rate._lambert_w_lower(z)
        assert w == pytest.approx(special.lambertw(z, -1).real, rel=1e-12)
        assert w <= -1.0


def test_lambert_w_lower_near_the_branch_point():
    # W_{-1} has slope w/(z (1 + w)) there, so rounding z and log(-z)
    # costs about eps/|1 + w|; the 40-digit value is the reference
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    points = -1.0 / math.e + 10.0 ** rng.uniform(-17.0, -5.0, 300)
    for z in [z for z in points.tolist() if z > -1.0 / math.e]:
        w = firing_rate._lambert_w_lower(z)
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(mpmath.mpf(z), -1).real)
        tol = 1e-12 * abs(ref) + 4.0 * np.finfo(float).eps / abs(1.0 + ref)
        assert abs(w - ref) <= tol
    assert firing_rate._lambert_w_lower(-1.0 / math.e) == -1.0


def test_half_rate_age():
    assert half_rate_age(ConstantRate(k0=3.0)) == 0.0
    step = StepRate(sigma_plus=0.5, sigma_minus=0.25)
    assert half_rate_age(step) == pytest.approx(0.5, abs=1e-9)
    smooth = SmoothSaturatingRate(k0=0.5, k1=2.0)
    # rate(x, 0) = k0 (1 - e^{-x}) reaches k0/2 at ln 2
    assert half_rate_age(smooth) == pytest.approx(math.log(2.0), abs=1e-9)


def _bisected_half_rate_age(model):
    # the oracle: the smallest x with rate(x, 0) >= k0/2, by doubling an
    # upper end from 1 and bisecting on the sign of the comparison (the
    # rate may sit on k0/2 over several floats)
    target = model.k0 / 2.0

    def fn(x):
        return model.rate(x, 0.0)
    if fn(0.0) >= target:
        return 0.0
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("rate never reaches the requested level")
    return _roots.bisect(lambda x: 1.0 if fn(x) >= target else -1.0,
                         0.0, hi, -1.0)[1]


@st.composite
def _half_rate_models(draw):
    # each family, with half-rate ages from 1e-30 to 5e5, where the
    # oracle's doubling and 200 halvings reach the first float
    kind = draw(st.sampled_from(["constant", "smooth", "step",
                                 "step-custom-sigma"]))
    k0 = draw(st.floats(1e-6, 1e6))
    if kind == "constant":
        return ConstantRate(k0=k0)
    if kind == "smooth":
        return SmoothSaturatingRate(k0=k0, k1=k0 * draw(st.floats(1.0, 100.0)),
                                    x_scale=draw(st.floats(1e-6, 1e5)))
    low = draw(st.floats(0.01, 0.9))
    high = draw(st.floats(low + 1e-6, 0.999))
    if kind == "step":
        return StepRate(sigma_plus=high, sigma_minus=low,
                        decay=draw(_positive))
    # a custom threshold may rest at any age, below 0 included
    rest = draw(st.one_of(st.floats(-2.0, -1e-300), st.floats(1e-30, 5e5)))
    return StepRate(sigma_plus=high, sigma_minus=low,
                    sigma=lambda u: rest / (1.0 + u), sigma_modulus=abs(rest))


@given(_half_rate_models())
@settings(max_examples=300, deadline=None)
@example(SmoothSaturatingRate(k0=0.5, k1=2.0))
@example(StepRate(sigma_plus=0.5, sigma_minus=0.25))
def test_half_rate_age_equals_the_bisection_oracle(model):
    x0 = half_rate_age(model)
    assert x0 == _bisected_half_rate_age(model)
    assert model.rate(x0, 0.0) >= model.k0 / 2.0
    assert x0 == 0.0 or model.rate(math.nextafter(x0, 0.0), 0.0) \
        < model.k0 / 2.0


def test_half_rate_ages_the_bisection_could_not_reach():
    # the oracle halves 200 times from [0, 1] and refuses an age past
    # 2**19; the families' closed forms give the first float there too
    resting = StepRate(sigma=lambda u: 0.0, sigma_modulus=1.0)
    assert half_rate_age(resting) == math.nextafter(0.0, 1.0)
    assert _bisected_half_rate_age(resting) == 2.0 ** -200
    for model in (StepRate(sigma=lambda u: 1e6, sigma_modulus=1.0),
                  SmoothSaturatingRate(k0=1.0, k1=2.0, x_scale=1e6)):
        x0 = half_rate_age(model)
        assert model.rate(x0, 0.0) >= 0.5 > model.rate(
            math.nextafter(x0, 0.0), 0.0)
        with pytest.raises(ValueError, match="never reaches"):
            _bisected_half_rate_age(model)
    # with k0/2 a few subnormal floats, the rate's rounding moves the
    # first float that reaches it far from x_scale ln 2: refused
    with pytest.raises(ValueError, match="half-rate age"):
        half_rate_age(SmoothSaturatingRate(k0=1e-322, k1=1.0))


# ---------------------------------------------------------------------------
# the per-family fast paths against the scalar and generic definitions

def _factors(model, grid, mu):
    # decay on ones gives the factors themselves, since 1.0 * x = x
    return model.stepper(grid).decay(np.ones(grid.n_cells), mu)


def _quadrature(model, grid, f, mu):
    # the activity map by its definition, int k(x, lam*mu) f dx on the
    # midpoint mesh
    return float(np.dot(model.rate(grid.midpoints, mu), f)) * grid.dx


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_survival_equals_the_rate_expression(model):
    # the transport step used np.exp(-rate(midpoints, mu) * dx); the
    # stepper's factors must reproduce it bit for bit
    grid = AgeGrid(dx=0.01, n_cells=1000)
    mus = np.concatenate([[0.0], np.random.default_rng(7).uniform(0.0, 3.0,
                                                                   499)])
    for mu in mus:
        expected = np.exp(-model.rate(grid.midpoints, mu) * grid.dx)
        assert _factors(model, grid, mu).tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_survival_validates_the_activity(model):
    grid = AgeGrid(dx=0.1, n_cells=20)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _factors(model, grid, bad)
    with pytest.raises(ValueError, match="scalar"):
        _factors(model, grid, np.array([0.1, 0.2]))


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_activity_map_matches_generic_quadrature(model):
    # the stepper's map is the quadrature: every activity its solve
    # settles on, cold or warm, is a fixed point of the quadrature
    grid = AgeGrid(dx=0.01, n_cells=1000)
    rng = np.random.default_rng(5)
    densities = [preset_density(grid, name).values
                 for name in ("uniform01", "exp2", "spike")]
    noise = rng.uniform(0.0, 0.2, grid.n_cells)
    densities.append(noise / (noise.sum() * grid.dx))
    stepper = model.stepper(grid)
    for values in densities:
        for warm in np.concatenate([[np.nan], rng.uniform(0.0, model.k1,
                                                          20)]):
            m, _, method = stepper.solve(
                values, warm=None if np.isnan(warm) else warm)
            assert method == "fixed-point"
            assert abs(_quadrature(model, grid, values, m) - m) <= 2e-12


def _jump_sigma(u):
    # a custom threshold with a jump: the staircase can hold two roots
    return 0.45 if u < 0.3 else 0.05


def _falling_sigma(u):
    # a custom threshold that falls through cell 0 for large u
    return 0.6 / (1.0 + 4.0 * u)


def _rising_sigma(u):
    # a threshold that rises: the staircase can hold no root
    return 0.2 if u < 0.5 else 0.8


def _plateau_sigma(levels):
    # a non-monotone custom threshold map: one level per third of a unit
    # of effective activity, repeating
    return lambda u: levels[int(3.0 * u) % len(levels)]


def _full_mesh_step_roots(model, grid, f):
    """Every fixed point of the step map by a scan of every cell: the
    plateau value past cell j is a root when its threshold lies in j."""
    csum = np.concatenate(([0.0], np.cumsum(f))) * grid.dx
    # a mass: the map clamps the rounding below zero of an empty tail
    tails = np.maximum(cell_sum(f) * grid.dx - csum, 0.0)
    roots = []
    for j, g in enumerate(tails.tolist()):
        if np.searchsorted(grid.midpoints, model.threshold(g),
                           side="right") == j:
            roots.append(g)
    return sorted(roots)


# one strategy per family, the step family with and without a custom map
_DRAWN_FAMILIES = {
    "constant": st.builds(ConstantRate, k0=st.floats(0.1, 3.0),
                          lam=st.floats(0.0, 3.0)),
    "smooth": st.builds(
        lambda k0, spread, **kw: SmoothSaturatingRate(k0=k0, k1=k0 + spread,
                                                      **kw),
        k0=st.floats(0.1, 2.0), spread=st.floats(0.0, 3.0),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        mu_scale=st.floats(0.2, 5.0), x_scale=st.floats(0.1, 3.0)),
    "step": st.builds(
        lambda sigma_minus, spread, **kw: StepRate(
            sigma_plus=sigma_minus + spread, sigma_minus=sigma_minus, **kw),
        sigma_minus=st.floats(0.05, 0.45), spread=st.floats(0.01, 0.5),
        decay=st.floats(0.1, 5.0),
        lam=st.one_of(st.just(0.0), st.floats(0.1, 316.0))),
    "step-custom-sigma": st.builds(
        StepRate, lam=st.floats(0.0, 3.0), sigma_modulus=st.just(3.0),
        sigma=st.one_of(
            st.sampled_from([_jump_sigma, _falling_sigma,
                             _rising_sigma]),
            st.lists(st.floats(0.05, 0.95), min_size=2,
                     max_size=4).map(_plateau_sigma))),
}


@pytest.mark.parametrize("family", FAMILY_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
       n_cells=st.integers(2, 2000),
       # an age past which the density vanishes, so the mass past a
       # threshold can be anything from all to none
       support=st.floats(0.0, 1.0),
       # three units of mass can lift the smooth G(k1) above k1
       mass=st.floats(0.5, 3.0))
def test_activity_roots_are_fixed_points_of_the_activity_map(
        family, data, seed, dx, n_cells, support, mass):
    model = data.draw(_DRAWN_FAMILIES[family], label="model")
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    rng = np.random.default_rng(seed)
    cells = max(1, int(support * n_cells))
    f = np.zeros(n_cells)
    f[:cells] = rng.gamma(2.0, size=cells)
    f[0] += 1e-3
    f *= mass / (f.sum() * dx)
    stepper = model.stepper(grid)
    roots = stepper.roots(f)
    # a caller that holds the cell sum passes it; the list must not care
    assert stepper.roots(f, cell_sum(f)) == roots
    assert roots == sorted(roots)
    for r in roots:
        assert 0.0 <= r <= model.k1 * mass * (1.0 + 1e-12)
        assert abs(_quadrature(model, grid, f, r) - r) <= 1e-12
    if family == "constant":
        assert roots == [model.k0 * cell_sum(f) * dx]
    elif family == "smooth":
        # gain is concave: one root in [0, k1] unless G(k1) > k1
        if _quadrature(model, grid, f, model.k1) > model.k1:
            assert roots == []
        else:
            oracle = optimize.brentq(
                lambda mu: _quadrature(model, grid, f, mu) - mu, 0.0,
                model.k1, xtol=1e-15)
            assert roots == [pytest.approx(oracle, abs=1e-12)]
    else:
        assert roots == _full_mesh_step_roots(model, grid, f)


def _stalled_copy(roots, k1, max_iter):
    if not roots:
        raise ModelInconsistencyError(f"no solution in [0, {k1!r}]")
    if len(roots) > 1:
        raise AmbiguousActivityError.listing(roots)
    return roots[0], max_iter, "scan"


def _constant_loop(stepper, values, total, warm, tol, max_iter):
    # the constant family's closed-form solve before the shared loop
    roots = stepper.roots(values, total)
    mass, = roots
    k1 = stepper._model.k1
    mu = min(max(mass if warm is None else float(warm), 0.0), k1)
    if abs(mass - mu) <= tol:
        return mu, 1, "fixed-point"
    mu = min(max(mass, 0.0), k1)
    if max_iter >= 2 and abs(mass - mu) <= tol:
        return mu, 2, "fixed-point"
    return _stalled_copy(roots, k1, max_iter)


def _smooth_loop(stepper, values, total, warm, tol, max_iter):
    # the smooth family's Newton loop before the shared loop
    model = stepper._model
    gain, k1 = model.gain, model.k1
    weight = float(np.dot(stepper._shape, values)) * stepper._dx
    g0 = gain(0.0) * weight
    rate = stepper._rate
    scale = stepper._span * (g0 / model.k0)
    mu = min(max(g0 if warm is None else float(warm), 0.0), k1)
    for it in range(1, max_iter + 1):
        target = gain(mu) * weight
        settled = abs(target - mu) <= tol
        s = scale * math.exp(-rate * mu) if scale else 1.0
        if s < 1.0:
            target = mu + (target - mu) / (1.0 - s)
        elif settled:
            return mu, it, "fixed-point"
        mu = min(max(target, 0.0), k1)
        if settled:
            return mu, it, "fixed-point"
    return _stalled_copy(stepper.roots(values), k1, max_iter)


def _step_loop(stepper, values, total, warm, tol, max_iter):
    # the step family's inline fixed-point loop before the shared loop
    model = stepper._model
    threshold, dx, k1 = model.threshold, stepper._dx, model.k1
    mids = stepper._mids
    cell_of = bisect.bisect_right
    if total is None:
        total = cell_sum(values)
    mass, heads = total * dx, np.add.accumulate(values[:stepper._reach])
    mu = warm
    if warm is None:
        idx = cell_of(mids, threshold(0.0))
        mu = max(mass - heads[idx - 1] * dx, 0.0) if idx else mass
    mu = min(max(float(mu), 0.0), k1)
    for it in range(1, max_iter + 1):
        idx = cell_of(mids, threshold(mu))
        target = max(mass - heads[idx - 1] * dx, 0.0) if idx else mass
        if abs(target - mu) <= tol:
            return mu, it, "fixed-point"
        mu = min(max(target, 0.0), k1)
    return _stalled_copy(stepper.roots(values, total), k1, max_iter)


_FAMILY_LOOPS = {"constant": _constant_loop, "smooth": _smooth_loop,
                 "step": _step_loop, "step-custom-sigma": _step_loop}


def _bits(solution):
    m, iterations, method = solution
    return float(m).hex(), iterations, method


@pytest.mark.parametrize("family", FAMILY_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
       n_cells=st.integers(2, 2000),
       support=st.floats(0.0, 1.0),
       mass=st.floats(0.5, 3.0),
       given_total=st.booleans(),
       # None starts cold; otherwise a fraction of the way from 0 up to
       # the lowest root, or from the highest root up to k1
       warm=st.one_of(st.none(), st.tuples(st.sampled_from(["below",
                                                            "above"]),
                                            st.floats(0.0, 1.0))),
       # a cap of 1 to 3 stalls most solves, so the roots list answers
       max_iter=st.sampled_from([1, 2, 3, 200]))
def test_the_shared_loop_equals_each_familys_own_loop(
        family, data, seed, dx, n_cells, support, mass, given_total, warm,
        max_iter):
    model = data.draw(_DRAWN_FAMILIES[family], label="model")
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    rng = np.random.default_rng(seed)
    cells = max(1, int(support * n_cells))
    f = np.zeros(n_cells)
    f[:cells] = rng.gamma(2.0, size=cells)
    f[0] += 1e-3
    f *= mass / (f.sum() * dx)
    total = cell_sum(f) if given_total else None
    stepper = model.stepper(grid)
    roots = stepper.roots(f, total)
    start = None
    if warm is not None:
        side, u = warm
        lo, hi = (roots[0], roots[-1]) if roots else (0.0, 0.0)
        start = u * lo if side == "below" else hi + u * (model.k1 - hi)
    own = _FAMILY_LOOPS[family]
    with mock.patch.object(firing_rate, "_MAX_ITER", max_iter):
        try:
            expected = own(stepper, f, total, start, 1e-12, max_iter)
        except (AmbiguousActivityError, ModelInconsistencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                stepper.solve(f, total, start)
            assert getattr(raised.value, "roots", None) == getattr(
                exc, "roots", None)
        else:
            assert _bits(stepper.solve(f, total, start)) == _bits(expected)


def test_smooth_activity_roots_leave_out_a_root_above_k1():
    # three units of mass lift G(k1) = gain(k1) * 3/e above k1 = 1
    grid = AgeGrid(dx=0.01, n_cells=200)
    values = 3.0 * preset_density(grid, "uniform01").values
    model = SmoothSaturatingRate(k0=1.0, k1=1.0)
    assert _quadrature(model, grid, values, 1.0) > 1.0
    assert model.stepper(grid).roots(values) == []


def _step_discrete_roots(model, grid, f):
    """Every fixed point of the midpoint-quadrature activity map for a
    built-in step rate, by inverting its threshold formula.

    The map is a staircase in m whose plateau boundaries sit where the
    threshold crosses a midpoint; each plateau holds a root exactly
    when its value falls inside the plateau interval and the rounded
    threshold there still selects the plateau's cell (a midpoint within
    rounding of sigma_minus moves the crossing off its analytic bound).
    """
    csum = np.concatenate(([0.0], np.cumsum(f))) * grid.dx
    total = cell_sum(f) * grid.dx      # the cell sum, as in the map
    mids = grid.midpoints
    k1 = model.k1
    lam = model.lam
    if lam == 0.0:
        bounds = np.array([0.0, k1])
    else:
        span = model.sigma_plus - model.sigma_minus
        sel = (mids > model.sigma_minus) & (mids < model.sigma_plus)
        u = -np.log((mids[sel] - model.sigma_minus) / span) / model.decay
        m_bounds = u / lam
        m_bounds = m_bounds[(m_bounds > 0.0) & (m_bounds < k1)]
        bounds = np.unique(np.concatenate(([0.0], m_bounds, [k1])))
    roots = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        mc = 0.5 * (a + b)
        idx = int(np.searchsorted(mids, model.threshold(mc), side="right"))
        g = total - csum[idx]
        cell = int(np.searchsorted(mids, model.threshold(g), side="right"))
        if a <= g <= b and cell == idx and (not roots
                                            or g - roots[-1] > 1e-12):
            roots.append(float(g))
    return roots


def _tail(model, grid, f, mu):
    # the mass past the threshold cell, summed on its own
    idx = np.searchsorted(grid.midpoints, model.threshold(mu), side="right")
    return float(f[idx:].sum()) * grid.dx


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.02, 0.01, 1e-3]),
       x_max=st.floats(2.0, 10.0),
       sigma_minus=st.floats(0.05, 0.45),
       spread=st.floats(0.01, 0.5),
       decay=st.floats(0.1, 5.0),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 316.0)))
# once failed: midpoint 22 lies within rounding of sigma_minus, and the
# oracle listed a plateau value past that crossing whose own threshold
# selects another cell, so it was no fixed point
@example(seed=1331, dx=0.02, x_max=7.640625, sigma_minus=0.44999999999999996,
         spread=0.5, decay=0.453125, lam=146.0)
def test_step_activity_roots_match_the_threshold_inversion(
        seed, dx, x_max, sigma_minus, spread, decay, lam):
    grid = AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))
    rng = np.random.default_rng(seed)
    f = (rng.gamma(2.0, size=grid.n_cells) + 1e-3) \
        * np.exp(-rng.uniform(0.0, 3.0) * grid.midpoints)
    f /= f.sum() * dx
    model = StepRate(sigma_plus=sigma_minus + spread,
                     sigma_minus=sigma_minus, lam=lam, decay=decay)
    roots = model.stepper(grid).roots(f)
    assert roots == _step_discrete_roots(model, grid, f)
    for r in roots:
        assert r == pytest.approx(_tail(model, grid, f, r), rel=1e-13,
                                  abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       # at dx = 0.2 a threshold can fall before the first midpoint
       dx=st.sampled_from([0.2, 0.02, 0.01, 1e-3]),
       x_max=st.floats(2.0, 10.0),
       sigma_minus=st.floats(0.05, 0.45),
       spread=st.floats(0.01, 0.5),
       decay=st.floats(0.1, 5.0),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 316.0)),
       levels=st.one_of(st.none(), st.lists(st.floats(0.05, 0.95),
                                            min_size=2, max_size=4)))
def test_step_activity_map_equals_an_independent_tail_sum(
        seed, dx, x_max, sigma_minus, spread, decay, lam, levels):
    # the stepper's staircase, read where its solve and its roots land:
    # each is the mass past its own threshold cell, summed on its own
    grid = AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))
    rng = np.random.default_rng(seed)
    f = (rng.gamma(2.0, size=grid.n_cells) + 1e-3) \
        * np.exp(-rng.uniform(0.0, 3.0) * grid.midpoints)
    f /= f.sum() * dx
    sigma = None if levels is None else _plateau_sigma(levels)
    model = StepRate(sigma_plus=sigma_minus + spread,
                     sigma_minus=sigma_minus, lam=lam, decay=decay,
                     sigma=sigma, sigma_modulus=None if sigma is None else 1.0)
    stepper = model.stepper(grid)
    roots = stepper.roots(f)
    for r in roots:
        assert r == pytest.approx(_tail(model, grid, f, r), rel=1e-13,
                                  abs=1e-15)
    # warm starts from rest and across [0, 3]
    for warm in np.concatenate([[0.0], rng.uniform(0.0, 3.0, 10)]):
        try:
            m, _, method = stepper.solve(f, cell_sum(f), warm)
        except AmbiguousActivityError as exc:
            assert exc.roots == roots and len(roots) > 1
            continue
        except ModelInconsistencyError:
            assert roots == []
            continue
        if method == "scan":
            assert [m] == roots
        assert abs(_tail(model, grid, f, m) - m) <= 1e-12 + 1e-14


@settings(max_examples=300, deadline=None)
@given(sigma_minus=st.floats(0.01, 0.9),
       spread=st.floats(1e-6, 0.09),
       decay=st.floats(1e-3, 50.0),
       lam=st.floats(0.0, 1e4),
       mu=st.floats(0.0, 1e6))
def test_builtin_threshold_never_passes_its_value_at_rest(
        sigma_minus, spread, decay, lam, mu):
    # the step map's prefix sums stop at the cell of threshold(0)
    model = StepRate(sigma_plus=sigma_minus + spread,
                     sigma_minus=sigma_minus, lam=lam, decay=decay)
    assert model.threshold(mu) <= model.threshold(0.0)


# at lam = 0.3 the exp2 map has two roots one activity cell apart
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.3, 40.0])
def test_step_activity_roots_equal_a_full_mesh_scan(lam):
    grid = AgeGrid(dx=1e-3, n_cells=10_000)
    rng = np.random.default_rng(11)
    noise = rng.gamma(2.0, size=grid.n_cells) * np.exp(-grid.midpoints)
    densities = [preset_density(grid, name).values
                 for name in ("uniform01", "exp2", "spike")]
    densities.append(noise / (noise.sum() * grid.dx))
    # no mass past sigma_plus: the pairwise total falls 6e-16 short of
    # the prefix sum, and the empty tail must still read 0
    short = np.random.default_rng(0).gamma(2.0, size=grid.n_cells) \
        * (grid.midpoints < 0.4)
    densities.append(short / (short.sum() * grid.dx))
    for f in densities:
        model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=lam)
        roots = model.stepper(grid).roots(f)
        assert roots == _full_mesh_step_roots(model, grid, f)
        assert roots and roots[0] >= 0.0
    assert 0.0 in roots


@pytest.mark.parametrize("family", [f for f in FAMILY_IDS if f != "smooth"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dx=st.floats(1e-3, 0.5), n_cells=st.integers(2, 2000),
       mus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
def test_run_is_the_public_cumulative(family, data, dx, n_cells, mus):
    # the run families' stationary run (T, k) on the bound stepper: the
    # rate 0 below age T and k past it is bit for bit the public K on
    # every edge, and k is the rate at the horizon while T lies below it
    model = data.draw(_DRAWN_FAMILIES[family], label="model")
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    stepper = model.stepper(grid)
    for mu in mus + [0.0]:
        T, k = stepper._stationary_run(mu)[0], stepper._k
        assert type(T) is float and type(k) is float
        assert np.array_equal(np.maximum(0.0, k * (grid.edges - T)),
                              model.cumulative(grid.edges, mu))
        if T < grid.x_max:
            assert k == model.rate(grid.x_max, mu)
    for bad in (-0.1, math.nan, math.inf, np.array([0.4])):
        with pytest.raises(ValueError, match="^activity mu must be"):
            stepper.stationary_integral(bad)
        with pytest.raises(ValueError, match="^activity mu must be"):
            stepper.stationary(bad)


@settings(max_examples=100, deadline=None)
@given(k0=st.floats(0.01, 10.0), dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 2000), seed=st.integers(0, 2 ** 32 - 1),
       mass=st.floats(0.1, 1.0), mu=st.floats(0.0, 10.0))
def test_the_constant_family_steps_as_a_run_from_age_zero(
        k0, dx, n_cells, seed, mass, mu):
    # the run stepper with threshold 0 and rate k0 gives the constant
    # family's closed forms bit for bit: the map is the one value
    # (k0 * total) * dx, every cell decays by exp(-k0 dx) from the same
    # vector exp as the rate expression, and the run is k0 from age 0
    model = ConstantRate(k0=k0)
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    f = np.random.default_rng(seed).gamma(2.0, size=n_cells)
    f *= mass / (f.sum() * dx)
    total = cell_sum(f)
    stepper = model.stepper(grid)
    mass_k0 = (k0 * total) * dx
    assert stepper.roots(f) == stepper.roots(f, total) == [mass_k0]
    # a cold solve settles at the root in one step, clamped to k1 = k0
    # where the unit mass rounds a hair above 1; a warm one within the
    # tolerance of it
    settled = min(mass_k0, k0), 1, "fixed-point"
    assert stepper.solve(f, total) == stepper.solve(f) == settled
    assert abs(stepper.solve(f, total, mu)[0] - mass_k0) <= 1e-12
    expected = f * np.exp(-np.full(1, k0) * dx)
    assert np.array_equal(stepper.decay(f.copy(), mu), expected)
    assert (stepper._stationary_run(mu)[0], stepper._k) == (0.0, k0)
    assert stepper.runs(mu) == ((k0, n_cells),)
    assert stepper.one_root


@settings(max_examples=60, deadline=None)
@given(sigma_plus=st.floats(0.02, 0.9), share=st.floats(0.01, 0.99),
       over=st.floats(1.0 + 1e-9, 3.0), n_cells=st.integers(2, 300),
       lam=st.floats(0.0, 3.0))
def test_a_threshold_below_the_first_midpoint_is_one_plateau(
        sigma_plus, share, over, n_cells, lam):
    # with sigma_plus below the first midpoint dx/2 no threshold reaches
    # a midpoint, so the map is one plateau, as the constant family's
    model = StepRate(sigma_plus=sigma_plus, sigma_minus=share * sigma_plus,
                     lam=lam)
    dx = 2.0 * sigma_plus * over
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    assume(grid.midpoints[0] > sigma_plus)
    stepper = model.stepper(grid)
    assert stepper.one_root
    f = np.ones(n_cells) / (n_cells * dx)
    assert stepper.roots(f) == [cell_sum(f) * dx]
    assert stepper.runs(0.3) == ((1.0, n_cells),)
    # a threshold that reaches the first midpoint makes a staircase
    assert not StepRate(sigma_plus=0.5, sigma_minus=0.25).stepper(
        AgeGrid(dx=0.5, n_cells=4)).one_root


@settings(max_examples=60, deadline=None)
@given(model=_DRAWN_FAMILIES["smooth"], dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 2000),
       mus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
@example(model=SmoothSaturatingRate(k0=0.5, k1=2.0, x_scale=1e16), dx=0.01,
         n_cells=300, mus=[0.3])
def test_the_age_pieces_are_the_public_cumulative(model, dx, n_cells, mus):
    # the smooth family's stationary pieces, bound once per grid and
    # read-only: gain times the age integral on the edges is bit for bit
    # the public K, gain times the age factor at x_max is the rate at
    # the horizon, and the weights are dx/dA on the cells where that is
    # a positive float, 0 elsewhere
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    stepper = model.stepper(grid)
    pieces = firing_rate._age_pieces(grid, model.x_scale)
    stepper.stationary_integral(0.0)
    assert stepper._ages is pieces
    assert not any(piece.flags.writeable for piece in pieces[:4])
    gain = stepper._gain
    ages, rise, weight, idle, end_age = pieces
    assert np.array_equal(rise, np.diff(ages))
    fires = np.ones(n_cells, dtype=bool)
    fires[idle] = False
    with np.errstate(divide="ignore", over="ignore"):
        ratio = dx / rise
    assert np.array_equal(fires, (rise > 0.0) & (ratio < math.inf))
    assert np.array_equal(weight, np.where(fires, ratio, 0.0))
    for mu in mus + [0.0]:
        assert gain(mu) == model.gain(mu)
        assert np.array_equal(gain(mu) * ages,
                              model.cumulative(grid.edges, mu))
        assert gain(mu) * end_age == model.rate(grid.x_max, mu)


# ---------------------------------------------------------------------------
# properties of K over random family parameters

@settings(max_examples=150, deadline=None)
@given(model=rate_models(),
       xs=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=12),
       mus=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12))
def test_cumulative_properties(model, xs, mus):
    xs, mus = np.sort(xs), np.sort(mus)
    # rounding allowance: a few ulps of the largest value K can take
    slack = 8.0 * np.finfo(float).eps * model.k1 * max(1.0, xs[-1])
    for mu in mus:
        assert model.cumulative(0.0, mu) == 0.0
        K = model.cumulative(xs, mu)
        assert np.all(np.diff(K) >= -slack)
        assert np.all(K >= -slack)
        assert np.all(K <= model.k1 * xs + slack)
    for x in xs:
        K = [model.cumulative(x, mu) for mu in mus]
        assert np.all(np.diff(K) >= -slack)


@settings(max_examples=150, deadline=None)
@given(model=rate_models(), dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 300),
       mus=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8))
def test_survival_properties(model, dx, n_cells, mus):
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    factors = np.array([_factors(model, grid, mu) for mu in sorted(mus)])
    assert np.all(factors > 0.0) and np.all(factors <= 1.0)
    # rates rise with age and with activity, so the factors fall
    assert np.all(np.diff(factors, axis=1) <= 0.0)
    assert np.all(np.diff(factors, axis=0) <= 0.0)
