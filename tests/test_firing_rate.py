"""Rate families, their closed-form pieces, and the regime estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from agenet import (AgeGrid, ConstantRate, SmoothSaturatingRate, StepRate,
                    estimate_xi, half_rate_age, preset_density)

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


def test_step_rate_custom_threshold_map():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=2.0,
                     sigma=lambda u: 0.6 / (1.0 + u), sigma_modulus=0.6)
    # lam scales the activity before sigma sees it
    assert model.threshold(1.0) == pytest.approx(0.2)
    assert model.rate(0.25, 1.0) == 1.0


def test_estimate_xi_constant_rate():
    est = estimate_xi(ConstantRate(k0=2.0, lam=1.0))
    assert est.xi == 0.0
    assert math.isinf(est.lambda_weak)
    assert est.lambda_strong == 0.0


def test_estimate_xi_frozen_step_values():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    est = estimate_xi(model)
    assert est.xi == pytest.approx(0.012490239459282293, abs=1e-9)
    assert est.lambda_weak == pytest.approx(1.0159583460664454, abs=1e-9)
    assert 0.0 < est.lambda_weak < est.lambda_strong


def test_estimate_xi_frozen_smooth_values():
    # values of the Gauss-panel cumulative that the closed form replaced
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.05)
    est = estimate_xi(model)
    assert est.xi == pytest.approx(0.6744763331369086, rel=1e-9)
    assert est.lambda_weak == pytest.approx(0.006173403812575334, rel=1e-9)
    assert est.lambda_strong == pytest.approx(39.245251120748364, rel=1e-9)


def test_estimate_xi_custom_sigma_without_modulus():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0,
                     sigma=lambda u: 0.4)
    assert not model.lipschitz_known
    est = estimate_xi(model)
    assert math.isinf(est.xi)
    assert est.lambda_weak == 0.0
    assert math.isinf(est.lambda_strong)


def test_estimate_xi_validation():
    model = ConstantRate(k0=1.0)
    with pytest.raises(ValueError):
        estimate_xi(model, mu_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        estimate_xi(model, mu_range=(-0.1, 1.0))
    with pytest.raises(ValueError):
        estimate_xi(model, samples=1)


def test_half_rate_age():
    assert half_rate_age(ConstantRate(k0=3.0)) == 0.0
    step = StepRate(sigma_plus=0.5, sigma_minus=0.25)
    assert half_rate_age(step) == pytest.approx(0.5, abs=1e-9)
    smooth = SmoothSaturatingRate(k0=0.5, k1=2.0)
    # rate(x, 0) = k0 (1 - e^{-x}) reaches k0/2 at ln 2
    assert half_rate_age(smooth) == pytest.approx(math.log(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# the per-family fast paths against the scalar and generic definitions

@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_cumulative_over_matches_scalar_calls(model):
    mus = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 3.0,
                                                                   500)])
    for x in (0.0, 0.2, 0.49, 2.0, 10.0):
        fast = model.cumulative_over(x, mus)
        slow = np.array([model.cumulative(x, mu) for mu in mus])
        if isinstance(model, SmoothSaturatingRate):
            np.testing.assert_allclose(fast, slow, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(fast, slow)


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_survival_equals_the_rate_expression(model):
    # the transport step used np.exp(-rate(midpoints, mu) * dx); the
    # family's factors must reproduce it bit for bit
    grid = AgeGrid(dx=0.01, n_cells=1000)
    mus = np.concatenate([[0.0], np.random.default_rng(7).uniform(0.0, 3.0,
                                                                   499)])
    for mu in mus:
        expected = np.exp(-model.rate(grid.midpoints, mu) * grid.dx)
        assert np.array_equal(model.survival(grid, mu), expected)


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_survival_validates_the_activity(model):
    grid = AgeGrid(dx=0.1, n_cells=20)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            model.survival(grid, bad)
    with pytest.raises(ValueError, match="scalar"):
        model.survival(grid, np.array([0.1, 0.2]))


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_activity_map_matches_generic_quadrature(model):
    grid = AgeGrid(dx=0.01, n_cells=1000)
    rng = np.random.default_rng(5)
    densities = [preset_density(grid, name).values
                 for name in ("uniform01", "exp2", "spike")]
    densities.append(rng.uniform(0.0, 0.2, grid.n_cells))
    for values in densities:
        G = model.activity_map(grid, values)
        for mu in np.concatenate([[0.0], rng.uniform(0.0, 3.0, 20)]):
            ref = float(np.dot(model.rate(grid.midpoints, mu), values)) \
                * grid.dx
            assert G(mu) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_activity_roots_are_fixed_points_of_the_activity_map(model):
    grid = AgeGrid(dx=0.01, n_cells=1000)
    rng = np.random.default_rng(6)
    densities = [preset_density(grid, name).values
                 for name in ("uniform01", "exp2", "spike")]
    noise = rng.gamma(2.0, size=grid.n_cells) + 1e-3
    densities.append(noise / (noise.sum() * grid.dx))
    for values in densities:
        G = model.activity_map(grid, values)
        roots = model.activity_roots(grid, values)
        assert roots == sorted(roots) and len(roots) >= 1
        for r in roots:
            assert 0.0 <= r <= model.k1 * (1.0 + 1e-12)
            if not isinstance(model, SmoothSaturatingRate):
                assert G(r) == r
                continue
            # bisection ends on adjacent floats, so the smooth root is
            # a fixed point to rounding, and the only one
            assert G(r) == pytest.approx(r, rel=4e-16, abs=0.0)
            oracle = optimize.brentq(lambda mu: G(mu) - mu, 0.0, model.k1,
                                     xtol=1e-15)
            assert roots == [pytest.approx(oracle, abs=1e-14)]


def test_smooth_activity_roots_leave_out_a_root_above_k1():
    # three units of mass lift G(k1) = gain(k1) * 3/e above k1 = 1
    grid = AgeGrid(dx=0.01, n_cells=200)
    values = 3.0 * preset_density(grid, "uniform01").values
    model = SmoothSaturatingRate(k0=1.0, k1=1.0)
    assert model.activity_map(grid, values)(1.0) > 1.0
    assert model.activity_roots(grid, values) == []


def _step_discrete_roots(model, grid, f):
    """Every fixed point of the midpoint-quadrature activity map for a
    built-in step rate, by inverting its threshold formula.

    The map is a staircase in m whose plateau boundaries sit where the
    threshold crosses a midpoint; each plateau holds a root exactly
    when its value falls inside the plateau interval.
    """
    csum = np.concatenate(([0.0], np.cumsum(f))) * grid.dx
    total = float(f.sum()) * grid.dx      # one pairwise sum, as in the map
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
        if a <= g <= b and (not roots or g - roots[-1] > 1e-12):
            roots.append(float(g))
    return roots


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.02, 0.01, 1e-3]),
       x_max=st.floats(2.0, 10.0),
       sigma_minus=st.floats(0.05, 0.45),
       spread=st.floats(0.01, 0.5),
       decay=st.floats(0.1, 5.0),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 316.0)))
def test_step_activity_roots_match_the_threshold_inversion(
        seed, dx, x_max, sigma_minus, spread, decay, lam):
    grid = AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))
    rng = np.random.default_rng(seed)
    f = (rng.gamma(2.0, size=grid.n_cells) + 1e-3) \
        * np.exp(-rng.uniform(0.0, 3.0) * grid.midpoints)
    f /= f.sum() * dx
    model = StepRate(sigma_plus=sigma_minus + spread,
                     sigma_minus=sigma_minus, lam=lam, decay=decay)
    roots = model.activity_roots(grid, f)
    assert roots == _step_discrete_roots(model, grid, f)
    G = model.activity_map(grid, f)
    assert all(G(r) == r for r in roots)


def _plateau_sigma(levels):
    # a non-monotone custom threshold map: one level per third of a unit
    # of effective activity, repeating
    return lambda u: levels[int(3.0 * u) % len(levels)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.02, 0.01, 1e-3]),
       x_max=st.floats(2.0, 10.0),
       sigma_minus=st.floats(0.05, 0.45),
       spread=st.floats(0.01, 0.5),
       decay=st.floats(0.1, 5.0),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 316.0)),
       levels=st.one_of(st.none(), st.lists(st.floats(0.05, 0.95),
                                            min_size=2, max_size=4)))
def test_step_activity_map_equals_an_independent_tail_sum(
        seed, dx, x_max, sigma_minus, spread, decay, lam, levels):
    grid = AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))
    rng = np.random.default_rng(seed)
    f = (rng.gamma(2.0, size=grid.n_cells) + 1e-3) \
        * np.exp(-rng.uniform(0.0, 3.0) * grid.midpoints)
    f /= f.sum() * dx
    sigma = None if levels is None else _plateau_sigma(levels)
    model = StepRate(sigma_plus=sigma_minus + spread,
                     sigma_minus=sigma_minus, lam=lam, decay=decay,
                     sigma=sigma, sigma_modulus=None if sigma is None else 1.0)
    G = model.activity_map(grid, f)
    # mu = 0 puts the built-in threshold at its highest cell
    for mu in np.concatenate([[0.0], rng.uniform(0.0, 3.0, 30)]):
        idx = np.searchsorted(grid.midpoints, model.threshold(mu),
                              side="right")
        tail = float(f[idx:].sum()) * dx
        assert G(mu) == pytest.approx(tail, rel=1e-13, abs=0.0)


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


def _full_mesh_step_roots(model, grid, f):
    """Every fixed point of the step map by a scan of every cell: the
    plateau value past cell j is a root when its threshold lies in j."""
    csum = np.concatenate(([0.0], np.cumsum(f))) * grid.dx
    # a mass: the map clamps the rounding below zero of an empty tail
    tails = np.maximum(float(f.sum()) * grid.dx - csum, 0.0)
    roots = []
    for j, g in enumerate(tails.tolist()):
        if np.searchsorted(grid.midpoints, model.threshold(g),
                           side="right") == j:
            roots.append(g)
    return sorted(roots)


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
        roots = model.activity_roots(grid, f)
        assert roots == _full_mesh_step_roots(model, grid, f)
        assert roots and roots[0] >= 0.0
    assert 0.0 in roots


@pytest.mark.parametrize("model", [FAMILIES[0], FAMILIES[2], FAMILIES[3]],
                         ids=["constant", "step", "step-custom-sigma"])
def test_cached_survival_profiles_are_read_only(model):
    grid = AgeGrid(dx=0.01, n_cells=300)
    first = model.survival(grid, 0.4)
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.5
    if isinstance(model, StepRate):
        # a second activity with its threshold in the same cell
        cell = np.searchsorted(grid.midpoints, model.threshold(0.4),
                               side="right")
        mu = 0.4 + 1e-9
        assert np.searchsorted(grid.midpoints, model.threshold(mu),
                               side="right") == cell
    else:
        mu = 2.0
    assert model.survival(grid, mu) is first
    assert model.survival(grid, 0.4) is first


@pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
def test_cumulative_over_validation(model):
    with pytest.raises(ValueError, match="age"):
        model.cumulative_over(-0.1, [0.1, 0.2])
    for bad in ([0.1, -0.2], [0.1, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            model.cumulative_over(1.0, bad)
    with pytest.raises(ValueError, match="1-d"):
        model.cumulative_over(1.0, np.ones((2, 2)))
    with pytest.raises(ValueError, match="1-d"):
        model.cumulative_over(np.array([1.0, 2.0]), [0.1])


# ---------------------------------------------------------------------------
# properties of K over random family parameters

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
        assert np.all(np.diff(model.cumulative_over(x, mus)) >= -slack)


@settings(max_examples=150, deadline=None)
@given(model=rate_models(), dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 300),
       mus=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8))
def test_survival_properties(model, dx, n_cells, mus):
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    factors = np.array([model.survival(grid, mu) for mu in sorted(mus)])
    assert np.all(factors > 0.0) and np.all(factors <= 1.0)
    # rates rise with age and with activity, so the factors fall
    assert np.all(np.diff(factors, axis=1) <= 0.0)
    assert np.all(np.diff(factors, axis=0) <= 0.0)
