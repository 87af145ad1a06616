"""Stationary activity and profile solver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from agenet import (AgeGrid, BracketError, ConstantRate, SmoothSaturatingRate,
                    StepRate, regime_scan, solve_steady_state, steady_state,
                    stepper_equilibrium)
from agenet import _roots, firing_rate


def _grid(dx=1e-3, x_max=10.0):
    return AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))


def test_constant_rate_closed_form():
    # k constant means F = M e^{-k0 x} and normalization forces M = k0
    grid = _grid()
    ss = solve_steady_state(ConstantRate(k0=2.0), grid)
    assert abs(ss.M - 2.0) < 1e-10
    exact = 2.0 * np.exp(-2.0 * grid.midpoints)
    assert grid.l1_distance(ss.F, exact) < 1e-4
    assert ss.residual_activity < 1e-10
    assert ss.residual_ode < 1e-4


@pytest.mark.parametrize("model", [
    ConstantRate(k0=1.5), StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)],
    ids=["constant", "step", "smooth"])
def test_the_residuals_are_python_floats(model):
    # SteadyState types its residuals float, for the cell-exact pair and
    # for the stepper's own equilibrium alike
    grid = _grid(dx=0.01)
    for ss in (solve_steady_state(model, grid),
               stepper_equilibrium(model, grid)):
        assert type(ss.residual_activity) is float
        assert type(ss.residual_ode) is float


def test_step_rate_uncoupled_closed_form():
    # threshold fixed at sigma_plus, so mass = M (sigma_plus + 1) = 1
    grid = _grid(dx=0.01)
    ss = solve_steady_state(StepRate(sigma_plus=0.5, sigma_minus=0.25,
                                     lam=0.0), grid)
    assert abs(ss.M - 2.0 / 3.0) < 1e-8
    # flat at M below the threshold, exponential decay past it
    below = grid.midpoints < 0.5
    assert np.max(np.abs(ss.F[below] - ss.M)) < 1e-10


def test_step_rate_coupled_against_continuum_root():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    ss = solve_steady_state(model, _grid())
    # frozen regression anchor for this grid
    assert ss.M == pytest.approx(0.6703493815393522, abs=1e-9)
    # independent oracle: M (sigma(lam M) + 1) = 1 on the half line
    ref = optimize.brentq(lambda M: M * (model.threshold(M) + 1.0) - 1.0,
                          1e-6, 1.0, xtol=1e-14)
    assert abs(ss.M - ref) < 1e-6
    assert ss.residual_activity < 1e-10


def test_smooth_rate_against_continuum_root():
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.1)
    ss = solve_steady_state(model, _grid())

    def normalization(M):
        val, _ = integrate.quad(lambda x: math.exp(-model.cumulative(x, M)),
                                0.0, 60.0, epsabs=1e-12, epsrel=1e-12,
                                limit=200)
        return M * val - 1.0

    ref = optimize.brentq(normalization, 1e-6, 2.0, xtol=1e-13)
    assert abs(ss.M - ref) < 1e-6
    assert ss.residual_ode < 1e-6
    # uncoupled variant, same oracle construction
    model0 = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.0)
    ss0 = solve_steady_state(model0, _grid())
    ref0 = optimize.brentq(
        lambda M: M * integrate.quad(
            lambda x: math.exp(-model0.cumulative(x, 0.0)), 0.0, 60.0,
            epsabs=1e-12, epsrel=1e-12, limit=200)[0] - 1.0,
        1e-6, 2.0, xtol=1e-13)
    assert abs(ss0.M - ref0) < 1e-6


def test_smooth_solve_needs_few_residual_evaluations(monkeypatch):
    # the enclosure search isolates the one root's mesh cell, halves it
    # 10 times and takes ITP steps until its ends are adjacent floats
    # (about 20 evaluations), and certifies the rest of the bracket
    # mostly from the values it already holds; these are the search's
    # calls of integral, and the pair at the root is read once more
    calls = []
    integral = firing_rate._SmoothStepper.stationary_integral

    def counted(stepper, M):
        calls.append(M)
        return integral(stepper, M)
    monkeypatch.setattr(firing_rate._SmoothStepper, "stationary_integral",
                        counted)
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5)
    solve_steady_state(model, _grid(dx=1e-3))
    assert len(calls) <= 50


def test_a_diverging_integral_is_found_by_the_one_check_at_lo(monkeypatch):
    # below about M = 0.51 the step threshold passes the horizon 0.4, so
    # k(x_max) = 0 and the tail is infinite; I is nonincreasing, so the
    # first evaluation, at lo, is the only one needed
    calls = []
    integral = firing_rate._RunStepper.stationary_integral

    def counted(stepper, M):
        calls.append(M)
        return integral(stepper, M)
    monkeypatch.setattr(firing_rate._RunStepper, "stationary_integral",
                        counted)
    grid = AgeGrid(dx=0.01, n_cells=40)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0)
    assert model.rate(grid.x_max, 1e-6) == 0.0 < model.rate(grid.x_max, 1.0)
    with pytest.raises(BracketError, match="diverges"):
        solve_steady_state(model, grid)
    assert calls == [1e-6]
    calls.clear()
    with pytest.raises(BracketError, match="diverges"):
        regime_scan(StepRate(sigma_plus=0.5, sigma_minus=0.25), [1.0], grid)
    assert calls == [1e-6]


def test_a_threshold_at_or_past_the_horizon():
    # on 20 cells of 0.01 the step threshold never falls below
    # sigma_minus = 0.25 > x_max: no cell fires, so the profile is M on
    # every cell, all the mass leaves at the horizon, and I diverges on
    # the whole bracket; a threshold exactly on x_max fires no cell either
    grid = AgeGrid(dx=0.01, n_cells=20)
    for model in (StepRate(), StepRate(lam=2.0, sigma=lambda u: grid.x_max,
                                       sigma_modulus=0.0)):
        ss = steady_state.steady_state_at(model, grid, 0.5)
        assert np.array_equal(ss.F, np.full(20, 0.5))
        assert ss.residual_ode == 0.0 and ss.residual_activity == 0.0
        with pytest.raises(BracketError, match="diverges"):
            solve_steady_state(model, grid)
        with pytest.raises(BracketError, match="diverges"):
            regime_scan(model, [0.0, 1.0], grid)


def test_profile_is_a_probability_density():
    grid = _grid(dx=0.01)
    for model in (ConstantRate(k0=1.5),
                  SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.3),
                  StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.2)):
        ss = solve_steady_state(model, grid)
        assert np.all(ss.F >= 0.0)
        # mass on the grid plus the analytic tail is 1; the grid part
        # alone falls just short
        on_grid = grid.integrate(ss.F)
        assert 0.99 < on_grid <= 1.0 + 1e-12
        # the first cell average sits within one decay increment of the
        # boundary value F(0) = M
        assert abs(ss.F[0] - ss.M) <= ss.M * model.k1 * grid.dx


def test_bracket_validation_and_failure():
    # every search runs over [1e-6, k1]; a k1 below the lower end is
    # refused, not searched on a reversed bracket
    grid = _grid(dx=0.01, x_max=4.0)
    model = ConstantRate(k0=1e-7)
    with pytest.raises(ValueError, match="must exceed 1e-06"):
        solve_steady_state(model, grid)
    with pytest.raises(ValueError, match="must exceed 1e-06"):
        regime_scan(model, [0.0], grid)


@pytest.mark.parametrize("M", [0.0, -0.5, math.nan, math.inf])
def test_steady_state_at_refuses_an_activity_off_the_bracket(M):
    with pytest.raises(ValueError, match="positive and finite"):
        steady_state.steady_state_at(SmoothSaturatingRate(k0=0.5, k1=2.0),
                                     _grid(dx=0.01, x_max=4.0), M)


def test_regime_scan_rows():
    grid = _grid(dx=0.01, x_max=6.0)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25)
    lambdas = [0.0, 0.05, 0.2]
    rows = regime_scan(model, lambdas, grid)
    assert [r.lam for r in rows] == lambdas
    assert all(r.unique and len(r.roots) == 1 for r in rows)
    ss0 = solve_steady_state(StepRate(sigma_plus=0.5, sigma_minus=0.25,
                                      lam=0.0), grid)
    assert rows[0].roots[0] == pytest.approx(ss0.M, abs=1e-10)
    # stronger coupling lowers the threshold, raising the activity
    Ms = [r.roots[0] for r in rows]
    assert Ms[0] < Ms[1] < Ms[2]


@pytest.mark.parametrize("model", [
    ConstantRate(k0=1.0),
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    SmoothSaturatingRate(k0=0.5, k1=6.0, lam=0.6, x_scale=0.5)],
    ids=["constant", "step", "smooth", "smooth-k1-6"])
def test_each_scan_row_is_a_fresh_search_at_its_coupling(model):
    # the scan binds the model's stepper at each coupling (the smooth
    # family's on age pieces bound once per grid); each row lists bit
    # for bit the roots of a stepper bound for its coupling alone,
    # and its root is solve_steady_state's, whose search starts on a
    # coarser mesh
    grid = _grid(dx=0.01, x_max=6.0)
    lambdas = [1.5, 0.0, 0.3, 8.0]
    hi = float(model.k1)
    for row in regime_scan(model, lambdas, grid):
        coupled = dataclasses.replace(model, lam=row.lam)
        fresh = steady_state._stationary_roots(
            coupled.stepper(grid).stationary_integral, steady_state._LO, hi,
            steady_state._SCAN_CELLS, steady_state._TOL)
        assert row.roots == tuple(fresh)
        assert row.roots[0] == pytest.approx(
            solve_steady_state(coupled, grid).M, rel=1e-14)


def test_regime_scan_constant_family_ignores_coupling():
    grid = _grid(dx=0.01, x_max=4.0)
    rows = regime_scan(ConstantRate(k0=1.0), [0.0, 0.7, 3.0], grid)
    assert all(r.roots == rows[0].roots for r in rows)
    assert rows[0].roots[0] == pytest.approx(1.0, abs=1e-10)


def test_regime_scan_validation():
    grid = _grid(dx=0.01, x_max=4.0)
    model = ConstantRate(k0=1.0)
    with pytest.raises(ValueError):
        regime_scan(model, [], grid)
    with pytest.raises(ValueError):
        regime_scan(model, [0.1, -0.2], grid)
    # a non-finite coupling is refused up front, not reported as a
    # diverging normalization integral
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            regime_scan(StepRate(), [0.1, bad], grid)


# ---------------------------------------------------------------------------
# the in-place evaluator against the profile formula it replaced

def _reference_parts(model, grid, M):
    # the normalization profile written out with fresh arrays: K from
    # the public cumulative, and np.where on the cells with no rate
    K_edges = np.concatenate(
        [[0.0], np.atleast_1d(model.cumulative(grid.edges[1:], M))])
    kc = np.diff(K_edges) / grid.dx
    E = np.exp(-K_edges)
    shed = -np.expm1(-kc * grid.dx)
    safe = np.where(kc > 0.0, kc, 1.0)
    cell_int = np.where(kc > 0.0, E[:-1] * shed / safe, grid.dx * E[:-1])
    k_end = float(model.rate(grid.x_max, M))
    tail = (E[-1] / k_end) if k_end > 0.0 else math.inf
    return cell_int, tail, E, kc, shed


def _reference_residual(model, grid, M):
    cell_int, tail, _, _, _ = _reference_parts(model, grid, M)
    return M * (float(cell_int.sum()) + tail) - 1.0


def _separable_parts(model, grid, M):
    # the smooth family's separable formula written out with fresh
    # arrays: K = g * A with g = gain(lam*M) and A the closed-form age
    # integral, and np.where on the cells with dA <= 0
    dx, g, x = grid.dx, model.gain(M), grid.edges
    A = x + model.x_scale * np.expm1(-x / model.x_scale)
    dA = np.diff(A)
    E = np.exp(-(g * A))
    dE = E[:-1] * np.expm1(-(g * dA))
    with np.errstate(divide="ignore", over="ignore"):
        w = dx / dA
    fires = (w > 0.0) & (w < math.inf)
    w = np.where(fires, w, 0.0)
    k_end = float(model.rate(grid.x_max, M))
    tail = float(E[-1]) / k_end if k_end > 0.0 else math.inf
    integral = float(np.dot(dE, w)) / -g
    if not fires.all():
        integral += dx * float(E[:-1][~fires].sum())
    cell_int = np.where(fires, dE * w / -g, dx * E[:-1])
    return integral + tail, cell_int, -float(dE.sum()), tail, E


def _run_parts(model, grid, M):
    # the run families' closed form written out afresh: the run (T, k)
    # from the model's threshold, read as 0 below 0, or k0, its
    # threshold cell j from a comparison with every edge, and the sums
    # telescoped.  Returns I, F, the mass share the cells absorb and the
    # share left at x_max
    T, k = ((max(model.threshold(M), 0.0), 1.0)
            if isinstance(model, StepRate) else (0.0, model.k0))
    dx, n = grid.dx, grid.n_cells
    past = np.flatnonzero(grid.edges > T)
    if not past.size:
        return math.inf, np.full(n, M), 0.0, 1.0
    j = max(int(past[0]) - 1, 0)
    kr = k * (grid.edges[j + 1] - T)
    integral = j * dx + dx * -math.expm1(-kr) / kr + math.exp(-kr) / k
    E = np.exp(-(k * (grid.edges[j + 1:] - T)))
    F = np.full(n, M)
    F[j] = M * -math.expm1(-kr) / kr
    shed = -math.expm1(-k * dx)
    F[j + 1:] = M * E[:-1] * shed / (k * dx)
    absorbed = -math.expm1(-kr) + shed * float(E[:-1].sum())
    return integral, F, absorbed, float(E[-1])


def _formula_residual(model, grid, M):
    # the residual of the formula that the evaluator implements
    if isinstance(model, SmoothSaturatingRate):
        return M * _separable_parts(model, grid, M)[0] - 1.0
    return M * _run_parts(model, grid, M)[0] - 1.0


def _close(a, b, rel):
    # equal, infinities included, or within rel of b
    return a == b or abs(a - b) <= rel * abs(b)


@st.composite
def _families(draw):
    positive = st.floats(0.05, 5.0)
    lam = draw(st.floats(0.0, 5.0))
    kind = draw(st.sampled_from(["constant", "smooth", "step", "custom",
                                 "crossing"]))
    if kind == "constant":
        return ConstantRate(k0=draw(positive), lam=lam)
    if kind == "smooth":
        k0 = draw(positive)
        return SmoothSaturatingRate(
            k0=k0, k1=k0 + draw(st.floats(0.0, 5.0)), lam=lam,
            mu_scale=draw(positive), x_scale=draw(positive))
    if kind == "custom":
        top = draw(st.floats(0.05, 0.95))
        return StepRate(lam=lam, sigma=lambda u: top / (1.0 + u),
                        sigma_modulus=top)
    if kind == "crossing":
        # a custom threshold that falls below 0 at u = top
        top = draw(st.floats(0.05, 0.95))
        return StepRate(lam=lam, sigma=lambda u: top - u, sigma_modulus=1.0)
    sigma_minus = draw(st.floats(0.01, 0.5))
    return StepRate(sigma_plus=sigma_minus + draw(st.floats(0.01, 0.48)),
                    sigma_minus=sigma_minus, lam=lam, decay=draw(positive))


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


# the relative difference of F in the run form from the per-edge
# reference, per cell: the reference's mean rate (K(x_j+1) - K(x_j))/dx
# cancels K, up to k*x_max, to an increment k*dx, so it carries a
# relative error of a few eps per cell of age
_F_CELL_EPS = 4.0 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(model=_families(), dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 400),
       mus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
# every cell fires: the division without a mask
@example(model=SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5), dx=0.01,
         n_cells=300, mus=[0.3, 2.0])
# the age integral rounds to 0 or below on most cells, which hold dx * E
@example(model=SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5, x_scale=1e16),
         dx=0.01, n_cells=300, mus=[0.3, 2.0])
# the cells below the step threshold have no rate and hold dx * E
@example(model=StepRate(lam=0.3), dx=0.01, n_cells=300, mus=[0.0, 0.6])
def test_profile_equals_the_reference_formula(model, dx, n_cells, mus):
    # the smooth family evaluates its separable copy bit for bit, and the
    # step and constant families their closed form; both equal the
    # per-edge reference formula to rounding
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    stepper = model.stepper(grid)
    for mu in mus + [0.0]:
        cell_int, tail, E, kc, shed = _reference_parts(model, grid, mu)
        reference = float(cell_int.sum()) + tail
        integral = stepper.stationary_integral(mu)
        assert _same(mu * integral - 1.0, _formula_residual(model, grid, mu))
        ss = steady_state._steady_state(model, grid, stepper, mu)
        if isinstance(model, SmoothSaturatingRate):
            # exp(-g*A) rounds as exp(-K) with K = g*A from cumulative
            assert _same(stepper._E, E)
            total, cells, absorbed, tail, _ = _separable_parts(model, grid,
                                                               mu)
            # the stepper's tail, E(x_max) over g * A'(x_max)
            k_end = model.gain(mu) * firing_rate._age_pieces(
                grid, model.x_scale)[4]
            own_tail = (float(stepper._E[-1]) / k_end if k_end > 0.0
                        else math.inf)
            assert _same(integral, total) and _same(own_tail, tail)
            assert _same(ss.F, mu * cells / dx)
            assert _same(ss.residual_activity,
                         abs(mu * (absorbed + E[-1]) - mu))
            continue
        assert _close(integral, reference, 1e-14)
        total, F, absorbed, end = _run_parts(model, grid, mu)
        assert _same(integral, total) and _same(ss.F, F)
        assert _same(ss.residual_activity, abs(mu * (absorbed + end) - mu))
        assert np.allclose(ss.F, mu * cell_int / dx, atol=1e-300,
                           rtol=_F_CELL_EPS * (n_cells + 1))
        assert ss.residual_activity <= 8.0 * np.finfo(float).eps * mu


@pytest.mark.parametrize("model, fires_everywhere", [
    (SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5), True),
    (ConstantRate(k0=1.5), True),
    (StepRate(lam=0.3), False),
    (SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5, x_scale=1e16), False)],
    ids=["smooth", "constant", "step", "smooth-idle"])
def test_profile_branches(model, fires_everywhere):
    # the oracles above cover every cell with a rate and the cells with
    # none, which hold dx * E in the separable form and M below the
    # threshold cell in the run form
    grid = _grid(dx=0.01, x_max=3.0)
    stepper = model.stepper(grid)
    F = stepper.stationary(0.6)[0]
    cell_int, _, E, kc, _ = _reference_parts(model, grid, 0.6)
    idle = kc <= 0.0
    if not isinstance(model, SmoothSaturatingRate):
        _, j = stepper._stationary_run(0.6)
        assert bool(j == 0) == fires_everywhere
        assert np.array_equal(F, _run_parts(model, grid, 0.6)[1])
        # the reference has no rate on exactly the cells below j
        assert np.array_equal(idle[:j + 1], np.arange(j + 1) < j)
        assert np.all(F[:j] == 0.6)
        return
    idle_cells = firing_rate._age_pieces(grid, model.x_scale)[3]
    assert bool(idle_cells.size == 0) == fires_everywhere
    assert np.array_equal(F, 0.6 * _separable_parts(model, grid,
                                                    0.6)[1] / grid.dx)
    # a cell with dA <= 0 has kc <= 0 in the reference formula too
    assert np.all(kc[idle_cells] <= 0.0)
    assert np.array_equal(F[idle], 0.6 * (grid.dx * E[:-1][idle]) / grid.dx)


@settings(max_examples=200, deadline=None)
@given(k0=st.floats(0.05, 5.0), span=st.floats(0.0, 5.0),
       lam=st.floats(0.0, 5.0), mu_scale=st.floats(0.05, 5.0),
       x_scale=st.one_of(st.floats(0.05, 5.0), st.floats(1e6, 1e18)),
       dx=st.floats(1e-3, 0.5), n_cells=st.integers(2, 400),
       mus=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6))
@example(k0=0.5, span=1.5, lam=0.5, mu_scale=1.0, x_scale=1e16, dx=0.01,
         n_cells=300, mus=[0.3, 2.0])
def test_the_separable_integral_equals_the_reference_formula(
        k0, span, lam, mu_scale, x_scale, dx, n_cells, mus):
    # the smooth family's separable I(M) against the per-edge reference,
    # which takes K from the public cumulative: equal to rounding,
    # nonincreasing in M, and dx * E on every cell with dA <= 0
    model = SmoothSaturatingRate(k0=k0, k1=k0 + span, lam=lam,
                                 mu_scale=mu_scale, x_scale=x_scale)
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    stepper = model.stepper(grid)
    idle = firing_rate._age_pieces(grid, x_scale)[1] <= 0.0
    integrals = []
    for mu in sorted(mus):
        cell_int, tail, E, _, _ = _reference_parts(model, grid, mu)
        reference = float(cell_int.sum()) + tail
        integrals.append(stepper.stationary_integral(mu))
        assert integrals[-1] == pytest.approx(reference, rel=1e-14, abs=0.0)
        F = stepper.stationary(mu)[0]
        assert np.array_equal(F[idle], mu * (dx * E[:-1][idle]) / dx)
    # to rounding: each I is a sum of rounded terms
    assert all(b <= a * (1.0 + 1e-14)
               for a, b in zip(integrals, integrals[1:]))


@settings(max_examples=200, deadline=None)
@given(model=_families(), dx=st.floats(1e-3, 0.5),
       n_cells=st.integers(2, 400),
       mus=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6))
def test_the_stationary_integral_does_not_increase(model, dx, n_cells, mus):
    # the premise of the root search's enclosure, for every family: the
    # stepper's I(M) does not increase in M, to rounding (each I is a
    # sum of rounded terms); an infinite I may only come first
    stepper = model.stepper(AgeGrid(dx=dx, n_cells=n_cells))
    integrals = [stepper.stationary_integral(mu) for mu in sorted(mus)]
    assert all(b <= a * (1.0 + 1e-14)
               for a, b in zip(integrals, integrals[1:]))


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 5.0), mu=st.floats(0.0, 10.0),
       dx=st.floats(1e-3, 0.5), n_cells=st.integers(2, 400),
       more=st.integers(1, 400), k0=st.floats(0.05, 5.0),
       threshold=st.one_of(st.none(), st.floats(-1.0, 0.0),
                           st.integers(0, 400)))
@example(lam=0.0, mu=0.5, dx=0.01, n_cells=300, more=10, k0=1.0,
         threshold=0)
@example(lam=0.0, mu=0.5, dx=0.01, n_cells=300, more=10, k0=1.0,
         threshold=37)
@example(lam=0.0, mu=0.5, dx=0.01, n_cells=300, more=10, k0=1.0,
         threshold=-0.3)
def test_the_run_integral_against_the_continuum(lam, mu, dx, n_cells, more,
                                                k0, threshold):
    # the step family's continuum integral is T + 1 for a threshold
    # T >= 0, and the mean-rate threshold cell falls short of it by at
    # most dx^2/8; I does not depend on x_max once x_max > T.  The
    # threshold is the built-in map's, a custom one <= 0, or a custom one
    # exactly on the edge x_j = j * dx for an integer j.  The constant
    # family's integral is 1/k0
    if threshold is None:
        model = StepRate(lam=lam)
    else:
        value = threshold * dx if isinstance(threshold, int) else threshold
        model = StepRate(lam=lam, sigma=lambda u: value, sigma_modulus=0.0)
    T = model.threshold(mu)
    grids = [grid for grid in (AgeGrid(dx=dx, n_cells=n_cells),
                               AgeGrid(dx=dx, n_cells=n_cells + more))
             if grid.x_max > T]
    integrals = {model.stepper(grid).stationary_integral(mu)
                 for grid in grids}
    assert len(integrals) <= 1
    for integral in integrals:
        if T >= 0.0:
            ulps = 4.0 * np.spacing(T + 1.0)
            assert -dx * dx / 8.0 - ulps <= integral - (T + 1.0) <= ulps
        else:
            cell_int, tail, _, _, _ = _reference_parts(model, grids[0], mu)
            assert _close(integral, float(cell_int.sum()) + tail, 1e-14)
    constant = ConstantRate(k0=k0, lam=lam)
    integral = constant.stepper(
        AgeGrid(dx=dx, n_cells=n_cells)).stationary_integral(mu)
    assert abs(k0 * integral - 1.0) <= 4.0 * np.finfo(float).eps


def _sign_scan(f, lo, hi, cells, tol):
    # the plain sign scan of a uniform mesh: a zero on a cell's lower
    # end is a root, each sign change is bisected and kept when |f| <=
    # tol at its midpoint, and hi is a root when |f(hi)| <= tol and no
    # root lies within one cell below it
    xs = np.linspace(lo, hi, cells + 1).tolist()
    fs = [f(x) for x in xs]
    if not all(map(math.isfinite, fs)):
        raise BracketError("diverges")
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            a, b = _roots.bisect(f, a, b, fa, width=1e-16, fb=fb,
                                 halve_above=(hi - lo) / cells
                                 * 2.0 ** -steady_state._LEVELS)
            if abs(f(0.5 * (a + b))) <= tol:
                roots.append(0.5 * (a + b))
    if abs(fs[-1]) <= tol and (not roots
                               or hi - roots[-1] > (hi - lo) / cells):
        roots.append(xs[-1])
    return roots


def _listed(model, grid, lo, hi, cells):
    try:
        return steady_state._stationary_roots(
            model.stepper(grid).stationary_integral, lo, hi, cells, 1e-12)
    except BracketError:
        return "diverges"


@settings(max_examples=40, deadline=None)
@given(model=_families(), dx=st.floats(5e-3, 0.2),
       n_cells=st.integers(20, 300))
def test_stationary_roots_equal_a_scan_of_the_reference(model, dx, n_cells):
    # every root that a 40-cell sign scan of the evaluator's formula
    # finds is listed bit for bit; any other listed root is a root too
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    lo, hi = 1e-6, model.k1

    def reference(M):
        return _formula_residual(model, grid, M)
    try:
        expected = _sign_scan(reference, lo, hi, 40, 1e-12)
    except BracketError:
        expected = "diverges"
    found = _listed(model, grid, lo, hi, 40)
    if expected == "diverges":
        assert found == "diverges"
        return
    assert all(root in found for root in expected)
    assert all(abs(reference(root)) <= 1e-12 for root in found)


@settings(max_examples=40, deadline=None)
@given(model=_families(), dx=st.floats(5e-3, 0.2),
       n_cells=st.integers(20, 300))
def test_every_brentq_root_of_a_fine_mesh_is_listed(model, dx, n_cells):
    # an independent oracle: brentq on every sign change of the
    # reference residual over 2000 cells, fifty times finer than the
    # search's coarsest mesh
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    lo, hi = 1e-6, model.k1

    def reference(M):
        return _reference_residual(model, grid, M)
    found = _listed(model, grid, lo, hi, 40)
    xs = np.linspace(lo, hi, 2001)
    fs = [reference(x) for x in xs]
    if not math.isfinite(fs[0]):
        assert found == "diverges"
        return
    oracle = [optimize.brentq(reference, a, b, xtol=1e-15)
              for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])
              if fa * fb < 0.0]
    oracle += [x for x, f in zip(xs, fs) if f == 0.0]
    for root in oracle:
        assert min(abs(root - r) for r in found) <= 1e-12


def test_enclosure_keeps_continuous_roots_and_drops_jumps():
    # I falls from 1/0.3 to 1/0.9 at 0.5: a root at 0.3, a jump of g
    # from +0.67 to -0.44 at 0.5, a root at 0.9
    roots = steady_state._stationary_roots(
        lambda M: 1.0 / 0.3 if M < 0.5 else 1.0 / 0.9, 0.0, 1.0, 10, 1e-12)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.3, abs=1e-15)
    assert roots[1] == pytest.approx(0.9, abs=1e-15)


def test_enclosure_mesh_zeros_and_the_upper_end():
    # exact zeros on mesh points count, lo included: g is
    # (M - 0.25)(M - 0.5) / 2, zero at 0.25 and 0.5 in floating point
    def integral(M):
        return (1.0 + 0.5 * (M - 0.25) * (M - 0.5)) / M
    assert steady_state._stationary_roots(integral, 0.25, 1.25, 4,
                                          1e-12) == [0.25, 0.5]
    # the upper end: g = M - 1
    assert steady_state._stationary_roots(lambda M: 1.0, 0.0,
                                          1.0, 4, 1e-12) == [1.0]
    # rounding can hide a root on the upper end: |g(hi)| <= tol keeps it
    def flat(M):
        return (1.0 + 1e-14) / M
    assert steady_state._stationary_roots(flat, 0.25, 1.0, 3,
                                          1e-12) == [1.0]
    assert steady_state._stationary_roots(flat, 0.25, 1.0, 3, 1e-15) == []


def test_enclosure_raises_bracket_error_on_a_non_finite_sample():
    with pytest.raises(BracketError, match="diverges"):
        steady_state._stationary_roots(
            lambda M: 1.0 / M if M else math.inf, 0.0, 1.0, 4, 1e-12)


def test_two_roots_inside_one_mesh_cell_are_both_listed():
    # g = (M - 0.5)(M - 0.501) is positive at every mesh point of
    # [0.1, 1] in 10 cells, so a sign scan of the mesh sees no root;
    # I = (1 + g) / M is nonincreasing on the bracket
    def integral(M):
        return (1.0 + (M - 0.5) * (M - 0.501)) / M
    ms = np.linspace(0.1, 1.0, 10001)
    assert np.all(np.diff([integral(M) for M in ms]) <= 0.0)
    assert _sign_scan(lambda M: M * integral(M) - 1.0, 0.1, 1.0, 10,
                      1e-12) == []
    roots = steady_state._stationary_roots(integral, 0.1, 1.0, 10, 1e-12)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.5, abs=1e-12)
    assert roots[1] == pytest.approx(0.501, abs=1e-12)

