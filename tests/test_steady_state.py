"""Stationary activity and profile solver."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from agenet import (AgeGrid, BracketError, ConstantRate, SmoothSaturatingRate,
                    StepRate, regime_scan, solve_steady_state, steady_state)


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
    # 201 scan points, then bisection of the one sign change until its
    # ends are adjacent floats (about 50 halvings), then one check.  At
    # this coupling the residual never hits an exact zero near M, and
    # a bisection that ran on after its ends met took 402.
    calls = []
    residual = steady_state._normalization_residual

    def counted(model, grid, M):
        calls.append(M)
        return residual(model, grid, M)
    monkeypatch.setattr(steady_state, "_normalization_residual", counted)
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.5)
    solve_steady_state(model, _grid(dx=1e-3))
    assert 201 < len(calls) <= 260


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
    grid = _grid(dx=0.01, x_max=4.0)
    model = ConstantRate(k0=2.0)
    with pytest.raises(ValueError):
        solve_steady_state(model, grid, bracket=(0.0, 1.0))
    with pytest.raises(ValueError):
        solve_steady_state(model, grid, bracket=(0.5, 3.0))
    with pytest.raises(ValueError):
        solve_steady_state(model, grid, tol=0.0)
    # the root sits at M = 2, outside this bracket
    with pytest.raises(BracketError):
        solve_steady_state(model, grid, bracket=(1e-6, 1.0))


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
