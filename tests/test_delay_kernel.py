"""Delay kernels, their discrete weights, and the history buffer."""

import math

import numpy as np
import pytest
from scipy import stats

from agenet import ConfigError, DelayKernel, DischargeHistory


def test_dirac_kernel():
    k = DelayKernel.dirac()
    assert k.is_dirac
    assert k.delta_moment == 1.0
    assert k.memory_horizon() == 0.0
    with pytest.raises(ValueError):
        k.weights(0.01)
    with pytest.raises(ValueError):
        k.density(0.5)


def test_exponential_kernel_closed_forms():
    k = DelayKernel.exponential(theta=2.0)
    assert k.delta == 1.0  # default theta/2
    assert k.delta_moment == pytest.approx(2.0, rel=1e-14)
    assert k.memory_horizon() == pytest.approx(-math.log(1e-6) / 2.0, rel=1e-8)
    y = np.linspace(0.0, 3.0, 7)
    assert np.allclose(k.density(y), 2.0 * np.exp(-2.0 * y))


def test_exponential_kernel_validation():
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=0.0)
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=2.0, delta=2.0)
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=2.0, delta=-0.5)


def test_gamma_kernel():
    k = DelayKernel.gamma(shape=2.0, rate=2.0)
    # delta defaults to rate/2, so the moment is (rate/(rate-delta))^shape
    assert k.delta_moment == pytest.approx(4.0, rel=1e-14)
    assert k.density(0.7) == pytest.approx(
        stats.gamma.pdf(0.7, a=2.0, scale=0.5))
    assert k.memory_horizon() == pytest.approx(
        stats.gamma.ppf(1.0 - 1e-6, a=2.0, scale=0.5))
    with pytest.raises(ValueError):
        DelayKernel.gamma(shape=0.5, rate=2.0)
    with pytest.raises(ValueError):
        DelayKernel.gamma(shape=2.0, rate=0.0)


def test_weights_sum_to_one_exactly():
    for k in (DelayKernel.exponential(theta=2.0),
              DelayKernel.gamma(shape=2.0, rate=2.0)):
        lags, w = k.weights(0.01)
        assert w.sum() == 1.0
        assert lags[0] == 0.0 and np.all(np.diff(lags) > 0.0)
        assert np.all(w >= 0.0)
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=2.0).weights(0.0)


def test_discrete_moment_tracks_analytic():
    k = DelayKernel.exponential(theta=2.0)
    assert k.discrete_delta_moment(0.01) == pytest.approx(k.delta_moment,
                                                          rel=5e-3)
    # refining the mesh brings the discrete moment closer
    coarse = abs(k.discrete_delta_moment(0.1) - k.delta_moment)
    fine = abs(k.discrete_delta_moment(0.01) - k.delta_moment)
    assert fine < coarse


def test_sampled_kernel_round_trip():
    y = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.0, 0.0])  # triangle, trapezoid mass exactly 1
    k = DelayKernel.sampled(y, b)
    assert k.density(0.5) == pytest.approx(0.5)
    assert k.density(5.0) == 0.0
    assert k.memory_horizon() == 2.0
    _, w = k.weights(0.05)
    assert w.sum() == 1.0


def test_sampled_kernel_validation():
    y = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        DelayKernel.sampled(y, [0.0, 1.0])
    with pytest.raises(ValueError):
        DelayKernel.sampled([0.0, 2.0, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        DelayKernel.sampled([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        DelayKernel.sampled(y, [0.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        DelayKernel.sampled(y, [0.0, 2.0, 0.0])  # mass 2, not 1
    with pytest.raises(ValueError):
        DelayKernel.sampled(y, [0.0, 1.0, 0.0], delta=0.0)
    with pytest.raises(ValueError):
        DelayKernel.sampled([0.0], [1.0])


def test_discharge_history():
    h = DischargeHistory.constant(0.7, 5, dt=0.1)
    assert len(h) == 5
    assert h.current == 0.7
    h.push(1.0)
    assert h.current == 1.0
    assert np.array_equal(h.lagged(3), [1.0, 0.7, 0.7])
    with pytest.raises(ConfigError):
        h.lagged(6)
    with pytest.raises(ValueError):
        DischargeHistory([], dt=0.1)
    with pytest.raises(ValueError):
        DischargeHistory(np.ones((2, 2)), dt=0.1)


def test_convolve_constant_history_is_exact():
    # m = weights @ history.lagged(weights.size) is how run() applies a
    # delay kernel
    k = DelayKernel.exponential(theta=2.0)
    dt = 0.01
    _, w = k.weights(dt)
    h = DischargeHistory.constant(0.7, w.size, dt)
    # the weights sum to exactly 1, so a constant history convolves to
    # the constant with no mesh error at all
    assert w @ h.lagged(w.size) == 0.7


def test_convolve_weighs_recent_history_more():
    k = DelayKernel.exponential(theta=2.0)
    dt = 0.01
    _, w = k.weights(dt)
    # lagged() returns the newest discharge first
    ramp_up = DischargeHistory(np.linspace(1.0, 0.0, w.size), dt)
    ramp_down = DischargeHistory(np.linspace(0.0, 1.0, w.size), dt)
    assert w @ ramp_up.lagged(w.size) > w @ ramp_down.lagged(w.size)
