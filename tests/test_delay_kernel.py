"""Delay kernels, their discrete weights, and the history buffer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from agenet import (AgeGrid, ConfigError, ConstantRate, DelayKernel,
                    DischargeHistory)
from agenet.cli import RunConfig


def test_dirac_kernel():
    k = DelayKernel.dirac()
    assert k.is_dirac
    assert k.memory_horizon() == 0.0
    with pytest.raises(ValueError):
        k.weights(0.01)
    with pytest.raises(ValueError):
        k.history(0.01, 0.5)
    with pytest.raises(ValueError):
        k.density(0.5)


def test_exponential_kernel_closed_forms():
    k = DelayKernel.exponential(theta=2.0)
    assert k.memory_horizon() == pytest.approx(-math.log(1e-6) / 2.0, rel=1e-8)
    y = np.linspace(0.0, 3.0, 7)
    assert np.allclose(k.density(y), 2.0 * np.exp(-2.0 * y))


def test_exponential_kernel_validation():
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=0.0)
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=-0.5)
    assert not hasattr(DelayKernel.exponential(theta=2.0), "delta")


def test_gamma_kernel():
    k = DelayKernel.gamma(shape=2.0, rate=2.0)
    assert k.density(0.7) == pytest.approx(
        stats.gamma.pdf(0.7, a=2.0, scale=0.5))
    assert k.memory_horizon() == pytest.approx(
        stats.gamma.ppf(1.0 - 1e-6, a=2.0, scale=0.5))
    with pytest.raises(ValueError):
        DelayKernel.gamma(shape=0.5, rate=2.0)
    with pytest.raises(ValueError):
        DelayKernel.gamma(shape=2.0, rate=0.0)


def test_gamma_closed_forms_match_scipy_stats_bit_for_bit():
    # the density and the memory horizon are written with scipy.special
    # so that importing agenet does not load scipy.stats; they must give
    # the same floats as scipy.stats.gamma, so gamma-kernel CSVs do not move
    for shape in (1.0, 1.5, 2.0, 3.7, 7.0, 10.0):
        for rate in (0.3, 1.0, 2.0, 2.8, 4.0, 11.0, 25.0):
            k = DelayKernel.gamma(shape=shape, rate=rate)
            scale = 1.0 / rate
            horizon = stats.gamma.ppf(1.0 - 1e-6, a=shape, scale=scale)
            assert k.memory_horizon() == float(horizon)
            y = np.linspace(0.0, horizon, 20001)
            assert np.array_equal(k.density(y),
                                  stats.gamma.pdf(y, a=shape, scale=scale))
            lags, _ = k.weights(0.01)
            assert np.array_equal(k.density(lags),
                                  stats.gamma.pdf(lags, a=shape, scale=scale))


def test_weights_sum_to_one_exactly():
    for k in (DelayKernel.exponential(theta=2.0),
              DelayKernel.gamma(shape=2.0, rate=2.0)):
        lags, w = k.weights(0.01)
        assert w.sum() == 1.0
        assert lags[0] == 0.0 and np.all(np.diff(lags) > 0.0)
        assert np.all(w >= 0.0)
    with pytest.raises(ValueError):
        DelayKernel.exponential(theta=2.0).weights(0.0)


def test_sampled_kernel_round_trip():
    y = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.0, 0.0])  # triangle, trapezoid mass exactly 1
    k = DelayKernel.sampled(y, b)
    assert k.density(0.5) == pytest.approx(0.5)
    assert k.density(5.0) == 0.0
    assert k.memory_horizon() == 2.0
    _, w = k.weights(0.05)
    assert w.sum() == 1.0


def test_sampled_kernels_compare_by_their_samples():
    # the same shape on two time meshes: horizons 2 and 1
    wide = DelayKernel.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    narrow = DelayKernel.sampled([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    assert wide.memory_horizon() != narrow.memory_horizon()
    assert wide != narrow
    assert len({wide, narrow}) == 2
    again = DelayKernel.sampled(np.array([0.0, 1.0, 2.0]), (0.0, 1.0, 0.0))
    assert again == wide and hash(again) == hash(wide)
    # and so do two configs that differ only in them
    grid = AgeGrid(dx=0.01, n_cells=400)
    configs = [RunConfig(grid=grid, model=ConstantRate(k0=1.0), kernel=k)
               for k in (wide, narrow)]
    assert configs[0] != configs[1]
    assert len(set(configs)) == 2


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
        DelayKernel.sampled([0.0], [1.0])


# a direct constructor call, one bad field each, and the message the
# classmethods give for it
_TRIANGLE = dict(y_samples=(0.0, 1.0, 2.0), b_samples=(0.0, 1.0, 0.0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="bogus"), "unknown kernel kind 'bogus'"),
    (dict(kind="exponential", theta=-1.0), "theta: must be a positive number"),
    (dict(kind="exponential", theta=math.nan), "theta: must be finite"),
    (dict(kind="exponential", theta=2.0, shape=3.0),
     "exponential kernel takes no shape"),
    (dict(kind="gamma", theta=0.0, shape=2.0),
     "theta: must be a positive number"),
    (dict(kind="gamma", theta=2.0, shape=0.5), "shape: must be a number >= 1"),
    (dict(kind="gamma", theta=2.0, shape=math.inf), "shape: must be finite"),
    (dict(kind="dirac", theta=2.0), "dirac kernel takes no theta"),
    (dict(kind="sampled"), "need matching 1d arrays"),
    (dict(kind="sampled", **{**_TRIANGLE, "y_samples": (0.0, 2.0, 1.0)}),
     "sample times must be increasing"),
    (dict(kind="sampled", **{**_TRIANGLE, "b_samples": (0.0, -1.0, 0.0)}),
     "density samples must be nonnegative"),
    (dict(kind="sampled", theta=1.0, **_TRIANGLE),
     "sampled kernel takes no theta"),
    (dict(kind="gamma", theta=2.0, shape=2.0, b_samples=(1.0,)),
     "gamma kernel takes no b_samples"),
], ids=["kind", "exponential-theta", "exponential-theta-nan",
        "exponential-shape", "gamma-rate", "gamma-shape", "gamma-shape-inf",
        "dirac-theta", "sampled-missing", "sampled-y", "sampled-b",
        "sampled-theta", "gamma-samples"])
def test_the_constructor_checks_every_field(kwargs, message):
    # these once built, and failed only inside a run (a misleading
    # invariant error, a ZeroDivisionError)
    with pytest.raises(ValueError, match=message):
        DelayKernel(**kwargs)


def test_a_direct_sampled_kernel_equals_the_classmethods():
    # the constructor stores the samples as tuples of floats, as
    # sampled() does, so the two compare and hash alike
    direct = DelayKernel(kind="sampled", y_samples=[0, 1, 2],
                         b_samples=np.array([0.0, 1.0, 0.0]))
    built = DelayKernel.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert direct == built and hash(direct) == hash(built)
    assert direct.y_samples == (0.0, 1.0, 2.0)
    assert DelayKernel(kind="gamma", theta=4.0, shape=2.0) \
        == DelayKernel.gamma(shape=2.0, rate=4.0)


def test_discharge_history():
    h = DischargeHistory.constant(0.7, 5)
    assert len(h) == 5
    assert h.lagged(1)[0] == 0.7
    h.push(1.0)
    assert h.lagged(1)[0] == 1.0
    assert np.array_equal(h.lagged(3), [1.0, 0.7, 0.7])
    # a short buffer is a fault of the caller, not of a config field
    with pytest.raises(ValueError, match="shorter than the kernel support") \
            as raised:
        h.lagged(6)
    assert not isinstance(raised.value, ConfigError)
    with pytest.raises(ValueError):
        DischargeHistory([])
    with pytest.raises(ValueError):
        DischargeHistory(np.ones((2, 2)))


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
       pushes=st.lists(st.tuples(st.floats(0.0, 10.0), st.integers(0, 12)),
                       max_size=40))
def test_ring_history_matches_a_shift_buffer(initial, pushes):
    history = DischargeHistory(initial)
    reference = np.array(initial, dtype=float)
    for p, count in pushes:
        history.push(p)
        reference[1:] = reference[:-1]
        reference[0] = p
        count = min(count, reference.size)
        view = history.lagged(count)
        assert np.array_equal(view, reference[:count])
        assert not view.flags.writeable
    assert len(history) == reference.size
    assert np.array_equal(history.lagged(len(history)), reference)


def test_convolve_constant_history_is_exact():
    # m = weights @ history.lagged(weights.size) is how the history of a
    # sampled kernel convolves
    k = DelayKernel.exponential(theta=2.0)
    dt = 0.01
    _, w = k.weights(dt)
    h = DischargeHistory.constant(0.7, w.size)
    # the weights sum to exactly 1, so a constant history convolves to
    # the constant with no mesh error at all
    assert w @ h.lagged(w.size) == 0.7


def test_convolve_weighs_recent_history_more():
    k = DelayKernel.exponential(theta=2.0)
    dt = 0.01
    _, w = k.weights(dt)
    # lagged() returns the newest discharge first
    ramp_up = DischargeHistory(np.linspace(1.0, 0.0, w.size))
    ramp_down = DischargeHistory(np.linspace(0.0, 1.0, w.size))
    assert w @ ramp_up.lagged(w.size) > w @ ramp_down.lagged(w.size)


# ---------------------------------------------------------------------------
# the run's history: a chain of running means, or weights on a buffer

def _chain_kernel(shape, rate):
    if shape == 1:
        return DelayKernel.exponential(theta=rate)
    return DelayKernel.gamma(shape=float(shape), rate=rate)


def _untruncated_weights(shape, rate_dt, length):
    # the trapezoid weights j^(s-1) a^j, halved at j = 0, over enough
    # lags that the tail left out is below 1e-30 of the sum
    j = np.arange(length, dtype=float)
    w = j ** (shape - 1) * np.exp(-rate_dt * j)
    w[0] *= 0.5
    return w / w.sum()


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from([1, 2, 3]), rate=st.floats(0.5, 30.0),
       dt=st.sampled_from([1e-3, 1e-2, 0.05]), m0=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chain_equals_a_direct_convolution(shape, rate, dt, m0, seed):
    pushes = 10_000
    history = _chain_kernel(shape, rate).history(dt, m0)
    w = _untruncated_weights(shape, rate * dt,
                             pushes + 1 + int(100.0 / (rate * dt)))
    # tail[n] is the weight of the constant pre-history after n pushes
    tail = np.cumsum(w[::-1])[::-1]
    p = np.random.default_rng(seed).uniform(0.0, 2.0, pushes)
    assert abs(history.activity() - m0) <= 1e-12
    for n in range(1, pushes + 1):
        history.push(p[n - 1])
        if n % 97 == 0 or n == pushes:
            direct = float(w[:n] @ p[n - 1::-1]) + m0 * float(tail[n])
            assert abs(history.activity() - direct) <= 1e-12


@pytest.mark.parametrize("kernel", [
    DelayKernel.exponential(theta=2.0), DelayKernel.gamma(2.0, 4.0),
    DelayKernel.gamma(3.0, 0.7), DelayKernel.gamma(7.0, 25.0)],
    ids=["exponential", "gamma-2", "gamma-3", "gamma-7"])
def test_chain_keeps_a_constant_history_exactly(kernel):
    for m0 in (0.7, 1.0 / 3.0, 2.5e-9, 0.0):
        history = kernel.history(1e-3, m0)
        assert history.activity() == m0
        for _ in range(5000):
            history.push(m0)
        assert history.activity() == m0


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([1, 2, 3, 5]), rate_dt=st.floats(1e-4, 5.0),
       m0=st.floats(0.0, 10.0),
       pushes=st.lists(st.floats(0.0, 10.0), max_size=300))
def test_chain_activity_is_a_mean_of_what_was_pushed(shape, rate_dt, m0,
                                                     pushes):
    history = _chain_kernel(shape, rate_dt).history(1.0, m0)
    lo = hi = m0
    slack = 4.0 * np.finfo(float).eps * 10.0
    for p in pushes:
        history.push(p)
        lo, hi = min(lo, p), max(hi, p)
        m = history.activity()
        assert lo - slack <= m <= hi + slack


def test_chain_refuses_weights_that_vanish_on_the_mesh():
    # every weight j a^j underflows at rate*dt = 1000; the exponential
    # kernel keeps its one weight on the newest discharge
    with pytest.raises(ValueError, match="vanish"):
        DelayKernel.gamma(2.0, 1e5).history(0.01, 0.5)
    history = DelayKernel.exponential(theta=1e5).history(0.01, 0.5)
    history.push(0.25)
    assert history.activity() == 0.25


@pytest.mark.parametrize("kernel", [
    DelayKernel.sampled([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),
    DelayKernel.gamma(2.5, 4.0)], ids=["sampled", "gamma-2.5"])
def test_other_kernels_convolve_their_weights_bit_for_bit(kernel):
    dt, m0 = 0.01, 0.6
    history = kernel.history(dt, m0)
    _, w = kernel.weights(dt)
    reference = DischargeHistory.constant(m0, w.size)
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, 2.0, 3 * w.size):
        assert history.activity() == float(w @ reference.lagged(w.size))
        history.push(p)
        reference.push(p)
    assert history.activity() == float(w @ reference.lagged(w.size))
