"""Time stepping, the implicit activity solve, and relaxation fits."""

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from agenet import _roots, evolution, firing_rate
from agenet import (AgeGrid, AmbiguousActivityError, ConstantRate,
                    DegenerateInputError, InvariantViolationError,
                    ModelInconsistencyError,
                    SimulationConfig, SmoothSaturatingRate, StepRate,
                    DelayKernel, DensityState, cell_sum, decay_fit, kappa0,
                    preset_density, run,
                    solve_activity_implicit, step, stepper_equilibrium)


def _grid(dx=0.01, x_max=4.0):
    return AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))


# ---------------------------------------------------------------------------
# rest-rate mass

def test_kappa0_closed_forms():
    grid = _grid()
    uni = preset_density(grid, "uniform01")
    assert kappa0(ConstantRate(k0=2.0), grid, uni) == pytest.approx(2.0,
                                                                    abs=1e-12)
    # uniform01 mass above the resting threshold 0.5 is exactly half
    step_model = StepRate(sigma_plus=0.5, sigma_minus=0.25)
    assert kappa0(step_model, grid, uni) == pytest.approx(0.5, abs=1e-12)
    spike = preset_density(grid, "spike")
    assert kappa0(step_model, grid, spike) == 0.0


# ---------------------------------------------------------------------------
# implicit activity

def test_activity_uncoupled_lands_in_one_iteration():
    grid = _grid()
    f = preset_density(grid, "uniform01")
    sol = solve_activity_implicit(ConstantRate(k0=2.0, lam=0.0), grid,
                                  f.values)
    assert sol.iterations == 1
    assert sol.method == "fixed-point"
    assert sol.m == pytest.approx(2.0, abs=1e-12)


def test_activity_at_the_discrete_equilibrium():
    # the stepper equilibrium is by construction an exact fixed point of
    # the midpoint-quadrature activity map
    grid = _grid(dx=1e-3, x_max=10.0)
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.1)
    eq = stepper_equilibrium(model, grid)
    sol = solve_activity_implicit(model, grid, eq.F)
    assert abs(sol.m - eq.M) < 1e-9


@pytest.mark.parametrize("model", [
    ConstantRate(k0=1.5, lam=0.3), StepRate(lam=0.3),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)],
    ids=["constant", "step", "smooth"])
def test_the_activity_is_a_python_float(model):
    # DensityState.m is typed float; the step family's staircase reads a
    # prefix sum from a numpy array
    grid = _grid(dx=1e-3, x_max=10.0)
    f = preset_density(grid, "uniform01")
    assert type(solve_activity_implicit(model, grid, f.values).m) is float
    cfg = SimulationConfig(grid=grid, model=model, t_end=0.05)
    assert type(run(cfg, f).final_state.m) is float


def test_activity_residual_over_random_weak_draws():
    rng = np.random.default_rng(42)
    grid = _grid(dx=0.02, x_max=10.0)
    mids = grid.midpoints
    for _ in range(25):
        f = rng.gamma(2.0, size=grid.n_cells) + 1e-3
        f /= f.sum() * grid.dx
        model = SmoothSaturatingRate(
            k0=float(rng.uniform(0.3, 1.0)),
            k1=float(rng.uniform(1.2, 2.5)),
            lam=float(rng.uniform(0.0, 0.3)),
            mu_scale=float(rng.uniform(0.8, 1.5)))
        sol = solve_activity_implicit(model, grid, f)
        residual = float(np.dot(model.rate(mids, sol.m), f)) * grid.dx - sol.m
        assert abs(residual) < 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       k0=st.floats(0.1, 2.0),
       spread=st.floats(0.0, 5.0),
       lam=st.one_of(st.just(0.0), st.floats(1e-3, 30.0)),
       mu_scale=st.floats(0.2, 5.0),
       x_scale=st.floats(0.1, 3.0),
       warm=st.one_of(st.none(), st.floats(0.0, 1.0)))
# a settled solve that returned its last iterate, not the Newton update
# from it, missed the root by 1.08e-12 here
@example(seed=63, k0=2.0, spread=1.1953125, lam=1.0, mu_scale=1.0,
         x_scale=1.96875, warm=None)
def test_smooth_activity_solve_equals_brentq(seed, k0, spread, lam, mu_scale,
                                             x_scale, warm):
    # the smooth solve takes Newton steps on the family's closed-form
    # slope; it must land on the one root of G(mu) - mu, cold or warm
    grid = _grid(dx=0.01, x_max=4.0)
    rng = np.random.default_rng(seed)
    f = (rng.gamma(2.0, size=grid.n_cells) + 1e-3) \
        * np.exp(-rng.uniform(0.0, 3.0) * grid.midpoints)
    f /= f.sum() * grid.dx
    model = SmoothSaturatingRate(k0=k0, k1=k0 + spread, lam=lam,
                                 mu_scale=mu_scale, x_scale=x_scale)
    G, slope, _ = _activity_map(model, grid, f, None)
    if slope is not None:
        for mu in rng.uniform(0.0, model.k1, 5):
            h = 1e-5 * max(1.0, mu)
            difference = (G(mu + h) - G(abs(mu - h))) / (mu + h - abs(mu - h))
            # the difference quotient loses about eps * k1 / h
            assert slope(mu) == pytest.approx(difference, rel=1e-5,
                                              abs=1e-9)
    # G(0) = k0 w > 0 and G(k1) <= k1 w < k1: one sign change
    root = optimize.brentq(lambda mu: G(mu) - mu, 0.0, model.k1,
                           xtol=1e-15)
    m, _, method = model.stepper(grid).solve(
        f, None, None if warm is None else warm * model.k1)
    assert method == "fixed-point"
    assert abs(m - root) <= 1e-12


def test_ambiguous_activity_reports_both_roots():
    # a threshold map with two stable plateaus puts two exact fixed
    # points on the quadrature staircase: G = 0.85 on [0.6, 0.9) and
    # G = 0.95 on [0.9, 1]
    def sigma(u):
        if u < 0.3:
            return 0.5
        if u < 0.6:
            return 0.9
        if u < 0.9:
            return 0.15
        return 0.05

    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0, decay=1.0,
                     sigma=sigma, sigma_modulus=10.0)
    grid = AgeGrid(dx=0.01, n_cells=200)
    f = preset_density(grid, "uniform01")
    with pytest.raises(AmbiguousActivityError) as exc_info:
        solve_activity_implicit(model, grid, f.values)
    roots = sorted(exc_info.value.roots)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.85, abs=1e-12)
    assert roots[1] == pytest.approx(0.95, abs=1e-12)


def test_inconsistent_activity_raises():
    # an increasing threshold map makes G jump downward across the
    # diagonal: G = 0.8 below m = 0.5 and G = 0.2 above, no fixed point
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=1.0, decay=1.0,
                     sigma=lambda u: 0.2 if u < 0.5 else 0.8,
                     sigma_modulus=10.0)
    grid = AgeGrid(dx=0.01, n_cells=200)
    f = preset_density(grid, "uniform01")
    with pytest.raises(ModelInconsistencyError):
        solve_activity_implicit(model, grid, f.values)


def test_stalled_solve_reports_two_roots_inside_one_activity_cell(
        monkeypatch):
    # the staircase holds two fixed points 7.8e-4 apart
    grid = AgeGrid(dx=1e-3, n_cells=10000)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3)
    f = preset_density(grid, "exp2")
    monkeypatch.setattr(firing_rate, "_MAX_ITER", 1)
    with pytest.raises(AmbiguousActivityError) as exc_info:
        model.stepper(grid).solve(f.values)
    assert exc_info.value.roots == pytest.approx(
        [0.388291084345, 0.389068443618], abs=1e-12)


def test_settled_solve_reports_a_second_staircase_root():
    # the same staircase: the iteration settles on its lower root, which
    # the stepper returns and run() keeps, and the public solve names
    # both
    grid = AgeGrid(dx=1e-3, n_cells=10000)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3)
    f = preset_density(grid, "exp2")
    m, _, method = model.stepper(grid).solve(f.values)
    assert method == "fixed-point"
    assert m == pytest.approx(0.388291084345, abs=1e-12)
    with pytest.raises(AmbiguousActivityError) as exc_info:
        solve_activity_implicit(model, grid, f.values)
    assert exc_info.value.roots == pytest.approx(
        [0.388291084345, 0.389068443618], abs=1e-12)
    cfg = SimulationConfig(grid=grid, model=model, t_end=grid.dx)
    assert run(cfg, f).m_series[0] == m


# ---------------------------------------------------------------------------
# bound steppers

def _activity_map(model, grid, values, total):
    """The activity map G(mu) = int k(x, lam*mu) f dx on the midpoint
    mesh, its slope and the list of its fixed points, each family's
    closed form written out here, in the arithmetic that the family's
    solve had before its stepper held the map."""
    dx, mids = grid.dx, grid.midpoints
    if total is None:
        total = cell_sum(values)
    if isinstance(model, ConstantRate):
        mass = model.k0 * total * dx
        return (lambda mu: mass), None, lambda: [mass]
    if isinstance(model, StepRate):
        # the mass past the threshold cell, a full-mesh prefix sum off
        # the cell sum, clamped at zero where the two sums round apart
        mass, heads = total * dx, np.cumsum(values)

        def G(mu):
            idx = mids.searchsorted(model.threshold(mu), side="right")
            return max(mass - heads[idx - 1] * dx, 0.0) if idx else mass

        def roots():
            # plateau j is a root when its own threshold falls in cell j
            tails = [mass] + np.maximum(mass - heads * dx, 0.0).tolist()
            return sorted(t for j, t in enumerate(tails)
                          if mids.searchsorted(model.threshold(t),
                                               side="right") == j)
        return G, None, roots
    # the smooth family: gain(mu) times the age shape's dot product
    k0, k1, rate = model.k0, model.k1, model.lam / model.mu_scale
    weight = float(np.dot(-np.expm1(-mids / model.x_scale), values)) * dx

    def G(mu):
        gain = k0 - (k1 - k0) * math.expm1(-(model.lam * mu)
                                           / model.mu_scale)
        return gain * weight

    # G'(mu) = (k1 - k0) rate exp(-rate mu) w, with w = G(0)/k0
    scale = (k1 - k0) * rate * (G(0.0) / k0)
    slope = None if scale == 0.0 else (
        lambda mu: scale * math.exp(-rate * mu))

    def roots():
        # gain is concave: at most one root, bisected on [0, k1]
        if G(k1) > k1:
            return []
        a, b = _roots.bisect(lambda mu: G(mu) - mu, 0.0, k1, G(0.0))
        return [0.5 * (a + b)]
    return G, slope, roots


def _generic_solve(model, grid, values, tol=1e-12, max_iter=200,
                   warm_start=None, total=None):
    # the one loop over the activity map, its slope and its roots that
    # solved every family's activity before each family bound its own
    # stepper, kept frozen as the steppers' oracle
    G, slope, roots = _activity_map(model, grid, values, total)
    k1 = model.k1

    mu = G(0.0) if warm_start is None else float(warm_start)
    mu = min(max(mu, 0.0), k1)
    for it in range(1, max_iter + 1):
        target = G(mu)
        settled = abs(target - mu) <= tol
        s = 1.0 if slope is None else slope(mu)
        if s < 1.0:
            target = mu + (target - mu) / (1.0 - s)
        elif settled:
            return mu, it, "fixed-point"
        mu = min(max(target, 0.0), k1)
        if settled:
            return mu, it, "fixed-point"

    roots = roots()
    if not roots:
        raise ModelInconsistencyError("no root")
    if len(roots) > 1:
        raise AmbiguousActivityError("several roots", roots)
    return roots[0], max_iter, "scan"


def _falling_sigma(u):
    # a custom threshold that falls through cell 0 for large u
    return 0.6 / (1.0 + 4.0 * u)


def _steep_sigma(u):
    # a custom threshold with a jump: the staircase can hold two roots
    return 0.45 if u < 0.3 else 0.05


def _rising_sigma(u):
    # a threshold that rises: the staircase can hold no root
    return 0.2 if u < 0.5 else 0.8


_STEPPER_FAMILIES = st.one_of(
    st.builds(ConstantRate, k0=st.floats(0.1, 3.0)),
    st.builds(StepRate, sigma_plus=st.floats(0.3, 0.9),
              sigma_minus=st.floats(0.01, 0.29),
              lam=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
              decay=st.floats(0.2, 3.0)),
    st.builds(StepRate, lam=st.floats(0.0, 3.0),
              sigma=st.sampled_from([_falling_sigma, _steep_sigma,
                                    _rising_sigma]),
              sigma_modulus=st.just(3.0)),
    st.builds(SmoothSaturatingRate, k0=st.floats(0.1, 2.0),
              k1=st.floats(2.0, 4.0),
              lam=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
              mu_scale=st.floats(0.2, 5.0), x_scale=st.floats(0.1, 2.0)))


@settings(max_examples=300, deadline=None)
@given(model=_STEPPER_FAMILIES,
       seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
       n_cells=st.integers(2, 400),
       # an age past which the density vanishes, so the mass past a
       # threshold can be anything from all to none
       support=st.floats(0.0, 1.0),
       warm=st.one_of(st.none(), st.floats(0.0, 1.0)),
       given_total=st.booleans(),
       max_iter=st.sampled_from([1, 2, 3, 200]),
       tol=st.sampled_from([1e-12, 1e-6]),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)))
# a warm start off both roots of the jump, stalled after one step
@example(model=StepRate(lam=0.4, sigma=_steep_sigma, sigma_modulus=3.0),
         seed=1, dx=0.01, n_cells=100, support=1.0, warm=0.8,
         given_total=True, max_iter=1, tol=1e-12, mu=0.5)
# a threshold on a midpoint, which fires from the next cell on
@example(model=StepRate(sigma_plus=0.5, sigma_minus=0.25), seed=3, dx=0.2,
         n_cells=10, support=1.0, warm=None, given_total=False,
         max_iter=200, tol=1e-12, mu=0.0)
# a threshold that jumps up across the diagonal: no root at all
@example(model=StepRate(lam=1.0, sigma=_rising_sigma, sigma_modulus=3.0),
         seed=2, dx=0.01, n_cells=100, support=1.0, warm=None,
         given_total=False, max_iter=200, tol=1e-12, mu=0.0)
def test_steppers_match_the_generic_solve_and_survival(
        model, seed, dx, n_cells, support, warm, given_total, max_iter, tol,
        mu):
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    rng = np.random.default_rng(seed)
    cells = max(1, int(support * n_cells))
    values = np.zeros(n_cells)
    values[:cells] = rng.uniform(0.0, 1.0, cells)
    values[0] += 1e-3
    values /= values.sum() * dx
    total = cell_sum(values) if given_total else None
    warm_start = None if warm is None else warm * model.k1
    # thresholds in cell 0 and at the reach cell of the prefix sums
    mus = [mu * model.k1, 0.0, 1e6]

    stepper = model.stepper(grid)
    # the solver's tolerance and cap are module constants, patched here
    with mock.patch.multiple(firing_rate, _TOL=tol, _MAX_ITER=max_iter):
        try:
            expected = _generic_solve(model, grid, values, tol, max_iter,
                                      warm_start, total)
        except (AmbiguousActivityError, ModelInconsistencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                stepper.solve(values, total, warm_start)
            assert getattr(raised.value, "roots", None) == getattr(
                exc, "roots", None)
        else:
            solved = stepper.solve(values, total, warm_start)
            assert solved == expected
            mus.insert(0, solved[0])

    # the public solve at the constants: a cold start, tol 1e-12 and
    # 200 iterations
    try:
        expected = _generic_solve(model, grid, values)
    except (AmbiguousActivityError, ModelInconsistencyError) as exc:
        with pytest.raises(type(exc)) as raised:
            solve_activity_implicit(model, grid, values)
        assert getattr(raised.value, "roots", None) == getattr(
            exc, "roots", None)
    else:
        roots = stepper.roots(values)
        if expected[2] == "fixed-point" and len(roots) > 1:
            # the public solve refuses a settled root of a staircase
            # that holds another; the other maps hold one root
            assert isinstance(model, StepRate)
            with pytest.raises(AmbiguousActivityError) as raised:
                solve_activity_implicit(model, grid, values)
            assert raised.value.roots == roots
        else:
            public = solve_activity_implicit(model, grid, values)
            assert (public.m, public.iterations,
                    public.method) == expected

    # decay multiplies values by exp(-k dx) where they lie, bit for bit,
    # in a view one cell into a longer buffer as run() hands it over
    buffer = np.full(n_cells + 1, np.nan)
    for activity in mus:
        expected = np.multiply(values, np.exp(
            -model.rate(grid.midpoints, activity) * grid.dx))
        for bound in (stepper, model.stepper(grid)):
            buffer[1:] = values
            written = bound.decay(buffer[1:], activity)
            assert written.tobytes() == expected.tobytes()
            assert buffer[1:].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# single transport step

def test_step_pure_transport_below_threshold():
    # a spike younger than the resting threshold never fires: the step
    # is an exact index shift with zero discharge
    grid = _grid()
    config = SimulationConfig(grid=grid,
                              model=StepRate(sigma_plus=0.5,
                                             sigma_minus=0.25))
    state = preset_density(grid, "spike")
    new, p = step(state, 0.0, config)
    assert p == 0.0
    assert new.values[0] == 0.0
    assert new.values[1] == state.values[0]
    assert new.mass == pytest.approx(1.0, abs=1e-14)


def test_step_constant_rate_discharge_formula():
    grid = _grid()
    model = ConstantRate(k0=2.0)
    config = SimulationConfig(grid=grid, model=model)
    state = preset_density(grid, "uniform01")
    dt = grid.dx
    new, p = step(state, 0.7, config)
    survived = state.values * math.exp(-2.0 * dt)
    expected_p = ((state.values.sum() - survived.sum()) * grid.dx
                  + survived[-1] * grid.dx) / dt
    assert p == pytest.approx(expected_p, rel=1e-13)
    assert np.allclose(new.values[1:], survived[:-1], rtol=1e-14, atol=0.0)
    assert new.values[0] == pytest.approx(p, rel=1e-14)


# ---------------------------------------------------------------------------
# full runs

def test_run_conserves_mass_and_records_on_schedule():
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0), t_end=1.0,
                           record_every=10)
    trace = run(cfg, preset_density(grid, "uniform01"))
    assert trace.times.size == 11
    assert trace.times[0] == 0.0 and trace.times[-1] == pytest.approx(1.0)
    assert np.max(np.abs(trace.mass_series - 1.0)) < 1e-12
    assert trace.kappa0 == pytest.approx(1.0, abs=1e-12)
    assert np.all(trace.m_series >= 0.0)
    assert np.all(trace.m_series <= cfg.model.k1 * (1.0 + 1e-12))


def test_run_accepts_callable_and_array_inputs():
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0), t_end=0.5)
    t1 = run(cfg, lambda x: np.exp(-2.0 * x))
    t2 = run(cfg, np.exp(-2.0 * grid.midpoints))
    assert np.array_equal(t1.m_series, t2.m_series)
    assert np.array_equal(t1.final_state.values, t2.final_state.values)


def test_run_distance_to_equilibrium_decreases():
    grid = _grid(dx=0.01, x_max=6.0)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    eq = stepper_equilibrium(model, grid)
    cfg = SimulationConfig(grid=grid, model=model, t_end=8.0, record_every=50)
    trace = run(cfg, preset_density(grid, "uniform01"), steady=eq)
    d = trace.l1_dist_to_F
    assert d is not None and d[0] > 0.0
    assert d[-1] < 1e-3 * d[0]
    # monotone after the initial transient has cleared the threshold
    late = trace.times >= 2.0
    assert np.all(np.diff(d[late]) <= 1e-12)


def test_run_with_distributed_delay():
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=StepRate(sigma_plus=0.5,
                                                     sigma_minus=0.25,
                                                     lam=0.05),
                           kernel=DelayKernel.exponential(theta=2.0),
                           t_end=0.5, record_every=5)
    trace = run(cfg, preset_density(grid, "uniform01"))
    assert np.max(np.abs(trace.mass_series - 1.0)) < 1e-12
    assert np.all(np.isfinite(trace.m_series))
    # the constant pre-history keeps the early activity near its start
    assert abs(trace.m_series[1] - trace.m_series[0]) < 5e-3


KERNELS = [DelayKernel.dirac(), DelayKernel.exponential(theta=2.0),
           DelayKernel.gamma(shape=2.0, rate=4.0)]
KERNEL_IDS = ["dirac", "exponential", "gamma"]


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("model", [
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    ConstantRate(k0=1.0)], ids=["step", "smooth", "constant"])
def test_run_matches_a_loop_of_public_steps(model, kernel):
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel, t_end=1.0,
                           record_every=1)
    f0 = preset_density(grid, "exp2")
    trace = run(cfg, f0)
    ms, ps, state = _public_steps(model, kernel, f0, cfg,
                                  trace.times.size - 1)
    _assert_matches(trace, ms, ps, state,
                    isinstance(model, SmoothSaturatingRate))


def _assert_matches(trace, ms, ps, state, exact, m_atol=0.0):
    # A run against a full-mesh reference: bit for bit where exact (the
    # smooth family, which keeps no tail).  A run family's scaled tail
    # and carried head sum round apart from a full-mesh step: then every
    # activity and the final mass agree to 1e-13 relative (an activity
    # also to m_atol), and every discharge and final cell to 1e-14 times
    # the cell sum.
    if exact:
        assert np.array_equal(trace.m_series, ms)
        assert np.array_equal(trace.p_series, ps)
        assert np.array_equal(trace.final_state.values, state.values)
        assert trace.final_state.mass == state.mass
        return
    bound = 1e-14 * cell_sum(state.values)
    np.testing.assert_allclose(trace.m_series, ms, rtol=1e-13, atol=m_atol)
    assert np.max(np.abs(trace.p_series - ps)) <= bound
    assert np.max(np.abs(trace.final_state.values - state.values)) <= bound
    assert trace.final_state.mass == pytest.approx(state.mass, rel=1e-13)


def _public_steps(model, kernel, f0, cfg, n_steps):
    # the activities, discharges and final state of a loop of public
    # steps, started as run() starts.  Each activity comes from a fresh
    # stepper's solve, as run() takes it: the public
    # solve_activity_implicit refuses a settled root of a staircase that
    # holds a second one, and a trajectory can pass through such maps.
    grid = cfg.grid

    def solve(values, warm=None):
        return model.stepper(grid).solve(values, None, warm)[0]
    state = f0
    m = solve(f0.values)
    ms, ps = [m], [m]
    if not kernel.is_dirac:
        history = kernel.history(grid.dx, m)
    for _ in range(n_steps):
        if kernel.is_dirac:
            m = solve(state.values, m)
        else:
            m = history.activity()
        state, p = step(state, m, cfg)
        if not kernel.is_dirac:
            history.push(p)
        ms.append(m)
        ps.append(p)
    return ms, ps, state


@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
def test_a_continued_run_keeps_the_clock_of_public_steps(kernel):
    # a run from a previous run's final state starts its clock at that
    # state's t, and goes on as a loop of step() from that state does
    grid = _grid()
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel, t_end=1.0,
                           record_every=1)
    f0 = run(cfg, preset_density(grid, "exp2")).final_state
    assert f0.t == 1.0
    trace = run(cfg, f0)
    n_steps = trace.times.size - 1
    assert n_steps == 100
    _, _, state = _public_steps(model, kernel, f0, cfg, n_steps)
    # step() adds dx to its state's t
    clock = [f0.t]
    for _ in range(n_steps):
        clock.append(clock[-1] + grid.dx)
    assert trace.times[0] == f0.t
    np.testing.assert_allclose(trace.times, clock, rtol=0.0, atol=1e-12)
    assert trace.final_state.t == trace.times[-1]
    assert trace.final_state.t == pytest.approx(state.t, abs=1e-12)
    assert (trace.final_state.values.tobytes()
            == state.values.tobytes())


@pytest.mark.parametrize("k", [2, 5])
def test_an_ambiguous_solve_in_run_carries_its_step_start_time(k,
                                                               monkeypatch):
    # the k-th solve of run(), counting its initial one, is the solve of
    # step k - 1, which starts at f0.t + (k - 2) dt
    grid = _grid()
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)
    cfg = SimulationConfig(grid=grid, model=model, t_end=0.5)
    f0 = run(cfg, preset_density(grid, "uniform01")).final_state
    stepper_type = type(model.stepper(grid))
    solve, calls = stepper_type.solve, []

    def ambiguous_on_the_kth(stepper, values, total=None, warm=None,
                             tail=None):
        calls.append(warm)
        if len(calls) == k:
            raise AmbiguousActivityError.listing([0.25, 0.75])
        return solve(stepper, values, total, warm, tail)
    monkeypatch.setattr(stepper_type, "solve", ambiguous_on_the_kth)
    with pytest.raises(AmbiguousActivityError) as caught:
        run(cfg, f0)
    assert len(calls) == k
    assert caught.value.roots == [0.25, 0.75]
    assert caught.value.t == f0.t + (k - 2) * grid.dx
    assert caught.value.t == pytest.approx(0.5 + (k - 2) * grid.dx)


_FRONT_MODELS = {
    "constant": ConstantRate(k0=1.0),
    "step": StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    "smooth": SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)}


def _front_density(grid, name):
    # a preset, or "gap": mass on the youngest tenth of the mesh, a gap,
    # and one far nonzero cell
    if name != "gap":
        return preset_density(grid, name)
    values = np.zeros(grid.n_cells)
    values[:grid.n_cells // 10] = 1.0
    values[7 * grid.n_cells // 10] = 5.0
    return grid.project(values)


@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
def test_a_window_wrapped_three_times_matches_public_steps(kernel):
    # run() slides its density one cell per step toward the start of a
    # buffer twice its length and copies it back to the end at the
    # start, once per n_cells steps: 3.5 times over this run.  It decays
    # only the cells the density's front has reached, and for the run
    # families none (their tail's scale takes the factor), and step()
    # decays them all.
    grid = AgeGrid(dx=0.05, n_cells=100)
    n_steps = 350
    for model in _FRONT_MODELS.values():
        cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                               t_end=n_steps * grid.dx, record_every=1)
        for density in ("spike", "uniform01", "gap"):
            f0 = _front_density(grid, density)
            trace = run(cfg, f0)
            assert trace.times.size == n_steps + 1
            ms, ps, state = _public_steps(model, kernel, f0, cfg, n_steps)
            _assert_matches(trace, ms, ps, state,
                            isinstance(model, SmoothSaturatingRate))


@pytest.mark.parametrize("density", ["spike", "uniform01", "gap"])
@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
@pytest.mark.parametrize("family", list(_FRONT_MODELS))
def test_every_cell_past_the_front_stays_positive_zero(family, kernel,
                                                       density,
                                                       monkeypatch):
    # ages advance one cell per step, so after step k every cell from
    # min(front + k, n) on, front one past f0's last nonzero cell, is
    # +0.0 with no sign bit, raw or not.  The smooth family's decay reads
    # only the cells before it, and a run family's tail decays no cell.
    grid = AgeGrid(dx=0.05, n_cells=100)
    model = _FRONT_MODELS[family]
    cells, n_steps = grid.n_cells, 250
    f0 = _front_density(grid, density)
    front = int(np.flatnonzero(f0.values)[-1]) + 1
    decayed, windows = [], []
    stepper_type = type(model.stepper(grid))
    decay = stepper_type.decay

    def counted(stepper, window, mu):
        decayed.append(len(window))
        return decay(stepper, window, mu)
    transport = evolution._transport

    def spy(buf, s, window, *args):
        out = transport(buf, s, window, *args)
        windows.append(buf[s - 1:s - 1 + cells].copy())
        return out
    monkeypatch.setattr(stepper_type, "decay", counted)
    monkeypatch.setattr(evolution, "_transport", spy)
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                           t_end=n_steps * grid.dx, record_every=n_steps)
    run(cfg, f0)
    assert len(windows) == n_steps
    assert decayed == ([min(front + k, cells) for k in range(n_steps)]
                       if family == "smooth" else [])
    for k, window in enumerate(windows):
        past = window[min(front + k + 1, cells):]
        assert not past.view(np.uint64).any()


def _two_buffer_run(model, kernel, f0, grid, n_steps, seen=None):
    # The transport as it stood before the density decayed in place:
    # the survivors, values times the rate expression's factors, go one
    # cell over into a second buffer, the two buffers swap, and a p < 0
    # within the kernel's rounding bound is set to 0.  Returns the
    # activities, discharges and final density, and for each step that
    # set p to 0, its bound and its discharge summed exactly.  A list
    # passed as seen gets a copy of the density after each step.
    stepper = model.stepper(grid)
    cells = grid.n_cells
    cur, nxt = np.empty(cells + 1), np.empty(cells + 1)
    cur[:cells] = f0.values
    total = cell_sum(f0.values)
    m = stepper.solve(f0.values, total)[0]
    history = None if kernel.is_dirac else kernel.history(grid.dx, m)
    ms, ps, clamped = [m], [m], []
    for _ in range(n_steps):
        values = cur[:cells]
        m = (stepper.solve(values, total, m)[0] if history is None
             else history.activity())
        survived = nxt[1:]
        np.multiply(values, np.exp(-model.rate(grid.midpoints, m) * grid.dx),
                    out=survived)
        rest = float(nxt[1:-1].sum())
        p = total - rest
        if p < 0.0:
            bound = evolution._CLEARANCE * (cells + 2) * total
            assert p >= -bound
            clamped.append((bound, math.fsum(np.concatenate(
                (values, -survived[:-1])))))
            p = 0.0
        nxt[0] = p
        total = p + rest
        cur, nxt = nxt, cur
        if history is not None:
            history.push(p)
        ms.append(m)
        ps.append(p)
        if seen is not None:
            seen.append(cur[:cells].copy())
    return ms, ps, cur[:cells].copy(), clamped


@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
def test_a_planted_tail_clamps_p_as_the_two_buffer_step_does(kernel,
                                                            monkeypatch):
    # Unit mass on the youngest 200 cells, below every threshold, and a
    # tail of 1e-13 to 1e-9 in three cells at age 5: for 150 steps only
    # the tail fires.  Up to a tail of 1e-11 its discharge sits at the
    # rounding of the cell sum, and p = total - rest lands below zero on
    # about a fifth of the steps.  Each such step must set p to 0, as
    # the two-buffer step does, and its exact discharge must lie within
    # the bound that allows it.  The planted cells lie past the step
    # family's threshold cell, so run() keeps them in its scaled tail,
    # and its trajectory agrees with the two-buffer one to the tail's
    # bounds; the activity, at the rounding of the unit mass, to 1e-14
    # of it.
    grid = AgeGrid(dx=1e-3, n_cells=10_000)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    n_steps = 150
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                           t_end=n_steps * grid.dx, record_every=1)
    transport, clamped = evolution._transport, []

    def spy(buf, s, window, total, stepper, m, t, live=None, tail=None):
        # the exact discharge of each step of run() that set p to 0,
        # from its densities before and after, the tail scaled in
        cells = len(window)
        before = tail.read(window).copy()
        p, after = transport(buf, s, window, total, stepper, m, t, live,
                             tail)
        if p == 0.0:
            kept = tail.read(buf[s - 1:s - 1 + cells])
            clamped.append((evolution._CLEARANCE * (cells + 2) * total,
                            math.fsum(np.concatenate((before, -kept[1:])))))
        return p, after
    monkeypatch.setattr(evolution, "_transport", spy)
    counts = {}
    for seed in range(3):
        for tail in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            values = np.zeros(grid.n_cells)
            values[:200] = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                               200)
            values /= values.sum() * grid.dx
            values[5000:5003] = tail
            f0 = DensityState(values=values, mass=grid.integrate(values),
                              m=0.0, p=0.0, t=0.0)
            clamped.clear()
            trace = run(cfg, f0)
            ms, ps, final, reference = _two_buffer_run(model, kernel, f0,
                                                       grid, n_steps)
            _assert_matches(trace, ms, ps, SimpleNamespace(
                values=final, mass=grid.integrate(final)), False,
                m_atol=1e-14)
            for steps in (clamped, reference):
                assert all(0.0 <= exact <= bound for bound, exact in steps)
            counts[seed, tail] = len(clamped), len(reference)
    # the fixture reaches the clamp on every small tail
    assert all(min(count) >= 20 for (_, tail), count in counts.items()
               if tail <= 1e-11)


@settings(max_examples=200, deadline=None)
@given(model=_STEPPER_FAMILIES,
       seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
       n_cells=st.integers(2, 400),
       support=st.floats(0.0, 1.0),
       mus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       excess=st.floats(1e-9, 1.0))
def test_transport_keeps_p_within_its_rounding_bound_of_the_exact_discharge(
        model, seed, dx, n_cells, support, mus, excess):
    # Successive transport steps at the activities mus: each p is
    # nonnegative and within _CLEARANCE * (n + 2) * total of the
    # discharge sum(density) - sum(kept survivors) summed exactly, and
    # the total returned is the new density's cell_sum.  A decay whose
    # factor passes 1 is refused.
    grid = AgeGrid(dx=dx, n_cells=n_cells)
    rng = np.random.default_rng(seed)
    cells = max(1, int(support * n_cells))
    buf = np.zeros(n_cells + len(mus))
    s = len(mus)
    buf[s:s + cells] = rng.uniform(0.0, 1.0, cells)
    buf[s] += 1e-3
    buf /= buf.sum() * dx
    start = buf[s:].copy()
    stepper = model.stepper(grid)
    total = cell_sum(buf[s:])
    for mu in mus:
        mu *= model.k1
        window = buf[s:s + n_cells]
        bound = evolution._CLEARANCE * (n_cells + 2) * total
        before = window.copy()
        p, total = evolution._transport(buf, s, window, total, stepper, mu,
                                        0.0)
        exact = math.fsum(np.concatenate((before, -window[:-1])))
        assert p >= 0.0
        assert abs(p - exact) <= bound
        assert total == cell_sum(buf[s - 1:s - 1 + n_cells])
        s -= 1
    # the grown density's last cell is empty, so p is minus the growth
    start[-1] = 0.0
    buf = np.concatenate(([0.0], start))
    growing = SimpleNamespace(
        decay=lambda window, mu: np.multiply(window, 1.0 + excess,
                                             out=window))
    with pytest.raises(InvariantViolationError,
                       match="negative density produced by a transport step"):
        evolution._transport(buf, 1, buf[1:], cell_sum(start), growing, 0.0,
                             0.0)


_FAMILIES = st.one_of(
    st.builds(ConstantRate, k0=st.floats(0.1, 3.0)),
    st.builds(StepRate, sigma_plus=st.floats(0.3, 0.9),
              sigma_minus=st.floats(0.05, 0.29), lam=st.floats(0.0, 0.9),
              decay=st.floats(0.2, 3.0)),
    st.builds(SmoothSaturatingRate, k0=st.floats(0.1, 2.0),
              k1=st.floats(2.0, 4.0), lam=st.floats(0.0, 3.0),
              x_scale=st.floats(0.1, 2.0)))


@settings(max_examples=150, deadline=None)
@given(model=_FAMILIES,
       seed=st.integers(0, 2 ** 32 - 1),
       dx=st.sampled_from([0.02, 0.005, 1e-3]),
       # an age past which f0 vanishes; below about 0.05 no step
       # threshold is reached within the run
       support=st.one_of(st.floats(0.002, 0.05), st.floats(0.05, 8.0)),
       dirac=st.booleans())
def test_run_keeps_p_and_mass_and_matches_public_steps(model, seed, dx,
                                                       support, dirac):
    grid = AgeGrid(dx=dx, n_cells=300)
    rng = np.random.default_rng(seed)
    # the last tenth of the grid stays empty, as project() asks
    cells = min(max(1, int(support / dx)), 270)
    values = np.zeros(grid.n_cells)
    values[:cells] = rng.uniform(0.0, 1.0, cells)
    values[0] += 1e-3
    f0 = grid.project(values)
    kernel = DelayKernel.dirac() if dirac else DelayKernel.exponential(2.0)
    n_steps = 40
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                           t_end=n_steps * dx, record_every=1,
                           allow_zero_kappa0=True)
    trace = run(cfg, f0)
    assert np.all(trace.p_series >= 0.0)
    assert np.max(np.abs(trace.mass_series - 1.0)) <= 1e-12
    ms, ps, state = _public_steps(model, kernel, f0, cfg, n_steps)
    # where f0 lies short of every threshold, an activity is the unit
    # mass less nearly all of it (the staircase's plateau), or a mean of
    # discharges at the rounding of the cell sum: it agrees to 1e-14 of
    # the mass then
    _assert_matches(trace, ms, ps, state,
                    isinstance(model, SmoothSaturatingRate), m_atol=1e-14)


_RUN_FAMILIES = {"constant": ConstantRate(k0=1.0),
                 "step": StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3)}


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("family", list(_RUN_FAMILIES))
def test_a_run_family_trajectory_does_not_depend_on_record_every(family,
                                                                 kernel):
    # a sample reads the scaled tail into a work buffer and writes
    # nothing back, and the tail is folded on a schedule of the step
    # count alone, so every sample a coarser schedule shares with
    # record_every = 1 holds the same bits, and so does the final state
    grid = AgeGrid(dx=0.05, n_cells=100)
    n_steps = 350
    traces = {every: run(SimulationConfig(
        grid=grid, model=_RUN_FAMILIES[family], kernel=kernel,
        t_end=n_steps * grid.dx, record_every=every),
        preset_density(grid, "exp2")) for every in (1, 7, 10)}
    full = traces.pop(1)
    for every, trace in traces.items():
        steps = [*range(0, n_steps, every), n_steps]
        for series in ("m_series", "p_series", "mass_series",
                       "l1q_series"):
            assert np.array_equal(getattr(trace, series),
                                  getattr(full, series)[steps])
        assert (trace.final_state.values.tobytes()
                == full.final_state.values.tobytes())


@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
@pytest.mark.parametrize("family", list(_RUN_FAMILIES))
def test_a_run_family_sample_takes_its_distance_in_place(family, kernel):
    # a sample reads the tail into the tail's own buffer, takes its
    # mass, sup and moment norm there, then its distance to F in place:
    # every other column is the run's without F, bit for bit, and the
    # last distance is the final state's, whose fold multiplies the
    # cells by the scale as the read does
    grid = AgeGrid(dx=0.05, n_cells=100)
    model = _RUN_FAMILIES[family]
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                           t_end=350 * grid.dx, record_every=7)
    f0 = preset_density(grid, "exp2")
    steady = stepper_equilibrium(model, grid)
    with_F, without = run(cfg, f0, steady=steady), run(cfg, f0)
    for series in ("m_series", "p_series", "mass_series", "linf_series",
                   "l1q_series"):
        assert np.array_equal(getattr(with_F, series),
                              getattr(without, series))
    assert with_F.l1_dist_to_F[-1] == grid.l1_distance(
        with_F.final_state.values, steady.F)


def test_a_tail_scale_that_would_underflow_is_folded_first():
    # k0 * x_max = 900: a scale folded only at the buffer's wrap, every
    # 3000 steps, would reach exp(-900) and underflow; the run folds it
    # before it passes 2**-500 and agrees with the full-mesh reference
    grid = AgeGrid(dx=0.1, n_cells=3000)
    model = ConstantRate(k0=3.0)
    n_steps = 3000
    cfg = SimulationConfig(grid=grid, model=model, t_end=n_steps * grid.dx,
                           record_every=n_steps + 1)
    f0 = preset_density(grid, "exp2")
    trace = run(cfg, f0)
    assert trace.times.size == 2
    ms, ps, final, _ = _two_buffer_run(model, DelayKernel.dirac(), f0, grid,
                                       n_steps)
    assert np.all(np.isfinite(trace.final_state.values))
    bound = 1e-14 * cell_sum(f0.values)
    np.testing.assert_allclose(trace.m_series, [ms[0], ms[-1]], rtol=1e-13,
                               atol=0.0)
    assert np.max(np.abs(trace.p_series - [ps[0], ps[-1]])) <= bound
    assert np.max(np.abs(trace.final_state.values - final)) <= bound


def test_a_step_that_keeps_less_than_half_of_a_cell_keeps_no_tail():
    # k0 dx = 1.5: between folds the tail's scale could fall past the
    # normal floats, so run() keeps every cell on the full mesh and
    # equals a loop of public steps bit for bit
    grid = AgeGrid(dx=0.5, n_cells=40)
    model = ConstantRate(k0=3.0)
    cfg = SimulationConfig(grid=grid, model=model, t_end=60 * grid.dx,
                           record_every=1)
    f0 = preset_density(grid, "exp2")
    assert evolution._bind_tail(model.stepper(grid), f0.values, 0.0) is None
    ms, ps, state = _public_steps(model, DelayKernel.dirac(), f0, cfg, 60)
    _assert_matches(run(cfg, f0), ms, ps, state, True)


def _crossing_step(top, lam):
    # a custom threshold that falls below 0 at u = top
    return StepRate(lam=lam, sigma=lambda u: top - u, sigma_modulus=1.0)


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(
           st.builds(ConstantRate, k0=st.floats(0.1, 3.0)),
           st.builds(StepRate, sigma_plus=st.floats(0.3, 0.9),
                     sigma_minus=st.floats(0.05, 0.29),
                     lam=st.floats(0.0, 0.9), decay=st.floats(0.2, 3.0)),
           st.builds(_crossing_step, st.floats(0.05, 0.95),
                     st.floats(0.0, 3.0))),
       kernel=st.sampled_from(KERNELS),
       preset=st.sampled_from(["uniform01", "exp2", "spike"]),
       dx=st.sampled_from([0.05, 0.02, 0.01]),
       x_max=st.floats(3.0, 6.0),
       steps=st.floats(1.05, 2.5))
def test_a_run_family_run_agrees_with_the_full_mesh(model, kernel, preset,
                                                    dx, x_max, steps):
    # run() against the two-buffer full-mesh run, over the wrap of its
    # buffer: every recorded activity, mass and moment norm to 1e-13
    # relative, every discharge and final cell to 1e-14 times the cell
    # sum.  The draws include a custom threshold that crosses 0, whose
    # tail's cut falls to cell 0.
    grid = AgeGrid(dx=dx, n_cells=round(x_max / dx))
    f0 = preset_density(grid, preset)
    n_steps = max(1, round(steps * grid.n_cells))
    cfg = SimulationConfig(grid=grid, model=model, kernel=kernel,
                           t_end=n_steps * dx, record_every=1,
                           allow_zero_kappa0=True)
    trace = run(cfg, f0)
    seen = []
    ms, ps, final, _ = _two_buffer_run(model, kernel, f0, grid, n_steps,
                                       seen)
    densities = [f0.values, *seen]
    _assert_matches(trace, ms, ps, SimpleNamespace(
        values=final, mass=grid.integrate(final)), False)
    for series, reference in (
            (trace.mass_series, [grid.integrate(v) for v in densities]),
            (trace.l1q_series, [grid.l1q_norm(v) for v in densities])):
        np.testing.assert_allclose(series, reference, rtol=1e-13, atol=0.0)


def test_a_stalled_warm_solve_reads_the_roots_of_the_tail_scaled_in():
    # One iteration cannot settle the step family's warm solve as its
    # activity moves, so every step's falls back to roots(), on the
    # density that the tail reads, not on the raw window, and finds the
    # full-mesh run's one root to the tail's bounds.
    grid = _grid()
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    f0 = preset_density(grid, "uniform01")
    n_steps = 500
    cfg = SimulationConfig(grid=grid, model=model, t_end=n_steps * grid.dx,
                           record_every=1)
    with mock.patch.object(firing_rate, "_MAX_ITER", 1):
        trace = run(cfg, f0)
        ms, ps, final, _ = _two_buffer_run(model, DelayKernel.dirac(), f0,
                                           grid, n_steps)
    assert trace.activity_solves.scan == n_steps
    _assert_matches(trace, ms, ps, SimpleNamespace(
        values=final, mass=grid.integrate(final)), False)


@pytest.mark.parametrize("family", [
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
    ConstantRate(k0=1.0),
    _crossing_step(0.3, 0.6)],
    ids=["step", "smooth", "constant", "crossing"])
def test_run_hands_the_stepper_the_exact_cell_sum(family, monkeypatch):
    # The transport step builds the new density's cell sum from its
    # discharge and its survivors, and each Dirac step hands that very
    # sum to the stepper's activity solve.  With no tail (the smooth
    # family, and f0's solve) it is the sum that cell_sum takes of the
    # density, bit for bit.  A run family's solve also gets the tail
    # that run() keeps: its carried cell sum and its carried head sum,
    # of the cells below the tail's cut, equal exact sums of the density
    # that the tail reads to 1e-14 times the cell sum, over 2.5 wraps of
    # the buffer.
    solve, tails = firing_rate._Stepper.solve, []

    def recording(stepper, values, total=None, warm=None, tail=None):
        if tail is None:
            assert total == values[0] + float(values[1:].sum())
            assert total == cell_sum(values)
        else:
            density = tail.read(values)
            bound = 1e-14 * math.fsum(density)
            assert abs(total - math.fsum(density)) <= bound
            assert abs(tail.head - math.fsum(density[:tail.cut])) <= bound
        tails.append(tail)
        return solve(stepper, values, total, warm, tail)
    monkeypatch.setattr(firing_rate._Stepper, "solve", recording)
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=family, t_end=10.0)
    run(cfg, preset_density(grid, "exp2"))
    # the initial solve and one per step, each step's with the run's one
    # tail, or none
    assert len(tails) == 1 + round(cfg.t_end / grid.dx)
    assert tails[0] is None
    smooth = isinstance(family, SmoothSaturatingRate)
    assert all((tail is None) == smooth and tail is tails[1]
               for tail in tails[1:])


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_run_steps_on_survival_factors_not_rates(kernel, monkeypatch):
    # the step loop moves the tail that it keeps of the density to the
    # bound stepper's threshold cell once per step, decays no cell, and
    # asks the family itself for nothing per step: no rates, no new
    # stepper
    owners = {"rate": StepRate, "stepper": StepRate,
              "decay": firing_rate._RunStepper, "move": evolution._Tail}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        method = getattr(owners[name], name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counting(name))
    grid = _grid()
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3)

    def calls_over(t_end):
        calls.update(dict.fromkeys(owners, 0))
        run(SimulationConfig(grid=grid, model=model, kernel=kernel,
                             t_end=t_end), preset_density(grid, "uniform01"))
        return dict(calls)

    short, long = calls_over(0.5), calls_over(1.0)
    assert short["move"] == 50 and long["move"] == 100
    for name in ("rate", "stepper", "decay"):
        assert long[name] == short[name]
    assert long["decay"] == 0


def test_models_that_differ_only_in_their_sigma_run_apart():
    # sigma counts in equality and hashing, so these two models differ,
    # and each run binds its own stepper with its own thresholds
    def sigma_exp(u):
        return 0.25 + 0.25 * math.exp(-u)

    def sigma_hyp(u):
        return 0.25 + 0.25 / (1.0 + 4.0 * u)

    first = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.6,
                     sigma=sigma_exp, sigma_modulus=1.0)
    second = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.6,
                      sigma=sigma_hyp, sigma_modulus=1.0)
    assert first != second
    grid = _grid()
    f0 = preset_density(grid, "uniform01")

    def config(model):
        return SimulationConfig(grid=grid, model=model, t_end=1.0,
                                record_every=1)

    before, other, after = (run(config(model), f0)
                            for model in (first, second, first))
    assert not np.array_equal(before.m_series, other.m_series)
    assert np.array_equal(before.m_series, after.m_series)
    assert np.array_equal(before.p_series, after.p_series)
    # the public steps bind their own stepper per call; the run keeps
    # a tail, so they agree to its bounds
    for model, trace in ((second, other), (first, after)):
        ms, ps, state = _public_steps(model, DelayKernel.dirac(), f0,
                                      config(model), trace.times.size - 1)
        _assert_matches(trace, ms, ps, state, False)


_NEGATIVE_CELLS = pytest.mark.parametrize(
    "cell", [0, 5, -2], ids=["first", "interior", "last-kept"])


def _with_negative_cell(grid, cell):
    # uniform01 with one cell at -1e-3 and its neighbour raised to keep
    # the mass at 1
    state = preset_density(grid, "uniform01")
    values = state.values.copy()
    nudge = values[cell] + 1e-3
    values[cell] -= nudge
    values[cell + 1 if cell >= 0 else cell - 1] += nudge
    return DensityState(values=values, mass=grid.integrate(values), m=0.0,
                        p=0.0, t=0.0)


@_NEGATIVE_CELLS
def test_step_checks_positivity_on_every_step(cell):
    # a negative cell anywhere in the input is refused, not carried on
    grid = _grid()
    config = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0))
    with pytest.raises(InvariantViolationError, match="negative density"):
        step(_with_negative_cell(grid, cell), 0.0, config)


@_NEGATIVE_CELLS
def test_run_refuses_a_negative_initial_cell(cell):
    grid = _grid()
    bad = _with_negative_cell(grid, cell)
    assert abs(bad.mass - 1.0) < 1e-12
    config = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0),
                              t_end=1.0)
    with pytest.raises(InvariantViolationError, match="negative density"):
        run(config, bad)


def test_run_counts_the_activity_solver_paths(monkeypatch):
    grid = _grid()
    model = SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)
    f0 = preset_density(grid, "uniform01")
    solves = run(SimulationConfig(grid=grid, model=model, t_end=0.5),
                 f0).activity_solves
    assert (solves.fixed_point, solves.scan) == (51, 0)
    assert 1 <= solves.max_iterations < 200
    # one iteration cannot settle a coupled activity: the scan takes over
    monkeypatch.setattr(firing_rate, "_MAX_ITER", 1)
    forced = run(SimulationConfig(grid=grid, model=model, t_end=0.5),
                 f0).activity_solves
    assert forced.scan > 0
    assert forced.fixed_point + forced.scan == 51
    assert forced.max_iterations == 1
    # a delayed kernel solves once, for the initial activity
    delayed = run(SimulationConfig(grid=grid, model=model, t_end=0.5,
                                   kernel=DelayKernel.exponential(2.0)),
                  f0).activity_solves
    assert delayed.fixed_point + delayed.scan == 1


@pytest.mark.parametrize("kernel", [DelayKernel.dirac(),
                                    DelayKernel.exponential(2.0)],
                         ids=["dirac", "exponential"])
def test_outflow_past_the_horizon_passes_the_discharge_check(kernel):
    # uniform01 mass reaches x_max = 4 at t = 3; from then on p also
    # books the outflow past the horizon and exceeds k1 = 1, while its
    # absorbed part stays below k1
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0),
                           kernel=kernel, t_end=3.05)
    trace = run(cfg, preset_density(grid, "uniform01"))
    assert np.max(trace.p_series) > 1.0


def test_discharge_check_catches_a_rate_above_k1():
    class Overfiring(ConstantRate):
        # fires at 2 k0 while its k1 claims k0: its survivors decay
        # twice per step
        def stepper(self, grid):
            bound = super().stepper(grid)

            def decay(window, mu):
                return bound.decay(bound.decay(window, mu), mu)
            return SimpleNamespace(solve=bound.solve, decay=decay)

    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=Overfiring(k0=1.0), t_end=1.0)
    with pytest.raises(InvariantViolationError, match="discharge left"):
        run(cfg, preset_density(grid, "uniform01"))


def test_delayed_activity_is_capped_by_the_largest_discharge(monkeypatch):
    # a history whose activity is 1.5 times the chain's lifts m above
    # every past p
    grid = _grid()
    kernel = DelayKernel.exponential(2.0)
    chain = DelayKernel.history

    def lifted(self, dt, m0):
        state = chain(self, dt, m0)
        return SimpleNamespace(activity=lambda: 1.5 * state.activity(),
                               push=state.push)

    monkeypatch.setattr(DelayKernel, "history", lifted)
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0),
                           kernel=kernel, t_end=1.0)
    with pytest.raises(InvariantViolationError, match="activity left"):
        run(cfg, preset_density(grid, "uniform01"))


def test_sampled_delayed_activity_is_capped_by_the_largest_discharge(
        monkeypatch):
    # a sampled kernel convolves weights(dt): weights that sum to 1.5
    # lift m above every past p
    grid = _grid()
    kernel = DelayKernel.sampled([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    lags, w = kernel.weights(grid.dx)
    monkeypatch.setattr(DelayKernel, "weights",
                        lambda self, dt: (lags, 1.5 * w))
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0),
                           kernel=kernel, t_end=1.0)
    with pytest.raises(InvariantViolationError, match="activity left"):
        run(cfg, preset_density(grid, "uniform01"))


def test_run_refuses_zero_rest_mass_in_strong_regime():
    # all mass below the resting threshold and a coupling beyond the
    # strong-regime knee: the discharge floor argument is void
    grid = _grid()
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=40.0)
    cfg = SimulationConfig(grid=grid, model=model, t_end=1.0)
    with pytest.raises(DegenerateInputError):
        run(cfg, preset_density(grid, "spike"))
    cfg_ok = SimulationConfig(grid=grid, model=model, t_end=1.0,
                              allow_zero_kappa0=True)
    trace = run(cfg_ok, preset_density(grid, "spike"))
    assert np.max(np.abs(trace.mass_series - 1.0)) < 1e-12


def test_run_rejects_too_short_horizon():
    grid = _grid()
    cfg = SimulationConfig(grid=grid, model=ConstantRate(k0=1.0),
                           t_end=0.001)
    with pytest.raises(ValueError):
        run(cfg, preset_density(grid, "uniform01"))


def test_simulation_config_validation():
    grid = _grid()
    model = ConstantRate(k0=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=grid, model=model, t_end=-1.0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=grid, model=model, record_every=0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=grid, model=model, q=-1.0)
    assert SimulationConfig(grid=grid, model=model).dt == grid.dx


def _config(**fields):
    return SimulationConfig(grid=_grid(), model=ConstantRate(k0=1.0),
                            **fields)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda bad: DelayKernel.exponential(theta=bad),
    lambda bad: DelayKernel.gamma(shape=bad, rate=2.0),
    lambda bad: DelayKernel.gamma(shape=2.0, rate=bad),
    lambda bad: DelayKernel.sampled([0.0, 1.0, bad], [0.0, 2.0, 0.0]),
    lambda bad: DelayKernel.sampled([0.0, 1.0, 2.0], [0.0, bad, 0.0]),
    lambda bad: _config(t_end=bad),
    lambda bad: _config(q=bad),
    lambda bad: _config(record_every=bad),
    lambda bad: AgeGrid(dx=bad, n_cells=100),
], ids=["exponential-theta", "gamma-shape", "gamma-rate", "sampled-y",
        "sampled-b", "t_end", "q", "record_every", "dx"])
def test_non_finite_parameters_are_refused_at_construction(build, bad):
    # NaN fails every comparison, so each check tests the good range;
    # accepted, these failed only later, inside history() or run(), or
    # gave NaN series
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("bad", [2.5, True, 0, -3],
                         ids=["float", "bool", "zero", "negative"])
def test_record_every_must_be_a_positive_integer(bad):
    # a float once recorded at the multiples of it that some step count
    # hit (2.5: every 5 steps), silently
    with pytest.raises(ValueError, match="record_every: (expected an integer"
                       "|must be at least 1)"):
        _config(record_every=bad)
    assert _config(record_every=np.int64(3)).record_every == 3


# ---------------------------------------------------------------------------
# decay fits

def _synthetic_trace(alpha, C, t_end=10.0, n=101):
    t = np.linspace(0.0, t_end, n)
    return SimpleNamespace(times=t, l1_dist_to_F=C * np.exp(alpha * t))


def test_decay_fit_recovers_exact_exponential():
    fit = decay_fit(_synthetic_trace(-0.5, 1.0), (0.0, 10.0))
    assert fit.alpha == pytest.approx(-0.5, abs=1e-9)
    assert fit.C == pytest.approx(1.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit2 = decay_fit(_synthetic_trace(-0.2, 3.0), (2.0, 8.0))
    assert fit2.alpha == pytest.approx(-0.2, abs=1e-9)
    assert fit2.C == pytest.approx(3.0, abs=1e-6)
    assert fit2.window == (2.0, 8.0)


def test_decay_fit_cuts_the_rounding_floor():
    trace = _synthetic_trace(-3.0, 1.0, t_end=12.0, n=241)
    floored = np.maximum(trace.l1_dist_to_F, 9e-14)
    trace = SimpleNamespace(times=trace.times, l1_dist_to_F=floored)
    with pytest.warns(UserWarning, match="rounding floor"):
        fit = decay_fit(trace, (0.0, 12.0))
    assert fit.alpha == pytest.approx(-3.0, abs=1e-6)
    assert fit.window[1] < 12.0


def test_decay_fit_error_paths():
    trace = _synthetic_trace(-0.5, 1.0)
    with pytest.raises(ValueError):
        decay_fit(trace, (5.0, 5.0))
    with pytest.raises(ValueError):
        decay_fit(trace, (9.9, 10.0))  # two samples only
    flat = SimpleNamespace(times=trace.times,
                           l1_dist_to_F=np.full(trace.times.size, 1e-14))
    with pytest.raises(ValueError):
        decay_fit(flat, (0.0, 10.0))
    no_ref = SimpleNamespace(times=trace.times, l1_dist_to_F=None)
    with pytest.raises(ValueError):
        decay_fit(no_ref, (0.0, 10.0))


# ---------------------------------------------------------------------------
# discrete equilibrium

def test_stepper_equilibrium_constant_rate():
    grid = _grid(dx=1e-3, x_max=10.0)
    eq = stepper_equilibrium(ConstantRate(k0=2.0), grid)
    assert eq.M == pytest.approx(2.0, abs=1e-12)
    ratio = math.exp(-2.0 * grid.dx)
    geometric = ratio ** np.arange(grid.n_cells)
    geometric /= geometric.sum() * grid.dx
    assert np.max(np.abs(eq.F - geometric)) < 1e-12
    assert eq.residual_activity < 1e-12


@pytest.mark.parametrize("model", [
    ConstantRate(k0=2.0),
    StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05),
    SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.1)],
    ids=["constant", "step", "smooth"])
def test_stepper_equilibrium_steps_on_the_rate_expression(model):
    # the profile is the normalized running product of the transport
    # step's factors np.exp(-rate(midpoints, M) * dx), bit for bit
    grid = _grid(dx=0.01, x_max=6.0)
    eq = stepper_equilibrium(model, grid)
    factors = np.exp(-model.rate(grid.midpoints, eq.M) * grid.dx)
    f = np.empty(grid.n_cells)
    f[0] = 1.0
    np.cumprod(factors[:-1], out=f[1:])
    assert (f / (f.sum() * grid.dx)).tobytes() == eq.F.tobytes()
    assert eq.residual_activity < 1e-12


def test_stepper_equilibrium_tracks_the_cell_exact_solver():
    from agenet import solve_steady_state
    grid = _grid(dx=0.01, x_max=10.0)
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    eq = stepper_equilibrium(model, grid)
    ss = solve_steady_state(model, grid)
    # the two references differ by the first-order scheme bias
    assert abs(eq.M - ss.M) < 5.0 * grid.dx
    assert grid.l1_distance(eq.F, ss.F) < 10.0 * grid.dx
