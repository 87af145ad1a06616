"""The linearized generator and its spectra.

Dense `scipy.linalg` eigensolves at small n, of the generator built
here from the frozen rates, are the oracle for the root search on the
renewal characteristic function."""

import cmath
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from agenet import (AgeGrid, ConfigError, ConstantRate, SmoothSaturatingRate,
                    SpectrumCountError, SteadyState, StepRate,
                    solve_steady_state, spectrum)
from agenet import _roots, linear_analysis


def _frozen_rates(model, grid, steady):
    return np.asarray(model.rate(grid.midpoints, steady.M), dtype=float)


def _lower(rates, dx):
    """L: -1/dx - k_j on the diagonal, 1/dx on the subdiagonal."""
    n = rates.size
    return np.diag(-1.0 / dx - rates) + np.diag(np.full(n - 1, 1.0 / dx), -1)


def _dense_generator(rates, dx):
    """A = L + e0 c^T, dense.  Per column j: 1/dx to cell j+1
    (transport), -1/dx - k_j on the diagonal, k_j added to row 0 (the
    discharge feeding the boundary), and 1/dx from the last column into
    row 0 (mass advected past the age horizon re-enters, keeping the
    truncated operator conservative)."""
    A = _lower(rates, dx)
    A[0] += rates
    A[0, -1] += 1.0 / dx
    return A


def _steady_stub(grid, M=1.0):
    F = np.exp(-grid.midpoints)
    F /= F.sum() * grid.dx
    return SteadyState(M=M, F=F, lam=0.0, residual_ode=0.0,
                       residual_activity=0.0)


def test_generator_matrix_written_out():
    # three cells, dx = 1/2, constant unit rate: transport 2 on the
    # subdiagonal, -2 - 1 on the diagonal, the rate row plus the
    # horizon reinjection folded into row 0
    grid = AgeGrid(dx=0.5, n_cells=3)
    rates = _frozen_rates(ConstantRate(k0=1.0), grid, _steady_stub(grid))
    expected = np.array([
        [-2.0, 1.0, 3.0],
        [2.0, -3.0, 0.0],
        [0.0, 2.0, -3.0],
    ])
    assert np.array_equal(_dense_generator(rates, grid.dx), expected)


def test_generator_columns_sum_to_zero_exactly():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(5, 60))
        grid = AgeGrid(dx=float(rng.uniform(0.01, 0.3)), n_cells=n)
        model = SmoothSaturatingRate(k0=float(rng.uniform(0.2, 1.0)),
                                     k1=float(rng.uniform(1.0, 3.0)),
                                     lam=float(rng.uniform(0.0, 1.0)))
        rates = _frozen_rates(model, grid, _steady_stub(grid, M=0.4))
        A = _dense_generator(rates, grid.dx)
        assert np.max(np.abs(A.sum(axis=0))) < 1e-12


def test_generator_shape_mismatch():
    grid = AgeGrid(dx=0.5, n_cells=3)
    other = AgeGrid(dx=0.5, n_cells=4)
    # a profile from another grid is a fault of the caller, not of a
    # config field
    with pytest.raises(ValueError, match="recompute the steady state") \
            as raised:
        spectrum(ConstantRate(k0=1.0), grid, _steady_stub(other))
    assert not isinstance(raised.value, ConfigError)


def test_generator_annihilates_the_profile_to_first_order():
    model = ConstantRate(k0=2.0)
    norms = {}
    for dx in (0.02, 0.01):
        grid = AgeGrid(dx=dx, n_cells=int(round(4.0 / dx)))
        ss = solve_steady_state(model, grid)
        A = _dense_generator(_frozen_rates(model, grid, ss), grid.dx)
        norms[dx] = grid.integrate(np.abs(A @ ss.F))
        assert norms[dx] <= 5.0 * dx
    assert 1.6 <= norms[0.02] / norms[0.01] <= 2.4


def test_spectrum_of_the_constant_rate_generator():
    model = ConstantRate(k0=2.0)
    grid = AgeGrid(dx=0.02, n_cells=200)
    ss = solve_steady_state(model, grid)
    rep = spectrum(model, grid, ss)
    assert abs(rep.zero_eigenvalue) < 1e-10
    assert rep.gap < -model.k0 / 2.0
    # eigenvalues come sorted by descending real part
    re = rep.eigenvalues.real
    assert np.all(np.diff(re) <= 1e-12)
    # the zero mode is the stationary density itself, up to O(dx)
    assert rep.kernel_match <= 10.0 * grid.dx
    assert abs(grid.integrate(rep.kernel_vector) - 1.0) < 1e-10


def test_zero_mode_is_in_the_kernel():
    model = StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.05)
    grid = AgeGrid(dx=0.02, n_cells=300)
    ss = solve_steady_state(model, grid)
    A = _dense_generator(_frozen_rates(model, grid, ss), grid.dx)
    rep = spectrum(model, grid, ss)
    assert grid.integrate(np.abs(A @ rep.kernel_vector)) < 1e-8


# ---------------------------------------------------------------------------
# the root search against dense eigensolves

_MODELS = {
    "constant": ConstantRate(k0=2.0),
    "step": StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3),
    "smooth": SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6),
}


class _Generator(NamedTuple):
    """A model's stationary pair on a grid, the rates frozen at it and
    the runs its stepper states them in (None for the smooth family),
    as spectrum reads them."""
    model: object
    grid: AgeGrid
    steady: SteadyState
    rates: np.ndarray
    runs: object

    def spectrum(self):
        return spectrum(self.model, self.grid, self.steady)

    def dense(self):
        return _dense_generator(self.rates, self.grid.dx)


def _generator(model, dx, x_max):
    grid = AgeGrid(dx=dx, n_cells=int(round(x_max / dx)))
    ss = solve_steady_state(model, grid)
    return _Generator(model, grid, ss, _frozen_rates(model, grid, ss),
                      model.stepper(grid).runs(ss.M))


def _dense_sorted(A):
    w = linalg.eigvals(A)
    return w[np.lexsort((-w.imag, np.abs(w.imag), -w.real))]


def _assert_leading_match(gen, rep):
    dense = _dense_sorted(gen.dense())
    lead = rep.eigenvalues
    assert lead.size in (16, 17)
    # the same set as the dense leading modes, each within 1e-9
    assert max(np.min(np.abs(dense - z)) for z in lead) < 1e-9
    assert max(np.min(np.abs(lead - z)) for z in dense[:lead.size]) < 1e-9
    # conjugate pairs stay whole
    upper = lead[lead.imag > 0.0]
    assert all(np.any(lead == z.conjugate()) for z in upper)
    assert rep.zero_eigenvalue == 0.0
    rest = dense[np.abs(dense) > 1e-8]
    assert rep.gap == pytest.approx(float(np.max(rest.real)), abs=1e-9)


@pytest.mark.parametrize("family", sorted(_MODELS))
@pytest.mark.parametrize("dx, x_max", [(0.02, 10.0), (0.05, 6.0)])
def test_leading_modes_match_dense_eigenvalues(family, dx, x_max):
    gen = _generator(_MODELS[family], dx, x_max)
    _assert_leading_match(gen, gen.spectrum())


@pytest.mark.parametrize("k0", [1.0, 0.1])
@pytest.mark.parametrize("dx", [0.1, 0.25])
def test_long_age_horizons_match_dense_eigenvalues(k0, dx):
    # x_max = 50 is the 5/k0 rule of thumb at k0 = 0.1.  The nonzero
    # modes hug Re = -k0, and left of it v_j grows like
    # e^((-sigma - k0) x), so the count lines must stay close to -k0
    gen = _generator(ConstantRate(k0=k0), dx, 50.0)
    rep = gen.spectrum()
    _assert_leading_match(gen, rep)
    assert -k0 - 0.01 < rep.gap < -k0


def test_a_crowded_count_line_is_moved_right(monkeypatch):
    # at x_max = 50 the floor line holds about 45 modes; with no room to
    # spare the last step is bisected towards the first 16
    gen = _generator(ConstantRate(k0=1.0), 0.1, 50.0)
    crowded, floor = linear_analysis._modes(gen.rates, gen.grid.dx, gen.runs)
    monkeypatch.setattr(linear_analysis, "_SPARE", 1)
    w, sigma = linear_analysis._modes(gen.rates, gen.grid.dx, gen.runs)
    assert floor < sigma and 16 <= w.size < crowded.size
    dense = linalg.eigvals(gen.dense())
    right = dense[dense.real > sigma]
    assert w.size == right.size
    assert max(np.min(np.abs(dense - z)) for z in w) < 1e-9
    _assert_leading_match(gen, gen.spectrum())


def test_only_the_zero_mode_right_of_the_floor_is_an_error():
    # dx = 1.1 and a rate that vanishes in the first cell put a pole of
    # chi at -1/dx, right of the modes near -1, so no count line reaches
    # a nonzero mode
    model = StepRate(sigma_plus=0.9, sigma_minus=0.6)
    gen = _generator(model, 1.1, 44.0)
    assert gen.rates[0] == 0.0
    dense = linalg.eigvals(gen.dense())
    assert np.max(dense[np.abs(dense) > 1e-8].real) < -1.0 / 1.1
    with pytest.raises(SpectrumCountError, match="only the zero mode"):
        gen.spectrum()


def test_zero_mode_matches_the_dense_null_vector():
    gen = _generator(_MODELS["step"], 0.02, 10.0)
    w, V = linalg.eig(gen.dense())
    v = V[:, np.argmin(np.abs(w))].real
    v /= v.sum() * gen.grid.dx
    rep = gen.spectrum()
    assert np.max(np.abs(rep.kernel_vector - v)) < 1e-10
    assert np.max(np.abs(gen.dense() @ rep.kernel_vector)) < 1e-10


# slow rates and long age horizons (up to x_max = 100 at k0 = 0.05)
# among them, where the deepest usable count line nears -k0
_RATES = st.one_of(
    st.builds(ConstantRate, k0=st.floats(0.05, 3.0)),
    st.builds(lambda k0, lam: SmoothSaturatingRate(k0=k0, k1=k0 + 1.5,
                                                   lam=lam),
              st.floats(0.05, 1.0), st.floats(0.0, 1.0)),
    st.builds(lambda lam: StepRate(sigma_plus=0.5, sigma_minus=0.25,
                                   lam=lam),
              st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(model=_RATES, dx=st.floats(0.05, 0.4), n=st.integers(20, 250),
       depth=st.floats(0.01, 1.0))
def test_half_plane_count_matches_the_dense_count(model, dx, n, depth):
    gen = _generator(model, dx, n * dx)
    chi = linear_analysis._Chi(gen.rates, gen.grid.dx, gen.runs)
    sigma = depth * chi.floor()
    dense = linalg.eigvals(gen.dense())
    # a mode on the line leaves the count undefined
    assume(np.min(np.abs(dense.real - sigma)) > 1e-6)
    count, _ = linear_analysis._count_line(chi, sigma)
    assert count == int(np.sum(dense.real > sigma))


@settings(max_examples=40, deadline=None)
@given(model=_RATES, dx=st.floats(0.05, 0.4), n=st.integers(20, 250))
# once failed: a cut across a rectangle ended where s + (hi - s) rounds
# below hi
@example(model=ConstantRate(k0=0.96875), dx=0.11328125, n=72)
def test_located_modes_are_the_dense_modes_right_of_the_line(model, dx, n):
    gen = _generator(model, dx, n * dx)
    w, sigma = linear_analysis._modes(gen.rates, gen.grid.dx, gen.runs)
    dense = linalg.eigvals(gen.dense())
    right = dense[dense.real > sigma]
    assert w.size >= 2 and w.size == right.size
    assert max(np.min(np.abs(dense - z)) / max(1.0, abs(z))
               for z in w) < 1e-9
    assert max(np.min(np.abs(w - z)) / max(1.0, abs(z))
               for z in right) < 1e-9


def _dense_chi(rates, dx, z):
    """chi(z) = 1 - c^T (z - L)^{-1} e0 and chi'(z) = c^T (z - L)^{-2} e0
    by dense solves, each with the scale sum |c_j w_j| of its terms."""
    n = rates.size
    c = rates.astype(complex)
    c[-1] += 1.0 / dx
    shifted = z * np.eye(n) - _lower(rates, dx)
    v = linalg.solve(shifted, np.eye(n)[0].astype(complex))
    w = linalg.solve(shifted, v)
    return (1.0 - c @ v, np.abs(c) @ np.abs(v)), (c @ w, np.abs(c) @ np.abs(w))


@settings(max_examples=40, deadline=None)
@given(model=_RATES, dx=st.floats(0.05, 0.4), n=st.integers(20, 200),
       re=st.floats(0.0, 1.0), im=st.floats(0.0, 1.0),
       on_axis=st.booleans())
def test_chi_matches_a_dense_solve(model, dx, n, re, im, on_axis):
    # z right of the floor, up to Re 2, on the real axis as a float,
    # which chi evaluates in complex arithmetic, or in the box up to
    # Im 20
    gen = _generator(model, dx, n * dx)
    chi = linear_analysis._Chi(gen.rates, gen.grid.dx, gen.runs)
    x = chi.floor() + re * (2.0 - chi.floor())
    z = x if on_axis else complex(x, 20.0 * im)
    f, df, tail = chi.at(z, tail=True)
    (f_dense, f_scale), (df_dense, df_scale) = _dense_chi(
        gen.rates, gen.grid.dx, z)
    assert abs(f - f_dense) <= 1e-10 * (1.0 + f_scale)
    assert abs(df - df_dense) <= 1e-10 * df_scale
    assert tail >= abs(f - 1.0) * (1.0 - 1e-12)
    # one arithmetic per evaluation: bit for bit, and at(z) without the
    # tail bound computes the same chi and chi'
    assert chi.at(z)[:2] == (f, df)
    assert chi.at(z)[2] is None
    # on the axis every term has imaginary part 0, exactly
    if on_axis:
        assert f.imag == 0.0 and df.imag == 0.0


class _CountingChi(linear_analysis._Chi):
    evaluations = 0

    def at(self, z, tail=False):
        self.evaluations += 1
        return super().at(z, tail)


@pytest.mark.parametrize("vertical, fixed, lo, hi", [
    (False, 0.3, -1.0, 2.0), (True, -0.4, 0.0, 12.0), (True, -0.4, 0.0, None)])
def test_phase_reuses_the_walked_samples(vertical, fixed, lo, hi):
    gen = _generator(_MODELS["smooth"], 0.05, 6.0)
    chi = _CountingChi(gen.rates, gen.grid.dx, gen.runs)
    path = linear_analysis._Path(chi, fixed, lo, hi, vertical=vertical)
    assert path.s.size >= 3
    chi.evaluations = 0
    assert [path.phase(s) for s in path.s] == path.args
    assert path.phase(lo) == path.args[0]
    assert path.phase(path.hi) == path.args[-1]
    assert chi.evaluations == 0
    # between samples: one evaluation, the principal arg up to 2 pi
    for a, b in zip(path.s[:-1], path.s[1:]):
        s = 0.5 * (a + b)
        fresh = cmath.phase(linear_analysis._Chi(
            gen.rates, gen.grid.dx, gen.runs).at(path.point(s))[0])
        turns = (path.phase(s) - fresh) / (2.0 * math.pi)
        assert abs(turns - round(turns)) < 1e-12
    assert chi.evaluations == path.s.size - 1


def test_a_dropped_root_is_an_error(monkeypatch):
    gen = _generator(_MODELS["step"], 0.02, 10.0)
    found = linear_analysis._complex_roots

    def drop_one(*args):
        return found(*args)[:-1]

    monkeypatch.setattr(linear_analysis, "_complex_roots", drop_one)
    with pytest.raises(SpectrumCountError, match="argument principle"):
        gen.spectrum()


@settings(max_examples=40, deadline=None)
@given(model=_RATES, dx=st.floats(0.05, 0.4), n=st.integers(20, 250))
def test_every_mode_but_zero_lies_left_of_the_imaginary_axis(model, dx, n):
    # the columns of A sum to 0 and its off-diagonal entries are >= 0,
    # so each column's Gershgorin disc, centred at a_jj < 0 with radius
    # |a_jj|, meets the closed right half-plane only at 0: no strip
    # right of a count line that holds the zero mode alone needs a search
    A = _generator(model, dx, n * dx).dense()
    assert np.all(A - np.diag(np.diag(A)) >= 0.0)
    assert np.allclose(A.sum(axis=0), 0.0, atol=1e-12 / dx)
    w = linalg.eigvals(A)
    w = np.delete(w, np.argmin(np.abs(w)))
    assert np.all(w.real < 0.0)


def _searched(monkeypatch):
    """The count lines that spectrum() hands _complex_roots, the
    rectangles whose winding it reads and the points of chi it
    computes, each as a list filled in as spectrum() runs."""
    lines, boxes, points = [], [], []
    rectangle = linear_analysis._Box
    complex_roots, winding = linear_analysis._complex_roots, rectangle.winding

    def kept_lines(chi, walked):
        lines.extend(walked)
        return complex_roots(chi, walked)

    def wound(box):
        boxes.append(box)
        return winding(box)

    monkeypatch.setattr(linear_analysis, "_complex_roots", kept_lines)
    monkeypatch.setattr(rectangle, "winding", wound)
    chi = linear_analysis._Chi
    for name in ("_terms", "_closed"):
        def computed(self, z, *args, _method=getattr(chi, name), **kwargs):
            points.append(complex(z))
            return _method(self, z, *args, **kwargs)
        monkeypatch.setattr(chi, name, computed)
    return lines, boxes, points


def test_a_count_line_on_a_root_is_moved_and_bounds_its_strip(monkeypatch):
    # a root on the second line walked (Re = -1) moves it right by 1.3%;
    # the moved line, not -1, is the right side of the strip whose
    # counts differ (23 roots right of -1.5, 1 right of it)
    gen = _generator(_MODELS["step"], 0.02, 10.0)
    count_line, tried = linear_analysis._count_line, []

    def on_a_root(chi, sigma):
        tried.append(sigma)
        if len(tried) == 2:
            raise linear_analysis._OnPath
        return count_line(chi, sigma)

    monkeypatch.setattr(linear_analysis, "_count_line", on_a_root)
    lines, boxes, _ = _searched(monkeypatch)
    rep = gen.spectrum()
    moved = -1.0 * (1.0 - 0.013)
    assert tried[1:3] == [-1.0, moved]
    assert [sigma for sigma, _, _ in lines] == [-1.5, moved, -0.5]
    assert (boxes[0].x0, boxes[0].x1) == (-1.5, moved)
    _assert_leading_match(gen, rep)


def test_strips_of_equal_count_are_not_searched(monkeypatch):
    # the constant model's lines at -2, -1.5, -1 and -0.5 each hold the
    # zero mode alone: only the strip left of -2 is searched, and no
    # point of chi is computed strictly between those lines
    gen = _generator(_MODELS["constant"], 0.02, 10.0)
    lines, boxes, points = _searched(monkeypatch)
    _assert_leading_match(gen, gen.spectrum())
    assert [(sigma, count) for sigma, count, _ in lines] == [
        (-2.5, 23), (-2.0, 1), (-1.5, 1), (-1.0, 1), (-0.5, 1)]
    assert (boxes[0].x0, boxes[0].x1) == (-2.5, -2.0)
    assert all(box.x1 <= -2.0 for box in boxes)
    assert all(z.real <= -2.0 or z.real in (-1.5, -1.0, -0.5)
               for z in points)


def test_a_strip_whose_count_disagrees_with_its_winding_is_an_error(
        monkeypatch):
    # two roots too many booked right of the deepest line
    gen = _generator(_MODELS["step"], 0.02, 10.0)
    count_line = linear_analysis._count_line

    def miscounted(chi, sigma):
        count, line = count_line(chi, sigma)
        return count + 2 * (sigma == -1.5), line

    monkeypatch.setattr(linear_analysis, "_count_line", miscounted)
    with pytest.raises(SpectrumCountError, match="winds 11 times around"):
        gen.spectrum()


def test_a_root_on_every_shifted_count_line_is_an_error(monkeypatch):
    # the first line, Re = -0.5, and both lines right of it are tried
    gen = _generator(_MODELS["step"], 0.02, 10.0)
    tried = []

    def on_a_root(chi, sigma):
        tried.append(sigma)
        raise linear_analysis._OnPath

    monkeypatch.setattr(linear_analysis, "_count_line", on_a_root)
    with pytest.raises(SpectrumCountError,
                       match="every count line tried near Re = -0.5"):
        gen.spectrum()
    assert tried == [-0.5, -0.5 * (1.0 - 0.013), -0.5 * (1.0 - 0.031)]


def test_newton_gives_up_where_the_slope_of_chi_vanishes():
    # one evaluation, at the box's middle, and no step from it
    asked = []

    class _Flat:
        def at(self, z):
            asked.append(z)
            return 1.0, 0.0, None

    box = linear_analysis._Box(-1.0, 0.0, 1.0, 3.0, bottom=None,
                               right=None, top=None, left=None)
    assert linear_analysis._newton(_Flat(), box) is None
    assert asked == [complex(-0.5, 2.0)]


def test_leading_modes_keep_conjugate_pairs_whole():
    # sorted as _modes sorts them: by descending real part, the upper
    # member of a pair first
    w = np.array([0.0, -1.0 + 2.0j, -1.0 - 2.0j, -1.5, -2.0 + 1.0j,
                  -2.0 - 1.0j])
    assert linear_analysis._leading(w, 3).tolist() == w[:3].tolist()
    assert linear_analysis._leading(w, 4).tolist() == w[:4].tolist()
    # a count that would split a pair takes its lower member too
    assert linear_analysis._leading(w, 2).tolist() == w[:3].tolist()
    assert linear_analysis._leading(w, 5).tolist() == w.tolist()
    # fewer modes than the count: all of them
    assert linear_analysis._leading(w, 16).tolist() == w.tolist()
    # spectrum reports the 16 leading modes of a real generator
    gen = _generator(_MODELS["constant"], 0.05, 4.0)
    assert gen.spectrum().eigenvalues.size == 17


# ---------------------------------------------------------------------------
# chi in closed form per run of equal rates

@pytest.mark.parametrize("model, runs", [
    (ConstantRate(k0=1.0), 1),
    (ConstantRate(k0=0.37, lam=0.8), 1),
    (StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3), 2),
    (StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.0), 2),
    (StepRate(sigma=lambda u: 0.2 + 0.5 / (1.0 + u), sigma_modulus=0.5,
              lam=0.7), 2),
])
def test_constant_and_step_generators_take_the_run_form(model, runs):
    # the family states its frozen rates as runs, and they are the
    # rate vector run by run, bit for bit
    gen = _generator(model, 0.01, 10.0)
    stated = gen.runs
    assert len(stated) == runs
    assert np.array_equal(_repeat(stated), gen.rates)
    chi = linear_analysis._Chi(gen.rates, gen.grid.dx, stated)
    assert len(chi._runs) == runs


def test_smooth_generators_take_the_per_cell_form():
    gen = _generator(_MODELS["smooth"], 0.01, 10.0)
    assert gen.runs is None


@st.composite
def _drawn_runs(draw):
    """Piecewise-constant rates as (rate, cells) runs: 1-5 runs of 1-40
    cells, zero-rate and single-cell runs among them, sometimes a last
    cell of rate 0."""
    count = draw(st.integers(1, 5))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
                           min_size=count, max_size=count))
    lengths = draw(st.lists(st.one_of(st.just(1), st.integers(1, 40)),
                            min_size=count, max_size=count))
    if draw(st.booleans()):
        values, lengths = values + [0.0], lengths + [1]
    assume(any(values))
    return tuple(zip(values, lengths))


def _repeat(runs):
    return np.repeat([k for k, _ in runs], [L for _, L in runs])


@settings(max_examples=150, deadline=None)
@given(drawn=_drawn_runs(), dx=st.floats(0.02, 0.4), data=st.data())
@example(drawn=((0.0, 25), (1.0, 75)), dx=0.04, data=None)
def test_run_form_matches_a_dense_solve(drawn, dx, data):
    # z right of the floor, up to Re 2.  At the floor itself, a short
    # run can put 1 + dx (k + z) within e^-20 of 0, where neither chi
    # nor the dense oracle resolves it, so z stays 1e-3 of the way off
    rates = _repeat(drawn)
    chi = linear_analysis._Chi(rates, dx, drawn)
    assert chi._runs is not None
    floor = chi.floor()
    near_floor = floor + 1e-3 * (2.0 - floor)
    # In a run of L cells at rate k, z = -k exactly puts w = 0, and
    # z = -k + d/dx puts |w| = d: down to 1e-12, and around 0.05/L,
    # where the run's sums switch from their series to the closed form
    runs = [(k, L) for k, L in zip(chi._kappa.tolist(),
                                   chi._length.tolist()) if -k > near_floor]
    if data is None:
        points = [-1.0, complex(-1.0, 1e-12 / dx), -1.0 + 1e-9 / dx,
                  -1.0 + 0.0499 / (75 * dx), complex(-1.0, 0.0501 / (75 * dx)),
                  complex(near_floor, 7.0), 1.5]
    else:
        kind = data.draw(st.sampled_from(["free", "removable", "near",
                                          "switch"]))
        on_axis = data.draw(st.booleans())
        if kind == "free" or not runs:
            x = floor + data.draw(st.floats(1e-3, 1.0)) * (2.0 - floor)
            y = 0.0 if on_axis else data.draw(st.floats(1e-6, 20.0))
        else:
            k, L = data.draw(st.sampled_from(runs))
            d = {"removable": lambda: 0.0,
                 "near": lambda: 10.0 ** data.draw(st.floats(-12.0, -2.0)),
                 "switch": lambda: data.draw(st.floats(0.9, 1.1)) * 0.05 / L,
                 }[kind]()
            x, y = (d / dx - k, 0.0) if on_axis else (-k, d / dx)
        points = [x if on_axis else complex(x, y)]
    for z in points:
        f, df, tail = chi.at(z, tail=True)
        (f_dense, f_scale), (df_dense, df_scale) = _dense_chi(rates, dx, z)
        assert abs(f - f_dense) <= 1e-10 * (1.0 + f_scale)
        assert abs(df - df_dense) <= 1e-10 * df_scale
        # the tail bound is sum_j |c_j v_j|, the scale of chi's terms
        assert abs(tail - f_scale) <= 1e-10 * f_scale
        assert chi.at(z) == (f, df, None)
        # a float z on the axis: every term has imaginary part 0, exactly
        if not isinstance(z, complex):
            assert f.imag == 0.0 and df.imag == 0.0


# ---------------------------------------------------------------------------
# chi along the real axis, where spectrum() takes 0 as the only real root

def _model_rates(model, dx, n):
    gen = _generator(model, dx, n * dx)
    return gen.rates, gen.grid.dx, gen.runs


def _drawn_rates(drawn, dx):
    return _repeat(drawn), dx, drawn


@settings(max_examples=60, deadline=None)
@given(rates_dx=st.one_of(
           st.builds(_model_rates, _RATES, st.floats(0.05, 0.4),
                     st.integers(20, 200)),
           st.builds(_drawn_rates, _drawn_runs(), st.floats(0.02, 0.4))),
       shares=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=4))
def test_chi_rises_along_the_real_axis(rates_dx, shares):
    # right of the poles each v_j > 0 falls as z grows and each c_j >= 0,
    # so chi < 0 < chi' on [floor, 0): no real root but chi(0) = 0
    rates, dx, runs = rates_dx
    assume(rates.size <= 200)
    chi = linear_analysis._Chi(rates, dx, runs)
    floor = chi.floor()
    f, df, _ = chi.at(floor)
    assert f.real < 0.0 < df.real
    # the dense oracle stays 1e-3 of the way off the floor, as in
    # test_run_form_matches_a_dense_solve
    for x in [share * floor for share in shares]:
        f, df, _ = chi.at(x)
        assert f.real < 0.0 < df.real
        (f_dense, f_scale), (df_dense, df_scale) = _dense_chi(rates, dx, x)
        assert abs(f - f_dense) <= 1e-10 * (1.0 + f_scale)
        assert abs(df - df_dense) <= 1e-10 * df_scale
    # the independent oracle: the dense generator's real eigenvalues
    w = linalg.eigvals(_dense_generator(rates, dx))
    real = w[w.imag == 0.0].real
    assert not np.any((real > chi.pole) & (real < -1e-8))


# ---------------------------------------------------------------------------
# one search computes each point once, and the tail sum only where it
# decides

@settings(max_examples=60, deadline=None)
@given(rates_dx=st.one_of(
           st.builds(_model_rates, _RATES, st.floats(0.05, 0.4),
                     st.integers(20, 200)),
           st.builds(_drawn_rates, _drawn_runs(), st.floats(0.02, 0.4))),
       per_cell=st.booleans(), data=st.data())
def test_a_kept_result_is_what_a_fresh_chi_computes(rates_dx, per_cell,
                                                     data):
    # a real z, the same z with both signs of a zero imaginary part, and
    # one off the axis, each asked for again and for more or less; repr
    # tells the signs of zero apart
    rates, dx, runs = rates_dx
    runs = None if per_cell else runs
    chi = linear_analysis._Chi(rates, dx, runs)
    floor = chi.floor()
    points = []
    for _ in range(data.draw(st.integers(1, 3))):
        x = floor + data.draw(st.floats(1e-3, 1.0)) * (2.0 - floor)
        y = data.draw(st.floats(1e-6, 20.0))
        points += [x, complex(x, 0.0), complex(x, -0.0), complex(x, y)]
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(points), st.booleans()),
        min_size=1, max_size=30))
    for z, tail in calls:
        fresh = linear_analysis._Chi(rates, dx, runs)
        assert repr(chi.at(z, tail)) == repr(fresh.at(z, tail))


def _today_tail(rates, dx, z):
    """chi and sum_j |c_j v_j| summed cell by cell, as the per-cell form
    summed the tail bound at every z before it took |1 - chi| instead."""
    cdx = np.array(rates, dtype=float)
    cdx[-1] += 1.0 / dx
    cdx *= dx
    # complex, as the per-cell form's buffers are, at a real z too
    r = ((1.0 + dx * rates) + dx * z).astype(complex)
    cv = cdx * np.cumprod(1.0 / r)
    return complex(1.0 - cv.sum()), float(np.abs(cv).sum())


@settings(max_examples=40, deadline=None)
@given(model=_RATES, dx=st.floats(0.05, 0.4), n=st.integers(20, 200),
       re=st.floats(0.0, 1.0), im=st.floats(0.0, 1.0))
def test_the_tail_sum_is_taken_wherever_it_decides(model, dx, n, re, im):
    # per cell, at a drawn z and at the two ends of a real bracket of
    # 1 - chi = 1/2 narrowed to adjacent floats, where the sum is nearest
    # _TAIL: `tail >= _TAIL` decides as the sum does, and a tail that is
    # not the sum is |1 - chi|, past _TAIL by more than both roundings
    gen = _generator(model, dx, n * dx)
    rates = gen.rates
    chi = linear_analysis._Chi(rates, dx)
    floor = chi.floor()
    x_hi = 1.0
    while 1.0 - chi.at(x_hi)[0].real >= 0.5:
        x_hi *= 2.0
    ends = _roots.bisect(lambda x: 0.5 - (1.0 - chi.at(x)[0].real),
                         0.0, x_hi, -0.5)
    assert all(abs(1.0 - chi.at(x)[0] - 0.5) <= 1e-12 for x in ends)
    tail_ = linear_analysis._TAIL
    margin = tail_ * (1.0 + 4.0 * (n + 2) * 2.0 ** -52)
    for z in [*ends, complex(floor + re * (2.0 - floor), 20.0 * im)]:
        f, _, tail = linear_analysis._Chi(rates, dx).at(z, tail=True)
        f_today, total = _today_tail(rates, dx, z)
        assert f == f_today
        assert (tail >= tail_) == (total >= tail_)
        if tail != total:
            assert tail == abs(1.0 - f) >= margin
        (_, dense), _ = _dense_chi(rates, dx, z)
        if abs(dense - tail_) > 1e-10 * dense:
            assert (tail >= tail_) == (dense >= tail_)


@pytest.mark.parametrize("family", ["step", "smooth"])
def test_a_spectrum_computes_each_point_once(family, monkeypatch):
    # at 1000 cells: every point asked for is computed once, and some
    # are asked for again
    gen = _generator(_MODELS[family], 0.01, 10.0)
    asked, computed = [], []
    chi = linear_analysis._Chi
    for name, into in [("at", asked), ("_terms", computed),
                       ("_closed", computed)]:
        def counted(self, z, *args, _method=getattr(chi, name), _into=into,
                    **kwargs):
            _into.append(z)
            return _method(self, z, *args, **kwargs)
        monkeypatch.setattr(chi, name, counted)
    gen.spectrum()
    assert len(computed) == len(set(computed)) == len(set(asked))
    assert len(asked) > len(computed)


# the 1000-cell cases of `tools/layer_cost.py spectrum`, with the
# evaluations that spectrum() computed on each when its walks proposed
# steps at 0.3 |chi|/|chi'| (constant, step, smooth)
_LAYER_CASES = {
    "constant": (ConstantRate(k0=1.0), 1293),
    "step": (StepRate(sigma_plus=0.5, sigma_minus=0.25, lam=0.3), 1327),
    "smooth": (SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6), 789),
}


def _walked_spectrum(model, monkeypatch):
    """spectrum() at dx 0.01 and 1000 cells, and what its walks did: the
    steps they proposed (calls of chi.at after each walk's first), the
    turns of arg chi over the steps they kept, and the evaluations of
    chi that the search computed."""
    gen = _generator(model, 0.01, 10.0)
    chi, path = linear_analysis._Chi, linear_analysis._Path
    at, walk = chi.at, path.__init__
    calls, proposed, computed, turns = [0], [0], [0], []

    def counted_at(self, z, tail=False):
        calls[0] += 1
        return at(self, z, tail)

    def walked(self, *args, **kwargs):
        # a walk that stops on a root proposed steps too, and kept none
        before = calls[0]
        try:
            walk(self, *args, **kwargs)
        finally:
            proposed[0] += max(calls[0] - before - 1, 0)
        if self.s is not None:
            turns.extend(np.diff(self.args))

    for name in ("_terms", "_closed"):
        def evaluation(self, *args, _method=getattr(chi, name), **kwargs):
            computed[0] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(chi, name, evaluation)
    monkeypatch.setattr(chi, "at", counted_at)
    monkeypatch.setattr(path, "__init__", walked)
    gen.spectrum()
    return proposed[0], np.abs(turns), computed[0]


@pytest.mark.parametrize("case", list(_LAYER_CASES))
def test_walk_steps_are_kept_and_turn_at_most_pi_over_6(case, monkeypatch):
    # a step proposed at 90% of the change its test allows is almost
    # always kept, and the test |q - 1| <= 1/2 bounds its turn by
    # arcsin(1/2)
    proposed, turns, _ = _walked_spectrum(_LAYER_CASES[case][0], monkeypatch)
    assert turns.size > 100
    assert proposed - turns.size <= 0.01 * proposed
    assert turns.max() <= math.pi / 6 + 1e-12


@pytest.mark.parametrize("case", list(_LAYER_CASES))
def test_a_spectrum_computes_a_fifth_fewer_evaluations(case, monkeypatch):
    # these counts repeat exactly: walks that propose past what their
    # test allows have steps halved, and walks that propose far short of
    # it take more samples than they need, both of which show here
    model, before = _LAYER_CASES[case]
    *_, computed = _walked_spectrum(model, monkeypatch)
    assert computed <= 0.8 * before


def test_a_mode_on_a_print_boundary_matches_a_30_digit_root():
    # the real part of the smooth model's leading pair at dx 0.01 and
    # x_max 10 lies 6.4e-15 left of -0.8702112951685, where the CLI's
    # 12-digit print rounds the other way, so moving the walk's samples
    # can flip a printed digit; the oracle is chi per cell on the same
    # double rates, in mpmath
    mpmath = pytest.importorskip("mpmath")
    gen = _generator(SmoothSaturatingRate(0.5, 2.0, lam=0.6), 0.01, 10.0)
    mode, = [z for z in gen.spectrum().eigenvalues
             if abs(z - complex(-0.8702, 1.9279)) < 1e-3]
    with mpmath.workdps(30):
        dx = mpmath.mpf(gen.grid.dx)
        rates = [mpmath.mpf(k) for k in gen.rates.tolist()]
        c = rates[:-1] + [rates[-1] + 1 / dx]

        def chi(lam):
            v, total = dx, 0
            for k, c_j in zip(rates, c):
                v /= 1 + dx * (lam + k)
                total += c_j * v
            return 1 - total

        root = complex(mpmath.findroot(chi, mpmath.mpc(mode.real,
                                                       mode.imag)))
    assert abs(root - complex(-0.87021129516850638,
                              1.92793934440402702)) < 1e-15
    assert abs(mode - root) < 1e-13
