"""Mesh, quadrature, and initial-datum projection."""

import numpy as np
import pytest

from agenet import AgeGrid, ConfigError, DegenerateInputError, preset_density


def test_grid_geometry():
    grid = AgeGrid(dx=0.5, n_cells=4)
    assert grid.x_max == 2.0
    assert np.array_equal(grid.midpoints, [0.25, 0.75, 1.25, 1.75])
    assert np.array_equal(grid.edges, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AgeGrid(dx=-0.1, n_cells=10)
    with pytest.raises(ValueError):
        AgeGrid(dx=0.0, n_cells=10)
    with pytest.raises(ValueError):
        AgeGrid(dx=0.1, n_cells=1)


@pytest.mark.parametrize("n_cells", [4.5, 4.0, True, "4"])
def test_grid_refuses_a_cell_count_that_is_not_an_integer(n_cells):
    # 4.5 cells once built a grid of 5 midpoints with x_max = 2.25, on
    # which preset_density failed: "initial datum does not match the grid"
    with pytest.raises(ConfigError) as exc_info:
        AgeGrid(dx=0.5, n_cells=n_cells)
    assert exc_info.value.errors == [
        f"n_cells: expected an integer, got {n_cells!r}"]
    assert AgeGrid(dx=0.5, n_cells=np.int64(4)).x_max == 2.0


def test_grid_lists_every_bad_field():
    with pytest.raises(ConfigError) as exc_info:
        AgeGrid(dx=-0.5, n_cells=4.5)
    assert exc_info.value.errors == ["dx: must be positive, got -0.5",
                                     "n_cells: expected an integer, got 4.5"]
    # the two-cell rule quotes the width, so it waits for a good dx
    with pytest.raises(ConfigError) as exc_info:
        AgeGrid(dx=0.5, n_cells=1)
    assert exc_info.value.errors == [
        "n_cells: must cover at least two cells of width dx = 0.5"]


def test_integrate_is_midpoint_rule():
    grid = AgeGrid(dx=0.5, n_cells=4)
    assert grid.integrate(np.ones(4)) == 2.0
    # linear functions of the midpoints integrate exactly
    assert grid.integrate(grid.midpoints) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        grid.integrate(np.ones(5))


def test_l1_distance_and_weighted_norm():
    grid = AgeGrid(dx=0.5, n_cells=4)
    u = np.array([1.0, 1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 1.0, 0.0])
    assert grid.l1_distance(u, v) == 1.0
    # weight 1 + x at the midpoints: (1.25 + 1.75) * 0.5
    assert grid.l1q_norm(u, q=1.0) == 1.5
    assert grid.l1q_norm(u, q=0.0) == pytest.approx(2.0 * grid.integrate(u))
    with pytest.raises(ValueError, match="expected 4 cell values"):
        grid.l1q_norm(np.ones(3))


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, 2.7])
def test_weighted_norm_matches_its_formula_on_repeat_calls(q):
    # the weight 1 + x^q is cached per grid and q; the norm must stay
    # the formula's bit for bit
    grid = AgeGrid(dx=1e-3, n_cells=10_000)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = rng.normal(size=grid.n_cells)
        expected = float(np.sum((1.0 + grid.midpoints ** q) * np.abs(u))
                         * grid.dx)
        assert grid.l1q_norm(u, q=q) == expected


def test_project_normalizes_callable_and_array():
    grid = AgeGrid(dx=0.01, n_cells=400)
    state = grid.project(lambda x: np.exp(-x))
    assert abs(state.mass - 1.0) < 1e-12
    assert state.t == 0.0 and state.m == 0.0 and state.p == 0.0
    # array input: same values, same normalization
    raw = np.exp(-grid.midpoints)
    state2 = grid.project(raw * 7.3)
    assert np.allclose(state.values, state2.values, rtol=0, atol=1e-14)


def test_project_rejects_degenerate_data():
    grid = AgeGrid(dx=0.1, n_cells=20)
    with pytest.raises(DegenerateInputError):
        grid.project(np.full(20, np.nan))
    with pytest.raises(DegenerateInputError):
        grid.project(-np.ones(20))
    with pytest.raises(DegenerateInputError):
        grid.project(np.zeros(20))
    with pytest.raises(ValueError):
        grid.project(np.ones(19))


def test_project_warns_on_heavy_tail():
    grid = AgeGrid(dx=0.1, n_cells=20)
    with pytest.warns(UserWarning, match="last tenth"):
        grid.project(np.ones(20))


def test_preset_densities_have_unit_mass():
    grid = AgeGrid(dx=0.01, n_cells=400)
    for name in ("uniform01", "exp2", "spike"):
        state = preset_density(grid, name)
        assert abs(state.mass - 1.0) < 1e-12, name
    spike = preset_density(grid, "spike")
    assert spike.values[0] == pytest.approx(1.0 / grid.dx)
    assert np.all(spike.values[1:] == 0.0)
    uni = preset_density(grid, "uniform01")
    assert uni.values[grid.midpoints > 1.0].sum() == 0.0
    with pytest.raises(ValueError):
        preset_density(grid, "gaussian")
