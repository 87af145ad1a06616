"""Uniform truncated age mesh, quadrature, and projection of initial data.

The mesh is the discrete home of integrable densities on the half
line: cell i covers [i*dx, (i+1)*dx) and carries the cell average of
f.  The time step downstream is locked to dx so that transport is an
exact index shift.
"""

from __future__ import annotations

import dataclasses
import warnings
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateInputError

__all__ = ["AgeGrid", "DensityState", "preset_density"]


@dataclasses.dataclass(frozen=True)
class AgeGrid:
    """Uniform mesh on [0, x_max] with x_max = n_cells * dx.

    Pick x_max large enough that the steady profile is negligible at
    the horizon (x_max >= 5/k0 is a good rule of thumb); the horizon
    is absorbing and outflow there is folded into the discharge.
    """

    dx: float
    n_cells: int

    def __post_init__(self):
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.n_cells < 2:
            raise ValueError("need at least two cells")

    @property
    def x_max(self):
        return self.n_cells * self.dx

    @cached_property
    def midpoints(self):
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @cached_property
    def edges(self):
        return np.arange(self.n_cells + 1) * self.dx

    def integrate(self, values):
        """Midpoint-rule integral, exact for cell averages."""
        values = np.asarray(values)
        if values.shape != (self.n_cells,):
            raise ValueError(
                f"expected {self.n_cells} cell values, got shape {values.shape}")
        return float(values.sum() * self.dx)

    def l1_distance(self, u, v):
        return self.integrate(np.abs(np.asarray(u) - np.asarray(v)))

    def l1q_norm(self, values, q=1.0):
        """Moment norm integral of (1 + x^q)|f|; diagnostic only."""
        values = np.asarray(values)
        if values.shape != (self.n_cells,):
            raise ValueError("length mismatch")
        weight = _moment_weight(self, q)
        return float(np.sum(weight * np.abs(values)) * self.dx)

    def project(self, f0):
        """Cell averages of an initial datum, renormalized to unit mass.

        f0 is either a callable sampled at cell midpoints or an array
        of cell values.  The truncated tail is reported through a
        warning when the last tenth of the grid carries more than 1%
        of the mass.
        """
        if callable(f0):
            values = np.asarray(f0(self.midpoints), dtype=float)
        else:
            values = np.asarray(f0, dtype=float)
        if values.shape != (self.n_cells,):
            raise ValueError("initial datum does not match the grid")
        if not np.all(np.isfinite(values)):
            raise DegenerateInputError("initial datum has non-finite values")
        if np.any(values < 0.0):
            raise DegenerateInputError("initial datum must be nonnegative")
        mass = self.integrate(values)
        if mass <= 0.0:
            raise DegenerateInputError(
                "initial datum has zero mass on [0, x_max]")
        values = values / mass
        tail_cells = self.midpoints >= 0.9 * self.x_max
        tail = float(values[tail_cells].sum() * self.dx)
        if tail > 0.01:
            warnings.warn(
                f"initial datum carries {tail:.3g} of its mass in the last "
                "tenth of the grid; consider a larger x_max", stacklevel=2)
        return DensityState(values=values, mass=self.integrate(values),
                            m=0.0, p=0.0, t=0.0)


@lru_cache(maxsize=16)
def _moment_weight(grid, q):
    # 1 + x^q on the midpoints, read-only; a run records with one q
    weight = 1.0 + grid.midpoints ** q
    weight.flags.writeable = False
    return weight


@dataclasses.dataclass(frozen=True)
class DensityState:
    """Density snapshot: cell averages plus the scalar observables.

    Value object.  step() returns a state with its own array, and run()
    steps inside private buffers and hands out a copy as its final
    state, so no later step writes into a state's values.
    """

    values: np.ndarray
    mass: float
    m: float
    p: float
    t: float


def preset_density(grid, name):
    """Named initial data: "uniform01", "exp2", or "spike"."""
    if name == "uniform01":
        return grid.project(lambda x: (x < 1.0).astype(float))
    if name == "exp2":
        return grid.project(lambda x: 2.0 * np.exp(-2.0 * x))
    if name == "spike":
        values = np.zeros(grid.n_cells)
        values[0] = 1.0 / grid.dx
        return grid.project(values)
    raise ValueError(f"unknown initial-datum preset {name!r}")
