"""Age-structured neuron network dynamics: steady states, time
integration on exact characteristics, and linear stability analysis."""

from .errors import (AmbiguousActivityError, BracketError, ConfigError,
                     DegenerateInputError, InvariantViolationError,
                     ModelInconsistencyError, SpectrumCountError)
from .firing_rate import (ConstantRate, RegimeEstimate, SmoothSaturatingRate,
                          StepRate, estimate_xi, half_rate_age)
from .grid import AgeGrid, DensityState, cell_sum, preset_density
from .steady_state import (SteadyState, regime_scan, solve_steady_state,
                           steady_state_at)
from .delay_kernel import DelayKernel, DischargeHistory
from .evolution import (ActivitySolution, DecayFit, SimulationConfig,
                        SimulationTrace, SolverCounts, decay_fit, kappa0,
                        run, solve_activity_implicit, step,
                        stepper_equilibrium)
from .linear_analysis import SpectrumReport, spectrum

__version__ = "0.1.0"

__all__ = [
    "AgeGrid", "DensityState", "cell_sum", "preset_density",
    "ConstantRate", "SmoothSaturatingRate", "StepRate", "RegimeEstimate",
    "estimate_xi", "half_rate_age",
    "SteadyState", "solve_steady_state", "steady_state_at", "regime_scan",
    "DelayKernel", "DischargeHistory",
    "SimulationConfig", "SimulationTrace", "ActivitySolution", "SolverCounts",
    "DecayFit", "solve_activity_implicit", "kappa0", "step", "run",
    "decay_fit", "stepper_equilibrium",
    "SpectrumReport", "spectrum",
    "ConfigError", "BracketError", "AmbiguousActivityError",
    "ModelInconsistencyError", "InvariantViolationError",
    "DegenerateInputError", "SpectrumCountError",
]
