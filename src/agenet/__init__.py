"""Age-structured neuron network dynamics: steady states, time
integration on exact characteristics, and linear stability analysis."""

from .errors import (AmbiguousActivityError, BracketError, ConfigError,
                     DegenerateInputError, InvariantViolationError,
                     ModelInconsistencyError, SpectrumCountError)
from .firing_rate import (ConstantRate, RegimeEstimate, SmoothSaturatingRate,
                          StepRate, estimate_xi, half_rate_age,
                          moment_tail_constant, weight_threshold_age)
from .grid import AgeGrid, DensityState, preset_density
from .steady_state import SteadyState, regime_scan, solve_steady_state
from .delay_kernel import DelayKernel, DischargeHistory
from .evolution import (ActivitySolution, DecayFit, SimulationConfig,
                        SimulationTrace, SolverCounts, decay_fit, kappa0,
                        run, solve_activity_implicit, step,
                        stepper_equilibrium)
from .linear_analysis import (DelaySpectrumReport, DelaySystem,
                              GeneratorMatrix, SpectrumReport,
                              activity_readout, build_delay_system,
                              build_generator, delay_spectrum, spectrum)

__version__ = "0.1.0"

__all__ = [
    "AgeGrid", "DensityState", "preset_density",
    "ConstantRate", "SmoothSaturatingRate", "StepRate", "RegimeEstimate",
    "estimate_xi", "half_rate_age", "weight_threshold_age",
    "moment_tail_constant",
    "SteadyState", "solve_steady_state", "regime_scan",
    "DelayKernel", "DischargeHistory",
    "SimulationConfig", "SimulationTrace", "ActivitySolution", "SolverCounts",
    "DecayFit", "solve_activity_implicit", "kappa0", "step", "run",
    "decay_fit", "stepper_equilibrium",
    "GeneratorMatrix", "SpectrumReport", "DelaySystem",
    "DelaySpectrumReport", "build_generator", "spectrum",
    "build_delay_system", "delay_spectrum", "activity_readout",
    "ConfigError", "BracketError", "AmbiguousActivityError",
    "ModelInconsistencyError", "InvariantViolationError",
    "DegenerateInputError", "SpectrumCountError",
]
