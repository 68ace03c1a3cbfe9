"""Sequential Monte Carlo (bootstrap SIR) particle filtering with pluggable
state-space models and seeded, reproducible tracking simulations."""

from .core import (
    AllWeightsCollapsed,
    ParticleSet,
    RngStream,
    map_estimate,
    normalize_weights,
    weighted_mean,
)
from .filter import FilterState, GaussianPrior, InvalidPrior, StepOutcome
from .models import ConstantVelocity2D, DimensionMismatch, NonFiniteMeasurement, RandomWalk1D
from .resampling import (
    NotNormalized,
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    systematic_resample,
)
from .sim import Scenario, Trace, rmse, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AllWeightsCollapsed",
    "ConstantVelocity2D",
    "DimensionMismatch",
    "FilterState",
    "GaussianPrior",
    "InvalidPrior",
    "NonFiniteMeasurement",
    "NotNormalized",
    "ParticleSet",
    "RandomWalk1D",
    "ResamplePolicy",
    "RngStream",
    "Scenario",
    "StepOutcome",
    "Trace",
    "effective_sample_size",
    "map_estimate",
    "multinomial_resample",
    "normalize_weights",
    "rmse",
    "run_scenario",
    "systematic_resample",
    "weighted_mean",
]
