"""Bootstrap SIR recursion: initialize from a Gaussian prior, then per step
predict with the motion model, reweight by measurement likelihood, normalize,
resample adaptively, and estimate.

New particles are proposed directly from the motion model, so each weight
update multiplies the previous weight by the measurement likelihood alone.
A FilterState is owned by one logical thread at a time; steps mutate it in
place and return a StepOutcome with the step's estimate and diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AllWeightsCollapsed,
    ArgumentError,
    ParticleSet,
    RngStream,
    check_arg,
    map_estimate,
    normalize_weights,
    real_array,
    shown,
    weighted_mean,
)
from .models import DimensionMismatch, check_measurement
# The step runs the unchecked kernels on arrays it built itself. They are
# bound under the public names because the benchmark's layer tracer times
# the models.* layers through smcfilter.filter.propagate and
# smcfilter.filter.log_likelihood; once it hooks the kernels by their own
# names, these aliases go.
from .models import _log_likelihood as log_likelihood
from .models import _propagate as propagate
from .resampling import (
    NotNormalized,
    ResamplePolicy,
    multinomial_resample,
    should_resample,
    systematic_resample,
)

ESTIMATORS = ("weighted_mean", "map")


class InvalidPrior(ArgumentError):
    """Prior means must be finite, standard deviations finite and nonnegative."""


@dataclass
class GaussianPrior:
    """Independent Gaussian belief over the initial state, one std per component."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(check_arg("mean", self.mean, error=InvalidPrior))
        self.std = np.atleast_1d(check_arg("std", self.std, low=0.0, error=InvalidPrior))
        for name, arr in (("mean", self.mean), ("std", self.std)):
            if arr.ndim > 1:
                raise InvalidPrior(name, f"must have one dimension, got shape {arr.shape}")
        if self.mean.shape != self.std.shape:
            raise InvalidPrior(
                "std", f"has shape {self.std.shape}, mean has shape {self.mean.shape}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class FilterState:
    """Everything one filtering run carries between steps."""

    set: ParticleSet
    model: object
    policy: ResamplePolicy
    rng: RngStream
    estimator: str = "weighted_mean"


@dataclass
class StepOutcome:
    """Result of one measurement update.

    ``ess`` is the effective sample size of the step's weights before any
    resampling, the value the resample decision used; normalize_weights
    takes it with the weights, and it is exactly N for equal weights.
    ``degenerate`` flags a total weight collapse that was recovered by a
    uniform reset, whose ESS is N. ``estimate`` is computed from the weights
    the step ends with.
    """

    estimate: np.ndarray
    ess: float
    resampled: bool
    degenerate: bool


def _check_estimator(estimator) -> None:
    if estimator not in ESTIMATORS:
        raise ArgumentError("estimator", f"must be one of {ESTIMATORS}, got {shown(estimator)}")


def check_settings(model, prior: GaussianPrior, n_particles: int, estimator: str) -> None:
    """init's rules for the particle count, the estimator and the prior's
    dimension; Scenario applies them at construction."""
    check_arg("n_particles", n_particles, low=1, integer=True)
    _check_estimator(estimator)
    if prior.dim != model.state_dim:
        raise DimensionMismatch(
            f"prior has dimension {prior.dim}, model expects {model.state_dim}"
        )


def init(
    model,
    prior: GaussianPrior,
    n_particles: int,
    rng: RngStream,
    policy: ResamplePolicy = ResamplePolicy(),
    estimator: str = "weighted_mean",
) -> FilterState:
    """Draw N particles from the prior and give them equal weights 1/N.

    Draws happen in particle-index order, components in order within each
    particle, which fixes the stream layout for reproducibility.
    """
    check_settings(model, prior, n_particles, estimator)
    draws = rng.standard_normal((n_particles, prior.dim))
    particles = prior.mean + prior.std * draws
    return FilterState(
        set=ParticleSet.uniform(particles),
        model=model,
        policy=policy,
        rng=rng,
        estimator=estimator,
    )


def step(state: FilterState, z, noises=None) -> StepOutcome:
    """Advance the filter by one measurement.

    The estimator, the particle length and the measurement are checked
    first: an unknown estimator, a set that does not fit the model, a wrong
    measurement shape or a non-finite component raises before anything is
    drawn, leaving the set and the stream untouched. Stream consumption
    order: one process-noise vector per particle in index order (N*n normal
    draws), then, only if resampling fires, one uniform offset (systematic)
    or N uniform draws (multinomial). The estimate is computed after any
    resampling. Caller ``noises``, one process noise per particle, replace
    the normal draws to replay worked fixtures; resampling still draws.
    """
    _check_estimator(state.estimator)
    model = state.model
    pset = state.set
    n = pset.n_particles
    if pset.dim != model.state_dim:
        raise DimensionMismatch(
            f"particles have length {pset.dim}, model expects {model.state_dim}"
        )
    z = check_measurement(model, z)
    if noises is None:
        noises = state.rng.standard_normal((n, pset.dim))
        noises *= model.process_std
        predicted = propagate(model, pset.particles, noises)
    else:
        noises = real_array("noises", noises)
        if noises.ndim == 1:
            noises = noises[:, np.newaxis]
        if noises.shape != pset.particles.shape:
            raise DimensionMismatch(f"noises shape {noises.shape}, expected {pset.particles.shape}")
        # Caller noise can be large enough for f(x) + noise to overflow;
        # drawn noise cannot (sqrt(Q) times a normal draw stays far below
        # half an ulp of the largest double). The inf it leaves is rejected
        # by the finite guard below.
        with np.errstate(over="ignore"):
            predicted = propagate(model, pset.particles, noises)

    # A sum of squares is finite only if every particle is. np.vdot takes it
    # in one pass with no temporary and, unlike a numpy sum, warns of no
    # overflow. When it is not finite, because a particle is not or because
    # the squares overflow, the exact test decides.
    if not math.isfinite(np.vdot(predicted, predicted)) and not np.isfinite(predicted).all():
        raise ValueError("particles must be finite")

    # Weight update in the log domain. The update adds into the likelihood's
    # fresh array instead of allocating another.
    log_w = log_likelihood(model, z, predicted)
    log_w += pset.log_weights
    degenerate = False
    try:
        weights, m, s, ess = normalize_weights(log_w)
    except AllWeightsCollapsed:
        # Recover instead of aborting: reset to uniform and flag the event.
        # Uniform weights have ESS = N, so the reset never resamples.
        degenerate = True
        ess = float(n)
    if ess != ess:
        raise NotNormalized("weights are NaN: a log-weight is NaN or +inf")

    resampled = should_resample(state.policy, ess, n)
    if resampled:
        if state.policy.scheme == "systematic":
            indices = systematic_resample(weights, state.rng.uniform())
        else:
            indices = multinomial_resample(weights, state.rng)
        predicted = predicted.take(indices, axis=0)
    # Resampling and a collapse both reset the weights to uniform. A step
    # that keeps them normalizes its own array in place, (lw - m) - log(s)
    # in that order (see normalize_weights).
    if resampled or degenerate:
        log_w = np.full(n, -np.log(n))
        weights = np.full(n, 1.0 / n)
    else:
        log_w -= m
        log_w -= np.log(s)

    # The estimate comes from the weights the step ends with; ties in the
    # MAP go to the lowest index, so a reset picks particle 0.
    if state.estimator == "map":
        estimate = map_estimate(predicted, log_w)
    else:
        estimate = weighted_mean(predicted, weights)
    state.set = ParticleSet._trusted(predicted, log_w)
    return StepOutcome(estimate=estimate, ess=ess, resampled=resampled, degenerate=degenerate)
