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
    ResamplePolicy,
    _ess,
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

    ``ess`` is the diagnostic value computed on the normalized weights
    before any resampling (the value the resample decision used).
    ``degenerate`` flags a total weight collapse that was recovered by a
    uniform reset.
    """

    estimate: np.ndarray
    ess: float
    resampled: bool
    degenerate: bool


def _estimate(state: FilterState) -> np.ndarray:
    if state.estimator == "map":
        return map_estimate(state.set)
    return weighted_mean(state.set)


def check_settings(model, prior: GaussianPrior, n_particles: int, estimator: str) -> None:
    """init's rules for the particle count, the estimator and the prior's
    dimension; Scenario applies them at construction."""
    check_arg("n_particles", n_particles, low=1, integer=True)
    if estimator not in ESTIMATORS:
        raise ArgumentError("estimator", f"must be one of {ESTIMATORS}, got {estimator!r}")
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


def _advance(state: FilterState, z, predicted: np.ndarray) -> StepOutcome:
    """Weight, resample and estimate from the propagated particles.

    ``z`` has passed check_measurement. Every other array here is built by
    the step itself, so beyond one overflow guard nothing is re-validated.
    """
    # A sum of squares is finite only if every particle is. np.vdot takes it
    # in one pass with no temporary and, unlike a numpy sum, warns of no
    # overflow. When it is not finite, because a particle is not or because
    # the squares overflow, the exact test decides.
    if not math.isfinite(np.vdot(predicted, predicted)) and not np.isfinite(predicted).all():
        raise ValueError("particles must be finite")
    model = state.model
    pset = state.set
    n = pset.n_particles

    # Weight update in the log domain. The update adds into the likelihood's
    # fresh array instead of allocating another.
    log_w = log_likelihood(model, z, predicted)
    log_w += pset.log_weights
    degenerate = False
    try:
        weights, m, s = normalize_weights(log_w)
    except AllWeightsCollapsed:
        # Recover instead of aborting: reset to uniform and flag the event.
        degenerate = True
        weights = np.full(n, 1.0 / n)

    ess = _ess(weights)
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
    else:
        log_w -= m
        log_w -= np.log(s)

    state.set = ParticleSet._trusted(predicted, log_w, pset.generation + 1)
    return StepOutcome(
        estimate=_estimate(state),
        ess=ess,
        resampled=resampled,
        degenerate=degenerate,
    )


def _check_entry(state: FilterState, z) -> np.ndarray:
    """z through check_measurement, once the set's state length is checked
    against the model's (DimensionMismatch otherwise). Both checks run
    before anything is drawn."""
    model = state.model
    if state.set.dim != model.state_dim:
        raise DimensionMismatch(
            f"particles have length {state.set.dim}, model expects {model.state_dim}"
        )
    return check_measurement(model, z)


def step(state: FilterState, z) -> StepOutcome:
    """Advance the filter by one measurement.

    The particle length and the measurement are checked first: a set that
    does not fit the model, a wrong measurement shape or a non-finite
    component raises before anything is drawn, leaving the set and the
    stream untouched. Stream consumption order: one process-noise vector per
    particle in index order (N*n normal draws), then, only if resampling
    fires, one uniform offset (systematic) or N uniform draws (multinomial).
    The estimate is computed after any resampling.
    """
    model = state.model
    z = _check_entry(state, z)
    pset = state.set
    noises = state.rng.standard_normal((pset.n_particles, pset.dim))
    noises *= model.process_std
    predicted = propagate(model, pset.particles, noises)
    return _advance(state, z, predicted)


def step_with_injected_noise(state: FilterState, z, noises) -> StepOutcome:
    """Like step, but with caller-supplied process noises (one per particle).

    Test seam for replaying worked numerical fixtures: bypasses the
    RngStream for the prediction draws only. The resample draws, if
    resampling fires, still come from the stream.
    """
    model = state.model
    z = _check_entry(state, z)
    noises = np.asarray(noises, dtype=float)
    if noises.ndim == 1:
        noises = noises[:, np.newaxis]
    expected = (state.set.n_particles, state.set.dim)
    if noises.shape != expected:
        raise DimensionMismatch(f"noises shape {noises.shape}, expected {expected}")
    # Caller noise can be large enough for f(x) + noise to overflow; drawn
    # noise cannot (sqrt(Q) times a normal draw stays far below half an ulp
    # of the largest double), so only this seam silences overflow in
    # propagate. The inf it leaves is rejected by _advance's finite guard.
    with np.errstate(over="ignore"):
        predicted = propagate(model, state.set.particles, noises)
    return _advance(state, z, predicted)
