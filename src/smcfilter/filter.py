"""Bootstrap SIR recursion: initialize from a Gaussian prior, then per step
predict with the motion model, reweight by measurement likelihood, normalize,
resample adaptively, and estimate.

New particles are proposed directly from the motion model, so each weight
update multiplies the previous weight by the measurement likelihood alone.
A FilterState is owned by one logical thread at a time; steps mutate it in
place and also hand it back inside the StepOutcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AllWeightsCollapsed,
    ParticleSet,
    RngStream,
    map_estimate,
    normalize_weights,
    normalized_log_weights,
    weighted_mean,
)
from .models import DimensionMismatch, log_likelihood, propagate
from .resampling import (
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    should_resample,
    systematic_resample,
)

ESTIMATORS = ("weighted_mean", "map")


class InvalidPrior(ValueError):
    """Prior standard deviations must be nonnegative."""


@dataclass
class GaussianPrior:
    """Independent Gaussian belief over the initial state, one std per component."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape:
            raise InvalidPrior(
                f"mean shape {self.mean.shape} does not match std shape {self.std.shape}"
            )
        if np.any(self.std < 0):
            raise InvalidPrior(f"prior std must be >= 0, got {self.std}")

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
    last_ess: float = float("nan")
    last_resampled: bool = False


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
    state: FilterState


def _estimate(state: FilterState) -> np.ndarray:
    if state.estimator == "map":
        return map_estimate(state.set)
    return weighted_mean(state.set)


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
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if prior.dim != model.state_dim:
        raise DimensionMismatch(
            f"prior has dimension {prior.dim}, model expects {model.state_dim}"
        )
    draws = rng.standard_normal((n_particles, prior.dim))
    particles = prior.mean + prior.std * draws
    return FilterState(
        set=ParticleSet.uniform(particles),
        model=model,
        policy=policy,
        rng=rng,
        estimator=estimator,
    )


def _advance(state: FilterState, z, noises: np.ndarray, u, resample_u) -> StepOutcome:
    model = state.model
    pset = state.set
    n = pset.n_particles

    # Prediction: every particle moves through the motion model.
    predicted = propagate(model, pset.particles, noises, u)

    # Weight update and normalization, all in the log domain. The update adds
    # into the likelihood's fresh array instead of allocating another.
    log_w = log_likelihood(model, z, predicted)
    log_w += pset.log_weights
    degenerate = False
    try:
        weights = normalize_weights(log_w)
        log_w = normalized_log_weights(log_w)
    except AllWeightsCollapsed:
        # Recover instead of aborting: reset to uniform and flag the event.
        degenerate = True
        weights = np.full(n, 1.0 / n)
        log_w = np.full(n, -np.log(n))

    ess = effective_sample_size(weights)
    resampled = should_resample(state.policy, ess, n)
    if resampled:
        if state.policy.scheme == "systematic":
            offset = state.rng.uniform() if resample_u is None else float(resample_u)
            indices = systematic_resample(weights, offset)
        else:
            indices = multinomial_resample(weights, state.rng)
        predicted = np.take(predicted, indices, axis=0)
        log_w = np.full(n, -np.log(n))

    state.set = ParticleSet(predicted, log_w, generation=pset.generation + 1)
    state.last_ess = ess
    state.last_resampled = resampled
    return StepOutcome(
        estimate=_estimate(state),
        ess=ess,
        resampled=resampled,
        degenerate=degenerate,
        state=state,
    )


def step(state: FilterState, z, u=None) -> StepOutcome:
    """Advance the filter by one measurement.

    Stream consumption order: one process-noise vector per particle in
    index order (N*n normal draws), then, only if resampling fires, one
    uniform offset (systematic) or N uniform draws (multinomial). The
    estimate is computed after any resampling.
    """
    pset = state.set
    noises = state.rng.standard_normal((pset.n_particles, pset.dim))
    noises *= np.sqrt(state.model.process_var)
    return _advance(state, z, noises, u, resample_u=None)


def step_with_injected_noise(
    state: FilterState, z, noises, resample_u=None, u=None
) -> StepOutcome:
    """Like step, but with caller-supplied process noises (one per particle).

    Test seam for replaying worked numerical fixtures: bypasses the
    RngStream for the prediction draws, and for the systematic offset when
    ``resample_u`` is given. Multinomial selection draws, and a systematic
    offset when ``resample_u`` is None, still come from the stream.
    """
    noises = np.asarray(noises, dtype=float)
    if noises.ndim == 1:
        noises = noises[:, np.newaxis]
    expected = (state.set.n_particles, state.set.dim)
    if noises.shape != expected:
        raise DimensionMismatch(f"noises shape {noises.shape}, expected {expected}")
    return _advance(state, z, noises, u, resample_u=resample_u)
