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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AllWeightsCollapsed,
    ArgumentError,
    ParticleSet,
    RngStream,
    check_arg,
    map_estimate,
    real_array,
    shown,
    weighted_mean,
)
# The step runs the unchecked kernels on arrays it built itself. They are
# bound under the public names because the benchmark's layer tracer times
# the core.normalize, models.* and resampling.resample layers through
# smcfilter.filter's normalize_weights, propagate, log_likelihood and
# resamplers; once it hooks the kernels by their own names, these aliases go.
from .core import _normalize as normalize_weights
from .models import DimensionMismatch, check_measurement
from .models import _log_likelihood as log_likelihood
from .models import _propagate as propagate
from .resampling import NotNormalized, ResamplePolicy, _ResampleScratch
from .resampling import _multinomial as multinomial_resample
from .resampling import _systematic as systematic_resample

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


# The noise scale multiplies an (N, n) draw in rows of this many elements,
# so that numpy's inner loop runs over a whole row and not over n.
_TILE = 256


class _Workspace:
    """The arrays a FilterState owns, for N particles of length n, so that a
    step of a model with ``_f_plus`` (see models._propagate) makes no
    particle-sized array; another model's f output is the one it makes.

    Three (N, n) particle buffers rotate between the current cloud, the
    prediction, f(x) + noise, and a spare that takes the noise draw, then
    the resampled cloud; two (N,) log-weight buffers alternate. All are
    allocated here with np.empty, so a page no step has written costs no
    memory. ``kept`` is the (particles, log_weights) pair the state's set
    holds and ``free`` the ((prediction, spare), log_weights) buffers the
    next step writes into. ``search`` holds the normalized weights (as its
    cumsum, which a resample overwrites), the likelihood's later columns (as
    its keys) and the resampler's arrays (see _ResampleScratch). One state
    holds it: a copy or pickle of the state leaves it out (see FilterState).
    """

    def __init__(self, n_particles: int, dim: int):
        shape = (n_particles, dim)
        self.kept = np.empty(shape), np.empty(n_particles)
        self.free = (np.empty(shape), np.empty(shape)), np.empty(n_particles)
        self.search = _ResampleScratch(n_particles)
        self.log_uniform = -np.log(n_particles)
        self.uniform = 1.0 / n_particles
        self._tile_std = self._tile = None

    def scale(self, noises: np.ndarray, std: np.ndarray) -> None:
        """noises *= std, for (N, n) noises in C order, n > 1: the flat noise
        is multiplied in rows against a tile of std repeated to about _TILE
        elements, the same elementwise products."""
        if self._tile_std is not std:
            self._tile_std, self._tile = std, np.tile(std, max(1, _TILE // std.size))
        tile = self._tile
        flat = noises.reshape(-1)
        whole = flat.size - flat.size % tile.size
        rows = flat[:whole].reshape(-1, tile.size)
        rows *= tile
        flat[whole:] *= tile[: flat.size - whole]


@dataclass
class FilterState:
    """Everything one filtering run carries between steps.

    A step writes only into the state's workspace (see _Workspace), which
    init builds and draws the prior into. The arrays of the set a step
    returns stay intact through the next step; the step after that
    overwrites them. A set the workspace does not hold, one the caller
    assigned or a copied state's, is copied into a new workspace at the
    next step and is then only read. A copy, deep copy or pickle of the
    state leaves the workspace out and builds its own at its next step.
    """

    set: ParticleSet
    model: object
    policy: ResamplePolicy
    rng: RngStream
    estimator: str = "weighted_mean"
    _workspace: _Workspace | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_workspace": None}


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
        raise DimensionMismatch("prior", f"has dimension {prior.dim}, model expects {model.state_dim}")


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
    particle, which fixes the stream layout for reproducibility. The state's
    workspace is built here and the prior drawn into it: ``draws *= std``,
    then ``+= mean``, the same bits as mean + std * draws, since IEEE
    products and sums commute exactly. A prior that overflows raises the
    set's finite check, without an overflow warning.
    """
    check_settings(model, prior, n_particles, estimator)
    state = FilterState(set=None, model=model, policy=policy, rng=rng, estimator=estimator)
    work = state._workspace = _Workspace(n_particles, prior.dim)
    particles, log_weights = work.kept
    rng.standard_normal(particles.shape, particles)
    with np.errstate(over="ignore"):
        particles *= prior.std
        particles += prior.mean
    log_weights.fill(work.log_uniform)
    state.set = ParticleSet(particles, log_weights)
    return state


def step(state: FilterState, z, noises=None) -> StepOutcome:
    """Advance the filter by one measurement.

    The estimator, the set and the measurement are checked first: an
    unknown estimator, an empty set or one that does not fit the model, a
    wrong measurement shape or a non-finite component raises before anything
    is drawn, leaving the set and the stream untouched. Stream consumption
    order: one process-noise vector per particle in index order (N*n normal
    draws), then, only if resampling fires, one uniform offset (systematic)
    or N uniform draws (multinomial). The estimate is computed after any
    resampling. Caller ``noises``, one process noise per particle, replace
    the normal draws to replay worked fixtures; resampling still draws.
    The new set's arrays are the state's own buffers, intact through the
    next step and overwritten by the one after (see FilterState).
    """
    _check_estimator(state.estimator)
    model = state.model
    pset = state.set
    x = pset.particles
    n = pset.n_particles
    if n < 1:  # a set emptied after construction meets the constructor's rule
        ParticleSet(x, pset.log_weights)
    if pset.dim != model.state_dim:
        raise DimensionMismatch("particles", f"have length {pset.dim}, model expects {model.state_dim}")
    z = check_measurement(model, z)
    if noises is not None:
        noises = real_array("noises", noises)
        if noises.ndim == 1:
            noises = noises[:, np.newaxis]
        if noises.shape != x.shape:
            raise DimensionMismatch("noises", f"shape {noises.shape}, expected {x.shape}")
    # A set the state's workspace does not hold, one the caller assigned or
    # a copied state's, is copied into a new workspace and only read.
    work = state._workspace
    if work is None or x is not work.kept[0] or pset.log_weights is not work.kept[1]:
        work = state._workspace = _Workspace(n, pset.dim)
        np.copyto(work.kept[0], x)
        np.copyto(work.kept[1], pset.log_weights)
    x, prev = work.kept
    (predicted, spare), log_w = work.free

    if noises is None:
        state.rng.standard_normal(x.shape, spare)
        if pset.dim == 1:
            spare *= model.process_std
        else:
            work.scale(spare, model.process_std)
    else:
        np.copyto(spare, noises)

    search = work.search
    # The step's one error state. Drawn noise cannot overflow (sqrt(Q) times
    # a normal draw stays far below half an ulp of the largest double), but
    # caller noise, or a built-in f near the largest double, can: the inf or
    # NaN that f(x) + noise then leaves is rejected by the finite guard,
    # which raises in place of the warning. A residual too large to square,
    # or a log-weight plus its predecessor past the float range, overflows
    # to -inf: a weight of exactly 0; so does lw - m for m > 0, and
    # m = +inf leaves NaN weights, which the NaN ESS below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = propagate(model, x, spare, predicted)
        # A sum of squares is finite only if every particle is. np.vdot
        # takes it in one pass with no temporary. When it is not finite,
        # because a particle is not or because the squares overflow, the
        # exact test decides, and check_arg raises at the first non-finite
        # element.
        if not math.isfinite(np.vdot(predicted, predicted)) and not np.isfinite(predicted).all():
            check_arg("predicted", predicted)
        # Weight update in the log domain, in the workspace's arrays.
        log_w = log_likelihood(model, z, predicted, log_w, search.keys[:n])
        log_w += prev
        degenerate = False
        try:
            weights, m, s, ess = normalize_weights(log_w, search.cumsum)
        except AllWeightsCollapsed:
            # Recover instead of aborting: reset to uniform and flag it.
            # Uniform weights have ESS = N, so the reset never resamples.
            degenerate = True
            ess = float(n)
    if ess != ess:
        raise NotNormalized("weights", "are NaN: a log-weight is NaN or +inf")

    resampled = bool(ess < state.policy.threshold_fraction * n)
    if resampled:
        if state.policy.scheme == "systematic":
            indices = systematic_resample(weights, state.rng.uniform(), search)
        else:
            indices = multinomial_resample(weights, state.rng, search)
        # indices are in range, so "clip" changes none; it spares take the
        # buffered copy it makes of out under the default "raise"
        predicted, spare = predicted.take(indices, 0, spare, "clip"), predicted
    # Resampling and a collapse both reset the weights to uniform. A step
    # that keeps them normalizes its own array in place, (lw - m) - log(s)
    # in that order (see normalize_weights).
    if resampled or degenerate:
        log_w.fill(work.log_uniform)
        weights = search.cumsum
        weights.fill(work.uniform)
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
    work.kept = predicted, log_w
    work.free = (spare, x), prev
    return StepOutcome(estimate=estimate, ess=ess, resampled=resampled, degenerate=degenerate)
