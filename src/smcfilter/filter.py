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
    ResampleScratch,
    multinomial_resample,
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


# The noise scale multiplies an (N, n) draw in rows of this many elements,
# so that numpy's inner loop runs over a whole row and not over n.
_TILE = 256


class _Workspace:
    """The arrays a FilterState's steps write into, for N particles of length
    n, so that a step of a model with ``_f`` (see models._propagate) makes no
    particle-sized array; another model's f output is the one it makes.

    Three (N, n) particle buffers rotate between the current cloud, the
    prediction, which model._f fills before the noise is added in place,
    and a spare that takes the noise draw, then the resampled cloud; two
    (N,) log-weight buffers alternate. Each buffer is allocated when a step
    first needs it (see _free). ``search`` holds the normalized weights (as
    its cumsum, which a resample overwrites) and the likelihood's later
    columns (as its keys). ``kept`` is the pair of arrays the last step
    returned, which the next step leaves intact, and ``free`` the particle
    pair and the log-weight buffer that a step from ``kept`` writes into,
    once all five buffers exist; a step from a set the caller assigned looks
    its buffers up by memory overlap instead.
    """

    def __init__(self, owner: "FilterState", n_particles: int, dim: int):
        self.owner = id(owner)
        self.shape = (n_particles, dim)
        self.particles: list = []
        self.log_weights: list = []
        self.search = ResampleScratch(n_particles)
        self.indices = np.empty(n_particles, dtype=np.intp)
        self.log_uniform = -np.log(n_particles)
        self.uniform = 1.0 / n_particles
        self.kept = (None, None)
        self.free = None
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


def _free(buffers: list, most: int, count: int, kept, current) -> list:
    """``count`` of ``buffers`` that hold neither ``kept`` nor ``current``,
    the latter judged by memory overlap when it is not ``kept`` (a caller's
    set, or a view). Fresh arrays make up a shortfall and join ``buffers``
    while it has fewer than ``most``, so a buffer that only a later step
    needs is not yet allocated while the caller's set is alive."""
    free = [b for b in buffers
            if b is not kept and (current is kept or not np.may_share_memory(b, current))]
    while len(free) < count:
        free.append(np.empty(current.shape))
        if len(buffers) < most:
            buffers.append(free[-1])
    return free[:count]


@dataclass
class FilterState:
    """Everything one filtering run carries between steps.

    The arrays of the set a step returns stay intact through the next step;
    the step after that overwrites them (see _Workspace). A set the caller
    builds is only ever read.
    """

    set: ParticleSet
    model: object
    policy: ResamplePolicy
    rng: RngStream
    estimator: str = "weighted_mean"
    _workspace: _Workspace | None = field(default=None, init=False, repr=False, compare=False)


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
    The new set's arrays are the state's own buffers, intact through the
    next step and overwritten by the one after (see FilterState).
    """
    _check_estimator(state.estimator)
    model = state.model
    pset = state.set
    x = pset.particles
    n = pset.n_particles
    if pset.dim != model.state_dim:
        raise DimensionMismatch("particles", f"have length {pset.dim}, model expects {model.state_dim}")
    z = check_measurement(model, z)
    if noises is not None:
        noises = real_array("noises", noises)
        if noises.ndim == 1:
            noises = noises[:, np.newaxis]
        if noises.shape != x.shape:
            raise DimensionMismatch("noises", f"shape {noises.shape}, expected {x.shape}")
    # A copied FilterState builds its own workspace rather than share one.
    work = state._workspace
    if work is None or work.owner != id(state) or work.shape != x.shape:
        work = state._workspace = _Workspace(state, *x.shape)
    kept_particles, kept_log_weights = work.kept
    from_kept = x is kept_particles and pset.log_weights is kept_log_weights
    if from_kept and work.free is not None:
        (predicted, spare), log_w = work.free
    else:
        predicted, spare = _free(work.particles, 3, 2, kept_particles, x)
        (log_w,) = _free(work.log_weights, 2, 1, kept_log_weights, pset.log_weights)

    if noises is None:
        noises = state.rng.standard_normal(x.shape, spare)
        if pset.dim == 1:
            noises *= model.process_std
        else:
            work.scale(noises, model.process_std)
        predicted = propagate(model, x, noises, predicted)
    else:
        # Caller noise can be large enough for f(x) + noise to overflow;
        # drawn noise cannot (sqrt(Q) times a normal draw stays far below
        # half an ulp of the largest double). The inf it leaves is rejected
        # by the finite guard below. The prediction is written before the
        # noise is added, so caller noise in a workspace buffer is copied.
        if np.may_share_memory(noises, predicted):
            noises = noises.copy()
        with np.errstate(over="ignore"):
            predicted = propagate(model, x, noises, predicted)

    # A sum of squares is finite only if every particle is. np.vdot takes it
    # in one pass with no temporary and, unlike a numpy sum, warns of no
    # overflow. When it is not finite, because a particle is not or because
    # the squares overflow, the exact test decides, and check_arg raises at
    # the first non-finite element.
    if not math.isfinite(np.vdot(predicted, predicted)) and not np.isfinite(predicted).all():
        check_arg("predicted", predicted)

    # Weight update in the log domain, in the workspace's arrays.
    search = work.search
    log_w = log_likelihood(model, z, predicted, log_w, search.keys[:n])
    log_w += pset.log_weights
    degenerate = False
    try:
        weights, m, s, ess = normalize_weights(log_w, search.cumsum)
    except AllWeightsCollapsed:
        # Recover instead of aborting: reset to uniform and flag the event.
        # Uniform weights have ESS = N, so the reset never resamples.
        degenerate = True
        ess = float(n)
    if ess != ess:
        raise NotNormalized("weights", "are NaN: a log-weight is NaN or +inf")

    resampled = bool(ess < state.policy.threshold_fraction * n)
    if resampled:
        if state.policy.scheme == "systematic":
            indices = systematic_resample(weights, state.rng.uniform(), work.indices, search)
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
    # the next step from this set writes into the two buffers it leaves free
    work.free = ((spare, x), pset.log_weights) if from_kept else None
    return StepOutcome(estimate=estimate, ess=ess, resampled=resampled, degenerate=degenerate)
