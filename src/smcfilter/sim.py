"""Ground-truth generation, scenario execution, and accuracy metrics.

A scenario bundles a model, a horizon, a prior, and the filter settings.
Running one produces a trace that holds the run as columns, one row per
step, for CSV dumping and plotting. One RngStream drives everything in a
run; the draw order is fixed (see run_scenario) so a seed pins the entire
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import filter as sir
from .core import ArgumentError, RngStream, check_arg, is_integer, real_array, shown, weighted_mean
from .filter import FilterState, GaussianPrior
from .models import DimensionMismatch, propagate
from .resampling import ResamplePolicy, effective_sample_size


@dataclass
class Scenario:
    """Generative description of one tracking experiment. Construction applies
    every rule the run applies to these fields, init's included."""

    model: object
    t_steps: int
    prior: GaussianPrior
    initial_truth: np.ndarray
    n_particles: int
    policy: ResamplePolicy = ResamplePolicy()
    estimator: str = "weighted_mean"

    def __post_init__(self):
        check_arg("t_steps", self.t_steps, low=1, integer=True)
        self.initial_truth = np.atleast_1d(check_arg("initial_truth", self.initial_truth))
        n = self.model.state_dim
        if self.initial_truth.shape != (n,):
            raise DimensionMismatch("initial_truth",
                                    f"has shape {self.initial_truth.shape}, model expects ({n},)")
        sir.check_settings(self.model, self.prior, self.n_particles, self.estimator)


@dataclass
class Trace:
    """One run as columns, row k for step k = 0..T-1, plus the end-of-run
    weight diagnostics.

    ``truth`` (T, n), ``measurement`` (T, o) and ``estimate`` (T, n) hold the
    vectors; ``ess``, ``resampled`` and ``degenerate`` (T,) the step's
    diagnostics. Row 0 carries no measurement (NaN; the first update happens
    at k=1), the prior's weighted mean as estimate and its ESS.
    ``final_ess`` is the effective sample size of the weights as the filter
    holds them after the last step (post-resampling, if the last step
    fired). ``snapshots`` maps step index to the (particles, weights) the
    filter held after completing that step.
    """

    truth: np.ndarray
    measurement: np.ndarray
    estimate: np.ndarray
    ess: np.ndarray
    resampled: np.ndarray
    degenerate: np.ndarray
    final_ess: float
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ess)

    def stack(self, attr: str) -> np.ndarray:
        """The column named ``attr``, the same array as the attribute. Only
        the benchmark harness reads columns through this name; the next
        benchmark change retires it together with cli.build_scenario."""
        return getattr(self, attr)


def check_dump_steps(steps, t_steps: int) -> list:
    """steps as a list of ints. Raise ArgumentError("dump_steps", ..., i) at the
    first step i that is not an integer or lies outside [0, t_steps)."""
    for i, k in enumerate(steps):
        if not is_integer(k):
            raise ArgumentError("dump_steps", f"must be an integer, got {shown(k)}", i)
        if not 0 <= k < t_steps:
            raise ArgumentError("dump_steps", f"step {shown(int(k))} outside horizon T={t_steps}", i)
    return [int(k) for k in steps]


def run_scenario(scenario: Scenario, seed: int, dump_steps=()) -> Trace:
    """Run one seeded experiment end to end and return its trace.

    Per step k = 1..T-1 the stream is consumed in a fixed order: truth
    process noise, measurement noise, the filter's N particle noises, then
    the resample offset if resampling fired. Before the loop, the prior
    draws consume N*n normals. k=0 carries no measurement (NaN columns);
    its estimate is the prior's weighted mean. ``dump_steps`` are checked
    by check_dump_steps before anything is drawn.
    """
    model = scenario.model
    n, t_steps = model.state_dim, scenario.t_steps
    dump_steps = set(check_dump_steps(dump_steps, t_steps))
    rng = RngStream(seed)

    state = sir.init(
        model,
        scenario.prior,
        scenario.n_particles,
        rng,
        policy=scenario.policy,
        estimator=scenario.estimator,
    )

    trace = Trace(
        truth=np.empty((t_steps, n)),
        measurement=np.empty((t_steps, model.obs_dim)),
        estimate=np.empty((t_steps, n)),
        ess=np.empty(t_steps),
        resampled=np.zeros(t_steps, dtype=bool),
        degenerate=np.zeros(t_steps, dtype=bool),
        final_ess=float("nan"),
    )
    truth = scenario.initial_truth
    trace.truth[0] = truth
    trace.measurement[0] = np.nan
    weights = state.set.weights
    trace.estimate[0] = weighted_mean(state.set.particles, weights)
    trace.ess[0] = effective_sample_size(weights)
    del weights  # no (N,) array lives through the loop
    if 0 in dump_steps:
        trace.snapshots[0] = _snapshot(state)

    # One draw call per step: the truth's n normals, then the sensor's o, as
    # two consecutive draws would give them, each scaled by its std.
    scale = np.concatenate((model.process_std, model.meas_std))
    for k in range(1, t_steps):
        noise = rng.standard_normal(scale.size)
        noise *= scale
        truth = propagate(model, truth, noise[:n])
        z = model.h(truth) + noise[n:]
        outcome = sir.step(state, z)
        trace.truth[k] = truth
        trace.measurement[k] = z
        trace.estimate[k] = outcome.estimate
        trace.ess[k] = outcome.ess
        trace.resampled[k] = outcome.resampled
        trace.degenerate[k] = outcome.degenerate
        if k in dump_steps:
            trace.snapshots[k] = _snapshot(state)

    trace.final_ess = effective_sample_size(state.set.weights)
    return trace


def _snapshot(state: FilterState) -> tuple[np.ndarray, np.ndarray]:
    # weights is a fresh exp of the log-weights; the particles need a copy
    return state.set.particles.copy(), state.set.weights


def rmse(a, b) -> float:
    """Root mean squared Euclidean distance per step between two sequences."""
    a = real_array("a", a)
    b = real_array("b", b)
    if a.ndim == 1:
        a = a[:, np.newaxis]
    if b.ndim == 1:
        b = b[:, np.newaxis]
    if a.shape != b.shape:
        raise DimensionMismatch("b", f"has shape {b.shape}, a has shape {a.shape}")
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))
