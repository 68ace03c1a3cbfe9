"""Ground-truth generation, scenario execution, and accuracy metrics.

A scenario bundles a model, a horizon, a prior, and the filter settings.
Running one produces a trace of per-step records suitable for CSV dumping
and plotting. One RngStream drives everything in a run; the draw order is
fixed (see run_scenario) so a seed pins the entire experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import filter as sir
from .core import RngStream, check_arg, weighted_mean
from .filter import FilterState, GaussianPrior
from .models import (
    DimensionMismatch,
    predict_measurement,
    propagate,
    sample_measurement_noise,
    sample_process_noise,
)
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
        check_arg("t_steps", self.t_steps, low=1)
        self.initial_truth = np.atleast_1d(np.asarray(self.initial_truth, dtype=float))
        n = self.model.state_dim
        if self.initial_truth.shape != (n,):
            raise DimensionMismatch(
                f"initial_truth has shape {self.initial_truth.shape}, model expects ({n},)"
            )
        check_arg("initial_truth", self.initial_truth)
        sir.check_settings(self.model, self.prior, self.n_particles, self.estimator)


@dataclass
class StepRecord:
    """One trace row. The measurement is NaN at k=0 (no update happens there)."""

    k: int
    truth: np.ndarray
    measurement: np.ndarray
    estimate: np.ndarray
    ess: float
    resampled: bool
    degenerate: bool


@dataclass
class Trace:
    """Ordered step records plus the end-of-run weight diagnostics.

    ``final_ess`` is the effective sample size of the weights as the filter
    holds them after the last step (post-resampling, if the last step
    fired). ``snapshots`` maps step index to the (particles, weights) the
    filter held after completing that step.
    """

    records: list[StepRecord]
    final_ess: float
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def stack(self, attr: str) -> np.ndarray:
        """Stack one vector-valued field over all records, shape (T, d)."""
        return np.stack([getattr(rec, attr) for rec in self.records])


def run_scenario(scenario: Scenario, seed: int, dump_steps=()) -> Trace:
    """Run one seeded experiment end to end and return its trace.

    Per step k = 1..T-1 the stream is consumed in a fixed order: truth
    process noise, measurement noise, the filter's N particle noises, then
    the resample offset if resampling fired. Before the loop, the prior
    draws consume N*n normals. k=0 carries no measurement (NaN columns);
    its estimate is the prior's weighted mean.
    """
    model = scenario.model
    rng = RngStream(seed)
    dump_steps = set(int(k) for k in dump_steps)

    state = sir.init(
        model,
        scenario.prior,
        scenario.n_particles,
        rng,
        policy=scenario.policy,
        estimator=scenario.estimator,
    )

    truth = scenario.initial_truth.copy()
    records = [
        StepRecord(
            k=0,
            truth=truth.copy(),
            measurement=np.full(model.obs_dim, np.nan),
            estimate=weighted_mean(state.set),
            ess=effective_sample_size(state.set.weights),
            resampled=False,
            degenerate=False,
        )
    ]
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if 0 in dump_steps:
        snapshots[0] = _snapshot(state)

    for k in range(1, scenario.t_steps):
        truth = propagate(model, truth, sample_process_noise(model, rng))
        z = predict_measurement(model, truth) + sample_measurement_noise(model, rng)
        outcome = sir.step(state, z)
        records.append(
            StepRecord(
                k=k,
                truth=truth.copy(),
                measurement=z,
                estimate=outcome.estimate,
                ess=outcome.ess,
                resampled=outcome.resampled,
                degenerate=outcome.degenerate,
            )
        )
        if k in dump_steps:
            snapshots[k] = _snapshot(state)

    return Trace(
        records=records,
        final_ess=effective_sample_size(state.set.weights),
        snapshots=snapshots,
    )


def _snapshot(state: FilterState) -> tuple[np.ndarray, np.ndarray]:
    return state.set.particles.copy(), state.set.weights.copy()


def rmse(a, b) -> float:
    """Root mean squared Euclidean distance per step between two sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, np.newaxis]
    if b.ndim == 1:
        b = b[:, np.newaxis]
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))
