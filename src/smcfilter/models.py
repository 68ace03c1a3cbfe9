"""State-space model contracts and the two built-in tracking models.

A model pairs a motion contract f(x, u) + process noise (diagonal variances
Q) with a measurement contract h(x) + sensor noise (diagonal variances R).
The free functions below operate on any object satisfying the contract and
accept both single states (n,) and particle batches (N, n); the state axis
is always the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream


class DimensionMismatch(ValueError):
    """State, control, noise, or observation length does not fit the model."""


class NonFiniteMeasurement(ValueError):
    """A measurement component is NaN or infinite."""


class StateSpaceModel:
    """Contract shared by all models.

    Subclasses define ``state_dim`` (n), ``control_dim`` (m), ``obs_dim``
    (o), diagonal noise variances ``process_var`` (length n, >= 0) and
    ``meas_var`` (length o, > 0), the deterministic motion ``f(x, u)`` and
    the observation map ``h(x)``. Instances are immutable after
    construction and safe for concurrent read-only use.
    """

    state_dim: int
    control_dim: int
    obs_dim: int
    state_labels: tuple[str, ...]
    obs_labels: tuple[str, ...]

    @property
    def process_var(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def meas_var(self) -> np.ndarray:
        raise NotImplementedError

    def f(self, x: np.ndarray, u=None) -> np.ndarray:
        raise NotImplementedError

    def h(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class RandomWalk1D:
    """Scalar random walk with direct position measurement.

    Motion:      x_k = x_{k-1} + noise,  noise ~ N(0, q)
    Measurement: z_k = x_k + noise,      noise ~ N(0, r)
    """

    q: float = 1.0
    r: float = 4.0

    state_dim = 1
    control_dim = 0
    obs_dim = 1
    state_labels = ("x",)
    obs_labels = ("x",)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"process-noise variance q must be >= 0, got {self.q}")
        if self.r <= 0:
            raise ValueError(f"measurement-noise variance r must be > 0, got {self.r}")

    @property
    def process_var(self) -> np.ndarray:
        return np.array([self.q])

    @property
    def meas_var(self) -> np.ndarray:
        return np.array([self.r])

    def f(self, x, u=None):
        return np.asarray(x, dtype=float).copy()

    def h(self, x):
        return np.asarray(x, dtype=float).copy()


@dataclass(frozen=True)
class ConstantVelocity2D:
    """Planar constant-velocity motion with noisy position measurements.

    State:       x = [px, py, vx, vy]
    Measurement: z = [px, py]
    Motion advances positions by velocity * dt through a fixed linear
    transition; process noise perturbs positions (variance q_pos) and
    velocities (variance q_vel) independently.
    """

    dt: float = 1.0
    q_pos: float = 0.2
    q_vel: float = 0.05
    r_meas: float = 2.0

    state_dim = 4
    control_dim = 0
    obs_dim = 2
    state_labels = ("px", "py", "vx", "vy")
    obs_labels = ("px", "py")

    def __post_init__(self):
        if self.dt < 0:
            raise ValueError(f"dt must be >= 0, got {self.dt}")
        if self.q_pos < 0 or self.q_vel < 0:
            raise ValueError("process-noise variances must be >= 0")
        if self.r_meas <= 0:
            raise ValueError(f"measurement-noise variance must be > 0, got {self.r_meas}")

    def transition_matrix(self) -> np.ndarray:
        dt = self.dt
        return np.array(
            [
                [1.0, 0.0, dt, 0.0],
                [0.0, 1.0, 0.0, dt],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    @property
    def process_var(self) -> np.ndarray:
        return np.array([self.q_pos, self.q_pos, self.q_vel, self.q_vel])

    @property
    def meas_var(self) -> np.ndarray:
        return np.array([self.r_meas, self.r_meas])

    def f(self, x, u=None):
        return np.asarray(x, dtype=float) @ self.transition_matrix().T

    def h(self, x):
        return np.asarray(x, dtype=float)[..., :2].copy()


def _check_state(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[np.newaxis]
    if x.shape[-1] != model.state_dim:
        raise DimensionMismatch(
            f"state has length {x.shape[-1]}, model expects {model.state_dim}"
        )
    return x


def propagate(model, x, noise, u=None) -> np.ndarray:
    """Apply the motion model: f(x, u) + noise.

    The noise vector is an explicit argument so callers control whether it
    comes from a stream or from a fixture; zero noise gives the
    deterministic prediction. Accepts a single state (n,) or a batch (N, n)
    with matching noise.
    """
    x = _check_state(model, x)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim == 0:
        noise = noise[np.newaxis]
    if noise.shape != x.shape:
        raise DimensionMismatch(f"noise shape {noise.shape} does not match state shape {x.shape}")
    return model.f(x, u) + noise


def predict_measurement(model, x) -> np.ndarray:
    """Expected sensor reading h(x) for a state or a batch of states."""
    return model.h(_check_state(model, x))


def log_likelihood(model, z, x):
    """Log-density ln N(z; h(x), diag(R)), normalizing constant included.

    The constant cancels during weight normalization but keeping it makes
    the value directly comparable to closed-form Gaussian densities.
    Returns a scalar for a single state, an (N,) array for a batch.

    A residual too large to square overflows to a log-density of -inf, the
    correct limit: that particle's weight is exactly 0. A non-finite
    measurement raises NonFiniteMeasurement.
    """
    x = _check_state(model, x)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z[np.newaxis]
    if z.shape != (model.obs_dim,):
        raise DimensionMismatch(
            f"measurement has shape {z.shape}, model expects ({model.obs_dim},)"
        )
    if not all(map(math.isfinite, z.tolist())):
        raise NonFiniteMeasurement(f"measurement must be finite, got {z}")
    var = model.meas_var
    log_norm = np.log(2.0 * np.pi * var)
    hx = model.h(x)

    def column(j):
        r = z[j] - hx[..., j]
        r *= r
        r /= var[j]
        r += log_norm[j]
        return r

    # One observation column at a time, in place: each pass runs over all N
    # particles, where a sum over the o-wide last axis loops once per
    # particle, and no pass allocates a fresh (N,) array that it need not.
    # For o <= 2 the result is bit-identical to that sum (a + b == b + a).
    with np.errstate(over="ignore"):
        ll = column(0)
        for j in range(1, model.obs_dim):
            ll += column(j)
    ll *= -0.5
    return float(ll) if np.ndim(ll) == 0 else ll


def sample_process_noise(model, rng: RngStream) -> np.ndarray:
    """Draw one process-noise vector, sqrt(Q_j) * standard normal per component."""
    return np.sqrt(model.process_var) * rng.standard_normal(model.state_dim)


def sample_measurement_noise(model, rng: RngStream) -> np.ndarray:
    """Draw one measurement-noise vector, sqrt(R_j) * standard normal per component."""
    return np.sqrt(model.meas_var) * rng.standard_normal(model.obs_dim)
