"""State-space model contracts and the two built-in tracking models.

A model pairs a motion contract f(x) + process noise (diagonal variances
Q) with a measurement contract h(x) + sensor noise (diagonal variances R).
The free functions below operate on any object satisfying the contract and
accept both single states (n,) and particle batches (N, n); the state axis
is always the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ArgumentError, check_arg, real_array


class DimensionMismatch(ArgumentError):
    """A state, noise, measurement, prior or initial-truth shape does not fit
    the model, or rmse's second sequence does not fit its first."""


class NonFiniteMeasurement(ArgumentError):
    """A measurement component is NaN, infinite or not a real number; its
    ``name`` is ``measurement``."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _set_arrays(model, **arrays) -> None:
    """Set each of ``arrays``, built from the floats check_arg returned, on the
    frozen ``model`` as a read-only float64 array: once, at construction."""
    for name, values in arrays.items():
        object.__setattr__(model, name, _read_only(np.array(values, dtype=float)))


class StateSpaceModel:
    """Contract shared by all models.

    Subclasses define ``state_dim`` (n), ``obs_dim`` (o), finite diagonal
    noise variances ``process_var`` (length n, >= 0) and ``meas_var``
    (length o, > 0) as float arrays, set at construction or defined as
    properties, the deterministic motion ``f(x)`` and the observation map
    ``h(x)``. Instances are immutable after construction and safe for
    concurrent read-only use, so the constants derived from the variances
    are built once per instance.
    """

    state_dim: int
    obs_dim: int
    state_labels: tuple[str, ...]
    obs_labels: tuple[str, ...]
    process_var: np.ndarray
    meas_var: np.ndarray

    def f(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def h(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def process_std(self) -> np.ndarray:
        """sqrt(Q_j): the scale of each standard-normal process draw."""
        return _read_only(np.sqrt(self.process_var))

    @cached_property
    def meas_log_norm(self) -> np.ndarray:
        """log(2 pi R_j): the likelihood's normalizer per observation component."""
        return _read_only(np.log(2.0 * np.pi * self.meas_var))

    @cached_property
    def meas_std(self) -> np.ndarray:
        """sqrt(R_j): the scale of each standard-normal sensor draw."""
        return _read_only(np.sqrt(self.meas_var))


@dataclass(frozen=True)
class RandomWalk1D(StateSpaceModel):
    """Scalar random walk with direct position measurement.

    Motion:      x_k = x_{k-1} + noise,  noise ~ N(0, q)
    Measurement: z_k = x_k + noise,      noise ~ N(0, r)
    """

    q: float = 1.0
    r: float = 4.0

    state_dim = 1
    obs_dim = 1
    state_labels = ("x",)
    obs_labels = ("x",)

    def __post_init__(self):
        q = check_arg("q", self.q, low=0.0, scalar=True)
        r = check_arg("r", self.r, low=0.0, strict=True, scalar=True)
        _set_arrays(self, process_var=[q], meas_var=[r])

    def f(self, x):
        return np.asarray(x, dtype=float).copy()

    def _f_plus(self, x: np.ndarray, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f(x) + noise into ``out``, a float64 array of x's shape (see
        _propagate)."""
        return np.add(x, noise, out)

    def h(self, x):
        """Read-only view of x."""
        return _read_only(np.asarray(x, dtype=float).view())


@dataclass(frozen=True)
class ConstantVelocity2D(StateSpaceModel):
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
    obs_dim = 2
    state_labels = ("px", "py", "vx", "vy")
    obs_labels = ("px", "py")

    def __post_init__(self):
        dt, q_pos, q_vel = (check_arg(name, getattr(self, name), low=0.0, scalar=True)
                            for name in ("dt", "q_pos", "q_vel"))
        r = check_arg("r_meas", self.r_meas, low=0.0, strict=True, scalar=True)
        # _transition is the transition matrix F, so that f(x) = x @ F.T
        _set_arrays(self, process_var=[q_pos, q_pos, q_vel, q_vel], meas_var=[r, r], _transition=[
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])

    def f(self, x):
        # Near the largest double, p + v dt overflows to inf, quietly.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(x, dtype=float) @ self._transition.T

    def _f_plus(self, x: np.ndarray, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f(x) + noise into ``out``, a float64 array of x's shape (see
        _propagate), under the caller's error state."""
        np.matmul(x, self._transition.T, out=out)
        return np.add(out, noise, out)

    def h(self, x):
        """Read-only view of the position components of x."""
        return _read_only(np.asarray(x, dtype=float)[..., :2])


# The f methods whose model also writes f(x) + noise into a given array, as
# _f_plus (see _propagate); a subclass that redefines f steps through its own f.
_F_WITH_OUT = (RandomWalk1D.f, ConstantVelocity2D.f)


def _check_state(model, x) -> np.ndarray:
    x = real_array("x", x)
    if x.ndim == 0:
        x = x[np.newaxis]
    if x.shape[-1] != model.state_dim:
        raise DimensionMismatch("x", f"has length {x.shape[-1]}, model expects {model.state_dim}")
    return x


def propagate(model, x, noise) -> np.ndarray:
    """Apply the motion model: f(x) + noise.

    The noise vector is an explicit argument so callers control whether it
    comes from a stream or from a fixture; zero noise gives the
    deterministic prediction. Accepts a single state (n,) or a batch (N, n)
    with matching noise. A sum past the largest double is inf, without an
    overflow warning.
    """
    x = _check_state(model, x)
    noise = real_array("noise", noise)
    if noise.ndim == 0:
        noise = noise[np.newaxis]
    if noise.shape != x.shape:
        raise DimensionMismatch("noise", f"shape {noise.shape} does not match state shape {x.shape}")
    with np.errstate(over="ignore"):
        return _propagate(model, x, noise)


def _propagate(model, x: np.ndarray, noise: np.ndarray, out=None) -> np.ndarray:
    """propagate without its checks: x a float (n,) or (N, n) array of the
    model's state length, noise a float array of the same shape. ``out``, a
    float64 array of that shape that shares no memory with noise, receives
    f(x) + noise in place of a fresh array. It runs under the caller's
    error state.

    A model whose f is a built-in model's (see _F_WITH_OUT) writes
    f(x) + noise into out with its ``_f_plus(x, noise, out)``, no array of
    its own; any other model's f output is added to the noise as a fresh
    array.
    """
    if out is None or type(model).f not in _F_WITH_OUT:
        return np.add(model.f(x), noise, out)
    return model._f_plus(x, noise, out)


def check_measurement(model, z) -> np.ndarray:
    """z as a float (o,) array; raises NonFiniteMeasurement for a component
    that is not a finite real number (see core.check_arg) and
    DimensionMismatch for a wrong shape."""
    z = check_arg("measurement", z, error=NonFiniteMeasurement)
    if z.ndim == 0:
        z = z[np.newaxis]
    if z.shape != (model.obs_dim,):
        raise DimensionMismatch("measurement", f"has shape {z.shape}, model expects ({model.obs_dim},)")
    return z


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
    z = check_measurement(model, z)
    with np.errstate(over="ignore"):
        ll = _log_likelihood(model, z, x)
    return float(ll) if ll.ndim == 0 else ll


def _log_likelihood(model, z: np.ndarray, x: np.ndarray, out=None, scratch=None):
    """log_likelihood without its checks: z as check_measurement returns it,
    x a float (n,) or (N, n) array of the model's state length. Returns a
    numpy scalar for a single state, an (N,) array for a batch. For a batch,
    ``out`` receives the result and ``scratch`` holds each later observation
    column, both float64 (N,) arrays, in place of fresh arrays. It runs
    under the caller's error state: a residual too large to square warns of
    an overflow unless the caller ignores it."""
    var = model.meas_var
    log_norm = model.meas_log_norm
    hx = model.h(x)
    # One observation column at a time, in place: each pass runs over all N
    # particles, where a sum over the o-wide last axis loops once per
    # particle, and no pass allocates a fresh (N,) array that it need not.
    # For o <= 2 the result is bit-identical to that sum (a + b == b + a).
    for j in range(model.obs_dim):
        r = np.subtract(z[j], hx[..., j], scratch if j else out)
        r *= r
        r /= var[j]
        r += log_norm[j]
        if j:
            ll += r
        else:
            ll = r
    ll *= -0.5
    return ll
