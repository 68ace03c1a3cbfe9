"""Particle-set primitives: log-domain weight arithmetic, seeded randomness,
and the basic Monte Carlo estimators.

States are plain 1-D float arrays; a particle set stacks N of them into an
(N, n) array with aligned log-weights. All weight handling stays in the log
domain until a normalized linear view is needed.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np


class ArgumentError(ValueError):
    """An argument breaks its rule. ``name`` is the argument, ``index`` the
    first offending element of an array argument (None for a scalar) and
    ``rule`` the message without them, so a caller can report the error
    under its own name for the value."""

    def __init__(self, name: str, rule: str, index: int | None = None):
        super().__init__(f"{name}{'' if index is None else f'[{index}]'} {rule}")
        self.name, self.rule, self.index = name, rule, index


class AllWeightsCollapsed(ArgumentError):
    """Every log-weight is -inf, so no normalization exists."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; bool, though an int, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):  # Python prints no int of more than 4300 digits
        return repr(x) if x.bit_length() <= 128 else f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


def shown(value) -> str:
    """A caller's value as error text of at most 60 characters: reprlib's
    bounded repr, with an int of more than 128 bits shown by its size."""
    text = _Shown().repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def real_array(name: str, value, error=ArgumentError) -> np.ndarray:
    """``value`` as a float array, the rule for every number a caller hands
    the library; a float64 array comes back as itself. Raise ``error`` for
    argument ``name`` unless every element is a Python or numpy int or float
    (bool is none): "must be a real number" names the first other element by
    its flat index, "must be finite" the first integer beyond the float range."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return np.asarray(value, dtype=float)
    obj = np.asarray(value, dtype=object)
    values = obj.ravel().tolist()
    for i, v in enumerate(values):
        if not (is_integer(v) or isinstance(v, (float, np.floating))):
            if obj.ndim == 0:
                raise error(name, f"must be a real number, got {shown(value)}")
            raise error(name, f"must be a real number, got {shown(v)}", i)
    try:
        return obj.astype(float)
    except OverflowError:  # an integer beyond the float range: name the first
        for i, v in enumerate(values):
            try:
                float(v)
            except OverflowError:
                raise error(name, f"must be finite, got {shown(v)}", i if obj.ndim else None) from None


def weight_vector(name: str, value) -> np.ndarray:
    """``value`` as a float array (see real_array); raise ArgumentError for
    argument ``name`` unless it has one dimension."""
    arr = real_array(name, value)
    if arr.ndim != 1:
        raise ArgumentError(name, f"must be a 1-D array, got shape {arr.shape}")
    return arr


def check_arg(name: str, value, low=None, high=None, strict=False, integer=False,
              scalar=False, error=ArgumentError):
    """``value`` as a float array (see real_array). Raise ``error`` for
    argument ``name`` unless every element is finite and lies in [low, high],
    with low itself excluded when ``strict``; a bound of None is open. With
    ``integer``, ``value`` must also be a single integer (see is_integer),
    with ``scalar`` a single real number."""
    if integer and not is_integer(value):
        raise error(name, f"must be an integer, got {shown(value)}")
    arr = real_array(name, value, error)
    if scalar and arr.ndim:
        raise error(name, f"must be a real number, got {shown(value)}")
    bound = None
    if high is not None:
        bound = f"must be in [{low:g}, {high:g}]"
    elif low is not None:
        bound = f"must be {'>' if strict else '>='} {low:g}"
    for i, v in enumerate(arr.ravel().tolist()):
        if not math.isfinite(v):
            rule = "must be finite"
        elif (low is not None and (v < low or strict and v == low)) or (high is not None and v > high):
            rule = bound
        else:
            continue
        if arr.ndim == 0:  # only an int can print too long; a numpy scalar prints as a number
            raise error(name, f"{rule}, got {shown(value) if isinstance(value, int) else value}")
        raise error(name, f"{rule}, got {v}", i)
    return arr


class RngStream:
    """Seeded random stream backed by numpy's PCG64 generator.

    Two streams built from the same seed produce identical draw sequences.
    Array draws fill in C order and are bit-identical to the same number of
    scalar draws, so vectorized sampling consumes the stream exactly as a
    per-particle loop would. Supported draw kinds: standard normal and
    uniform on [0, 1).
    """

    def __init__(self, seed: int):
        if not is_integer(seed):
            raise ArgumentError("seed", f"must be an integer, got {shown(seed)}")
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ArgumentError("seed", f"must be an unsigned 64-bit integer, got {shown(seed)}")
        self._seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    @property
    def seed(self) -> int:
        return self._seed

    def standard_normal(self, shape=None, out=None):
        """Standard-normal draw; scalar when shape and out are None. Given
        ``out``, a float64 array of that shape, the draws fill it and it is
        returned, with the values a fresh array would hold."""
        if shape is None and out is None:
            return float(self._gen.standard_normal())
        return self._gen.standard_normal(shape, out=out)

    def uniform(self, shape=None, out=None):
        """Uniform draw on [0, 1); scalar when shape and out are None. ``out``
        works as for standard_normal."""
        if shape is None and out is None:
            return float(self._gen.random())
        return self._gen.random(shape, out=out)

    def __repr__(self) -> str:
        return f"RngStream(seed={self._seed})"


@dataclass
class ParticleSet:
    """N state hypotheses with aligned log-weights; the empirical posterior.

    ``particles`` has shape (N, n); a 1-D input of length N is treated as N
    scalar states. Log-weights may be -inf (weight 0) but not NaN or +inf.
    Linear weights are exact once the log-weights are normalized (the
    maintained state between filter steps).
    """

    particles: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        arr = real_array("particles", self.particles)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ArgumentError("particles", f"must be a non-empty (N, n) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            check_arg("particles", arr)  # raises at the first non-finite element
        lw = real_array("log_weights", self.log_weights)
        if lw.shape != (arr.shape[0],):
            raise ArgumentError("log_weights", f"shape {lw.shape} does not match {arr.shape[0]} particles")
        if not (lw < np.inf).all():
            i = int(np.argmin(lw < np.inf))
            raise ArgumentError("log_weights", f"must not be NaN or +inf, got {lw[i]}", i)
        self.particles = arr
        self.log_weights = lw

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Linear weights, exp(log_weights)."""
        return np.exp(self.log_weights)

    @classmethod
    def _trusted(cls, particles: np.ndarray, log_weights: np.ndarray):
        """Build a set without validation, from arrays the caller has built
        in the required form: (N, n) finite particles, (N,) log-weights < +inf."""
        pset = cls.__new__(cls)
        pset.particles = particles
        pset.log_weights = log_weights
        return pset

    @classmethod
    def uniform(cls, particles) -> "ParticleSet":
        """Build a set with equal weights 1/N."""
        arr = real_array("particles", particles)
        # a scalar or empty input meets the constructor's check, not an
        # IndexError or log(0)'s warning
        n = arr.shape[0] if arr.ndim else 0
        return cls(arr, np.full(n, -np.log(max(n, 1))))


def _ess(e: np.ndarray, s) -> float:
    """ESS (sum e)^2 / sum(e^2) of weights proportional to e, whose sum is s
    (Chopin & Papaspiliopoulos 2020). With max(e) = 1 it is exactly N for N
    equal weights, which 1 / sum(w^2) of normalized weights can miss."""
    return float(s * (s / np.vdot(e, e)))


_FLOAT64 = np.dtype(np.float64)


def normalize_weights(log_weights, out=None) -> tuple[np.ndarray, float, float, float]:
    """Normalize log-weights: (w, m, s, ess) with m = max(lw),
    s = sum(exp(lw - m)), the linear weights w = exp(lw - m) / s and their
    effective sample size ess = s * (s / sum(exp(lw - m)^2)) (see _ess).

    The shift by m makes the largest term exp(0), so underflow can never zero
    out the whole vector; w always sums to 1 up to float rounding. The ESS is
    taken on the same shifted exponentials before the divide, so it is NaN
    only if a log-weight is NaN or +inf. m + log(s) is log(sum(exp(lw))).
    The normalized log-weights are (lw - m) - log(s), subtracted in that
    order: for |m| beyond ~1e16, m + log(s) rounds to m and lw - (m + log(s))
    would no longer be normalized (Blanchard, Higham & Higham 2021).
    ``out``, a writeable float64 array of lw's shape, receives w in place of
    a fresh array; it may be lw itself. Another ``out`` raises ArgumentError.
    Log-weights that are not one non-empty 1-D array raise ArgumentError.
    """
    lw = weight_vector("log_weights", log_weights)
    if lw.size < 1:
        raise ArgumentError("log_weights", "must not be empty")
    if out is not None and (getattr(out, "dtype", None) is not _FLOAT64 or out.shape != lw.shape
                            or not out.flags.writeable):
        got = (f"{'' if out.flags.writeable else 'read-only '}{out.dtype} {out.shape}"
               if isinstance(out, np.ndarray) else shown(out))
        raise ArgumentError("out", f"must be a writeable float64 array of shape {lw.shape}, got {got}")
    m = lw.max()
    if m == -np.inf:
        raise AllWeightsCollapsed("log_weights", "are all -inf")
    if m > 0:
        # lw - m can leave the float range only here, m = +inf included: a
        # difference below it is -inf, a weight of 0, and inf - inf is NaN,
        # which the NaN ESS reports
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.subtract(lw, m, out)
    else:
        w = np.subtract(lw, m, out)
    np.exp(w, out=w)
    s = w.sum()
    ess = _ess(w, s)
    w /= s
    return w, m, s, ess


def weighted_mean(particles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Posterior-mean point estimate, sum_i w_i * x_i componentwise, of
    (N, n) particles under N normalized linear weights."""
    return weights @ particles


def map_estimate(particles: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """The particle with the largest log-weight, as a copy; ties go to the
    lowest index."""
    return particles[int(np.argmax(log_weights))].copy()
