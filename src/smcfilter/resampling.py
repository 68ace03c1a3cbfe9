"""Effective-sample-size diagnostics and the two resampling schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArgumentError, RngStream, _ess, check_arg, shown, weight_vector

SCHEMES = ("systematic", "multinomial")

# the largest double below 1
_BELOW_ONE = np.nextafter(1.0, 0.0)

# From this many weights on, systematic_resample finds its indices in closed
# form. Measured per call, cumsum included, on a 2-core VM (closed form vs
# searchsorted, us): N=1024 29-47 vs 31-47 on uniform random weights, 30-46
# vs 24-37 on peaked ones; N=2048 39-56 vs 61-83 uniform, 41-57 vs 47-70
# peaked; N=8192 101 vs 251 uniform; N=1e5 1.15-1.26 ms vs 2.9-3.7 ms.
CLOSED_FORM_MIN_N = 2048


class NotNormalized(ArgumentError):
    """Weights do not sum to 1 within tolerance, or are NaN."""


@dataclass(frozen=True)
class ResamplePolicy:
    """When and how to resample: fire when n_eff < threshold_fraction * N.

    The comparison is strict, so threshold_fraction 0 disables resampling
    entirely and 1 fires whenever n_eff < N: a single particle, or exactly
    uniform weights, never resample.
    """

    scheme: str = "systematic"
    threshold_fraction: float = 0.5

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ArgumentError("scheme", f"must be one of {SCHEMES}, got {shown(self.scheme)}")
        fraction = check_arg("threshold_fraction", self.threshold_fraction, low=0.0, high=1.0,
                             scalar=True)
        object.__setattr__(self, "threshold_fraction", float(fraction))


def _require_sum(total) -> None:
    # written so that a NaN sum fails too
    if not abs(total - 1.0) <= 1e-6:
        raise NotNormalized("weights", f"sum to {float(total)!r}, expected 1")


class ResampleScratch:
    """Arrays that a resampler of N weights fills in place of fresh ones:
    ``cumsum``, float64 (N,), ``keys``, float64 (N+1,), whose memory the
    closed-form search reuses for integers once their floats are spent, and
    ``indices``, intp (N,), the closed-form search's result. The weights
    handed to the resampler may be ``cumsum`` itself, which the call then
    overwrites."""

    def __init__(self, n: int):
        check_arg("n", n, low=1, integer=True)
        self.cumsum = np.empty(n)
        self.keys = np.empty(n + 1)
        self.indices = np.empty(n, dtype=np.intp)


def _checked_cumsum(weights, scratch=None) -> np.ndarray:
    """The weights' cumulative sum, into ``scratch.cumsum`` if a scratch is
    given, its last entry pinned to exactly 1 so a rounding shortfall cannot
    walk past the last index. The sum check reads the entry before the pin,
    so the weights are summed once. Weights that are not 1-D raise
    ArgumentError."""
    w = weight_vector("weights", weights)
    if scratch is not None and scratch.cumsum.size != w.size:
        raise ArgumentError("scratch", f"is for {scratch.cumsum.size} weights, got {w.size}")
    cumsum = np.cumsum(w, out=None if scratch is None else scratch.cumsum)
    _require_sum(cumsum[-1] if cumsum.size else np.float64(0.0))
    cumsum[-1] = 1.0
    return cumsum


def effective_sample_size(weights) -> float:
    """N_eff = 1 / sum(w^2) for weights that sum to 1, taken as
    (sum e)^2 / sum(e^2) on e = w / max(w) (see core._ess): exactly N for N
    equal weights, 1 for a one-hot vector. Weights that are not 1-D raise
    ArgumentError."""
    w = weight_vector("weights", weights)
    _require_sum(w.sum())
    e = w / w.max()
    return _ess(e, e.sum())


def systematic_resample(weights, u: float, scratch=None) -> np.ndarray:
    """Resample indices on a single stride of positions (i + u) / N.

    Positions are walked against the cumulative weight sum with strict
    less-than comparison. The final cumulative entry is pinned to exactly 1
    so a rounding shortfall in the sum cannot walk past the last index.
    Deterministic given (weights, u); each index i appears floor(N*w_i) or
    ceil(N*w_i) times. The weights are checked before u. ``scratch`` (a
    ResampleScratch for N) holds the search's arrays in place of fresh ones.

    From CLOSED_FORM_MIN_N weights on, the search runs in closed form (see
    _closed_form_search); it returns searchsorted's indices bit for bit.
    Away from a near tie they are the scratch's ``indices``, which the next
    call overwrites; below CLOSED_FORM_MIN_N, and on a near tie, they are a
    fresh array.
    """
    cumsum = _checked_cumsum(weights, scratch)
    # the step's float passes on the compare alone; anything else meets the
    # numeric rule first
    if not (isinstance(u, float) and 0.0 <= u < 1.0):
        check_arg("u", u, scalar=True)
        if not 0.0 <= u < 1.0:
            raise ArgumentError("u", f"must be in [0, 1), got {shown(u)}")
    if cumsum.size >= CLOSED_FORM_MIN_N:
        return _closed_form_search(cumsum, float(u), scratch or ResampleScratch(cumsum.size))
    return _binary_search(cumsum, u)


def _binary_search(cumsum: np.ndarray, u: float) -> np.ndarray:
    """searchsorted(cumsum, side="right") at the positions (i + u) / N."""
    n = cumsum.size
    positions = np.arange(n, dtype=float)
    positions += u
    positions /= n
    # (n-1+u)/n can round to exactly 1.0 when u is the largest double below
    # 1; pull it back inside [0, 1) so the strict walk stays in range. Every
    # earlier position is at most (n-1)/n, well below 1.
    positions[-1] = min(positions[-1], _BELOW_ONE)
    return cumsum.searchsorted(positions, side="right")


def _closed_form_search(cumsum: np.ndarray, u: float, scratch: ResampleScratch) -> np.ndarray:
    """searchsorted(cumsum, positions, side="right") for systematic_resample's
    positions p_i, in O(N) passes and, away from a near tie, no fresh array:
    the indices are ``scratch.indices``.

    The index of position i is the number of cumulative entries c_j <= p_i.
    Counted from the other side, K_j, the number of positions below c_j,
    solves (i + u) / N < c_j as ceil(t_j), t_j = N c_j - u, clipped to
    [0, N]. Then c_j <= p_i holds exactly when K_j <= i, so the index of
    position i is the count of K_j <= i: a histogram of K, summed.

    The solve is exact unless t_j lies near an integer. Let e = 2^-53, the
    unit roundoff. For 0 <= c_j < 1:
    - a rounded position p_i = fl(fl(i + u) / N), pulled below 1 for
      i = N-1, is within (2e + e^2) (i + u) / N < 2.01e of (i + u) / N, so
      p_i < c_j decides as i < t_j does unless |i - t_j| <= 2.01 N e;
    - the probe fl(fl(N c_j) - u) is within N c_j e + |fl(N c_j) - u| e
      <= 2 N e of t_j;
    - the gap ceil(probe) - probe is exact for probe >= 1 (Sterbenz) and
      for probe <= 0, and within e of exact between.
    So when the gap lies in [M, 1 - M] with the margin M(N) = N 2^-48
    = 32 N e, the probe is more than 4.02 N e from every integer: no integer
    lies between it and t_j, and none within 2.01 N e of t_j. Then K_j is
    ceil(probe) clipped to [0, N]. Other entries need no margin: c_j < 0
    has K_j = 0 and ceil(probe) <= 0; c_j >= 1 (partial sums may pass 1 by
    the sum check's 1e-6, or by more with negative weights) has K_j = N and
    ceil(probe) >= N, unless probe = N - 1 exactly, at gap 0. If any gap
    falls outside [M, 1 - M], the binary search, whose indices the solve
    reproduces, runs instead on the cumulative sum, still intact.
    """
    n = cumsum.size
    k = scratch.indices
    probe = scratch.keys[:n]
    np.multiply(cumsum, n, out=probe)
    probe -= u
    # the solve in float64, in the memory of the result
    k_hat = np.ceil(probe, out=k.view(np.float64))
    gap = np.subtract(k_hat, probe, out=probe)
    margin = n * 2.0**-48
    if gap.min() < margin or gap.max() > 1.0 - margin:
        return _binary_search(cumsum, u)
    # the cumulative sum is spent: it takes K as integers
    counted = np.clip(k_hat, 0, n, out=cumsum.view(np.intp), casting="unsafe")
    counts = scratch.keys.view(np.intp)[: n + 1]
    counts.fill(0)
    np.add.at(counts, counted, 1)
    return np.cumsum(counts[:n], out=k)


def multinomial_resample(weights, rng: RngStream, scratch=None) -> np.ndarray:
    """N independent inverse-CDF draws, returned sorted ascending.

    Sorting stabilizes traces and tests without changing the resampled
    distribution. ``scratch`` (a ResampleScratch for N) holds the cumulative
    sum and the draws in place of fresh arrays; the indices are fresh.
    """
    cumsum = _checked_cumsum(weights, scratch)
    n = cumsum.size
    draws = rng.uniform(n, None if scratch is None else scratch.keys[:n])
    # searchsorted is monotone in its key, so sorting the draws first gives
    # the same indices as sorting the result, and the ordered lookups are
    # cheaper.
    draws.sort()
    return cumsum.searchsorted(draws, side="right")
