"""Effective-sample-size diagnostics and the two resampling schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArgumentError, RngStream, _ess, check_arg, real_array, shown

SCHEMES = ("systematic", "multinomial")

# the largest double below 1
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def _checked_cumsum(weights) -> np.ndarray:
    """The weights' cumulative sum, its last entry pinned to exactly 1 so a
    rounding shortfall cannot walk past the last index. The sum check reads
    the entry before the pin, so the weights are summed once."""
    cumsum = real_array("weights", weights).cumsum()
    _require_sum(cumsum[-1] if cumsum.size else np.float64(0.0))
    cumsum[-1] = 1.0
    return cumsum


def effective_sample_size(weights) -> float:
    """N_eff = 1 / sum(w^2) for weights that sum to 1, taken as
    (sum e)^2 / sum(e^2) on e = w / max(w) (see core._ess): exactly N for N
    equal weights, 1 for a one-hot vector."""
    w = real_array("weights", weights)
    _require_sum(w.sum())
    e = w / w.max()
    return _ess(e, e.sum())


def systematic_resample(weights, u: float) -> np.ndarray:
    """Resample indices on a single stride of positions (i + u) / N.

    Positions are walked against the cumulative weight sum with strict
    less-than comparison. The final cumulative entry is pinned to exactly 1
    so a rounding shortfall in the sum cannot walk past the last index.
    Deterministic given (weights, u); each index i appears floor(N*w_i) or
    ceil(N*w_i) times. The weights are checked before u.
    """
    cumsum = _checked_cumsum(weights)
    # the step's float passes on the compare alone; anything else meets the
    # numeric rule first
    if not (isinstance(u, float) and 0.0 <= u < 1.0):
        check_arg("u", u, scalar=True)
        if not 0.0 <= u < 1.0:
            raise ArgumentError("u", f"must be in [0, 1), got {shown(u)}")
    n = cumsum.size
    positions = np.arange(n, dtype=float)
    positions += u
    positions /= n
    # (n-1+u)/n can round to exactly 1.0 when u is the largest double below
    # 1; pull it back inside [0, 1) so the strict walk stays in range. Every
    # earlier position is at most (n-1)/n, well below 1.
    positions[-1] = min(positions[-1], _BELOW_ONE)
    return cumsum.searchsorted(positions, side="right")


def multinomial_resample(weights, rng: RngStream) -> np.ndarray:
    """N independent inverse-CDF draws, returned sorted ascending.

    Sorting stabilizes traces and tests without changing the resampled
    distribution.
    """
    cumsum = _checked_cumsum(weights)
    draws = rng.uniform(cumsum.size)
    # searchsorted is monotone in its key, so sorting the draws first gives
    # the same indices as sorting the result, and the ordered lookups are
    # cheaper.
    draws.sort()
    return cumsum.searchsorted(draws, side="right")

