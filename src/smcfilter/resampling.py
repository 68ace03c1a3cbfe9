"""Effective-sample-size diagnostics and the two resampling schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream

SCHEMES = ("systematic", "multinomial")


class NotNormalized(ValueError):
    """Weights do not sum to 1 within tolerance."""


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
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 <= self.threshold_fraction <= 1.0:
            raise ValueError(
                f"threshold_fraction must be in [0, 1], got {self.threshold_fraction}"
            )


def _checked(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    # written so that a NaN sum fails too
    if not abs(total - 1.0) <= 1e-6:
        raise NotNormalized(f"weights sum to {total!r}, expected 1")
    return w


def effective_sample_size(weights) -> float:
    """N_eff = 1 / sum(w^2); N for uniform weights, 1 for a one-hot vector."""
    w = _checked(weights)
    return float(1.0 / np.sum(w * w))


def systematic_resample(weights, u: float) -> np.ndarray:
    """Resample indices on a single stride of positions (i + u) / N.

    Positions are walked against the cumulative weight sum with strict
    less-than comparison. The final cumulative entry is pinned to exactly 1
    so a rounding shortfall in the sum cannot walk past the last index.
    Deterministic given (weights, u); each index i appears floor(N*w_i) or
    ceil(N*w_i) times.
    """
    w = _checked(weights)
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    n = w.size
    positions = (np.arange(n) + u) / n
    # (n-1+u)/n can round to exactly 1.0 when u is the largest double below
    # 1; pull it back inside [0, 1) so the strict walk stays in range
    np.minimum(positions, np.nextafter(1.0, 0.0), out=positions)
    cumsum = np.cumsum(w)
    cumsum[-1] = 1.0
    return np.searchsorted(cumsum, positions, side="right")


def multinomial_resample(weights, rng: RngStream) -> np.ndarray:
    """N independent inverse-CDF draws, returned sorted ascending.

    Sorting stabilizes traces and tests without changing the resampled
    distribution.
    """
    w = _checked(weights)
    n = w.size
    cumsum = np.cumsum(w)
    cumsum[-1] = 1.0
    draws = rng.uniform(n)
    # searchsorted is monotone in its key, so sorting the draws first gives
    # the same indices as sorting the result, and the ordered lookups are
    # cheaper.
    draws.sort()
    return np.searchsorted(cumsum, draws, side="right")


def should_resample(policy: ResamplePolicy, n_eff: float, n: int) -> bool:
    """True iff n_eff < threshold_fraction * n (strict)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return bool(n_eff < policy.threshold_fraction * n)
