"""The particle filter against a point-mass grid filter on a nonlinear custom
model, the growth model of Gordon, Salmond & Smith (1993):

    x_k = x_{k-1} / 2 + 25 x_{k-1} / (1 + x_{k-1}^2) + noise,  noise ~ N(0, 10)
    z_k = x_k^2 / 20 + noise,                                  noise ~ N(0, 1)

h loses the sign of x, so the posterior is bimodal and no Kalman filter
applies. The oracle is exact up to its grid (Bucy & Senne 1971; Kitagawa
1987): G points on [-40, 40], a dense transition matrix whose columns are
normalized, and a pointwise likelihood update. Against a grid of 4001
points, E|x| moved by at most 1.7e-5 of its posterior sd.

The statistic is E|x|, not the mean: f is odd, h even and the prior centred,
so the exact posterior mean is 0 at every step, and a filter that ignores
its data matches it better than one that reads it.
"""

import functools

import numpy as np

from smcfilter import filter as sir
from smcfilter.core import RngStream
from smcfilter.filter import GaussianPrior
from smcfilter.models import StateSpaceModel

Q, R, PRIOR_STD = 10.0, 1.0, 2.0
T = 50
SEEDS = range(10)
GRID = np.linspace(-40.0, 40.0, 2001)

# |PF E|x| - grid E|x|| / grid sd(|x|) over 10 seeds x 50 steps read median
# 0.028, p95 0.115 and max 0.407 at N=1e3, median 0.010, p95 0.036 and max
# 0.179 at N=1e4. The filter with r = 1e12 read median 1.67 and max 20.8 at
# N=1e4. The median bound sits 3.1x above the working filter and 56x below the
# blind one, the max bound 2.8x above and 42x below. The median fell 2.9x
# from N=1e3 to N=1e4 (sqrt(10) = 3.2 for the 1/sqrt(N) law); the bound on
# that ratio is 2.
MEDIAN_BOUND = 0.03
MAX_BOUND = 0.5
MEDIAN_RATIO_BOUND = 2.0


def growth(x):
    return x / 2 + 25 * x / (1 + x * x)


class Growth(StateSpaceModel):
    """The growth model through the StateSpaceModel contract; f and h return
    fresh arrays."""

    state_dim = obs_dim = 1
    state_labels = obs_labels = ("x",)

    def __init__(self, r=R):
        self.process_var, self.meas_var = np.array([Q]), np.array([r])

    def f(self, x):
        return growth(x)

    def h(self, x):
        return x * x / 20


def measurements(seed):
    """z_1..z_T of a truth drawn from the prior, from numpy's own generator."""
    rng = np.random.default_rng(1000 + seed)
    x = rng.normal(0.0, PRIOR_STD)
    z = np.empty(T)
    for k in range(T):
        x = growth(x) + rng.normal(0.0, np.sqrt(Q))
        z[k] = x * x / 20 + rng.normal(0.0, np.sqrt(R))
    return z


@functools.lru_cache(maxsize=None)
def grid_abs():
    """The grid filter's E|x| and sd(|x|) after each measurement, (seed, step)
    arrays. Column j of the transition matrix is the N(f(x_j), Q) density on
    the grid, normalized."""
    transition = np.exp(-0.5 * (GRID[:, np.newaxis] - growth(GRID)) ** 2 / Q)
    transition /= transition.sum(axis=0)
    mean, sd = np.empty((len(SEEDS), T)), np.empty((len(SEEDS), T))
    for seed in SEEDS:
        p = np.exp(-0.5 * (GRID / PRIOR_STD) ** 2)
        p /= p.sum()
        for k, z in enumerate(measurements(seed)):
            p = transition @ p
            p *= np.exp(-0.5 * (z - GRID * GRID / 20) ** 2 / R)
            p /= p.sum()
            mean[seed, k] = p @ np.abs(GRID)
            sd[seed, k] = np.sqrt(p @ (GRID * GRID) - mean[seed, k] ** 2)
    return mean, sd


@functools.lru_cache(maxsize=None)
def errors(n, r=R):
    """|PF E|x| - grid E|x|| / grid sd(|x|) at every step of every seed, for
    N particles of a filter whose sensor variance is ``r``."""
    mean, sd = grid_abs()
    pf = np.empty_like(mean)
    for seed in SEEDS:
        state = sir.init(Growth(r), GaussianPrior([0.0], [PRIOR_STD]), n, RngStream(seed))
        for k, z in enumerate(measurements(seed)):
            sir.step(state, z)
            pf[seed, k] = np.exp(state.set.log_weights) @ np.abs(state.set.particles[:, 0])
    return (np.abs(pf - mean) / sd).ravel()


def test_error_falls_with_n():
    assert np.median(errors(1000)) >= MEDIAN_RATIO_BOUND * np.median(errors(10000))


def test_errors_within_bound():
    e = errors(10000)
    assert np.median(e) <= MEDIAN_BOUND
    assert e.max() <= MAX_BOUND


def test_a_filter_ignoring_its_data_fails_both_bounds():
    e = errors(10000, r=1e12)
    assert np.median(e) > MEDIAN_BOUND
    assert e.max() > MAX_BOUND
