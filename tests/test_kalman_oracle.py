"""The particle filter against the exact Kalman filter on both built-in models.

Both models are linear Gaussian, so the Kalman posterior is exact and the
particle filter's weighted mean must approach it as 1/sqrt(N). The gap is
bench/kalman.kf_gap: the RMS distance from the Kalman mean in measurement
space over the RMS Kalman posterior std there. The oracle is loaded by path,
as the benchmark runs it, and nothing in bench/ is changed.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from smcfilter import filter as sir
from smcfilter.core import RngStream
from smcfilter.filter import GaussianPrior
from smcfilter.models import ConstantVelocity2D, RandomWalk1D
from smcfilter.sim import Scenario, run_scenario

KALMAN_PATH = Path(__file__).resolve().parents[1] / "bench" / "kalman.py"

T = 101
SEEDS = range(5)
NS = (100, 1000, 10000)

# name -> (model, the same model with a sensor too noisy to inform, prior, truth)
CASES = {
    "rw1d": (
        RandomWalk1D(q=1.0, r=4.0),
        RandomWalk1D(q=1.0, r=1e12),
        GaussianPrior([0.0], [2.0]),
        [0.0],
    ),
    "cv2d": (
        ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=2.0),
        ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=1e12),
        GaussianPrior([0.0] * 4, [2.0] * 4),
        [0.0, 0.0, 1.0, 0.5],
    ),
}

# Bounds on gap * sqrt(N). rw1d read 1.15-2.06 per seed. cv2d's medians over
# the seeds read 4.3-6.5, but one seed at N=1e4 reads 0.28 after an ESS dip
# to 153 at step 76, so cv2d is bounded in the median only.
RW1D_BOUND = 3.0
CV2D_MEDIAN_BOUND = 10.0


def load_kalman():
    spec = importlib.util.spec_from_file_location("smcfilter_bench_kalman", KALMAN_PATH)
    kalman = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kalman)
    return kalman


@functools.lru_cache(maxsize=None)
def seeded_trace(name, n, seed):
    model, _, prior, truth = CASES[name]
    return run_scenario(Scenario(model, T, prior, truth, n), seed)


def gaps(name, n, blind=False):
    """kf_gap per seed for N particles. With ``blind`` the filter runs on the
    same measurements with a sensor variance of 1e12, so it ignores them."""
    kalman = load_kalman()
    model, blind_model, prior, _ = CASES[name]
    out = []
    for seed in SEEDS:
        trace = seeded_trace(name, n, seed)
        measurements = trace.measurement[1:]
        estimates = trace.estimate[1:]
        if blind:
            state = sir.init(blind_model, prior, n, RngStream(seed))
            estimates = np.array([sir.step(state, z).estimate for z in measurements])
        means, covs = kalman.kalman_filter(model, prior.mean, prior.std, measurements)
        out.append(kalman.kf_gap(model, estimates, means, covs))
    return np.array(out)


@pytest.mark.parametrize("n", NS)
def test_rw1d_every_seed_within_bound(n):
    assert (gaps("rw1d", n) * np.sqrt(n) <= RW1D_BOUND).all()


@pytest.mark.parametrize("n", NS)
def test_cv2d_median_within_bound(n):
    assert np.median(gaps("cv2d", n)) * np.sqrt(n) <= CV2D_MEDIAN_BOUND


@pytest.mark.parametrize("n", NS)
def test_a_filter_ignoring_its_data_fails_both_bounds(n):
    assert (gaps("rw1d", n, blind=True) * np.sqrt(n) > RW1D_BOUND).all()
    assert np.median(gaps("cv2d", n, blind=True)) * np.sqrt(n) > CV2D_MEDIAN_BOUND
