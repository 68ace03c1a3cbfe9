"""The particle filter against the exact Kalman filter on both built-in models
and on generated linear-Gaussian custom models.

Every model here is linear Gaussian, so the Kalman posterior is exact and
the particle filter's weighted mean must approach it as 1/sqrt(N). The gap is
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
from smcfilter.models import ConstantVelocity2D, RandomWalk1D, StateSpaceModel
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


class LinearGaussian(StateSpaceModel):
    """A custom model through the StateSpaceModel contract: f(x) = x @ F.T,
    h(x) = x @ H.T, diagonal noise variances q and r."""

    def __init__(self, F, H, q, r):
        self.F, self.H = F, H
        self.obs_dim, self.state_dim = H.shape
        self.state_labels = tuple(f"x{i}" for i in range(self.state_dim))
        self.obs_labels = tuple(f"z{j}" for j in range(self.obs_dim))
        self.process_var, self.meas_var = q, r

    def f(self, x):
        return x @ self.F.T

    def h(self, x):
        return x @ self.H.T


def generated_model(seed):
    """n in 1..6 and o in 1..5, a dense F scaled to spectral radius 1, a dense
    H, q from U(0.05, 1) and r from U(0.5, 4) per component."""
    rng = np.random.default_rng(seed)
    n, o = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    A = rng.normal(size=(n, n))
    F = A / np.abs(np.linalg.eigvals(A)).max()
    H = rng.normal(size=(o, n))
    return LinearGaussian(F, H, rng.uniform(0.05, 1.0, n), rng.uniform(0.5, 4.0, o))


GENERATED_SEEDS = range(30)
GENERATED_N = 2000

# kf_gap over the 30 generated models read max 0.282, p90 0.221 and median
# 0.080 (T=31, N=2000); the same filter with R x 1e12 on the same
# measurements read min 0.655 and median 3.35. The bound sits 1.6x above the
# worst model and 1.46x below the least blind run.
GENERATED_BOUND = 0.45


@functools.lru_cache(maxsize=None)
def generated_run(seed):
    """(model, prior, run_scenario's trace) for generated model ``seed``."""
    model = generated_model(seed)
    n = model.state_dim
    prior = GaussianPrior(np.zeros(n), np.ones(n))
    return model, prior, run_scenario(Scenario(model, 31, prior, np.zeros(n), GENERATED_N), seed)


def generated_gaps(blind=False):
    """kf_gap per generated model; with ``blind`` from a filter with R x 1e12
    on the same measurements."""
    kalman = load_kalman()
    out = []
    for seed in GENERATED_SEEDS:
        model, prior, trace = generated_run(seed)
        measurements = trace.measurement[1:]
        estimates = trace.estimate[1:]
        if blind:
            deaf = LinearGaussian(model.F, model.H, model.process_var, model.meas_var * 1e12)
            state = sir.init(deaf, prior, GENERATED_N, RngStream(seed))
            estimates = np.array([sir.step(state, z).estimate for z in measurements])
        means, covs = kalman.kalman_filter(model, prior.mean, prior.std, measurements)
        out.append(kalman.kf_gap(model, estimates, means, covs))
    return np.array(out)


def test_generated_models_cover_every_size():
    models = [generated_model(seed) for seed in GENERATED_SEEDS]
    assert {m.state_dim for m in models} == set(range(1, 7))
    assert {m.obs_dim for m in models} == set(range(1, 6))


def test_generated_models_within_bound():
    for seed in GENERATED_SEEDS:
        trace = generated_run(seed)[2]
        assert np.isfinite(trace.estimate).all()
        assert ((1.0 <= trace.ess) & (trace.ess <= GENERATED_N)).all()
    assert (generated_gaps() <= GENERATED_BOUND).all()


def test_a_filter_ignoring_its_data_fails_the_generated_bound():
    assert (generated_gaps(blind=True) > GENERATED_BOUND).all()
