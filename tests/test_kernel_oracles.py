"""The hot-path kernels against the formulas they replaced, bit for bit.

Each oracle below keeps the arithmetic of the earlier implementation
verbatim, minus its input checks. The kernels were rewritten for speed on the
condition that every seeded trace stays byte-identical, so the comparisons
use ``np.array_equal``, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter import filter as sir
from smcfilter.core import ParticleSet, RngStream, normalize_weights, normalized_log_weights
from smcfilter.models import ConstantVelocity2D, RandomWalk1D, log_likelihood, propagate
from smcfilter.resampling import (
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    systematic_resample,
)


def oracle_log_likelihood(model, z, x):
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    var = model.meas_var
    residual = z - model.h(x)
    ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + residual**2 / var, axis=-1)
    return float(ll) if np.ndim(ll) == 0 else ll


def oracle_systematic(weights, u):
    n = weights.size
    positions = (np.arange(n) + u) / n
    np.minimum(positions, np.nextafter(1.0, 0.0), out=positions)
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    return np.searchsorted(cumsum, positions, side="right").astype(np.intp)


def oracle_multinomial(weights, rng):
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    draws = rng.uniform(weights.size)
    indices = np.searchsorted(cumsum, draws, side="right").astype(np.intp)
    return np.sort(indices)


def oracle_step(state, z):
    """One step of the earlier filter.step, for a state that resamples."""
    model, pset = state.model, state.set
    n = pset.n_particles
    scale = np.sqrt(model.process_var)
    noises = state.rng.standard_normal((n, pset.dim)) * scale
    predicted = propagate(model, pset.particles, noises)
    log_w = pset.log_weights + oracle_log_likelihood(model, z, predicted)
    weights = normalize_weights(log_w)
    if state.policy.scheme == "systematic":
        indices = oracle_systematic(weights, state.rng.uniform())
    else:
        indices = oracle_multinomial(weights, state.rng)
    return predicted[indices], effective_sample_size(weights)


MODELS = {
    "rw1d": lambda r: RandomWalk1D(q=1.0, r=r),
    "cv2d": lambda r: ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=r),
}

model_names = st.sampled_from(sorted(MODELS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
variances = st.floats(min_value=1e-6, max_value=1e6)
# orders of magnitude, so that measurements span 1e-150 .. 1e150
magnitudes = st.integers(min_value=-150, max_value=150)


def particles(model, n, seed, spread):
    return RngStream(seed).standard_normal((n, model.state_dim)) * spread


def measurement(model, seed, magnitude):
    signs = RngStream(seed + 1).uniform(model.obs_dim) - 0.5
    return signs * 10.0**magnitude


def weight_vector(n, seed, zero_fraction):
    """Normalized weights with a share of exact zeros (at least one nonzero)."""
    rng = RngStream(seed)
    w = rng.uniform(n)
    w[rng.uniform(n) < zero_fraction] = 0.0
    w[int(rng.uniform() * n)] += 1.0
    return w / w.sum()


class TestLogLikelihood:
    @settings(max_examples=60, deadline=None)
    @given(model_names, st.integers(1, 5000), seeds, variances, magnitudes, magnitudes)
    def test_batch_matches_oracle(self, name, n, seed, r, z_mag, x_mag):
        model = MODELS[name](r)
        x = particles(model, n, seed, 10.0**x_mag)
        z = measurement(model, seed, z_mag)
        got = log_likelihood(model, z, x)
        assert np.array_equal(got, oracle_log_likelihood(model, z, x))
        assert got.shape == (n,)

    @settings(max_examples=60, deadline=None)
    @given(model_names, seeds, variances, magnitudes, magnitudes)
    def test_single_state_matches_oracle(self, name, seed, r, z_mag, x_mag):
        model = MODELS[name](r)
        x = particles(model, 1, seed, 10.0**x_mag)[0]
        z = measurement(model, seed, z_mag)
        got = log_likelihood(model, z, x)
        assert isinstance(got, float)
        assert got == oracle_log_likelihood(model, z, x)


class TestResampling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), seeds, st.floats(0.0, 0.95), st.floats(0.0, 1.0, exclude_max=True))
    def test_systematic_matches_oracle(self, n, seed, zero_fraction, u):
        w = weight_vector(n, seed, zero_fraction)
        got = systematic_resample(w, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, oracle_systematic(w, u))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), seeds, st.floats(0.0, 0.95))
    def test_multinomial_matches_oracle(self, n, seed, zero_fraction):
        w = weight_vector(n, seed, zero_fraction)
        rng, oracle_rng = RngStream(seed), RngStream(seed)
        got = multinomial_resample(w, rng)
        assert got.dtype == np.intp
        assert np.array_equal(got, oracle_multinomial(w, oracle_rng))
        # both consumed exactly N uniforms
        assert rng.uniform() == oracle_rng.uniform()


class TestStep:
    @settings(max_examples=40, deadline=None)
    @given(model_names, st.integers(1, 5000), seeds, st.sampled_from(["systematic", "multinomial"]))
    def test_resampling_step_matches_oracle(self, name, n, seed, scheme):
        """Covers the in-place noise scaling and the survivor gather."""
        model = MODELS[name](2.0)
        x = particles(model, n, seed, 3.0)
        # uneven log-weights so that ESS < N and threshold 1 fires, N = 1 aside
        log_w = normalized_log_weights(RngStream(seed + 2).uniform(n))
        z = measurement(model, seed, 0)

        def fresh():
            return sir.FilterState(
                set=ParticleSet(x.copy(), log_w.copy()),
                model=model,
                policy=ResamplePolicy(scheme, 1.0),
                rng=RngStream(seed),
            )

        outcome = sir.step(fresh(), z)
        if not outcome.resampled:
            assert n == 1
            return
        expected, ess = oracle_step(fresh(), z)
        assert outcome.ess == ess
        assert np.array_equal(outcome.state.set.particles, expected)
        assert np.array_equal(outcome.state.set.log_weights, np.full(n, -np.log(n)))
