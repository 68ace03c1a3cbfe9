"""The hot-path kernels against the formulas they replaced, bit for bit.

Each oracle below keeps the arithmetic of the earlier implementation
verbatim, minus its input checks; the log-domain normalizer's oracle follows
its absorption fix, (lw - m) - log(s), which the step took since. The
kernels were rewritten for speed on the condition that every seeded trace
stays byte-identical, so the comparisons use ``np.array_equal``, not a
tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter import filter as sir
from smcfilter.core import (
    AllWeightsCollapsed,
    ParticleSet,
    RngStream,
    normalize_weights,
)
from smcfilter.models import ConstantVelocity2D, RandomWalk1D, log_likelihood, propagate
from smcfilter.resampling import ResamplePolicy, multinomial_resample, systematic_resample


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


def oracle_normalize_weights(log_weights):
    m = np.max(log_weights)
    if m == -np.inf:
        raise AllWeightsCollapsed("all log-weights are -inf")
    shifted = np.exp(log_weights - m)
    return shifted / shifted.sum()


def oracle_normalized_log_weights(log_weights):
    # (lw - m) - log(s), not lw - (m + log(s)): the latter loses log(s) when
    # |m| is beyond ~1e16 and leaves the weights unnormalized
    m = np.max(log_weights)
    return (log_weights - m) - np.log(np.sum(np.exp(log_weights - m)))


def oracle_step(state, z):
    """One step of the earlier filter.step, which normalized twice.

    Returns (particles, log-weights, ESS, estimate, resampled, degenerate).
    """
    model, pset, policy = state.model, state.set, state.policy
    n = pset.n_particles
    scale = np.sqrt(model.process_var)
    noises = state.rng.standard_normal((n, pset.dim)) * scale
    predicted = propagate(model, pset.particles, noises)
    log_w = pset.log_weights + oracle_log_likelihood(model, z, predicted)
    degenerate = False
    try:
        weights = oracle_normalize_weights(log_w)
        log_w = oracle_normalized_log_weights(log_w)
    except AllWeightsCollapsed:
        degenerate = True
        weights = np.full(n, 1.0 / n)
        log_w = np.full(n, -np.log(n))
    ess = float(1.0 / np.sum(weights * weights))
    resampled = bool(ess < policy.threshold_fraction * n)
    if resampled:
        if policy.scheme == "systematic":
            indices = oracle_systematic(weights, state.rng.uniform())
        else:
            indices = oracle_multinomial(weights, state.rng)
        predicted = predicted[indices]
        log_w = np.full(n, -np.log(n))
    if state.estimator == "map":
        estimate = predicted[int(np.argmax(log_w))].copy()
    else:
        estimate = np.exp(log_w) @ predicted
    return predicted, log_w, ess, estimate, resampled, degenerate


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


class TestNormalize:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), seeds, st.floats(0.0, 0.95), magnitudes)
    def test_normalizer_matches_oracle(self, n, seed, zero_fraction, magnitude):
        # log-weights spread over ~1e-150 .. 1e150, with a share of -inf
        log_w = RngStream(seed).standard_normal(n) * 10.0 ** (magnitude / 2)
        log_w[weight_vector(n, seed + 1, zero_fraction) == 0.0] = -np.inf
        before = log_w.copy()
        w, m, s = normalize_weights(log_w)
        assert np.array_equal(w, oracle_normalize_weights(log_w))
        # the oracle's shift and sum
        assert m == np.max(log_w)
        assert s == np.exp(log_w - m).sum()
        # it does not write into its input
        assert np.array_equal(log_w, before)


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


def assert_step_matches_oracle(model, x, log_w, z, seed, policy, estimator="weighted_mean"):
    """Step a fresh state and the oracle from the same inputs; returns the outcome."""

    def fresh():
        return sir.FilterState(
            set=ParticleSet(x.copy(), log_w.copy()),
            model=model,
            policy=policy,
            rng=RngStream(seed),
            estimator=estimator,
        )

    state, oracle_state = fresh(), fresh()
    outcome = sir.step(state, z)
    particles, log_weights, ess, estimate, resampled, degenerate = oracle_step(oracle_state, z)
    assert np.array_equal(state.set.particles, particles)
    assert np.array_equal(state.set.log_weights, log_weights)
    assert outcome.ess == ess
    assert np.array_equal(outcome.estimate, estimate)
    assert (outcome.resampled, outcome.degenerate) == (resampled, degenerate)
    assert state.set.generation == 1
    # both consumed the same number of draws
    assert state.rng.uniform() == oracle_state.rng.uniform()
    return outcome


class TestStep:
    @settings(max_examples=40, deadline=None)
    @given(model_names, st.integers(1, 5000), seeds, st.sampled_from(["systematic", "multinomial"]))
    def test_resampling_step_matches_oracle(self, name, n, seed, scheme):
        """Covers the in-place noise scaling and the survivor gather."""
        model = MODELS[name](2.0)
        x = particles(model, n, seed, 3.0)
        # uneven log-weights so that ESS < N and threshold 1 fires, N = 1 aside
        log_w = oracle_normalized_log_weights(RngStream(seed + 2).uniform(n))
        z = measurement(model, seed, 0)
        outcome = assert_step_matches_oracle(
            model, x, log_w, z, seed, ResamplePolicy(scheme, 1.0)
        )
        assert outcome.resampled or n == 1

    @settings(max_examples=80, deadline=None)
    @given(
        model_names,
        st.integers(1, 2000),
        seeds,
        st.sampled_from(["systematic", "multinomial"]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(sir.ESTIMATORS),
        st.booleans(),
        st.floats(0.5, 50.0),
    )
    def test_any_step_matches_oracle(
        self, name, n, seed, scheme, threshold, estimator, collapsed, spread
    ):
        """Steps that keep their weights (threshold 0, or ESS above it), steps
        that resample, collapsed steps and both estimators: the one
        normalization per step gives the bytes of the earlier two."""
        model = MODELS[name](2.0)
        x = particles(model, n, seed, spread)
        if collapsed:
            log_w = np.full(n, -np.inf)
        else:
            log_w = oracle_normalized_log_weights(RngStream(seed + 2).uniform(n) * spread)
        z = measurement(model, seed, 0)
        outcome = assert_step_matches_oracle(
            model, x, log_w, z, seed, ResamplePolicy(scheme, threshold), estimator
        )
        assert outcome.degenerate == collapsed
        if threshold == 0.0:
            assert not outcome.resampled
