"""The hot-path kernels against the formulas they replaced, bit for bit.

Each oracle below keeps the arithmetic of the earlier implementation
verbatim, minus its input checks; the log-domain normalizer's oracle follows
its absorption fix, (lw - m) - log(s), which the step took since, and the
normalizer and step oracles follow the ESS taken on the shifted
exponentials and the estimate taken from the step's own weights. The
kernels were rewritten for speed on the condition that every seeded trace
stays byte-identical, so the comparisons use ``np.array_equal``, not a
tolerance. TestEarlierFormulas bounds the gap to the ESS and estimate
formulas those two replaced.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter import filter as sir
from smcfilter.core import (
    AllWeightsCollapsed,
    ArgumentError,
    ParticleSet,
    RngStream,
    normalize_weights,
)
from smcfilter.models import (
    ConstantVelocity2D,
    RandomWalk1D,
    _log_likelihood,
    _propagate,
    check_measurement,
    log_likelihood,
    propagate,
)
from smcfilter.resampling import (
    _BELOW_ONE,
    NotNormalized,
    ResamplePolicy,
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


def oracle_normalize_weights(log_weights):
    """The normalized weights and their ESS (sum e)^2 / sum(e^2), both from
    the shifted exponentials e."""
    m = np.max(log_weights)
    if m == -np.inf:
        raise AllWeightsCollapsed("log_weights", "are all -inf")
    shifted = np.exp(log_weights - m)
    total = shifted.sum()
    return shifted / total, float(total * (total / np.dot(shifted, shifted)))


def oracle_normalized_log_weights(log_weights):
    # (lw - m) - log(s), not lw - (m + log(s)): the latter loses log(s) when
    # |m| is beyond ~1e16 and leaves the weights unnormalized
    m = np.max(log_weights)
    return (log_weights - m) - np.log(np.sum(np.exp(log_weights - m)))


def oracle_step(state, z):
    """One step of the earlier filter.step, which normalized twice, with the
    ESS of the normalizer (N after a collapse) and the estimate from the
    step's final weights.

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
        weights, ess = oracle_normalize_weights(log_w)
        log_w = oracle_normalized_log_weights(log_w)
    except AllWeightsCollapsed:
        degenerate = True
        ess = float(n)
    resampled = bool(ess < policy.threshold_fraction * n)
    if resampled:
        if policy.scheme == "systematic":
            indices = oracle_systematic(weights, state.rng.uniform())
        else:
            indices = oracle_multinomial(weights, state.rng)
        predicted = predicted[indices]
    if resampled or degenerate:
        log_w = np.full(n, -np.log(n))
        weights = np.full(n, 1.0 / n)
    if state.estimator == "map":
        estimate = predicted[int(np.argmax(log_w))].copy()
    else:
        estimate = weights @ predicted
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


class TestStepKernels:
    """The unchecked kernels the step calls give the public functions' bits."""

    @settings(max_examples=60, deadline=None)
    @given(model_names, st.integers(1, 5000), seeds, variances, magnitudes, magnitudes)
    def test_likelihood_kernel_matches_oracle_and_public(self, name, n, seed, r, z_mag, x_mag):
        model = MODELS[name](r)
        x = particles(model, n, seed, 10.0**x_mag)
        z = measurement(model, seed, z_mag)
        checked = check_measurement(model, z)
        got = _log_likelihood(model, checked, x)
        assert np.array_equal(got, oracle_log_likelihood(model, z, x))
        assert np.array_equal(got, log_likelihood(model, z, x))
        single = _log_likelihood(model, checked, x[0])
        assert np.ndim(single) == 0
        assert single == oracle_log_likelihood(model, z, x[0]) == log_likelihood(model, z, x[0])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_overflowing_residual_gives_minus_inf_without_warning(self, name):
        model = MODELS[name](1e-6)
        x = np.zeros((3, model.state_dim))
        x[1, 0] = 1e200  # residual 1e200: its square overflows
        z = np.zeros(model.obs_dim)
        with np.errstate(over="ignore"):
            got = _log_likelihood(model, z, x)
            expected = oracle_log_likelihood(model, z, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            public = log_likelihood(model, z, x)
        assert got[1] == -np.inf and np.isfinite(got[[0, 2]]).all()
        assert np.array_equal(got, expected)
        assert np.array_equal(got, public)

    @settings(max_examples=60, deadline=None)
    @given(model_names, st.integers(1, 5000), seeds, magnitudes, magnitudes)
    def test_propagate_kernel_matches_public(self, name, n, seed, x_mag, noise_mag):
        model = MODELS[name](1.0)
        x = particles(model, n, seed, 10.0**x_mag)
        noise = particles(model, n, seed + 3, 10.0**noise_mag)
        got = _propagate(model, x, noise)
        assert got.shape == x.shape
        assert np.array_equal(got, propagate(model, x, noise))
        assert np.array_equal(_propagate(model, x[0], noise[0]), propagate(model, x[0], noise[0]))
        if name == "rw1d":
            assert np.array_equal(got, x + noise)


class TestCheckedResamplers:
    """The resamplers check the sum on their own cumsum, before u or a draw."""

    @pytest.mark.parametrize(
        "weights",
        [np.array([]), np.array([0.5, np.nan]), np.array([0.5, 0.6]), np.array([0.2, 0.2]),
         np.array([np.inf, -np.inf]), np.array([1.0 + 2e-6])],
    )
    def test_bad_weights_raise_before_u_and_draws(self, weights):
        with warnings.catch_warnings():
            # inf - inf in the sum warns; the weights are rejected all the same
            warnings.simplefilter("ignore", RuntimeWarning)
            message = f"weights sum to {float(weights.sum())!r}, expected 1"
            with pytest.raises(NotNormalized) as info:
                systematic_resample(weights, 1.5)  # u out of range, checked second
            assert str(info.value) == message
            rng = RngStream(5)
            with pytest.raises(NotNormalized) as info:
                multinomial_resample(weights, rng)
            assert str(info.value) == message
        assert rng.uniform() == RngStream(5).uniform()

    def test_sum_within_tolerance_accepted(self):
        w = np.array([0.5, 0.5 + 9e-7])
        assert np.array_equal(systematic_resample(w, 0.25), oracle_systematic(w, 0.25))
        assert np.array_equal(
            multinomial_resample(w, RngStream(2)), oracle_multinomial(w, RngStream(2))
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 100, 1000, 4097])
    def test_largest_u_stays_in_range(self, n):
        # (n - 1 + u) / n rounds to exactly 1.0 for many n at this u
        for w in (np.full(n, 1.0 / n), weight_vector(n, n, 0.5)):
            got = systematic_resample(w, _BELOW_ONE)
            assert np.array_equal(got, oracle_systematic(w, _BELOW_ONE))
            assert 0 <= got.min() and got.max() < n
        assert systematic_resample(np.full(n, 1.0 / n), _BELOW_ONE)[-1] == n - 1


class TestFiniteGuard:
    def state(self, particles):
        return sir.FilterState(
            set=ParticleSet.uniform(np.array(particles, dtype=float)),
            model=MODELS["rw1d"](4.0),
            policy=ResamplePolicy("systematic", 0.5),
            rng=RngStream(0),
        )

    @pytest.mark.parametrize(
        "noise", [[np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [np.nan, 0.0], [1e308, 0.0]]
    )
    def test_non_finite_particles_raise(self, noise):
        # 1e308 + 1e308 overflows to inf inside propagate
        state = self.state([[1e308], [0.0]])
        before = state.set
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=r"^predicted\[[01]\] must be finite, got "):
                sir.step(state, 0.0, noise)
        assert state.set is before

    def test_finite_particles_whose_sum_overflows_pass(self):
        state = self.state([[1e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = sir.step(state, 0.0, [0.0, 0.0])
        # both squared residuals overflow, so the step collapses and resets
        assert outcome.degenerate
        assert np.array_equal(state.set.particles, [[1e308], [1e308]])
        assert np.array_equal(outcome.estimate, [1e308])


class TestNormalize:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), seeds, st.floats(0.0, 0.95), magnitudes)
    def test_normalizer_matches_oracle(self, n, seed, zero_fraction, magnitude):
        # log-weights spread over ~1e-150 .. 1e150, with a share of -inf
        log_w = RngStream(seed).standard_normal(n) * 10.0 ** (magnitude / 2)
        log_w[weight_vector(n, seed + 1, zero_fraction) == 0.0] = -np.inf
        before = log_w.copy()
        w, m, s, ess = normalize_weights(log_w)
        oracle_w, oracle_ess = oracle_normalize_weights(log_w)
        assert np.array_equal(w, oracle_w)
        assert ess == oracle_ess
        # the oracle's shift and sum
        assert m == np.max(log_w)
        assert s == np.exp(log_w - m).sum()
        # it does not write into its input
        assert np.array_equal(log_w, before)


class TestEarlierFormulas:
    """The gap between the step's ESS and estimate and the formulas they
    replaced: 1 / sum(w^2) of the normalized weights, and an estimate from
    exp of the final log-weights. Over 3000 random cases with N up to 5000
    the ESS gap stayed below 5.2 eps relative and the estimate gap below
    0.08 eps (1 + log N) max|x|; the bounds below allow 16 eps and
    eps (1 + log N) max|x|. The log N term is the rounding of the kept
    log-weights, eps |log w_i| relative in w_i, summed as sum w_i |log w_i|,
    which is at most log N."""

    ESS_ULPS = 16
    EPS = np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), seeds, st.floats(0.0, 0.95), magnitudes, magnitudes)
    def test_gap_to_earlier_formulas(self, n, seed, zero_fraction, lw_mag, x_mag):
        log_w = RngStream(seed).standard_normal(n) * 10.0 ** (lw_mag / 50)
        log_w[weight_vector(n, seed + 1, zero_fraction) == 0.0] = -np.inf
        x = particles(MODELS["cv2d"](1.0), n, seed + 2, 10.0 ** (x_mag / 2))
        w, m, s, ess = normalize_weights(log_w)
        earlier_ess = 1.0 / np.sum(w * w)
        assert abs(ess - earlier_ess) <= self.ESS_ULPS * self.EPS * earlier_ess
        bound = self.EPS * (1.0 + np.log(n)) * np.abs(x).max()
        kept = (log_w - m) - np.log(s)
        with np.errstate(under="ignore"):
            earlier = np.exp(kept) @ x
        assert np.all(np.abs(w @ x - earlier) <= bound)
        reset = np.exp(np.full(n, -np.log(n))) @ x
        assert np.all(np.abs(np.full(n, 1.0 / n) @ x - reset) <= bound)


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
