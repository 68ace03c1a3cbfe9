import numpy as np
import pytest

from smcfilter.core import ParticleSet, RngStream
from smcfilter.filter import (
    FilterState,
    GaussianPrior,
    InvalidPrior,
    init,
    step,
    step_with_injected_noise,
)
from smcfilter.models import DimensionMismatch, NonFiniteMeasurement, RandomWalk1D
from smcfilter.resampling import ResamplePolicy, effective_sample_size

RW = RandomWalk1D(q=1.0, r=4.0)

GOLDEN_K1 = {
    "initial": np.array([-1.5, 0.2, 1.0, 2.5, 3.0]),
    "noises": np.array([0.3, -0.4, 1.0, -0.2, 0.5]),
    "z": 3.2,
    "predicted": np.array([-1.2, -0.2, 2.0, 2.3, 3.5]),
    "weights": np.array([0.03, 0.08, 0.27, 0.30, 0.32]),
}
GOLDEN_K2 = {
    "initial": np.array([2.0, 2.3, 3.5, 3.5, 2.3]),
    "noises": np.array([0.5, -0.8, 0.3, -0.2, 0.7]),
    "z": 0.6,
    "predicted": np.array([2.5, 1.5, 3.8, 3.3, 3.0]),
    "factors": np.array([0.64, 0.91, 0.28, 0.40, 0.49]),
    "weights": np.array([0.235, 0.335, 0.103, 0.147, 0.180]),
}


def make_state(particles, model=RW, scheme="systematic", threshold=0.5, seed=0):
    pset = ParticleSet.uniform(np.asarray(particles, dtype=float))
    return FilterState(
        set=pset,
        model=model,
        policy=ResamplePolicy(scheme, threshold),
        rng=RngStream(seed),
    )


class TestInit:
    def test_zero_std_pins_particles_to_mean(self):
        state = init(RW, GaussianPrior([1.25], [0.0]), 7, RngStream(1))
        np.testing.assert_array_equal(state.set.particles, np.full((7, 1), 1.25))

    def test_equal_weights(self):
        state = init(RW, GaussianPrior([0.0], [2.0]), 5, RngStream(1))
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    def test_prior_sample_statistics(self):
        state = init(RW, GaussianPrior([0.0], [2.0]), 10**4, RngStream(77))
        draws = state.set.particles[:, 0]
        assert abs(draws.mean()) <= 0.06
        assert draws.std() == pytest.approx(2.0, abs=0.05)

    def test_negative_std_rejected(self):
        with pytest.raises(InvalidPrior):
            init(RW, GaussianPrior([0.0], [-1.0]), 5, RngStream(1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            init(RW, GaussianPrior([0.0, 0.0], [1.0, 1.0]), 5, RngStream(1))

    def test_invalid_particle_count(self):
        with pytest.raises(ValueError):
            init(RW, GaussianPrior([0.0], [1.0]), 0, RngStream(1))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            init(RW, GaussianPrior([0.0], [1.0]), 5, RngStream(1), estimator="median")


class TestGoldenSteps:
    def test_step_one_predictions_and_weights(self):
        state = make_state(GOLDEN_K1["initial"])
        outcome = step_with_injected_noise(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        np.testing.assert_array_equal(
            state.set.particles[:, 0], GOLDEN_K1["predicted"]
        )
        np.testing.assert_allclose(state.set.weights, GOLDEN_K1["weights"], atol=0.005)
        # oracle: normalize the exact Gaussian likelihood factors directly
        factors = np.exp(-0.5 * (GOLDEN_K1["z"] - GOLDEN_K1["predicted"]) ** 2 / RW.r)
        np.testing.assert_allclose(
            state.set.weights, factors / factors.sum(), atol=1e-12
        )
        assert outcome.resampled is False
        assert outcome.degenerate is False
        assert outcome.ess == pytest.approx(
            effective_sample_size(factors / factors.sum()), abs=1e-9
        )

    def test_step_two_from_resampled_set(self):
        state = make_state(GOLDEN_K2["initial"])
        step_with_injected_noise(state, GOLDEN_K2["z"], GOLDEN_K2["noises"])
        np.testing.assert_allclose(
            state.set.particles[:, 0], GOLDEN_K2["predicted"], atol=1e-12
        )
        np.testing.assert_allclose(state.set.weights, GOLDEN_K2["weights"], atol=0.01)

    def test_generation_counter_advances(self):
        state = make_state(GOLDEN_K1["initial"])
        assert state.set.generation == 0
        step_with_injected_noise(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert state.set.generation == 1


class TestStep:
    def test_single_frozen_particle_never_moves(self):
        model = RandomWalk1D(q=0.0, r=4.0)
        state = init(model, GaussianPrior([0.7], [0.0]), 1, RngStream(5))
        for z in (0.0, 3.0, -2.5):
            outcome = step(state, z)
            assert outcome.estimate[0] == 0.7

    def test_weights_stay_normalized_and_ess_bounded(self):
        state = init(RW, GaussianPrior([0.0], [2.0]), 50, RngStream(21))
        for z in (1.0, -0.5, 2.2, 0.3):
            outcome = step(state, z)
            assert abs(state.set.weights.sum() - 1.0) < 1e-9
            assert 1.0 - 1e-9 <= outcome.ess <= 50 + 1e-9

    def test_uninformative_measurement_keeps_weights_uniform(self):
        model = RandomWalk1D(q=1.0, r=1e9)
        state = init(model, GaussianPrior([0.0], [2.0]), 100, RngStream(3))
        step(state, 1.0)
        np.testing.assert_allclose(state.set.weights, 0.01, atol=1e-6)

    def test_resample_resets_weights_and_keeps_existing_values(self):
        state = make_state(GOLDEN_K1["initial"], threshold=1.0)
        outcome = step_with_injected_noise(
            state, GOLDEN_K1["z"], GOLDEN_K1["noises"], resample_u=0.25
        )
        assert outcome.resampled is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)
        for value in state.set.particles[:, 0]:
            assert value in GOLDEN_K1["predicted"]

    def test_estimate_computed_after_resampling(self):
        state = make_state(GOLDEN_K1["initial"], threshold=1.0)
        outcome = step_with_injected_noise(
            state, GOLDEN_K1["z"], GOLDEN_K1["noises"], resample_u=0.25
        )
        assert outcome.estimate[0] == pytest.approx(state.set.particles[:, 0].mean())

    def test_map_estimator(self):
        state = make_state(GOLDEN_K1["initial"])
        state.estimator = "map"
        outcome = step_with_injected_noise(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.estimate[0] == 3.5

    def test_multinomial_scheme_runs(self):
        state = make_state(GOLDEN_K1["initial"], scheme="multinomial", threshold=1.0)
        outcome = step_with_injected_noise(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.resampled is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    def test_weight_collapse_recovers_with_flag(self):
        state = make_state(GOLDEN_K1["initial"])
        state.set.log_weights[:] = -np.inf
        outcome = step_with_injected_noise(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.degenerate is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurement_rejected_before_update(self, z):
        state = init(RW, GaussianPrior([0.0], [2.0]), 20, RngStream(4))
        before = state.set
        with pytest.raises(NonFiniteMeasurement):
            step(state, z)
        assert state.set is before

    def test_measurement_beyond_every_particle_collapses_with_flag(self):
        # every squared residual overflows: all weights are exactly 0
        state = make_state(GOLDEN_K1["initial"])
        outcome = step_with_injected_noise(state, 1e200, GOLDEN_K1["noises"])
        assert outcome.degenerate is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    def test_seed_determinism(self):
        def run(seed):
            state = init(RW, GaussianPrior([0.0], [2.0]), 64, RngStream(seed))
            history = []
            for z in (0.5, 1.5, -1.0, 2.0, 0.0):
                out = step(state, z)
                history.append((out.estimate.copy(), out.ess, out.resampled))
            return state.set.particles.copy(), history

        p1, h1 = run(123)
        p2, h2 = run(123)
        assert np.array_equal(p1, p2)
        for (e1, s1, r1), (e2, s2, r2) in zip(h1, h2):
            assert np.array_equal(e1, e2) and s1 == s2 and r1 == r2

    def test_injected_noise_bit_identical_across_runs(self):
        def run():
            state = make_state(GOLDEN_K1["initial"], threshold=1.0)
            step_with_injected_noise(
                state, GOLDEN_K1["z"], GOLDEN_K1["noises"], resample_u=0.3
            )
            return state.set.particles.copy(), state.set.log_weights.copy()

        pa, wa = run()
        pb, wb = run()
        assert np.array_equal(pa, pb) and np.array_equal(wa, wb)

    def test_zero_noise_concentrates_weight_near_measurement(self):
        state = make_state(GOLDEN_K1["initial"])
        z = 1.0
        step_with_injected_noise(state, z, np.zeros(5))
        w = state.set.weights
        distance = np.abs(GOLDEN_K1["initial"] - z)
        # closer particles must carry no less weight
        order = np.argsort(distance)
        assert np.all(np.diff(w[order]) <= 1e-15)

    def test_noise_shape_validated(self):
        state = make_state(GOLDEN_K1["initial"])
        with pytest.raises(DimensionMismatch):
            step_with_injected_noise(state, 1.0, np.zeros(4))

    def test_degeneracy_grows_without_resampling(self):
        model = RandomWalk1D(q=1.0, r=0.01)
        low_count = 0
        seeds = range(10)
        for seed in seeds:
            rng = RngStream(seed)
            state = init(
                model,
                GaussianPrior([0.0], [2.0]),
                500,
                rng,
                policy=ResamplePolicy("systematic", 0.0),
            )
            truth = 0.0
            outcome = None
            for _ in range(1, 50):
                truth += rng.standard_normal()
                z = truth + 0.1 * rng.standard_normal()
                outcome = step(state, z)
            if outcome.ess < 0.1 * 500:
                low_count += 1
        assert low_count >= 9
