import warnings

import numpy as np
import pytest

from smcfilter.core import ArgumentError, ParticleSet, RngStream
from smcfilter.filter import (
    FilterState,
    GaussianPrior,
    InvalidPrior,
    init,
    step,
)
from smcfilter.models import (
    ConstantVelocity2D,
    DimensionMismatch,
    NonFiniteMeasurement,
    RandomWalk1D,
)
from smcfilter.resampling import (
    NotNormalized,
    ResamplePolicy,
    effective_sample_size,
    systematic_resample,
)

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

    @pytest.mark.parametrize(
        "mean, std, name, index, rule",
        [
            ([np.nan], [1.0], "mean", 0, "must be finite"),
            ([0.0, np.inf], [1.0, 1.0], "mean", 1, "must be finite"),
            ([0.0], [np.inf], "std", 0, "must be finite"),
            ([0.0, 0.0], [1.0, -np.inf], "std", 1, "must be finite"),
            ([0.0, 0.0], [np.nan, 1.0], "std", 0, "must be finite"),
            ([10**400], [1.0], "mean", None, "must be finite"),
            ([0.0, 0.0], [1.0, -10**400], "std", None, "must be finite"),
            ([10**5000], [1.0], "mean", None, "must be finite, got [<16610-bit int>]"),
            ("1.0", [1.0], "mean", None, "must be a real number, got '1.0'"),
            ([0.0, 0.0], [1.0, "2.0"], "std", 1, "must be a real number, got '2.0'"),
            ([0.0], True, "std", None, "must be a real number, got True"),
            ([False, 0.0], [1.0, 1.0], "mean", 0, "must be a real number, got False"),
        ],
    )
    def test_non_finite_prior_rejected(self, mean, std, name, index, rule):
        with pytest.raises(InvalidPrior) as info:
            GaussianPrior(mean, std)
        assert (info.value.name, info.value.index) == (name, index)
        assert info.value.rule.startswith(rule)

    @pytest.mark.parametrize(
        "mean, std, name",
        [
            (np.zeros((4, 1)), np.ones((4, 1)), "mean"),
            (np.zeros((4, 1)), np.ones(4), "mean"),
            (np.zeros(4), np.ones((4, 1)), "std"),
            ([[0.0, 0.0]], [[1.0, 1.0]], "mean"),
        ],
    )
    def test_prior_of_more_than_one_dimension_rejected(self, mean, std, name):
        # a (4, 1) cv2d prior would otherwise broadcast into one prior per particle
        with pytest.raises(InvalidPrior) as info:
            GaussianPrior(mean, std)
        shape = np.shape(mean if name == "mean" else std)
        assert info.value.name == name
        assert info.value.rule == f"must have one dimension, got shape {shape}"

    def test_negative_std_names_element(self):
        with pytest.raises(InvalidPrior, match=r"^std\[1\] must be >= 0, got -1\.0$"):
            GaussianPrior([0.0, 0.0], [1.0, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            init(RW, GaussianPrior([0.0, 0.0], [1.0, 1.0]), 5, RngStream(1))

    def test_invalid_particle_count(self):
        with pytest.raises(ArgumentError, match="^n_particles must be >= 1, got 0$"):
            init(RW, GaussianPrior([0.0], [1.0]), 0, RngStream(1))

    @pytest.mark.parametrize("bad", [True, 2.5, 100.0])
    def test_non_integer_particle_count_rejected(self, bad):
        with pytest.raises(ArgumentError) as info:
            init(RW, GaussianPrior([0.0], [1.0]), bad, RngStream(1))
        assert info.value.name == "n_particles"
        assert info.value.rule == f"must be an integer, got {bad!r}"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ArgumentError, match="^estimator must be one of"):
            init(RW, GaussianPrior([0.0], [1.0]), 5, RngStream(1), estimator="median")


class TestGoldenSteps:
    def test_step_one_predictions_and_weights(self):
        state = make_state(GOLDEN_K1["initial"])
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
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
        step(state, GOLDEN_K2["z"], GOLDEN_K2["noises"])
        np.testing.assert_allclose(
            state.set.particles[:, 0], GOLDEN_K2["predicted"], atol=1e-12
        )
        np.testing.assert_allclose(state.set.weights, GOLDEN_K2["weights"], atol=0.01)


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
        state = make_state(GOLDEN_K1["initial"], threshold=1.0, seed=4)
        weighed = make_state(GOLDEN_K1["initial"], threshold=0.0)
        step(weighed, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.resampled is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)
        # the injected noise draws nothing: the offset is the stream's first uniform
        indices = systematic_resample(weighed.set.weights, RngStream(4).uniform())
        assert np.array_equal(state.set.particles, weighed.set.particles[indices])
        for value in state.set.particles[:, 0]:
            assert value in GOLDEN_K1["predicted"]

    def test_estimate_computed_after_resampling(self):
        state = make_state(GOLDEN_K1["initial"], threshold=1.0)
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.resampled is True
        assert outcome.estimate[0] == pytest.approx(state.set.particles[:, 0].mean())

    def test_map_estimator(self):
        state = make_state(GOLDEN_K1["initial"])
        state.estimator = "map"
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.estimate[0] == 3.5

    def test_multinomial_scheme_runs(self):
        state = make_state(GOLDEN_K1["initial"], scheme="multinomial", threshold=1.0)
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.resampled is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    def test_weight_collapse_recovers_with_flag(self):
        state = make_state(GOLDEN_K1["initial"])
        state.set.log_weights[:] = -np.inf
        outcome = step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
        assert outcome.degenerate is True
        np.testing.assert_allclose(state.set.weights, 0.2, atol=1e-12)

    @pytest.mark.parametrize(
        "z",
        [np.nan, np.inf, -np.inf, pytest.param(10**400, id="int-beyond-float"),
         pytest.param([-(10**400)], id="int-list-beyond-float"), True, "1.0",
         pytest.param([True], id="bool-list")],
    )
    def test_non_finite_measurement_rejected_before_update(self, z):
        state = init(RW, GaussianPrior([0.0], [2.0]), 20, RngStream(4))
        twin = init(RW, GaussianPrior([0.0], [2.0]), 20, RngStream(4))
        before = state.set
        with pytest.raises(NonFiniteMeasurement) as info:
            step(state, z)
        assert info.value.name == "measurement"
        assert state.set is before
        # not one draw was spent
        assert state.rng.standard_normal() == twin.rng.standard_normal()

    @pytest.mark.parametrize(
        "noises, index",
        [([10**400] * 5, None), ([True] * 5, 0), ([0.0, 0.0, 0.0, "0.1", 0.0], 3),
         ("0.1", None)],
        ids=["int-beyond-float", "bool", "str", "str-scalar"],
    )
    def test_non_number_noises_rejected_before_any_draw(self, noises, index):
        state = make_state(GOLDEN_K1["initial"], threshold=1.0, seed=9)
        before = state.set
        with pytest.raises(ArgumentError) as info:
            step(state, GOLDEN_K1["z"], noises)
        assert (info.value.name, info.value.index) == ("noises", index)
        assert state.set is before
        # not one draw was spent
        assert state.rng.uniform() == RngStream(9).uniform()

    def test_rejected_measurement_leaves_set_and_stream_untouched(self):
        def fresh():
            return init(
                RW,
                GaussianPrior([0.0], [2.0]),
                20,
                RngStream(4),
                policy=ResamplePolicy("systematic", 1.0),
            )

        state, twin = fresh(), fresh()
        before = state.set
        for z in (np.nan, 10**400, [10**400]):
            with pytest.raises(NonFiniteMeasurement):
                step(state, z)
        with pytest.raises(DimensionMismatch):
            step(state, [0.5, 0.5])
        assert state.set is before
        got, want = step(state, 0.5), step(twin, 0.5)
        assert np.array_equal(state.set.particles, twin.set.particles)
        assert np.array_equal(state.set.log_weights, twin.set.log_weights)
        assert np.array_equal(got.estimate, want.estimate)
        assert (got.ess, got.resampled) == (want.ess, want.resampled)
        assert state.rng.uniform() == twin.rng.uniform()

    @pytest.mark.parametrize(
        "model, dim", [(RW, 4), (ConstantVelocity2D(), 1), (ConstantVelocity2D(), 2)]
    )
    def test_set_of_wrong_length_rejected_before_any_draw(self, model, dim):
        def injected(state, z):
            return step(state, z, np.zeros((5, dim)))

        z = np.zeros(model.obs_dim)
        for advance in (step, injected):
            state = FilterState(
                set=ParticleSet.uniform(np.zeros((5, dim))),
                model=model,
                policy=ResamplePolicy("systematic", 1.0),
                rng=RngStream(9),
            )
            before = state.set
            with pytest.raises(DimensionMismatch, match=f"^particles have length {dim}, model"):
                advance(state, z)
            assert state.set is before
            # not one draw was spent
            assert state.rng.standard_normal() == RngStream(9).standard_normal()

    def test_propagate_overflow_raises_value_error(self):
        state = init(RW, GaussianPrior([1.5e308], [0.0]), 5, RngStream(1))
        before = state.set
        particles, log_weights = before.particles.copy(), before.log_weights.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="particles must be finite"):
                step(state, 0.0, np.full(5, 1.5e308))
        assert state.set is before
        assert np.array_equal(before.particles, particles)
        assert np.array_equal(before.log_weights, log_weights)

    def test_cv2d_propagate_overflow_raises_value_error(self):
        # px + vx * dt passes the largest double inside the model's matmul
        cv = ConstantVelocity2D()
        state = init(cv, GaussianPrior([1e308, 0.0, 1e308, 0.0], [0.0] * 4), 3, RngStream(1))
        before = state.set
        particles, log_weights = before.particles.copy(), before.log_weights.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="particles must be finite"):
                step(state, [0.0, 0.0])
        assert state.set is before
        assert np.array_equal(before.particles, particles)
        assert np.array_equal(before.log_weights, log_weights)

    def test_measurement_beyond_every_particle_collapses_with_flag(self):
        # every squared residual overflows: all weights are exactly 0
        state = make_state(GOLDEN_K1["initial"])
        outcome = step(state, 1e200, GOLDEN_K1["noises"])
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
            state = make_state(GOLDEN_K1["initial"], threshold=1.0, seed=9)
            step(state, GOLDEN_K1["z"], GOLDEN_K1["noises"])
            # the stream gave exactly one uniform, the systematic offset
            replay = RngStream(9)
            replay.uniform()
            assert state.rng.uniform() == replay.uniform()
            return state.set.particles.copy(), state.set.log_weights.copy()

        pa, wa = run()
        pb, wb = run()
        assert np.array_equal(pa, pb) and np.array_equal(wa, wb)

    def test_huge_likelihood_shift_keeps_weights_normalized(self):
        # Step 1 resamples to 25 copies of the particle nearest z. From then on
        # every log-weight shares one shift of ~-1e140, which absorbed the
        # log-sum: the kept weights summed to 25 and the estimate read 8.788.
        model = RandomWalk1D(q=0.0, r=1.3e-143)
        state = init(model, GaussianPrior([0.0], [1.0]), 25, RngStream(0))
        for _ in range(4):
            outcome = step(state, [0.3])
            assert state.set.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert outcome.estimate[0] == pytest.approx(0.3515, abs=5e-5)
        assert effective_sample_size(state.set.weights) == pytest.approx(25.0)

    def test_zero_noise_concentrates_weight_near_measurement(self):
        state = make_state(GOLDEN_K1["initial"])
        z = 1.0
        step(state, z, np.zeros(5))
        w = state.set.weights
        distance = np.abs(GOLDEN_K1["initial"] - z)
        # closer particles must carry no less weight
        order = np.argsort(distance)
        assert np.all(np.diff(w[order]) <= 1e-15)

    def test_noise_shape_validated(self):
        state = make_state(GOLDEN_K1["initial"])
        with pytest.raises(DimensionMismatch):
            step(state, 1.0, np.zeros(4))

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


class TestThresholdOne:
    """Threshold 1 fires whenever ESS < N, strictly, so exactly uniform
    weights and the uniform reset after a collapse must never resample."""

    def test_uniform_weights_give_exactly_n(self):
        for n in range(1, 4097):
            assert effective_sample_size(np.full(n, 1.0 / n)) == n

    @pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
    @pytest.mark.parametrize(
        "model",
        [RandomWalk1D(q=0.0, r=4.0), ConstantVelocity2D(q_pos=0.0, q_vel=0.0, r_meas=2.0)],
        ids=["rw1d", "cv2d"],
    )
    def test_identical_particles_never_resample(self, model, scheme):
        n_dim = model.state_dim
        prior = GaussianPrior([0.5] * n_dim, [0.0] * n_dim)
        for n in range(1, 65):
            state = init(model, prior, n, RngStream(3), ResamplePolicy(scheme, 1.0))
            outcome = step(state, np.full(model.obs_dim, 0.8))
            assert outcome.ess == n
            assert not outcome.resampled and not outcome.degenerate
            # init and the step drew 2 N n normals and no uniform
            reference = RngStream(3)
            reference.standard_normal(2 * n * n_dim)
            assert state.rng.uniform() == reference.uniform()

    @pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
    def test_collapse_does_not_resample(self, scheme):
        state = init(RW, GaussianPrior([0.0], [2.0]), 5, RngStream(4), ResamplePolicy(scheme, 1.0))
        outcome = step(state, 1e200)
        assert outcome.degenerate and not outcome.resampled
        assert outcome.ess == 5
        reference = RngStream(4)
        reference.standard_normal(10)
        assert state.rng.uniform() == reference.uniform()


def test_nan_log_weight_raises_and_keeps_the_set():
    # ParticleSet rejects a NaN log-weight when built, so only a write into a
    # valid set's array reaches the step's NaN guard
    state = make_state([0.0, 1.0, 2.0])
    state.set = ParticleSet(np.array([0.0, 1.0, 2.0]), np.log([0.5, 0.5, 0.5]))
    state.set.log_weights[1] = np.nan
    before = state.set
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized):
            step(state, [0.5])
    assert state.set is before
    assert np.array_equal(before.particles, [[0.0], [1.0], [2.0]])
    assert np.array_equal(before.log_weights, [np.log(0.5), np.nan, np.log(0.5)], equal_nan=True)


def _initialized_then_mistyped():
    state = init(RW, GaussianPrior([0.0], [2.0]), 3, RngStream(0))
    state.estimator = "median"
    return state


@pytest.mark.parametrize(
    "build",
    [
        lambda: FilterState(
            set=ParticleSet.uniform(np.array([0.0, 1.0, 5.0])),
            model=RW,
            policy=ResamplePolicy(),
            rng=RngStream(0),
            estimator="mapp",
        ),
        _initialized_then_mistyped,
    ],
    ids=["constructed", "assigned"],
)
def test_unknown_estimator_raises_before_any_draw(build):
    # an unknown estimator must not fall through to the weighted mean
    for advance in (step, lambda state, z: step(state, z, np.zeros(3))):
        state = build()
        before = state.set
        particles, log_weights = before.particles.copy(), before.log_weights.copy()
        with pytest.raises(ArgumentError, match="^estimator must be one of"):
            advance(state, 5.0)
        assert state.set is before
        assert np.array_equal(before.particles, particles)
        assert np.array_equal(before.log_weights, log_weights)
        # a fresh build's stream stands where the failed step found it
        assert state.rng.uniform() == build().rng.uniform()


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("estimator", ["weighted_mean", "map"])
@pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
@pytest.mark.parametrize("model", [RW, ConstantVelocity2D()], ids=["rw1d", "cv2d"])
def test_given_noises_replay_the_drawn_step_bit_for_bit(model, scheme, estimator, threshold):
    """step(b, z, noises), given the scaled draws step(a, z) takes from a
    same-seed stream, is the same step: the set, the outcome and the stream
    position agree exactly."""
    dim = model.state_dim
    prior = GaussianPrior([0.0] * dim, [2.0] * dim)
    policy = ResamplePolicy(scheme, threshold)
    a, b = (init(model, prior, 40, RngStream(21), policy, estimator) for _ in range(2))
    fired = []
    for k in range(1, 6):
        z = np.full(model.obs_dim, 0.7 * k)
        noises = b.rng.standard_normal((40, dim))
        noises *= model.process_std
        got, want = step(b, z, noises), step(a, z)
        assert np.array_equal(b.set.particles, a.set.particles)
        assert np.array_equal(b.set.log_weights, a.set.log_weights)
        assert np.array_equal(got.estimate, want.estimate)
        assert (got.ess, got.resampled, got.degenerate) == (
            want.ess, want.resampled, want.degenerate)
        assert b.rng.uniform() == a.rng.uniform()
        fired.append(want.resampled)
    # the thresholds cover resampling never, on some steps and on every step
    assert sum(fired) in {0.0: {0}, 0.5: {1, 2, 3, 4}, 1.0: {5}}[threshold]
