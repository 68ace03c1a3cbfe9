import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcfilter import filter as sir
from smcfilter.core import ArgumentError, RngStream
from smcfilter.filter import GaussianPrior
from smcfilter.models import ConstantVelocity2D, DimensionMismatch, RandomWalk1D
from smcfilter.resampling import ResamplePolicy, effective_sample_size
from smcfilter.sim import Scenario, _snapshot, rmse, run_scenario


def rw_scenario(q=1.0, r=4.0, t=15, n=200, threshold=0.5, scheme="systematic",
                prior_std=2.0, initial=0.0):
    return Scenario(
        model=RandomWalk1D(q=q, r=r),
        t_steps=t,
        prior=GaussianPrior([0.0], [prior_std]),
        initial_truth=[initial],
        n_particles=n,
        policy=ResamplePolicy(scheme, threshold),
    )


def cv_scenario(t=30, n=500):
    return Scenario(
        model=ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=2.0),
        t_steps=t,
        prior=GaussianPrior([0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]),
        initial_truth=[0.0, 0.0, 1.0, 0.5],
        n_particles=n,
        policy=ResamplePolicy("systematic", 0.5),
    )


def assert_same_run(a, b):
    """Two traces hold equal columns, bit for bit, and equal end diagnostics."""
    for column in ("truth", "measurement", "estimate", "ess", "resampled", "degenerate"):
        assert np.array_equal(getattr(a, column), getattr(b, column), equal_nan=True), column
    assert a.final_ess == b.final_ess
    assert sorted(a.snapshots) == sorted(b.snapshots)
    for k, (particles, weights) in a.snapshots.items():
        assert np.array_equal(particles, b.snapshots[k][0])
        assert np.array_equal(weights, b.snapshots[k][1])


class TestSimulateTruth:
    """The truth run_scenario rolls forward from the initial state."""

    def test_zero_process_noise_is_constant(self):
        trace = run_scenario(rw_scenario(q=0.0, t=10), seed=1)
        np.testing.assert_array_equal(trace.truth, np.zeros((10, 1)))

    def test_cv2d_noise_free_kinematics(self):
        scenario = Scenario(
            model=ConstantVelocity2D(dt=1.0, q_pos=0.0, q_vel=0.0, r_meas=1.0),
            t_steps=6,
            prior=GaussianPrior(np.zeros(4), np.ones(4)),
            initial_truth=[0.0, 0.0, 1.0, 0.5],
            n_particles=10,
        )
        truth = run_scenario(scenario, seed=1).truth
        for k in range(6):
            np.testing.assert_allclose(truth[k, :2], [k, 0.5 * k], atol=1e-12)

    @pytest.mark.parametrize("seed, n_particles", [(3, 1), (11, 7)])
    def test_truth_draw_follows_prior_draws(self, seed, n_particles):
        # rw1d has one state component: the prior takes the first N normals,
        # the step-1 truth noise the next one
        q, initial = 2.5, 0.75
        scenario = rw_scenario(q=q, t=2, n=n_particles, initial=initial)
        d = RngStream(seed).standard_normal(n_particles + 2)
        truth = run_scenario(scenario, seed=seed).truth[1]
        assert truth[0] == initial + np.sqrt(q) * d[n_particles]


class TestSimulateMeasurements:
    """The sensor readings run_scenario takes of the truth."""

    def test_vanishing_noise_returns_projection(self):
        trace = run_scenario(rw_scenario(r=1e-30, t=5), seed=8)
        np.testing.assert_allclose(
            trace.measurement[1:], trace.truth[1:], atol=1e-12
        )

    @pytest.mark.parametrize("seed, n_particles", [(3, 1), (11, 7)])
    def test_sensor_draw_follows_truth_draw(self, seed, n_particles):
        # after the N prior normals and the truth noise comes the sensor noise
        r = 4.5
        d = RngStream(seed).standard_normal(n_particles + 2)
        trace = run_scenario(rw_scenario(r=r, t=2, n=n_particles), seed=seed)
        assert trace.measurement[1, 0] == trace.truth[1, 0] + np.sqrt(r) * d[n_particles + 1]

    @pytest.mark.parametrize("seed, n_particles", [(3, 1), (11, 7)])
    def test_cv2d_draws_scale_by_each_components_std(self, seed, n_particles):
        # after the N*4 prior normals come the 4 truth and then the 2 sensor
        # normals of step 1, each scaled by its own component's std
        scenario = cv_scenario(t=2, n=n_particles)
        model = scenario.model
        d = RngStream(seed).standard_normal(4 * n_particles + 6)[4 * n_particles:]
        trace = run_scenario(scenario, seed=seed)
        truth = model.f(scenario.initial_truth) + np.sqrt(model.process_var) * d[:4]
        assert np.array_equal(trace.truth[1], truth)
        assert np.array_equal(trace.measurement[1], truth[:2] + np.sqrt(model.meas_var) * d[4:])


class TestRunScenario:
    def test_trace_shape_and_indexing(self):
        trace = run_scenario(rw_scenario(t=12), seed=5)
        assert len(trace) == 12
        assert trace.truth.shape == trace.measurement.shape == trace.estimate.shape == (12, 1)
        assert trace.ess.shape == trace.resampled.shape == trace.degenerate.shape == (12,)

    def test_first_record_has_no_measurement(self):
        trace = run_scenario(rw_scenario(), seed=5)
        assert np.isnan(trace.measurement[0]).all()
        assert not np.isnan(trace.measurement[1:]).any()
        assert trace.ess[0] == pytest.approx(200.0, abs=1e-9)
        assert not trace.resampled[0] and not trace.degenerate[0]

    def test_same_seed_identical_traces(self):
        a = run_scenario(rw_scenario(), seed=99)
        b = run_scenario(rw_scenario(), seed=99)
        assert_same_run(a, b)

    def test_different_seeds_differ(self):
        a = run_scenario(rw_scenario(), seed=1)
        b = run_scenario(rw_scenario(), seed=2)
        assert not np.array_equal(a.truth[1], b.truth[1])

    def test_noise_free_scenario_tracks_exactly(self):
        scenario = rw_scenario(q=0.0, r=1e-30, t=8, n=20, prior_std=0.0, initial=0.0)
        trace = run_scenario(scenario, seed=7)
        np.testing.assert_allclose(trace.estimate, trace.truth, rtol=0, atol=1e-9)

    def test_snapshots_captured_for_requested_steps(self):
        trace = run_scenario(rw_scenario(t=10, n=32), seed=3, dump_steps=[0, 4, 9])
        assert sorted(trace.snapshots) == [0, 4, 9]
        for particles, weights in trace.snapshots.values():
            assert particles.shape == (32, 1)
            assert weights.shape == (32,)
            assert abs(weights.sum() - 1.0) < 1e-9

    def test_snapshot_shares_no_memory_with_the_filter(self):
        state = sir.init(RandomWalk1D(q=1.0, r=4.0), GaussianPrior([0.0], [2.0]), 16, RngStream(0))
        particles, weights = _snapshot(state)
        for held in (state.set.particles, state.set.log_weights):
            assert not np.shares_memory(particles, held)
            assert not np.shares_memory(weights, held)

    @pytest.mark.parametrize(
        "steps, index, rule",
        [
            ([99], 0, "step 99 outside horizon T=10"),
            ([0, -1], 1, "step -1 outside horizon T=10"),
            ([10], 0, "step 10 outside horizon T=10"),
            ([1, 2.7], 1, "must be an integer, got 2.7"),
            ([True], 0, "must be an integer, got True"),
            ([np.int64(12)], 0, "step 12 outside horizon T=10"),
            ([10**5000], 0, "step <16610-bit int> outside horizon T=10"),
        ],
        ids=["past-horizon", "negative", "at-horizon", "float", "bool", "numpy-int", "huge-int"],
    )
    def test_bad_dump_step_rejected(self, steps, index, rule):
        with pytest.raises(ArgumentError) as err:
            run_scenario(rw_scenario(t=10, n=32), seed=3, dump_steps=steps)
        assert (err.value.name, err.value.index, err.value.rule) == ("dump_steps", index, rule)

    def test_cv2d_scenario_runs(self):
        trace = run_scenario(cv_scenario(t=10, n=100), seed=11)
        assert len(trace) == 10
        assert trace.truth.shape == trace.estimate.shape == (10, 4)
        assert trace.measurement.shape == (10, 2)

    def test_filter_beats_sensor_sample(self):
        wins = 0
        for seed in range(10):
            trace = run_scenario(rw_scenario(q=1.0, r=4.0, t=50, n=500), seed=seed)
            truth = trace.truth[1:]
            est = trace.estimate[1:]
            meas = trace.measurement[1:]
            if rmse(est, truth) < rmse(meas, truth):
                wins += 1
        assert wins >= 8

    def test_degeneracy_scenario_with_threshold_disabled(self):
        scenario = rw_scenario(q=1.0, r=0.01, t=50, n=500, threshold=0.0)
        trace = run_scenario(scenario, seed=0)
        assert not trace.resampled.any()
        assert trace.final_ess < 0.1 * 500


# variances log-uniform over the whole float range the models accept
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestWholeRunProperties:
    """Invariants of every seeded run, over the models' whole variance range."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["rw1d", "cv2d"]),
        q=log_uniform,
        r=log_uniform,
        n=st.integers(1, 2000),
        t=st.integers(1, 6),
        threshold=st.sampled_from([0.0, 0.5, 1.0]),
        scheme=st.sampled_from(["systematic", "multinomial"]),
        estimator=st.sampled_from(["weighted_mean", "map"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a huge likelihood shift once absorbed the log-sum in the kept
    # log-weights: after step 1 resampled to 25 equal particles, the later
    # steps' weights summed to 25 and the estimate read 25 times the state
    @example(name="rw1d", q=0.0, r=1.3e-143, n=25, t=5, threshold=0.5,
             scheme="systematic", estimator="weighted_mean", seed=0)
    def test_weights_ess_and_estimates_stay_in_bounds(
        self, name, q, r, n, t, threshold, scheme, estimator, seed
    ):
        if name == "rw1d":
            model = RandomWalk1D(q=q, r=r)
        else:
            model = ConstantVelocity2D(dt=1.0, q_pos=q, q_vel=q, r_meas=r)
        dim = model.state_dim
        scenario = Scenario(
            model=model,
            t_steps=t,
            prior=GaussianPrior(np.zeros(dim), np.ones(dim)),
            initial_truth=np.zeros(dim),
            n_particles=n,
            policy=ResamplePolicy(scheme, threshold),
            estimator=estimator,
        )
        trace = run_scenario(scenario, seed, dump_steps=range(t))
        assert sorted(trace.snapshots) == list(range(t))
        for k, (particles, weights) in trace.snapshots.items():
            assert np.isfinite(weights).all()
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert 1.0 - 1e-9 <= trace.ess[k] <= n * (1.0 + 1e-9)
            low, high = particles.min(axis=0), particles.max(axis=0)
            slack = 1e-9 * np.maximum(np.abs(low), np.abs(high))
            assert np.all(low - slack <= trace.estimate[k]), k
            assert np.all(trace.estimate[k] <= high + slack), k
        assert trace.final_ess <= n * (1.0 + 1e-9)
        assert trace.final_ess == effective_sample_size(trace.snapshots[t - 1][1])
        assert_same_run(trace, run_scenario(scenario, seed, dump_steps=range(t)))


EDGE_PRIOR = {1: GaussianPrior([0.0], [2.0]), 4: GaussianPrior([0.0, 0.0, 1.0, 0.5], [1.0, 1.0, 0.5, 0.5])}


# (model, steps flagged degenerate, bounds on the unique particles after
# the last step)
@pytest.mark.parametrize("model, degenerate, unique", [
    (RandomWalk1D(r=1e-300), 0, (1, 1)),
    (RandomWalk1D(q=1e300), 0, (1, 1)),
    (ConstantVelocity2D(r_meas=5e-324), 29, (200, 200)),
    (ConstantVelocity2D(dt=1e200), 29, (200, 200)),
    (RandomWalk1D(q=0.0), 0, (2, 200)),
], ids=["rw1d-r1e-300", "rw1d-q1e300", "cv2d-r5e-324", "cv2d-dt1e200", "rw1d-q0"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extreme_variances_run_without_warning(model, degenerate, unique, seed):
    """Variances at the ends of the float range neither warn nor raise, and
    every estimate stays finite; a collapse is flagged and reset instead."""
    dim = model.state_dim
    truth = EDGE_PRIOR[dim].mean
    scenario = Scenario(model, 30, EDGE_PRIOR[dim], truth, 200, ResamplePolicy("systematic", 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_scenario(scenario, seed, dump_steps=[29])
    assert np.isfinite(trace.estimate).all()
    assert trace.degenerate.sum() == degenerate
    low, high = unique
    assert low <= len(np.unique(trace.snapshots[29][0], axis=0)) <= high


class TestRmse:
    def test_identical_sequences(self):
        a = np.arange(12.0).reshape(6, 2)
        assert rmse(a, a.copy()) == 0.0

    def test_constant_scalar_offset(self):
        a = np.linspace(0, 5, 9)
        assert rmse(a, a + 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_single_euclidean_step(self):
        assert rmse([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rmse(np.zeros((3, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "a, b, name, index",
        [([1.0, True], [1.0, 1.0], "a", 1), ([0.0], ["0.0"], "b", 0),
         ([0.0], [10**400], "b", 0)],
    )
    def test_non_number_rejected(self, a, b, name, index):
        with pytest.raises(ArgumentError) as info:
            rmse(a, b)
        assert (info.value.name, info.value.index) == (name, index)


class TestScenarioValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            rw_scenario(t=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"t": 0}, "t_steps"),
            ({"n": 0}, "n_particles"),
            ({"initial": float("nan")}, "initial_truth"),
            ({"initial": float("-inf")}, "initial_truth"),
            ({"initial": 10**400}, "initial_truth"),
            ({"initial": True}, "initial_truth"),
        ],
    )
    def test_construction_names_the_failed_argument(self, kwargs, name):
        with pytest.raises(ArgumentError) as info:
            rw_scenario(**kwargs)
        assert info.value.name == name

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", np.float64(4.0)])
    @pytest.mark.parametrize("kwarg, name", [("t", "t_steps"), ("n", "n_particles")])
    def test_non_integer_horizon_and_count_rejected(self, bad, kwarg, name):
        # numpy would otherwise fail inside run_scenario with a TypeError
        with pytest.raises(ArgumentError) as info:
            rw_scenario(**{kwarg: bad})
        assert (info.value.name, info.value.rule) == (name, f"must be an integer, got {bad!r}")

    def test_numpy_integer_horizon_and_count_accepted(self):
        scenario = rw_scenario(t=np.int64(5), n=np.int32(20))
        assert_same_run(run_scenario(scenario, 3), run_scenario(rw_scenario(t=5, n=20), 3))

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        # RngStream once truncated 1.5 to 1 and ran seed 1
        with pytest.raises(ArgumentError) as info:
            run_scenario(rw_scenario(t=3, n=5), seed)
        assert (info.value.name, info.value.rule) == ("seed", f"must be an integer, got {seed!r}")

    def test_estimator_checked_at_construction(self):
        with pytest.raises(ArgumentError, match="^estimator must be one of"):
            Scenario(
                model=RandomWalk1D(),
                t_steps=5,
                prior=GaussianPrior([0.0], [1.0]),
                initial_truth=[0.0],
                n_particles=10,
                estimator="mode",
            )

    def test_initial_truth_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            Scenario(
                model=RandomWalk1D(),
                t_steps=5,
                prior=GaussianPrior([0.0], [1.0]),
                initial_truth=[0.0, 0.0],
                n_particles=10,
            )

    def test_prior_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            Scenario(
                model=ConstantVelocity2D(),
                t_steps=5,
                prior=GaussianPrior([0.0], [1.0]),
                initial_truth=[0.0, 0.0, 0.0, 0.0],
                n_particles=10,
            )
