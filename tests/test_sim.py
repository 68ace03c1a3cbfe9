import numpy as np
import pytest

from smcfilter.core import ArgumentError, RngStream
from smcfilter.filter import GaussianPrior
from smcfilter.models import ConstantVelocity2D, DimensionMismatch, RandomWalk1D
from smcfilter.resampling import ResamplePolicy
from smcfilter.sim import (
    Scenario,
    rmse,
    run_scenario,
    simulate_measurements,
    simulate_truth,
)


class QueueRng:
    """Feeds predetermined standard-normal draws for hand-traced simulations."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, shape=None):
        if shape is None:
            return self.values.pop(0)
        taken = [self.values.pop(0) for _ in range(int(np.prod(shape)))]
        return np.array(taken).reshape(shape)


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


class TestSimulateTruth:
    def test_zero_process_noise_is_constant(self):
        scenario = rw_scenario(q=0.0, t=10)
        truth = simulate_truth(scenario, RngStream(1))
        np.testing.assert_array_equal(truth, np.zeros((10, 1)))

    def test_cv2d_noise_free_kinematics(self):
        scenario = Scenario(
            model=ConstantVelocity2D(dt=1.0, q_pos=0.0, q_vel=0.0, r_meas=1.0),
            t_steps=6,
            prior=GaussianPrior(np.zeros(4), np.ones(4)),
            initial_truth=[0.0, 0.0, 1.0, 0.5],
            n_particles=10,
        )
        truth = simulate_truth(scenario, RngStream(1))
        for k in range(6):
            np.testing.assert_allclose(truth[k, :2], [k, 0.5 * k], atol=1e-12)

    def test_injected_walk(self):
        scenario = rw_scenario(q=1.0, t=3)
        truth = simulate_truth(scenario, QueueRng([1.2, 0.4]))
        np.testing.assert_allclose(truth[:, 0], [0.0, 1.2, 1.6], atol=1e-12)


class TestSimulateMeasurements:
    def test_vanishing_noise_returns_projection(self):
        model = RandomWalk1D(q=1.0, r=1e-30)
        truth = np.array([[0.5], [1.5], [-0.25]])
        z = simulate_measurements(truth, model, RngStream(8))
        np.testing.assert_allclose(z, truth, atol=1e-12)

    def test_injected_sensor_noise(self):
        # r = 4 scales draws by 2, so draws [1.0, -0.5] give noises [2.0, -1.0]
        model = RandomWalk1D(q=1.0, r=4.0)
        z = simulate_measurements(np.array([[1.2], [1.6]]), model, QueueRng([1.0, -0.5]))
        np.testing.assert_allclose(z[:, 0], [3.2, 0.6], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simulate_measurements(np.zeros((0, 1)), RandomWalk1D(), RngStream(1))


class TestRunScenario:
    def test_trace_shape_and_indexing(self):
        trace = run_scenario(rw_scenario(t=12), seed=5)
        assert len(trace) == 12
        assert [rec.k for rec in trace.records] == list(range(12))

    def test_first_record_has_no_measurement(self):
        trace = run_scenario(rw_scenario(), seed=5)
        assert np.isnan(trace.records[0].measurement).all()
        assert not any(np.isnan(rec.measurement).any() for rec in trace.records[1:])
        assert trace.records[0].ess == pytest.approx(200.0, abs=1e-9)
        assert trace.records[0].resampled is False

    def test_same_seed_identical_traces(self):
        a = run_scenario(rw_scenario(), seed=99)
        b = run_scenario(rw_scenario(), seed=99)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.truth, rb.truth)
            assert np.array_equal(ra.measurement, rb.measurement, equal_nan=True)
            assert np.array_equal(ra.estimate, rb.estimate)
            assert ra.ess == rb.ess and ra.resampled == rb.resampled
        assert a.final_ess == b.final_ess

    def test_different_seeds_differ(self):
        a = run_scenario(rw_scenario(), seed=1)
        b = run_scenario(rw_scenario(), seed=2)
        assert not np.array_equal(a.records[1].truth, b.records[1].truth)

    def test_noise_free_scenario_tracks_exactly(self):
        scenario = rw_scenario(q=0.0, r=1e-30, t=8, n=20, prior_std=0.0, initial=0.0)
        trace = run_scenario(scenario, seed=7)
        for rec in trace.records:
            assert rec.estimate[0] == pytest.approx(rec.truth[0], abs=1e-9)

    def test_snapshots_captured_for_requested_steps(self):
        trace = run_scenario(rw_scenario(t=10, n=32), seed=3, dump_steps=[0, 4, 9])
        assert sorted(trace.snapshots) == [0, 4, 9]
        for particles, weights in trace.snapshots.values():
            assert particles.shape == (32, 1)
            assert weights.shape == (32,)
            assert abs(weights.sum() - 1.0) < 1e-9

    def test_cv2d_scenario_runs(self):
        trace = run_scenario(cv_scenario(t=10, n=100), seed=11)
        assert len(trace) == 10
        assert trace.records[3].truth.shape == (4,)
        assert trace.records[3].measurement.shape == (2,)

    def test_filter_beats_sensor_sample(self):
        wins = 0
        for seed in range(10):
            trace = run_scenario(rw_scenario(q=1.0, r=4.0, t=50, n=500), seed=seed)
            truth = trace.stack("truth")[1:]
            est = trace.stack("estimate")[1:]
            meas = trace.stack("measurement")[1:]
            if rmse(est, truth) < rmse(meas, truth):
                wins += 1
        assert wins >= 8

    def test_degeneracy_scenario_with_threshold_disabled(self):
        scenario = rw_scenario(q=1.0, r=0.01, t=50, n=500, threshold=0.0)
        trace = run_scenario(scenario, seed=0)
        assert not any(rec.resampled for rec in trace.records)
        assert trace.final_ess < 0.1 * 500


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
        ],
    )
    def test_construction_names_the_failed_argument(self, kwargs, name):
        with pytest.raises(ArgumentError) as info:
            rw_scenario(**kwargs)
        assert info.value.name == name

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
