import numpy as np
import pytest

from smcfilter.core import ArgumentError, RngStream
from smcfilter.filter import GaussianPrior
from smcfilter.models import ConstantVelocity2D, DimensionMismatch, RandomWalk1D
from smcfilter.resampling import ResamplePolicy
from smcfilter.sim import Scenario, rmse, run_scenario


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
    """The truth run_scenario rolls forward from the initial state."""

    def test_zero_process_noise_is_constant(self):
        trace = run_scenario(rw_scenario(q=0.0, t=10), seed=1)
        np.testing.assert_array_equal(trace.stack("truth"), np.zeros((10, 1)))

    def test_cv2d_noise_free_kinematics(self):
        scenario = Scenario(
            model=ConstantVelocity2D(dt=1.0, q_pos=0.0, q_vel=0.0, r_meas=1.0),
            t_steps=6,
            prior=GaussianPrior(np.zeros(4), np.ones(4)),
            initial_truth=[0.0, 0.0, 1.0, 0.5],
            n_particles=10,
        )
        truth = run_scenario(scenario, seed=1).stack("truth")
        for k in range(6):
            np.testing.assert_allclose(truth[k, :2], [k, 0.5 * k], atol=1e-12)

    @pytest.mark.parametrize("seed, n_particles", [(3, 1), (11, 7)])
    def test_truth_draw_follows_prior_draws(self, seed, n_particles):
        # rw1d has one state component: the prior takes the first N normals,
        # the step-1 truth noise the next one
        q, initial = 2.5, 0.75
        scenario = rw_scenario(q=q, t=2, n=n_particles, initial=initial)
        d = RngStream(seed).standard_normal(n_particles + 2)
        truth = run_scenario(scenario, seed=seed).records[1].truth
        assert truth[0] == initial + np.sqrt(q) * d[n_particles]


class TestSimulateMeasurements:
    """The sensor readings run_scenario takes of the truth."""

    def test_vanishing_noise_returns_projection(self):
        trace = run_scenario(rw_scenario(r=1e-30, t=5), seed=8)
        np.testing.assert_allclose(
            trace.stack("measurement")[1:], trace.stack("truth")[1:], atol=1e-12
        )

    @pytest.mark.parametrize("seed, n_particles", [(3, 1), (11, 7)])
    def test_sensor_draw_follows_truth_draw(self, seed, n_particles):
        # after the N prior normals and the truth noise comes the sensor noise
        r = 4.5
        d = RngStream(seed).standard_normal(n_particles + 2)
        step = run_scenario(rw_scenario(r=r, t=2, n=n_particles), seed=seed).records[1]
        assert step.measurement[0] == step.truth[0] + np.sqrt(r) * d[n_particles + 1]


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
