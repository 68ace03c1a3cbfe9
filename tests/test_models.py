import math
import warnings

import numpy as np
import pytest

from smcfilter.core import RngStream
from smcfilter.models import (
    ConstantVelocity2D,
    DimensionMismatch,
    NonFiniteMeasurement,
    RandomWalk1D,
    log_likelihood,
    predict_measurement,
    propagate,
    sample_measurement_noise,
    sample_process_noise,
)

RW = RandomWalk1D(q=1.0, r=4.0)
CV = ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=2.0)


class TestConstruction:
    def test_rw1d_dims(self):
        assert (RW.state_dim, RW.control_dim, RW.obs_dim) == (1, 0, 1)
        np.testing.assert_array_equal(RW.process_var, [1.0])
        np.testing.assert_array_equal(RW.meas_var, [4.0])

    def test_cv2d_dims(self):
        assert (CV.state_dim, CV.control_dim, CV.obs_dim) == (4, 0, 2)
        np.testing.assert_array_equal(CV.process_var, [0.2, 0.2, 0.05, 0.05])
        np.testing.assert_array_equal(CV.meas_var, [2.0, 2.0])

    @pytest.mark.parametrize("kwargs", [{"q": -0.1}, {"r": 0.0}, {"r": -1.0}])
    def test_rw1d_invalid_variances(self, kwargs):
        with pytest.raises(ValueError):
            RandomWalk1D(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"dt": -1.0}, {"q_pos": -0.1}, {"q_vel": -0.1}, {"r_meas": 0.0}]
    )
    def test_cv2d_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ConstantVelocity2D(**kwargs)


class TestPropagate:
    def test_rw1d_worked_steps(self):
        assert propagate(RW, [0.2], [-0.4])[0] == -0.2
        assert propagate(RW, [-1.5], [0.3])[0] == -1.2

    def test_cv2d_velocity_advances_position(self):
        out = propagate(CV, [0.0, 0.0, 1.0, 0.5], np.zeros(4))
        np.testing.assert_array_equal(out, [1.0, 0.5, 1.0, 0.5])

    def test_cv2d_dt_zero_is_identity(self):
        model = ConstantVelocity2D(dt=0.0)
        x = np.array([3.0, -2.0, 0.7, 0.1])
        np.testing.assert_array_equal(propagate(model, x, np.zeros(4)), x)

    def test_zero_noise_deterministic(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        a = propagate(CV, x, np.zeros(4))
        b = propagate(CV, x, np.zeros(4))
        np.testing.assert_array_equal(a, b)

    def test_cv2d_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.normal(size=2)
            lhs = propagate(CV, a * x + b * y, np.zeros(4))
            rhs = a * propagate(CV, x, np.zeros(4)) + b * propagate(CV, y, np.zeros(4))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(7, 4))
        noises = rng.normal(size=(7, 4))
        batch = propagate(CV, xs, noises)
        rows = np.stack([propagate(CV, xs[i], noises[i]) for i in range(7)])
        np.testing.assert_array_equal(batch, rows)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            propagate(CV, [1.0, 2.0], np.zeros(2))
        with pytest.raises(DimensionMismatch):
            propagate(RW, [1.0], np.zeros(2))


class TestPredictMeasurement:
    def test_rw1d_identity(self):
        assert predict_measurement(RW, [2.0])[0] == 2.0

    def test_cv2d_projects_position(self):
        np.testing.assert_array_equal(
            predict_measurement(CV, [1.0, 0.5, 1.0, 0.5]), [1.0, 0.5]
        )

    def test_cv2d_velocity_unobserved(self):
        np.testing.assert_array_equal(
            predict_measurement(CV, [0.0, 0.0, 9.0, 9.0]), [0.0, 0.0]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict_measurement(CV, [1.0, 2.0, 3.0])


class TestLogLikelihood:
    def test_worked_factor_step1(self):
        # exp(-(3.2-2.0)^2 / 8) = e^-0.18, tabulated as 0.836
        ll = log_likelihood(RW, 3.2, [2.0])
        factor = math.exp(ll + 0.5 * math.log(2 * math.pi * 4.0))
        assert factor == pytest.approx(0.836, abs=0.001)

    def test_worked_factor_step2(self):
        # exact e^-0.10125 = 0.9037; the 0.91 table entry is double-rounded
        ll = log_likelihood(RW, 0.6, [1.5])
        factor = math.exp(ll + 0.5 * math.log(2 * math.pi * 4.0))
        assert factor == pytest.approx(0.91, abs=0.01)
        assert factor == pytest.approx(math.exp(-0.10125), abs=1e-12)

    def test_zero_residual_closed_form(self):
        model = ConstantVelocity2D(r_meas=4.0)
        x = [1.0, 2.0, 0.0, 0.0]
        ll = log_likelihood(model, [1.0, 2.0], x)
        assert ll == pytest.approx(-math.log(2 * math.pi) - 0.5 * math.log(16.0), abs=1e-12)

    def test_diagonal_equals_sum_of_scalars(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=4)
            z = rng.normal(size=2)
            joint = log_likelihood(CV, z, x)
            parts = sum(
                -0.5 * (math.log(2 * math.pi * 2.0) + (z[j] - x[j]) ** 2 / 2.0)
                for j in range(2)
            )
            assert joint == pytest.approx(parts, abs=1e-12)

    def test_maximized_at_matching_state(self):
        z = 0.37
        grid = np.linspace(-5, 5, 2001)
        values = np.array([log_likelihood(RW, z, [x]) for x in grid])
        best = grid[np.argmax(values)]
        assert abs(best - z) <= (grid[1] - grid[0])
        assert log_likelihood(RW, z, [z]) >= values.max()

    def test_likelihood_ratio_matches_table(self):
        ratio = math.exp(log_likelihood(RW, 3.2, [3.5]) - log_likelihood(RW, 3.2, [-1.2]))
        assert ratio == pytest.approx(0.990 / 0.089, rel=0.02)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(6, 4))
        z = rng.normal(size=2)
        batch = log_likelihood(CV, z, xs)
        rows = np.array([log_likelihood(CV, z, xs[i]) for i in range(6)])
        np.testing.assert_array_equal(batch, rows)

    def test_finite_for_finite_inputs(self):
        assert np.isfinite(log_likelihood(RW, 1e6, [-1e6]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_likelihood(CV, [1.0], [0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "model, z", [(RW, np.nan), (RW, np.inf), (CV, [0.0, -np.inf]), (CV, [np.nan, 1.0])]
    )
    def test_non_finite_measurement_rejected(self, model, z):
        with pytest.raises(NonFiniteMeasurement):
            log_likelihood(model, z, np.zeros((3, model.state_dim)))

    def test_overflowing_residual_gives_minus_inf_silently(self):
        # the squared residual overflows; -inf (weight 0) is the correct limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll = log_likelihood(RW, 1e200, [[0.0], [1e200]])
        assert ll[0] == -np.inf
        assert ll[1] == pytest.approx(-0.5 * math.log(2 * math.pi * 4.0), abs=1e-12)


class TestNoiseSampling:
    def test_zero_variance_gives_zero_vector(self):
        model = RandomWalk1D(q=0.0, r=1.0)
        rng = RngStream(1)
        for _ in range(10):
            assert sample_process_noise(model, rng)[0] == 0.0

    def test_rw1d_empirical_variance(self):
        rng = RngStream(314)
        draws = np.array([sample_process_noise(RW, rng)[0] for _ in range(10**5)])
        assert draws.var() == pytest.approx(1.0, abs=0.02)

    def test_cv2d_empirical_variances(self):
        rng = RngStream(2718)
        draws = np.stack([sample_process_noise(CV, rng) for _ in range(10**5)])
        np.testing.assert_allclose(draws.var(axis=0), [0.2, 0.2, 0.05, 0.05], rtol=0.05)

    def test_measurement_noise_variance(self):
        rng = RngStream(99)
        draws = np.stack([sample_measurement_noise(CV, rng) for _ in range(10**5)])
        np.testing.assert_allclose(draws.var(axis=0), [2.0, 2.0], rtol=0.05)
