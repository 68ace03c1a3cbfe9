import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter.core import ArgumentError
from smcfilter.filter import GaussianPrior
from smcfilter.models import (
    ConstantVelocity2D,
    DimensionMismatch,
    NonFiniteMeasurement,
    RandomWalk1D,
    StateSpaceModel,
    _propagate,
    log_likelihood,
    propagate,
)
from smcfilter.sim import Scenario, run_scenario

RW = RandomWalk1D(q=1.0, r=4.0)
CV = ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=2.0)


class TestConstruction:
    def test_rw1d_dims(self):
        assert (RW.state_dim, RW.obs_dim) == (1, 1)
        np.testing.assert_array_equal(RW.process_var, [1.0])
        np.testing.assert_array_equal(RW.meas_var, [4.0])

    def test_cv2d_defaults(self):
        model = ConstantVelocity2D()
        assert (model.dt, model.q_pos, model.q_vel, model.r_meas) == (1.0, 0.2, 0.05, 2.0)
        np.testing.assert_array_equal(model.process_var, CV.process_var)

    def test_cv2d_dims(self):
        assert (CV.state_dim, CV.obs_dim) == (4, 2)
        np.testing.assert_array_equal(CV.process_var, [0.2, 0.2, 0.05, 0.05])
        np.testing.assert_array_equal(CV.meas_var, [2.0, 2.0])

    @pytest.mark.parametrize(
        "kwargs",
        [{"q": -0.1}, {"r": 0.0}, {"r": -1.0},
         {"q": math.nan}, {"q": math.inf}, {"r": math.inf}, {"r": -math.inf},
         {"q": 10**5000}, {"r": -(10**300)}, {"q": [0.0] * 200_000}],
    )
    def test_rw1d_invalid_variances(self, kwargs):
        with pytest.raises(ArgumentError) as info:
            RandomWalk1D(**kwargs)
        assert info.value.name == next(iter(kwargs))
        # no value is echoed beyond one short line
        assert len(str(info.value)) <= 200 and "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "kwargs",
        [{"dt": -1.0}, {"q_pos": -0.1}, {"q_vel": -0.1}, {"r_meas": 0.0},
         {"dt": math.inf}, {"dt": math.nan}, {"q_pos": math.nan}, {"q_vel": math.inf},
         {"r_meas": math.nan}],
    )
    def test_cv2d_invalid_parameters(self, kwargs):
        with pytest.raises(ArgumentError) as info:
            ConstantVelocity2D(**kwargs)
        assert info.value.name == next(iter(kwargs))

    def test_error_names_argument_and_rule(self):
        with pytest.raises(ArgumentError) as info:
            ConstantVelocity2D(q_pos=math.nan)
        assert (info.value.name, info.value.rule, info.value.index) == (
            "q_pos", "must be finite, got nan", None)
        assert str(info.value) == "q_pos must be finite, got nan"
        with pytest.raises(ArgumentError, match=r"^r_meas must be > 0, got 0\.0$"):
            ConstantVelocity2D(r_meas=0.0)
        with pytest.raises(ArgumentError, match=r"^q must be >= 0, got -0\.1$"):
            RandomWalk1D(q=-0.1)

    PARAMETERS = [(RandomWalk1D, "q"), (RandomWalk1D, "r"), (ConstantVelocity2D, "dt"),
                  (ConstantVelocity2D, "q_pos"), (ConstantVelocity2D, "q_vel"),
                  (ConstantVelocity2D, "r_meas")]

    @pytest.mark.parametrize(
        "bad",
        [[1.0, 2.0], [2.0], np.array([2.0]), np.ones((1, 1)), True, np.bool_(True),
         np.array(True), "2.0", None],
        ids=["list", "one-element list", "1-d array", "2-d array", "bool", "numpy bool",
             "0-d bool array", "str", "None"],
    )
    @pytest.mark.parametrize("cls, name", PARAMETERS)
    def test_non_scalar_parameter_rejected(self, cls, name, bad):
        with pytest.raises(ArgumentError) as info:
            cls(**{name: bad})
        assert info.value.name == name
        assert info.value.rule == f"must be a real number, got {bad!r}"

    # every kind of real scalar: a 0-d float32 array and an int beyond int64
    # included, each standing for the Python float that check_arg makes of it
    ACCEPTED = [(cls, name, value) for cls, name in PARAMETERS
                for value in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2), np.array(2.0),
                              np.array(0.75, dtype=np.float32), 2**70 if name == "dt" else 10**30)]

    @pytest.mark.parametrize("cls, name, value", ACCEPTED)
    def test_real_scalar_parameter_accepted(self, cls, name, value):
        model, plain = cls(**{name: value}), cls(**{name: float(value)})
        assert getattr(model, name) is value
        assert model.process_var.shape == (model.state_dim,)
        assert model.meas_var.shape == (model.obs_dim,)
        for array in (model.process_var, model.meas_var):
            assert array.dtype == np.float64 and not array.flags.writeable
        assert model.f(np.ones(model.state_dim)).dtype == np.float64
        n = model.state_dim
        traces = [run_scenario(Scenario(m, 5, GaussianPrior(np.zeros(n), np.ones(n)), np.ones(n), 20), 3)
                  for m in (model, plain)]
        for column in ("truth", "estimate", "ess"):
            assert np.array_equal(getattr(traces[0], column), getattr(traces[1], column))

    def test_zero_variances_and_dt_allowed(self):
        assert RandomWalk1D(q=0.0).q == 0.0
        assert ConstantVelocity2D(dt=0.0, q_pos=0.0, q_vel=0.0).dt == 0.0


class TestConstants:
    @pytest.mark.parametrize("model", [RW, CV])
    def test_built_once_and_read_only(self, model):
        for name in ("process_var", "meas_var", "process_std", "meas_std", "meas_log_norm"):
            value = getattr(model, name)
            assert getattr(model, name) is value
            assert not value.flags.writeable

    @pytest.mark.parametrize("model", [RW, CV])
    def test_derived_with_the_same_ufuncs(self, model):
        assert np.array_equal(model.process_std, np.sqrt(model.process_var))
        assert np.array_equal(model.meas_std, np.sqrt(model.meas_var))
        assert np.array_equal(model.meas_log_norm, np.log(2.0 * np.pi * model.meas_var))

    def test_cached_constants_leave_equality_and_hash_alone(self):
        cached, fresh = RandomWalk1D(q=1.0, r=4.0), RandomWalk1D(q=1.0, r=4.0)
        assert cached.meas_log_norm is not None
        assert cached == fresh and hash(cached) == hash(fresh)


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

    @pytest.mark.parametrize(
        "x, noise, name, index",
        [([10**400], [0.0], "x", 0), ([True], [0.0], "x", 0), ("1.0", [0.0], "x", None),
         ([0.0], [10**400], "noise", 0), ([0.0], [False], "noise", 0),
         ([[0.0], [1.0]], [[0.0], ["0.5"]], "noise", 1)],
    )
    def test_non_number_rejected(self, x, noise, name, index):
        with pytest.raises(ArgumentError) as info:
            propagate(RW, x, noise)
        assert (info.value.name, info.value.index) == (name, index)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("model", [RandomWalk1D(), ConstantVelocity2D()], ids=["rw1d", "cv2d"])
def test_propagate_past_the_largest_double_is_inf_without_warning(model):
    x = np.zeros(model.state_dim)
    x[0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propagate(model, x, x)
    assert got[0] == np.inf and (got[1:] == 0.0).all()


class TestPropagateIntoOut:
    """With ``out``, _propagate writes a built-in model's f(x) into it and adds
    the noise in place: bit for bit np.add(model.f(x), noise)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0.1, 1e200]) | st.floats(0.0, 1e200),
        st.integers(1, 600),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "huge", "zero"]),
    )
    def test_bit_equal_to_fresh_f_plus_noise(self, dt, n, seed, noise_kind):
        rng = np.random.default_rng(seed)
        for model in (RandomWalk1D(q=0.0), ConstantVelocity2D(dt=dt, q_pos=0.0, q_vel=0.0)):
            shape = (n, model.state_dim)
            x = rng.uniform(-1e150, 1e150, shape) * rng.choice([1.0, 1e-150, 0.0], shape)
            noise = {"normal": lambda: rng.normal(size=shape),
                     "huge": lambda: rng.uniform(-1e150, 1e150, shape),
                     "zero": lambda: np.zeros(shape)}[noise_kind]()
            with np.errstate(over="ignore"):
                expected = np.add(model.f(x), noise)
                out = np.empty(shape)
                assert _propagate(model, x, noise, out) is out
            assert np.array_equal(_bits(out), _bits(expected))

    def test_model_without_f_into_uses_f(self):
        class Doubling(StateSpaceModel):
            state_dim, obs_dim = 1, 1

            def f(self, x):
                return 2.0 * x

        class ShiftedCV(ConstantVelocity2D):
            def f(self, x):
                return super().f(x) + 1.0

        for model in (Doubling(), ShiftedCV()):
            x = np.ones((5, model.state_dim))
            noise = np.full_like(x, 0.5)
            out = _propagate(model, x, noise, np.empty_like(x))
            np.testing.assert_array_equal(out, model.f(x) + noise)


class TestMeasurementMap:
    @pytest.mark.parametrize(
        "model, x, reading",
        [(RW, [2.0], [2.0]), (CV, [1.0, 0.5, 1.0, 0.5], [1.0, 0.5]),
         (CV, [0.0, 0.0, 9.0, 9.0], [0.0, 0.0])],
        ids=["rw1d-identity", "cv2d-projects-position", "cv2d-velocity-unobserved"],
    )
    def test_h_reads_the_observed_components(self, model, x, reading):
        np.testing.assert_array_equal(model.h(np.array(x)), reading)

    @pytest.mark.parametrize("model", [RW, CV])
    def test_h_is_a_read_only_view(self, model):
        x = np.arange(3.0 * model.state_dim).reshape(3, model.state_dim)
        hx = model.h(x)
        assert np.shares_memory(hx, x) and not hx.flags.writeable
        assert x.flags.writeable


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
        "model, z",
        [(RW, np.nan), (RW, np.inf), (CV, [0.0, -np.inf]), (CV, [np.nan, 1.0]),
         pytest.param(RW, 10**400, id="int-beyond-float"),
         pytest.param(CV, [0.0, -(10**400)], id="int-list-beyond-float")],
    )
    def test_non_finite_measurement_rejected(self, model, z):
        with pytest.raises(NonFiniteMeasurement):
            log_likelihood(model, z, np.zeros((3, model.state_dim)))

    @pytest.mark.parametrize(
        "x, index",
        [([10**400], 0), ([[0.0], [True]], 1), ([["0.0"]], 0), (None, None)],
        ids=["int-beyond-float", "bool", "str", "None"],
    )
    def test_non_number_state_rejected(self, x, index):
        with pytest.raises(ArgumentError) as info:
            log_likelihood(RW, 0.0, x)
        assert (info.value.name, info.value.index) == ("x", index)

    @pytest.mark.parametrize(
        "z, rule, index",
        [(True, "must be a real number, got True", None),
         ("1.0", "must be a real number, got '1.0'", None),
         ([0.0, None], "must be a real number, got None", 1),
         (np.nan, "must be finite, got nan", None),
         ([0.0, np.inf], "must be finite, got inf", 1)],
    )
    def test_measurement_error_is_an_argument_error_named_measurement(self, z, rule, index):
        model = RW if np.ndim(z) == 0 else CV
        with pytest.raises(NonFiniteMeasurement) as info:
            log_likelihood(model, z, np.zeros((3, model.state_dim)))
        assert isinstance(info.value, ArgumentError)
        assert (info.value.name, info.value.rule, info.value.index) == ("measurement", rule, index)

    def test_overflowing_residual_gives_minus_inf_silently(self):
        # the squared residual overflows; -inf (weight 0) is the correct limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll = log_likelihood(RW, 1e200, [[0.0], [1e200]])
        assert ll[0] == -np.inf
        assert ll[1] == pytest.approx(-0.5 * math.log(2 * math.pi * 4.0), abs=1e-12)

