import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter.core import ArgumentError, RngStream
from smcfilter.resampling import (
    NotNormalized,
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    should_resample,
    systematic_resample,
)

GOLDEN_WEIGHTS = np.array([0.03, 0.08, 0.27, 0.30, 0.32])


class FakeRng:
    """Feeds predetermined uniforms; lets tests hand-trace inverse-CDF draws."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, shape=None):
        if shape is None:
            return self.values.pop(0)
        taken = [self.values.pop(0) for _ in range(int(np.prod(shape)))]
        return np.array(taken).reshape(shape)


def weight_vectors(min_n=2, max_n=50):
    return (
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=min_n, max_size=max_n)
        .filter(lambda ws: sum(ws) > 1e-6)
        .map(lambda ws: np.array(ws) / np.sum(ws))
    )


class TestEffectiveSampleSize:
    def test_uniform_gives_n(self):
        assert effective_sample_size(np.full(5, 0.2)) == pytest.approx(5.0, abs=1e-9)

    def test_one_hot_gives_one(self):
        w = np.zeros(5)
        w[3] = 1.0
        assert effective_sample_size(w) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example(self):
        # oracle: 1 / sum of squares = 1 / 0.2726
        assert effective_sample_size(GOLDEN_WEIGHTS) == pytest.approx(3.67, abs=0.05)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            effective_sample_size(np.array([0.5, 0.6]))

    @pytest.mark.parametrize(
        "bad, index",
        [([0.0, 10**400], None), ([True, False], 0), (["0.5", "0.5"], 0), ([0.5, None], 1)],
        ids=["int-beyond-float", "bool", "str", "None"],
    )
    def test_non_number_weights_rejected(self, bad, index):
        for check in (effective_sample_size, lambda w: systematic_resample(w, 0.5),
                      lambda w: multinomial_resample(w, FakeRng([0.5, 0.5]))):
            with pytest.raises(ArgumentError) as info:
                check(bad)
            assert (info.value.name, info.value.index) == ("weights", index)

    def test_rejects_nan_weights(self):
        with pytest.raises(NotNormalized):
            effective_sample_size(np.array([0.5, np.nan]))
        with pytest.raises(NotNormalized):
            systematic_resample(np.array([np.nan, 0.5]), 0.5)

    @given(weight_vectors())
    def test_bounds(self, w):
        n_eff = effective_sample_size(w)
        n = len(w)
        assert 1.0 - 1e-9 <= n_eff <= n + 1e-9


class TestSystematicResample:
    def test_one_hot_selects_only_that_index(self):
        w = np.zeros(5)
        w[2] = 1.0
        for u in (0.0, 0.31, 0.99):
            np.testing.assert_array_equal(systematic_resample(w, u), [2, 2, 2, 2, 2])

    def test_uniform_weights_keep_everyone(self):
        # positions [0.1, 0.3, ..] against cumsum [0.2, 0.4, ..]
        np.testing.assert_array_equal(
            systematic_resample(np.full(5, 0.2), 0.5), [0, 1, 2, 3, 4]
        )

    def test_hand_traced_walk(self):
        # positions [0.025, 0.275, 0.525, 0.775] vs cumsum [0.5, 1, 1, 1]
        out = systematic_resample(np.array([0.5, 0.5, 0.0, 0.0]), 0.1)
        np.testing.assert_array_equal(out, [0, 0, 1, 1])

    def test_deterministic_given_inputs(self):
        w = GOLDEN_WEIGHTS
        np.testing.assert_array_equal(
            systematic_resample(w, 0.42), systematic_resample(w, 0.42)
        )

    def test_offset_validated(self):
        with pytest.raises(ValueError):
            systematic_resample(np.full(2, 0.5), 1.0)
        with pytest.raises(ValueError):
            systematic_resample(np.full(2, 0.5), -0.01)

    def test_indices_nondecreasing(self):
        out = systematic_resample(GOLDEN_WEIGHTS, 0.77)
        assert np.all(np.diff(out) >= 0)

    @given(weight_vectors(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=200)
    def test_count_bound(self, w, u):
        # 1e-9 slack absorbs cumsum rounding when n*w_i sits exactly on an
        # integer; the exact bound holds away from such boundaries
        n = len(w)
        counts = np.bincount(systematic_resample(w, u), minlength=n)
        assert len(counts) == n
        assert np.all(counts >= np.floor(n * w - 1e-9))
        assert np.all(counts <= np.ceil(n * w + 1e-9))

    def test_output_shape_and_range(self):
        out = systematic_resample(GOLDEN_WEIGHTS, 0.9)
        assert out.shape == (5,)
        assert np.all((out >= 0) & (out < 5))

    def test_offset_at_float_boundary_stays_in_range(self):
        # (n-1+u)/n rounds to exactly 1.0 here; indices must stay < n and
        # never land on a zero-weight bin
        u = np.nextafter(1.0, 0.0)
        np.testing.assert_array_equal(
            systematic_resample(np.array([0.0, 0.0, 1.0]), u), [2, 2, 2]
        )
        np.testing.assert_array_equal(
            systematic_resample(np.array([1.0, 0.0]), u), [0, 0]
        )


class TestMultinomialResample:
    def test_one_hot(self):
        w = np.zeros(3)
        w[0] = 1.0
        out = multinomial_resample(w, RngStream(4))
        np.testing.assert_array_equal(out, [0, 0, 0])

    def test_inverse_cdf_hand_trace(self):
        out = multinomial_resample(np.array([0.5, 0.5]), FakeRng([0.2, 0.7]))
        np.testing.assert_array_equal(out, [0, 1])

    def test_output_sorted(self):
        out = multinomial_resample(GOLDEN_WEIGHTS, RngStream(12))
        assert np.all(np.diff(out) >= 0)

    def test_output_shape_and_range(self):
        out = multinomial_resample(GOLDEN_WEIGHTS, RngStream(13))
        assert out.shape == (5,)
        assert np.all((out >= 0) & (out < 5))

    def test_empirical_unbiasedness_for_top_index(self):
        rng = RngStream(271828)
        reps = 10**4
        total = 0
        for _ in range(reps):
            total += int(np.sum(multinomial_resample(GOLDEN_WEIGHTS, rng) == 4))
        mean_count = total / reps
        assert mean_count == pytest.approx(0.32 * 5, rel=0.03)


class TestShouldResample:
    def test_below_threshold_fires(self):
        assert should_resample(ResamplePolicy("systematic", 0.5), 80.0, 200) is True

    def test_boundary_is_strict(self):
        assert should_resample(ResamplePolicy("systematic", 0.5), 100.0, 200) is False

    def test_zero_threshold_disables(self):
        policy = ResamplePolicy("systematic", 0.0)
        for n_eff in (1.0, 10.0, 200.0):
            assert should_resample(policy, n_eff, 200) is False

    def test_threshold_one_recovers_unconditional(self):
        policy = ResamplePolicy("systematic", 1.0)
        assert should_resample(policy, 199.999, 200) is True
        assert should_resample(policy, 200.0, 200) is False

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            should_resample(ResamplePolicy(), 1.0, 0)


class TestResamplePolicy:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ResamplePolicy("stratified", 0.5)

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ValueError):
            ResamplePolicy("systematic", fraction)

    @pytest.mark.parametrize(
        "args, name",
        [(("stratified", 0.5), "scheme"), (("systematic", float("nan")), "threshold_fraction"),
         (("systematic", float("inf")), "threshold_fraction")],
    )
    def test_error_names_argument(self, args, name):
        with pytest.raises(ArgumentError) as info:
            ResamplePolicy(*args)
        assert info.value.name == name

    @pytest.mark.parametrize(
        "bad", [[0.5], np.array([0.5]), True, np.bool_(False), np.array(True), "0.5", None],
        ids=["list", "1-d array", "bool", "numpy bool", "0-d bool array", "str", "None"],
    )
    def test_non_scalar_fraction_rejected(self, bad):
        with pytest.raises(ArgumentError) as info:
            ResamplePolicy("systematic", bad)
        assert info.value.name == "threshold_fraction"
        assert info.value.rule == f"must be a real number, got {bad!r}"

    @pytest.mark.parametrize("fraction", [1, 0.5, np.float32(0.5), np.int64(1), np.array(0.5)])
    def test_real_scalar_fraction_accepted(self, fraction):
        policy = ResamplePolicy("systematic", fraction)
        assert should_resample(policy, 1.0, 4) is True
        assert should_resample(policy, 4.0, 4) is False
