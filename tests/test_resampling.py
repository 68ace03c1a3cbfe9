import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcfilter import resampling
from smcfilter.core import ArgumentError, RngStream
from smcfilter.resampling import (
    _BELOW_ONE,
    CLOSED_FORM_MIN_N,
    NotNormalized,
    ResamplePolicy,
    _ResampleScratch,
    _binary_search,
    _closed_form_search,
    _pinned_cumsum,
    _systematic,
    effective_sample_size,
    multinomial_resample,
    systematic_resample,
)

GOLDEN_WEIGHTS = np.array([0.03, 0.08, 0.27, 0.30, 0.32])


class FakeRng:
    """Feeds predetermined uniforms; lets tests hand-trace inverse-CDF draws."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, shape=None, out=None):
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

    @settings(max_examples=100, deadline=None)
    @given(weight_vectors(1, 200))
    def test_only_reads_its_weights(self, w):
        kept = w.copy()
        effective_sample_size(w)
        assert np.array_equal(w, kept)

    @pytest.mark.parametrize(
        "bad, index",
        [([0.0, 10**400], 1), ([True, False], 0), (["0.5", "0.5"], 0), ([0.5, None], 1)],
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

    @pytest.mark.parametrize(
        "u", [0.3, np.float64(0.3), np.float32(0.3), np.array(0.3), 0, -0.0, _BELOW_ONE],
        ids=["float", "float64", "float32", "0-d", "int", "minus-zero", "below-one"],
    )
    def test_any_real_offset_acts_as_its_float(self, u):
        np.testing.assert_array_equal(
            systematic_resample(GOLDEN_WEIGHTS, u), systematic_resample(GOLDEN_WEIGHTS, float(u))
        )

    @pytest.mark.parametrize(
        "u, rule",
        [(np.nan, "must be finite, got nan"), (np.inf, "must be finite, got inf"),
         (-np.inf, "must be finite, got -inf"), (-1e-300, "must be in [0, 1), got -1e-300"),
         (1.0, "must be in [0, 1), got 1.0"), ([0.5], "must be a real number, got [0.5]"),
         (True, "must be a real number, got True"), (10**5000, "must be finite, got <16610-bit int>"),
         ("0.5", "must be a real number, got '0.5'"), (None, "must be a real number, got None")],
        ids=["nan", "inf", "minus-inf", "below-zero", "one", "list", "bool", "huge-int", "str", "none"],
    )
    def test_offset_rule_names_u(self, u, rule):
        with pytest.raises(ArgumentError) as info:
            systematic_resample(GOLDEN_WEIGHTS, u)
        assert str(info.value) == f"u {rule}"

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


def searchsorted_reference(weights, u):
    """The systematic search as a binary search: the pinned cumulative sum
    searched for the positions (i + u) / N, the last pulled below 1."""
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    n = cumsum.size
    positions = (np.arange(n) + u) / n
    positions[-1] = min(positions[-1], np.nextafter(1.0, 0.0))
    return cumsum.searchsorted(positions, side="right")


@st.composite
def shaped_weights(draw, sizes):
    """Normalized weights of a drawn size and shape: ties and exact zeros
    give runs of equal cumulative sums, all-equal weights put positions
    exactly on them."""
    n = draw(sizes)
    shape = draw(st.sampled_from(["random", "ties", "sparse", "one-hot", "all-equal", "peaked"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = {
        "random": lambda: rng.random(n),
        "ties": lambda: rng.integers(0, 4, n).astype(float),
        "sparse": lambda: np.where(rng.random(n) < 0.01, rng.random(n), 0.0),
        "one-hot": lambda: np.eye(1, n, int(rng.integers(n)))[0],
        "all-equal": lambda: np.ones(n),
        "peaked": lambda: np.exp(rng.normal(0.0, 4.0, n)),
    }[shape]()
    if not w.any():
        w[rng.integers(n)] = 1.0
    return w / w.sum()


OFFSETS = st.sampled_from([0.0, _BELOW_ONE]) | st.floats(0.0, 1.0, exclude_max=True)
AROUND_CROSSOVER = st.sampled_from([CLOSED_FORM_MIN_N - 1, CLOSED_FORM_MIN_N]) | st.integers(
    CLOSED_FORM_MIN_N // 2, 2 * CLOSED_FORM_MIN_N)


class TestClosedFormSearch:
    """From CLOSED_FORM_MIN_N weights on, systematic_resample solves for its
    indices in closed form; they must be searchsorted's, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(shaped_weights(AROUND_CROSSOVER), OFFSETS)
    def test_matches_searchsorted_on_both_sides_of_the_crossover(self, w, u):
        expected = searchsorted_reference(w, u)
        np.testing.assert_array_equal(systematic_resample(w, u), expected)
        # the kernel in a scratch whose cumsum holds the weights, as the step
        # hands them over; a near tie returns the binary search's fresh
        # array, so only values are checked
        scratch = _ResampleScratch(w.size)
        scratch.cumsum[:] = w
        np.testing.assert_array_equal(_systematic(scratch.cumsum, u, scratch), expected)

    def test_away_from_a_tie_the_indices_are_the_scratch_s(self):
        w = np.random.default_rng(3).random(10_000)
        w /= w.sum()
        scratch = _ResampleScratch(w.size)
        got = _systematic(w, 0.3, scratch)
        assert got is scratch.indices
        np.testing.assert_array_equal(got, searchsorted_reference(w, 0.3))

    @settings(max_examples=300, deadline=None)
    @given(shaped_weights(st.integers(1, 300)), OFFSETS)
    def test_matches_searchsorted_at_any_size(self, w, u):
        scratch = _ResampleScratch(w.size)
        got = _closed_form_search(_pinned_cumsum(w, scratch.cumsum), u, scratch)
        np.testing.assert_array_equal(got, searchsorted_reference(w, u))


def near_tie_weights(shape, n, u, rng):
    """Weights of a shape whose first cumulative entry is u / N, the first
    stride position, so that the closed-form search meets a near tie."""
    m = {
        "uniform": lambda: np.ones(n - 1),
        "dyadic": lambda: 2.0 ** rng.integers(-3, 4, n - 1),
        "one-hot": lambda: np.eye(1, n - 1, int(rng.integers(n - 1)))[0],
        "sparse": lambda: np.where(np.arange(n - 1) % 97 == 5, 1.0, 0.0),
    }[shape]()
    return np.r_[u / n, m * ((1.0 - u / n) / m.sum())]


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the closed-form search's calls of the binary search."""
    calls = []

    def counted(*args):
        calls.append(args[0].size)
        return _binary_search(*args)

    monkeypatch.setattr(resampling, "_binary_search", counted)
    return calls


class TestClosedFormPaths:
    """The closed form takes ceil(N c - u) as it is unless an entry lies
    within its margin of an integer; then it hands the search to the
    binary search."""

    @settings(max_examples=40, deadline=None)
    @given(shaped_weights(st.integers(CLOSED_FORM_MIN_N, 100_000)), OFFSETS)
    def test_matches_searchsorted_from_the_crossover_on(self, w, u):
        np.testing.assert_array_equal(systematic_resample(w, u), searchsorted_reference(w, u))

    @pytest.mark.parametrize("n", [CLOSED_FORM_MIN_N, 10_000, 65_536, 100_000])
    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, _BELOW_ONE, 1e-300])
    @pytest.mark.parametrize("shape", ["uniform", "dyadic", "one-hot", "sparse"])
    def test_near_ties_take_the_binary_search(self, fallback_calls, shape, u, n):
        w = near_tie_weights(shape, n, u, np.random.default_rng(n))
        np.testing.assert_array_equal(systematic_resample(w, u), searchsorted_reference(w, u))
        assert fallback_calls == [n]

    @pytest.mark.parametrize("u", [0.05, 0.5])
    def test_partial_sums_outside_zero_one_are_clipped(self, fallback_calls, u):
        # a negative first weight, and a sum 9e-7 above 1 that the pin of
        # the last partial sum leaves on the one before: ceil(N c - u) is
        # below 0 for the first entry, and N + 1 for the second last at u = 0.05.
        # The public function rejects a negative weight, so the kernel runs.
        n = 100_000
        w = np.full(n, 1.0 / n)
        w[:2] += [-0.3, 0.3]
        w[-2:] = [2.0 / n + 9e-7 - 1e-9, 1e-9]
        got = _systematic(w, u, _ResampleScratch(n))
        np.testing.assert_array_equal(got, searchsorted_reference(w, u))
        assert fallback_calls == []

    def test_filter_weights_skip_the_binary_search(self, fallback_calls):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(CLOSED_FORM_MIN_N, 100_001))
            # a likelihood-weighted cloud, as a filter step makes one
            log_w = -0.5 * (rng.normal(0.0, 3.0, n) - rng.normal()) ** 2
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            u = rng.random()
            np.testing.assert_array_equal(systematic_resample(w, u), searchsorted_reference(w, u))
        assert fallback_calls == []


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


@pytest.mark.parametrize(
    "resample, second",
    [(systematic_resample, "u"), (multinomial_resample, "rng")],
    ids=["systematic", "multinomial"],
)
class TestPublicResamplers:
    def test_take_no_buffer(self, resample, second):
        assert list(inspect.signature(resample).parameters) == ["weights", second]

    def test_each_call_returns_indices_of_its_own(self, resample, second):
        # past CLOSED_FORM_MIN_N the systematic search returns its scratch's indices
        w = np.full(CLOSED_FORM_MIN_N, 1.0 / CLOSED_FORM_MIN_N)

        def call():
            return resample(w, 0.3 if second == "u" else RngStream(5))

        first, again = call(), call()
        assert not np.shares_memory(first, again)
        np.testing.assert_array_equal(first, again)
