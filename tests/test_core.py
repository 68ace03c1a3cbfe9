import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smcfilter import filter as sir
from smcfilter.core import (
    AllWeightsCollapsed,
    ArgumentError,
    ParticleSet,
    RngStream,
    check_arg,
    map_estimate,
    normalize_weights,
    real_array,
    weighted_mean,
)
from smcfilter.models import RandomWalk1D
from smcfilter.resampling import ResamplePolicy

# Worked single-step example used throughout: five predicted particles with
# hand-computed Gaussian likelihood factors and their normalized weights.
GOLDEN_PARTICLES = np.array([-1.2, -0.2, 2.0, 2.3, 3.5])
GOLDEN_FACTORS = np.array([0.089, 0.236, 0.836, 0.905, 0.990])
GOLDEN_WEIGHTS = np.array([0.03, 0.08, 0.27, 0.30, 0.32])

finite_logs = st.floats(min_value=-300.0, max_value=50.0)
log_weight_lists = st.lists(finite_logs, min_size=1, max_size=50)


def kept_log_weights(log_weights):
    """The log-weights after one step that keeps them (threshold 0). The
    particles are equal and hold still (q = 0), so z = 0 adds the same
    log-likelihood to each and the step only renormalizes."""
    log_weights = np.asarray(log_weights, dtype=float)
    state = sir.FilterState(
        set=ParticleSet(np.zeros(log_weights.size), log_weights),
        model=RandomWalk1D(q=0.0, r=1.0),
        policy=ResamplePolicy("systematic", 0.0),
        rng=RngStream(0),
    )
    assert not sir.step(state, [0.0]).resampled
    return state.set.log_weights


class TestNormalizeWeights:
    def test_worked_example(self):
        log_w = np.log(0.2 * GOLDEN_FACTORS)
        out, m, s, ess = normalize_weights(log_w)
        assert m == log_w.max()
        assert s == np.exp(log_w - m).sum()
        assert ess == pytest.approx(1.0 / np.sum(out**2), rel=1e-14)
        np.testing.assert_allclose(out, GOLDEN_WEIGHTS, atol=0.005)
        # independent oracle: direct linear normalization of the factors
        np.testing.assert_allclose(out, GOLDEN_FACTORS / GOLDEN_FACTORS.sum(), atol=1e-12)

    def test_uniform(self):
        out, _, _, ess = normalize_weights(np.full(5, -3.7))
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-12)
        assert ess == 5

    def test_shift_invariance_example(self):
        lw = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_allclose(
            normalize_weights(lw)[0], normalize_weights(lw + 123.456)[0], atol=1e-12
        )

    @given(log_weight_lists, st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, lw, c):
        lw = np.array(lw)
        np.testing.assert_allclose(
            normalize_weights(lw)[0], normalize_weights(lw + c)[0], atol=1e-12
        )

    @given(log_weight_lists)
    def test_probability_vector(self, lw):
        out, _, _, _ = normalize_weights(np.array(lw))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_minus_inf_entries_get_zero_weight(self):
        out, _, _, ess = normalize_weights(np.array([0.0, -np.inf, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-12)
        assert ess == 2

    def test_all_collapsed_raises(self):
        with pytest.raises(AllWeightsCollapsed):
            normalize_weights(np.full(4, -np.inf))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([]))

    @pytest.mark.parametrize(
        "bad, rule, index",
        [([0.0, True], "must be a real number, got True", 1),
         (["0.0"], "must be a real number, got '0.0'", 0),
         ([0.0, 10**400], "must be finite, got <1329-bit int>", 1)],
        ids=["bool", "str", "int-beyond-float"],
    )
    def test_non_number_rejected(self, bad, rule, index):
        with pytest.raises(ArgumentError) as info:
            normalize_weights(bad)
        assert (info.value.name, info.value.index) == ("log_weights", index)
        assert info.value.rule.startswith(rule)

    @pytest.mark.parametrize("lw, weights, ess", [
        ([1e308, -1e308], [1.0, 0.0], 1.0),  # the difference overflows to -inf
        ([np.inf, 0.0], [np.nan, np.nan], np.nan),  # inf - inf is NaN
    ], ids=["difference-past-the-float-range", "plus-inf"])
    def test_float_range_edges_give_no_warning(self, lw, weights, ess):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _, _, got = normalize_weights(lw)
        np.testing.assert_array_equal(out, weights)
        np.testing.assert_array_equal(got, ess)

    def test_extreme_magnitudes_do_not_underflow(self):
        out, _, _, _ = normalize_weights(np.array([-2000.0, -2001.0]))
        assert abs(out.sum() - 1.0) < 1e-9
        assert out[0] > out[1] > 0

    @given(log_weight_lists)
    def test_log_domain_normalization_consistent(self, lw):
        lw = np.array(lw)
        np.testing.assert_allclose(
            np.exp(kept_log_weights(lw)), normalize_weights(lw)[0], atol=1e-12
        )

    def test_log_domain_keeps_tiny_weights(self):
        out = kept_log_weights([0.0, -800.0])
        assert np.isfinite(out[1])
        assert out[1] == pytest.approx(-800.0, abs=1e-9)

    @pytest.mark.parametrize("shift", [-1e20, 1e20, -1e300])
    def test_log_domain_survives_a_huge_shift(self, shift):
        # m + log(s) rounds to m for |m| beyond ~1e16; the result must not
        # lose the log(s) term
        out = kept_log_weights([shift, shift])
        np.testing.assert_array_equal(out, [-np.log(2.0), -np.log(2.0)])


class TestEstimators:
    def test_weighted_mean_uniform(self):
        pset = ParticleSet.uniform(np.array([2.0, 2.3, 3.5, 3.5, 2.3]))
        assert weighted_mean(pset.particles, pset.weights)[0] == pytest.approx(2.72, abs=1e-12)

    def test_weighted_mean_one_hot(self):
        lw = np.full(5, -np.inf)
        lw[3] = 0.0
        pset = ParticleSet(GOLDEN_PARTICLES, lw)
        assert weighted_mean(pset.particles, pset.weights)[0] == 2.3

    def test_weighted_mean_worked_example(self):
        # oracle: plain dot product of the worked tables
        pset = ParticleSet(GOLDEN_PARTICLES, np.log(GOLDEN_WEIGHTS))
        assert weighted_mean(pset.particles, pset.weights)[0] == pytest.approx(2.298, abs=1e-9)

    @given(st.permutations(range(5)))
    def test_weighted_mean_permutation_invariant(self, perm):
        perm = np.array(perm)
        base = ParticleSet(GOLDEN_PARTICLES, np.log(GOLDEN_WEIGHTS))
        shuffled = ParticleSet(GOLDEN_PARTICLES[perm], np.log(GOLDEN_WEIGHTS[perm]))
        np.testing.assert_allclose(
            weighted_mean(base.particles, base.weights),
            weighted_mean(shuffled.particles, shuffled.weights),
            atol=1e-12,
        )

    def test_map_worked_example(self):
        pset = ParticleSet(GOLDEN_PARTICLES, np.log(GOLDEN_WEIGHTS))
        assert map_estimate(pset.particles, pset.log_weights)[0] == 3.5

    def test_map_uniform_tie_breaks_to_lowest_index(self):
        pset = ParticleSet.uniform(np.array([4.0, 1.0, 9.0]))
        assert map_estimate(pset.particles, pset.log_weights)[0] == 4.0

    def test_map_one_hot(self):
        lw = np.full(5, -np.inf)
        lw[2] = 0.0
        pset = ParticleSet(GOLDEN_PARTICLES, lw)
        assert map_estimate(pset.particles, pset.log_weights)[0] == 2.0

    @given(st.floats(min_value=-50, max_value=50))
    def test_map_invariant_under_rescaling(self, c):
        # adding c to log-weights == multiplying linear weights by exp(c)
        base = ParticleSet(GOLDEN_PARTICLES, np.log(GOLDEN_WEIGHTS))
        scaled = ParticleSet(GOLDEN_PARTICLES, np.log(GOLDEN_WEIGHTS) + c)
        assert (map_estimate(base.particles, base.log_weights)[0]
                == map_estimate(scaled.particles, scaled.log_weights)[0])


class TestMonteCarloExpectation:
    """With equal weights, weighted_mean is the Monte Carlo estimate
    (1/N) sum g(x_i) of E[g(X)] over samples x_i of X."""

    @staticmethod
    def expectation(g, samples):
        pset = ParticleSet.uniform([g(x) for x in samples])
        return weighted_mean(pset.particles, pset.weights)[0]

    def test_identity_mean_near_zero(self):
        samples = RngStream(2024).standard_normal(1000)
        assert abs(self.expectation(lambda x: x, samples)) <= 0.1

    def test_interval_indicator_near_68_percent(self):
        samples = RngStream(2024).standard_normal(1000)
        est = self.expectation(lambda x: 1.0 if -1.0 <= x <= 1.0 else 0.0, samples)
        assert est == pytest.approx(0.68, abs=0.04)

    def test_constant_function(self):
        assert self.expectation(lambda x: 7.25, np.zeros((13, 2))) == pytest.approx(7.25)


class TestRngStream:
    def test_equal_seeds_equal_draws(self):
        a, b = RngStream(987654321), RngStream(987654321)
        assert np.array_equal(a.standard_normal(10**6), b.standard_normal(10**6))
        assert np.array_equal(a.uniform(10**6), b.uniform(10**6))

    def test_different_seeds_differ(self):
        assert RngStream(1).standard_normal() != RngStream(2).standard_normal()

    def test_array_draws_match_scalar_draws(self):
        # the vectorized filter relies on this layout guarantee
        a, b = RngStream(11), RngStream(11)
        block = a.standard_normal((4, 3))
        singles = np.array([b.standard_normal() for _ in range(12)]).reshape(4, 3)
        assert np.array_equal(block, singles)

    def test_uniform_range(self):
        draws = RngStream(3).uniform(10000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    @pytest.mark.parametrize("bad, text", [(-1, "-1"), (2**64, str(2**64)),
                                           pytest.param(10**5000, "<16610-bit int>", id="huge")])
    def test_seed_range_validated(self, bad, text):
        with pytest.raises(ArgumentError) as info:
            RngStream(bad)
        assert info.value.name == "seed"
        assert info.value.rule == f"must be an unsigned 64-bit integer, got {text}"

    def test_seed_range_edges_accepted(self):
        assert RngStream(0).seed == 0
        assert RngStream(2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("bad", [3.7, 1.0, True, False, "5", np.float64(2.0), np.bool_(True)])
    def test_non_integer_seed_rejected(self, bad):
        # int() would truncate 3.7 to 3 and read True as 1 and "5" as 5
        with pytest.raises(ArgumentError) as info:
            RngStream(bad)
        assert info.value.name == "seed"
        assert info.value.rule == f"must be an integer, got {bad!r}"

    @pytest.mark.parametrize("seed", [np.int64(0), np.uint64(2**64 - 1), np.int32(7), np.uint8(3)])
    def test_numpy_integer_seed_accepted(self, seed):
        stream = RngStream(seed)
        assert stream.seed == int(seed) and type(stream.seed) is int
        assert stream.uniform() == RngStream(int(seed)).uniform()


class TestParticleSet:
    def test_scalar_states_get_column_shape(self):
        pset = ParticleSet.uniform(np.array([1.0, 2.0, 3.0]))
        assert pset.particles.shape == (3, 1)
        assert pset.dim == 1 and pset.n_particles == 3

    def test_uniform_constructor_weights(self):
        pset = ParticleSet.uniform(np.zeros((4, 2)))
        np.testing.assert_allclose(pset.weights, 0.25, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 1)), np.zeros(4))

    def test_nonfinite_particles_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.array([[np.nan]]), np.zeros(1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nan_and_plus_inf_log_weights_rejected(self, bad):
        with pytest.raises(ArgumentError, match=rf"^log_weights\[0\] must not be NaN or \+inf, got {bad}$"):
            ParticleSet(np.zeros(3), np.array([bad, 0.0, 0.0]))

    def test_minus_inf_log_weight_accepted(self):
        pset = ParticleSet(np.zeros(3), np.array([-np.inf, 0.0, 0.0]))
        assert np.array_equal(pset.weights, [0.0, 1.0, 1.0])

    def test_uniform_empty_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-empty"):
                ParticleSet.uniform(np.empty((0, 1)))

    def test_uniform_scalar_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ParticleSet.uniform(1.0)

    @pytest.mark.parametrize(
        "particles, log_weights, name, rule, index",
        [([10**400], [0.0], "particles", "must be finite, got <1329-bit int>", 0),
         ([0.0, True], [0.0, 0.0], "particles", "must be a real number, got True", 1),
         ([[0.0], ["1.0"]], [0.0, 0.0], "particles", "must be a real number, got '1.0'", 1),
         ([0.0, 0.0], [0.0, False], "log_weights", "must be a real number, got False", 1),
         ([0.0], "0.0", "log_weights", "must be a real number, got '0.0'", None)],
        ids=["int-beyond-float", "bool", "str", "bool-log-weight", "str-log-weights"],
    )
    def test_non_number_rejected(self, particles, log_weights, name, rule, index):
        with pytest.raises(ArgumentError) as info:
            ParticleSet(particles, log_weights)
        assert (info.value.name, info.value.index) == (name, index)
        assert info.value.rule.startswith(rule)

    @pytest.mark.parametrize("bad", [[0.0, 10**400], [True, False], ["0.0", "1.0"], None],
                             ids=["int-beyond-float", "bool", "str", "None"])
    def test_uniform_non_number_rejected(self, bad):
        with pytest.raises(ArgumentError) as info:
            ParticleSet.uniform(bad)
        assert info.value.name == "particles"


class TestRealArray:
    @pytest.mark.parametrize("value", [np.arange(3.0), np.zeros((2, 2)), np.array(1.5)])
    def test_float_array_comes_back_as_itself(self, value):
        assert real_array("x", value) is value

    @pytest.mark.parametrize(
        "value, expected",
        [(2, 2.0), ([1, 2.5], [1.0, 2.5]), (np.int64(3), 3.0), (np.float32(0.5), 0.5),
         ([np.float64(1.0), np.int32(2)], [1.0, 2.0]), (np.arange(3), [0.0, 1.0, 2.0]),
         ([], np.empty(0))],
    )
    def test_ints_and_floats_convert(self, value, expected):
        arr = real_array("x", value)
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, expected)

    def test_bad_element_deep_in_a_large_array_is_named_on_one_line(self):
        cloud = np.zeros((100_000, 4)).tolist()
        cloud[76_543][2] = True
        with pytest.raises(ArgumentError) as info:
            ParticleSet(cloud, np.zeros(100_000))
        assert str(info.value) == "particles[306174] must be a real number, got True"

    def test_integer_beyond_float_range_in_a_large_array_prints_one_short_line(self):
        cloud = [0.0] * 100_000
        cloud[-1] = 10**400
        with pytest.raises(ArgumentError) as info:
            ParticleSet.uniform(cloud)
        assert str(info.value) == "particles[99999] must be finite, got <1329-bit int>"


class TestCheckArg:
    @pytest.mark.parametrize(
        "value, kwargs",
        [(0.0, {"low": 0.0}), (1e300, {"low": 0.0}), (1e-300, {"low": 0.0, "strict": True}),
         (0.0, {"low": 0.0, "high": 1.0}), (1.0, {"low": 0.0, "high": 1.0}),
         (-5.0, {}), ([0.0, 2.0], {"low": 0.0}), (np.array([[1.0]]), {"low": 1}),
         (3, {"low": 1, "integer": True}), (np.int64(3), {"low": 1, "integer": True})],
    )
    def test_accepts(self, value, kwargs):
        check_arg("x", value, **kwargs)

    @pytest.mark.parametrize(
        "value, kwargs, rule, index",
        [
            (-0.5, {"low": 0.0}, "must be >= 0, got -0.5", None),
            (0.0, {"low": 0.0, "strict": True}, "must be > 0, got 0.0", None),
            (0, {"low": 1}, "must be >= 1, got 0", None),
            (1.5, {"low": 0.0, "high": 1.0}, "must be in [0, 1], got 1.5", None),
            (float("nan"), {"low": 0.0, "high": 1.0}, "must be finite, got nan", None),
            (float("-inf"), {}, "must be finite, got -inf", None),
            ([1.0, float("inf"), -1.0], {"low": 0.0}, "must be finite, got inf", 1),
            ([1.0, 2.0, -1.0], {"low": 0.0}, "must be >= 0, got -1.0", 2),
            (2.5, {"low": 1, "integer": True}, "must be an integer, got 2.5", None),
            (3.0, {"integer": True}, "must be an integer, got 3.0", None),
            (True, {"low": 1, "integer": True}, "must be an integer, got True", None),
            ("3", {"integer": True}, "must be an integer, got '3'", None),
            (0, {"low": 1, "integer": True}, "must be >= 1, got 0", None),
            (True, {}, "must be a real number, got True", None),
            ("1.0", {}, "must be a real number, got '1.0'", None),
            (None, {}, "must be a real number, got None", None),
            (1 + 2j, {}, "must be a real number, got (1+2j)", None),
            ([[1.0, 2.0], [3.0, "4"]], {"low": 0.0}, "must be a real number, got '4'", 3),
            (np.array([0, 1], dtype=bool), {}, "must be a real number, got False", 0),
            # a value's text is bounded: an oversized int by its size, a long
            # string or list cut short; a numpy scalar still prints as a number
            pytest.param(10**5000, {"low": 1, "integer": True},
                         "must be finite, got <16610-bit int>", None, id="huge-int"),
            pytest.param(-(10**300), {"low": 0}, "must be >= 0, got -<997-bit int>", None,
                         id="long-negative-int"),
            ([0.0, -(10**300)], {"low": 0}, "must be >= 0, got -1e+300", 1),
            pytest.param("1" * 5000, {}, "must be a real number, got '111111111111...1111111111111'",
                         None, id="long-str"),
            pytest.param([[0.0] * 100_000], {"scalar": True},
                         "must be a real number, got [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]]", None,
                         id="long-list"),
            (np.float64(-1.0), {"low": 0}, "must be >= 0, got -1.0", None),
        ],
    )
    def test_rejects_naming_argument_and_element(self, value, kwargs, rule, index):
        with pytest.raises(ArgumentError) as info:
            check_arg("x", value, **kwargs)
        assert (info.value.name, info.value.rule, info.value.index) == ("x", rule, index)
        where = "x" if index is None else f"x[{index}]"
        assert str(info.value) == f"{where} {rule}"

    def test_error_class_is_the_callers(self):
        class Custom(ArgumentError):
            pass

        with pytest.raises(Custom):
            check_arg("x", -1.0, low=0.0, error=Custom)
