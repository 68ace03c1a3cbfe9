"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).

Every tolerance is pinned here; the statistical gates run fixed seed sets
so results are reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest

from smcfilter import cli
from smcfilter.core import ParticleSet, RngStream
from smcfilter.filter import FilterState, GaussianPrior, step_with_injected_noise
from smcfilter.models import ConstantVelocity2D, RandomWalk1D, log_likelihood
from smcfilter.resampling import (
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    systematic_resample,
)
from smcfilter.sim import Scenario, rmse, run_scenario

GOLDEN_WEIGHTS = np.array([0.03, 0.08, 0.27, 0.30, 0.32])


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: PASS{suffix}")


def golden_state(particles):
    return FilterState(
        set=ParticleSet.uniform(np.asarray(particles, dtype=float)),
        model=RandomWalk1D(q=1.0, r=4.0),
        policy=ResamplePolicy("systematic", 0.5),
        rng=RngStream(0),
    )


def rw_scenario(r, threshold):
    return Scenario(
        model=RandomWalk1D(q=1.0, r=r),
        t_steps=50,
        prior=GaussianPrior([0.0], [2.0]),
        initial_truth=[0.0],
        n_particles=500,
        policy=ResamplePolicy("systematic", threshold),
    )


def test_criterion_1_golden_step_one():
    start = time.perf_counter()
    state = golden_state([-1.5, 0.2, 1.0, 2.5, 3.0])
    step_with_injected_noise(state, 3.2, [0.3, -0.4, 1.0, -0.2, 0.5])
    predicted = state.set.particles[:, 0]
    assert np.array_equal(predicted, np.array([-1.2, -0.2, 2.0, 2.3, 3.5]))
    np.testing.assert_allclose(state.set.weights, GOLDEN_WEIGHTS, atol=0.005)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "golden-step-k1", f"exact predictions, weights within 0.005, {elapsed:.3f}s")


def test_criterion_2_golden_step_two():
    model = RandomWalk1D(q=1.0, r=4.0)
    state = golden_state([2.0, 2.3, 3.5, 3.5, 2.3])
    step_with_injected_noise(state, 0.6, [0.5, -0.8, 0.3, -0.2, 0.7])
    predicted = state.set.particles[:, 0]
    np.testing.assert_allclose(predicted, [2.5, 1.5, 3.8, 3.3, 3.0], atol=1e-12)
    # exponential likelihood factors, with the density constant divided out
    constant = 0.5 * np.log(2 * np.pi * 4.0)
    factors = np.exp([log_likelihood(model, 0.6, [x]) + constant for x in predicted])
    np.testing.assert_allclose(factors, [0.64, 0.91, 0.28, 0.40, 0.49], atol=0.01)
    np.testing.assert_allclose(
        state.set.weights, [0.235, 0.335, 0.103, 0.147, 0.180], atol=0.01
    )
    report(2, "golden-step-k2", "factors within 0.01 of table, weights match recomputed row")


def test_criterion_3_ess_characterization():
    gen = np.random.default_rng(777)
    for _ in range(1000):
        n = int(gen.integers(2, 101))
        w = gen.exponential(size=n)
        w /= w.sum()
        n_eff = effective_sample_size(w)
        assert 1.0 - 1e-9 <= n_eff <= n + 1e-9
        assert n_eff < n  # generated vectors are non-uniform
    for n in (2, 5, 64, 100):
        assert abs(effective_sample_size(np.full(n, 1.0 / n)) - n) <= 1e-9
        one_hot = np.zeros(n)
        one_hot[n // 2] = 1.0
        assert effective_sample_size(one_hot) == pytest.approx(1.0, abs=1e-12)
    assert effective_sample_size(GOLDEN_WEIGHTS) == pytest.approx(3.67, abs=0.05)
    report(3, "ess-characterization", "1000 random vectors, bounds and equality cases hold")


def test_criterion_4_systematic_count_bound():
    gen = np.random.default_rng(20250804)
    violations = 0
    for trial in range(1000):
        n = int(gen.integers(4, 65))
        kind = trial % 3
        if kind == 0:
            raw = gen.random(n)
        elif kind == 1:
            raw = gen.exponential(size=n) ** 2
        else:
            raw = gen.random(n)
            raw[gen.random(n) < 0.3] = 0.0
            if raw.sum() == 0:
                raw[0] = 1.0
        w = raw / raw.sum()
        u = float(gen.random())
        counts = np.bincount(systematic_resample(w, u), minlength=n)
        if not (np.all(counts >= np.floor(n * w)) and np.all(counts <= np.ceil(n * w))):
            violations += 1
    assert violations == 0
    report(4, "systematic-count-bound", "1000 random (weights, u) pairs, zero violations")


def test_criterion_5_multinomial_unbiasedness():
    rng = RngStream(424242)
    reps = 10**4
    counts = np.zeros(5)
    for _ in range(reps):
        counts += np.bincount(multinomial_resample(GOLDEN_WEIGHTS, rng), minlength=5)
    mean_counts = counts / reps
    expected = 5 * GOLDEN_WEIGHTS
    stderr = np.sqrt(5 * GOLDEN_WEIGHTS * (1 - GOLDEN_WEIGHTS) / reps)
    deviations = np.abs(mean_counts - expected) / stderr
    assert np.all(deviations <= 3.0)
    report(5, "multinomial-unbiasedness", f"max deviation {deviations.max():.2f} standard errors")


def test_criterion_6_monte_carlo_principle():
    draws = RngStream(20260810).standard_normal(10**4)
    mean = float(draws.mean())
    fraction = float(np.mean((draws >= -1.0) & (draws <= 1.0)))
    assert abs(mean) <= 0.05
    assert fraction == pytest.approx(0.683, abs=0.02)
    report(6, "monte-carlo-principle", f"mean {mean:+.4f}, fraction in [-1,1] {fraction:.3f}")


def test_criterion_7_filter_beats_sensor_1d():
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        trace = run_scenario(rw_scenario(r=4.0, threshold=0.5), seed)
        truth = trace.truth[1:]
        estimate = trace.estimate[1:]
        measurement = trace.measurement[1:]
        if rmse(estimate, truth) < rmse(measurement, truth):
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 90
    assert elapsed < 30.0
    report(7, "filter-beats-sensor-1d", f"{wins}/100 seeds, {elapsed:.1f}s")


def test_criterion_8_filter_beats_sensor_2d():
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        scenario = Scenario(
            model=ConstantVelocity2D(dt=1.0, q_pos=0.2, q_vel=0.05, r_meas=2.0),
            t_steps=30,
            prior=GaussianPrior([0.0] * 4, [2.0] * 4),
            initial_truth=[0.0, 0.0, 1.0, 0.5],
            n_particles=500,
            policy=ResamplePolicy("systematic", 0.5),
        )
        trace = run_scenario(scenario, seed)
        truth_pos = trace.truth[1:, :2]
        estimate_pos = trace.estimate[1:, :2]
        measurement = trace.measurement[1:]
        if rmse(estimate_pos, truth_pos) < rmse(measurement, truth_pos):
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 90
    assert elapsed < 60.0
    report(8, "filter-beats-sensor-2d", f"{wins}/100 seeds, {elapsed:.1f}s")


def test_criterion_9_degeneracy_reproduction():
    seeds = range(100)
    collapsed = 0
    finals_enabled = []
    for seed in seeds:
        disabled = run_scenario(rw_scenario(r=0.01, threshold=0.0), seed)
        if disabled.final_ess < 0.1 * 500:
            collapsed += 1
        enabled = run_scenario(rw_scenario(r=0.01, threshold=0.5), seed)
        finals_enabled.append(enabled.final_ess)
    median_enabled = float(np.median(finals_enabled))
    assert collapsed >= 95
    assert median_enabled > 0.3 * 500
    report(
        9,
        "degeneracy-reproduction",
        f"collapse in {collapsed}/100 seeds disabled, median final ESS {median_enabled:.0f} enabled",
    )


def test_criterion_10_byte_identical_cli_output(tmp_path):
    config = {
        "scenario": "rw1d",
        "T": 25,
        "N": 200,
        "model": {"q": 1.0, "r": 4.0},
        "prior": {"mean": [0.0], "std": [2.0]},
        "initial_truth": [0.0],
        "seed": 1234,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report(10, "cli-determinism", f"{len(out_a.read_bytes())} bytes, identical across runs")
