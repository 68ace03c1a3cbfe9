"""Tests of the benchmark's own parts: the Kalman oracle, the tracer and the
smoke run over every workload."""

import sys
import time
import types

import numpy as np
import pytest

import kalman
import run
from smcfilter import ConstantVelocity2D, RandomWalk1D
from smcfilter.core import ParticleSet
from tracer import Tracer


@pytest.mark.parametrize("q, r", [(1.0, 4.0), (0.3, 7.0), (2.5, 0.1)])
def test_kalman_rw1d_reaches_riccati_steady_state(q, r):
    z = np.random.default_rng(0).normal(size=400)
    _, covs = kalman.kalman_filter(RandomWalk1D(q=q, r=r), [0.0], [2.0], z)
    assert covs[-1, 0, 0] == pytest.approx(kalman.rw1d_steady_state_var(q, r), rel=1e-12)


def test_kalman_cv2d_first_update_matches_closed_form():
    model = ConstantVelocity2D()
    z = np.array([[1.5, -0.5]])
    means, covs = kalman.kalman_filter(model, [0.0] * 4, [2.0] * 4, z)
    # Predicted position variance is 4 + dt^2 * 4 + q_pos per axis; the
    # position update is then scalar per axis.
    p = 4.0 + 4.0 + model.q_pos
    gain = p / (p + model.r_meas)
    assert means[0, :2] == pytest.approx(gain * z[0])
    assert covs[0, 0, 0] == pytest.approx(p * model.r_meas / (p + model.r_meas))


def test_kf_gap_is_zero_for_the_exact_posterior_mean():
    model = RandomWalk1D()
    z = np.random.default_rng(1).normal(size=(50, 1))
    means, covs = kalman.kalman_filter(model, [0.0], [2.0], z)
    assert kalman.kf_gap(model, means, means, covs) == 0.0
    sd = np.sqrt(covs[:, 0, 0])[:, None]
    assert kalman.kf_gap(model, means + sd, means, covs) == pytest.approx(1.0)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("bench_fake_layers")

    def inner():
        time.sleep(0.03)
        return 1

    def outer():
        time.sleep(0.02)
        return module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracer_self_time_excludes_child_spans(fake_module):
    tracer = Tracer(
        hooks=(
            ("sim.truth", fake_module.__name__, "outer"),
            ("models.propagate", fake_module.__name__, "inner"),
        )
    )
    tracer.install()
    try:
        tracer.run(fake_module.outer)
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    assert table["sim.truth"]["calls"] == table["models.propagate"]["calls"] == 1
    # Had the child's 30 ms not been subtracted, the parent's self time
    # would be at least 50 ms.
    assert 20 <= table["sim.truth"]["self_ms"] < 48
    assert 30 <= table["models.propagate"]["self_ms"]
    assert fake_module.outer.__name__ == "outer"
    assert not hasattr(fake_module.outer, "__wrapped__")


def test_tracer_skips_missing_names_and_reports_zero_calls():
    tracer = Tracer(hooks=(("core.rng", "smcfilter.core", "RngStream.no_such_draw"),
                           ("cli.write", "no_such_module", "write")))
    tracer.install()
    tracer.uninstall()
    assert all(row["calls"] == 0 for row in tracer.layer_table().values())


def test_tracer_keeps_particle_set_constructors_working():
    original = ParticleSet.__post_init__
    tracer = Tracer()
    tracer.install()
    try:
        pset = ParticleSet.uniform(np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert pset.n_particles == 3
    assert tracer.layer_table()["core.particle_set"]["calls"] == 1
    assert ParticleSet.__post_init__ is original


def test_smoke_run_reports_every_metric_and_loaded_layer():
    assert run.main(["--smoke"]) == 0
