"""Every name the benchmark's layer tracer hooks must exist in smcfilter, and
the step must call through the ones that time its work.

The tracer (bench/tracer.py) skips a hook whose target is missing and reports
its layer as zero calls, so a refactor that renames a hooked function would
otherwise go unnoticed. These tests read the hook table and change nothing.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from smcfilter import filter as sir
from smcfilter.core import RngStream
from smcfilter.models import ConstantVelocity2D, RandomWalk1D
from smcfilter.resampling import ResamplePolicy

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Hooks whose target smcfilter no longer has on purpose, with the reason.
# Each must stay unresolvable, so an entry cannot outlive the hook's removal
# from the table.
RETIRED = {
    ("smcfilter.filter", "effective_sample_size"): (
        "normalize_weights returns the ESS with the weights, from the same "
        "shifted exponentials; its cost now shows in core.normalize"
    ),
    ("smcfilter.filter", "normalized_log_weights"): (
        "normalize_weights returns the shift m and the sum s, and a step that "
        "keeps its weights normalizes its own log-weights in place with them; "
        "core.normalize still sees one normalize_weights call per step"
    ),
    ("smcfilter.sim", "predict_measurement"): (
        "run_scenario reads the sensor as model.h(truth) on the truth it "
        "built itself, with no state check or copy; its cost shows in "
        "sim.run_scenario self time"
    ),
    ("smcfilter.sim", "sample_process_noise"): (
        "run_scenario draws a step's truth and sensor noise in one "
        "standard_normal(n + o) call and scales it by process_std and meas_std"
    ),
    ("smcfilter.sim", "sample_measurement_noise"): (
        "run_scenario draws a step's truth and sensor noise in one "
        "standard_normal(n + o) call and scales it by process_std and meas_std"
    ),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("smcfilter_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hooked_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{layer}: {module}.{path}"
        for layer, module, path in tracer.HOOKS
        if (module, path) not in RETIRED and tracer._resolve(module, path) is None
    ]
    assert not missing, (
        "bench/tracer.HOOKS names targets that no longer exist, so their layers "
        "would silently report zero calls: " + ", ".join(missing)
    )


def test_retired_hooks_are_gone():
    tracer = load_tracer()
    hooked = {(module, path) for _, module, path in tracer.HOOKS}
    for target, reason in RETIRED.items():
        assert target in hooked, f"{target} is no longer hooked; drop it from RETIRED"
        assert tracer._resolve(*target) is None, f"{target} resolves again ({reason})"


@pytest.mark.parametrize(
    "model, prior",
    [
        (RandomWalk1D(), sir.GaussianPrior([0.0], [2.0])),
        (ConstantVelocity2D(), sir.GaussianPrior([0.0] * 4, [2.0] * 4)),
    ],
)
def test_one_step_calls_each_timed_layer_once(monkeypatch, model, prior):
    """The benchmark times the models.*, core.normalize and core.estimate
    layers through these smcfilter.filter names, so one step must go through
    each of them exactly once, and through the state's estimator only,
    whether or not it resamples."""
    names = ("propagate", "log_likelihood", "normalize_weights", "weighted_mean", "map_estimate")
    for threshold in (0.0, 1.0):
        for estimator, estimate in (("weighted_mean", "weighted_mean"), ("map", "map_estimate")):
            calls = Counter()
            for name in names:

                def counted(*args, _name=name, _inner=getattr(sir, name)):
                    calls[_name] += 1
                    return _inner(*args)

                monkeypatch.setattr(sir, name, counted)
            policy = ResamplePolicy("systematic", threshold)
            state = sir.init(model, prior, 50, RngStream(3), policy, estimator)
            outcome = sir.step(state, np.ones(model.obs_dim))
            monkeypatch.undo()
            assert outcome.resampled == (threshold == 1.0)
            assert calls == {"propagate": 1, "log_likelihood": 1, "normalize_weights": 1,
                             estimate: 1}
