"""The library's one error rule: every rejection is an ArgumentError (or a
subclass) named after the argument, with the index of the first bad element
of an array argument, and its message is one short line."""

import ast
from pathlib import Path

import numpy as np
import pytest

import smcfilter
from smcfilter import filter as sir
from smcfilter.core import (
    AllWeightsCollapsed,
    ArgumentError,
    ParticleSet,
    RngStream,
    normalize_weights,
)
from smcfilter.filter import FilterState, GaussianPrior, InvalidPrior
from smcfilter.models import (
    ConstantVelocity2D,
    DimensionMismatch,
    NonFiniteMeasurement,
    RandomWalk1D,
    log_likelihood,
    propagate,
)
from smcfilter.resampling import (
    NotNormalized,
    ResamplePolicy,
    effective_sample_size,
    multinomial_resample,
    systematic_resample,
)
from smcfilter.sim import Scenario, rmse, run_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "smcfilter"

RW = RandomWalk1D()
PRIOR = GaussianPrior([0.0], [1.0])


def rw_state(particles=(0.0, 1.0, 2.0)):
    return FilterState(set=ParticleSet.uniform(np.array(particles, dtype=float)), model=RW,
                       policy=ResamplePolicy(), rng=RngStream(0))


def nan_weight_state():
    state = rw_state()
    state.set.log_weights[1] = np.nan
    return state


def emptied_state():
    state = rw_state()
    state.set.particles = np.zeros((0, 1))
    state.set.log_weights = np.zeros(0)
    return state


def scenario():
    return Scenario(RW, 5, PRIOR, [0.0], 10)


# (call, error class, name, index) for every public entry point that rejects input
CASES = {
    "seed-float": (lambda: RngStream(1.5), ArgumentError, "seed", None),
    "seed-huge-int": (lambda: RngStream(10**5000), ArgumentError, "seed", None),
    "particle-set-empty": (lambda: ParticleSet(np.zeros((0, 1)), np.zeros(0)),
                           ArgumentError, "particles", None),
    "particle-set-nan": (lambda: ParticleSet([0.0, np.nan], [0.0, 0.0]), ArgumentError, "particles", 1),
    "particle-set-bool": (lambda: ParticleSet([0.0, True], [0.0, 0.0]), ArgumentError, "particles", 1),
    "log-weights-length": (lambda: ParticleSet([0.0, 1.0], [0.0]), ArgumentError, "log_weights", None),
    "log-weights-inf": (lambda: ParticleSet([0.0, 1.0], [0.0, np.inf]), ArgumentError, "log_weights", 1),
    "uniform-scalar": (lambda: ParticleSet.uniform(1.0), ArgumentError, "particles", None),
    "uniform-int-overflow": (lambda: ParticleSet.uniform([0.0] * 5 + [10**400]),
                             ArgumentError, "particles", 5),
    "normalize-empty": (lambda: normalize_weights([]), ArgumentError, "log_weights", None),
    "normalize-collapsed": (lambda: normalize_weights([-np.inf, -np.inf]),
                            AllWeightsCollapsed, "log_weights", None),
    "normalize-string": (lambda: normalize_weights([0.0, "1"]), ArgumentError, "log_weights", 1),
    "normalize-plus-inf": (lambda: normalize_weights([np.inf, 0.0]), ArgumentError, "log_weights", 0),
    "normalize-nan": (lambda: normalize_weights([0.0, np.nan]), ArgumentError, "log_weights", 1),
    "normalize-2d": (lambda: normalize_weights([[0.0, 0.0]]), ArgumentError, "log_weights", None),
    "normalize-scalar": (lambda: normalize_weights(0.0), ArgumentError, "log_weights", None),
    "policy-scheme": (lambda: ResamplePolicy("stratified"), ArgumentError, "scheme", None),
    "policy-fraction": (lambda: ResamplePolicy("systematic", 1.5),
                        ArgumentError, "threshold_fraction", None),
    "ess-unnormalized": (lambda: effective_sample_size([0.5, 0.6]), NotNormalized, "weights", None),
    "ess-2d": (lambda: effective_sample_size([[0.5, 0.5]]), ArgumentError, "weights", None),
    "ess-empty": (lambda: effective_sample_size([]), NotNormalized, "weights", None),
    "ess-negative": (lambda: effective_sample_size([-0.5, 1.5]), NotNormalized, "weights", 0),
    "systematic-unnormalized": (lambda: systematic_resample([0.5], 0.5), NotNormalized, "weights", None),
    "systematic-2d": (lambda: systematic_resample([[0.5, 0.5]], 0.5), ArgumentError, "weights", None),
    "systematic-empty": (lambda: systematic_resample([], 0.5), NotNormalized, "weights", None),
    "systematic-negative": (lambda: systematic_resample([0.5, -0.5, 1.0], 0.5), NotNormalized, "weights", 1),
    "systematic-u-huge-int": (lambda: systematic_resample([1.0], 10**5000), ArgumentError, "u", None),
    "systematic-u-list": (lambda: systematic_resample([1.0], [0.5]), ArgumentError, "u", None),
    "systematic-u-range": (lambda: systematic_resample([1.0], 1.0), ArgumentError, "u", None),
    "systematic-u-nan": (lambda: systematic_resample([1.0], np.nan), ArgumentError, "u", None),
    "multinomial-unnormalized": (lambda: multinomial_resample([0.5], RngStream(0)),
                                 NotNormalized, "weights", None),
    "multinomial-2d": (lambda: multinomial_resample([[0.5, 0.5]], RngStream(0)),
                       ArgumentError, "weights", None),
    "multinomial-negative": (lambda: multinomial_resample([-0.5, 1.5], RngStream(0)),
                             NotNormalized, "weights", 0),
    "rw1d-q": (lambda: RandomWalk1D(q=-1.0), ArgumentError, "q", None),
    "cv2d-r": (lambda: ConstantVelocity2D(r_meas=0.0), ArgumentError, "r_meas", None),
    "propagate-x": (lambda: propagate(RW, [[0.0, 0.0]], [[0.0, 0.0]]), DimensionMismatch, "x", None),
    "propagate-noise": (lambda: propagate(RW, [[0.0], [1.0]], [0.0]), DimensionMismatch, "noise", None),
    "likelihood-z-nan": (lambda: log_likelihood(RW, np.nan, [0.0]),
                         NonFiniteMeasurement, "measurement", None),
    "likelihood-z-shape": (lambda: log_likelihood(RW, [0.0, 0.0], [0.0]),
                           DimensionMismatch, "measurement", None),
    "prior-std": (lambda: GaussianPrior([0.0, 0.0], [1.0, -1.0]), InvalidPrior, "std", 1),
    "init-count": (lambda: sir.init(RW, PRIOR, 0, RngStream(0)), ArgumentError, "n_particles", None),
    "init-prior-dim": (lambda: sir.init(RW, GaussianPrior([0.0, 0.0], [1.0, 1.0]), 3, RngStream(0)),
                       DimensionMismatch, "prior", None),
    "init-estimator": (lambda: sir.init(RW, PRIOR, 3, RngStream(0), estimator="median"),
                       ArgumentError, "estimator", None),
    "step-z-inf": (lambda: sir.step(rw_state(), [np.inf]), NonFiniteMeasurement, "measurement", 0),
    "step-noises-shape": (lambda: sir.step(rw_state(), 0.0, [0.0]), DimensionMismatch, "noises", None),
    "step-noises-bool": (lambda: sir.step(rw_state(), 0.0, [0.0, True, 0.0]), ArgumentError, "noises", 1),
    "step-particle-length": (lambda: sir.step(rw_state(np.zeros((3, 2))), 0.0),
                             DimensionMismatch, "particles", None),
    "step-particle-overflow": (lambda: sir.step(rw_state([0.0, 1.5e308, 0.0]), 0.0, [0.0, 1.5e308, 0.0]),
                               ArgumentError, "predicted", 1),
    "step-particles-emptied": (lambda: sir.step(emptied_state(), 0.0),
                               ArgumentError, "particles", None),
    "step-weights-nan": (lambda: sir.step(nan_weight_state(), 0.0), NotNormalized, "weights", None),
    "scenario-horizon": (lambda: Scenario(RW, 0, PRIOR, [0.0], 10), ArgumentError, "t_steps", None),
    "scenario-truth": (lambda: Scenario(RW, 5, PRIOR, [0.0, 0.0], 10),
                       DimensionMismatch, "initial_truth", None),
    "run-dump-steps": (lambda: run_scenario(scenario(), 0, [0, 9]), ArgumentError, "dump_steps", 1),
    "run-seed": (lambda: run_scenario(scenario(), -1), ArgumentError, "seed", None),
    "rmse-shape": (lambda: rmse(np.zeros((3, 2)), np.zeros((3, 3))), DimensionMismatch, "b", None),
    "rmse-element": (lambda: rmse([0.0, "x"], [0.0, 0.0]), ArgumentError, "a", 1),
    "rmse-empty": (lambda: rmse([], []), ArgumentError, "a", None),
    "rmse-scalar": (lambda: rmse(1.0, 2.0), ArgumentError, "a", None),
    "rmse-b-3d": (lambda: rmse(np.zeros((2, 1)), np.zeros((2, 1, 1))), ArgumentError, "b", None),
}


@pytest.mark.parametrize("call, error, name, index", CASES.values(), ids=CASES.keys())
def test_rejection_is_a_named_argument_error_on_one_short_line(call, error, name, index):
    with pytest.raises(ArgumentError) as info:
        call()
    exc = info.value
    assert type(exc) is error
    assert (exc.name, exc.index) == (name, index)
    message = str(exc)
    assert message == f"{name}{'' if index is None else f'[{index}]'} {exc.rule}"
    assert "\n" not in message and len(message) <= 200


def test_every_exported_exception_is_an_argument_error():
    exported = [getattr(smcfilter, name) for name in smcfilter.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert errors and all(issubclass(obj, ArgumentError) for obj in errors)


def test_library_raises_no_bare_value_or_type_error():
    """Outside the CLI, whose ConfigError carries the field path, every raise
    goes through ArgumentError or a subclass."""
    bare = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and raised.id in ("ValueError", "TypeError"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert not bare, "bare ValueError/TypeError raised at " + ", ".join(bare)
