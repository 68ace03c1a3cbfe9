"""Command-line front end: scenario configs, runs, and golden-vector replay.

Exit codes are scriptable: 0 success, 1 config/validation failure or golden
mismatch, 2 I/O failure or malformed fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ArgumentError, ParticleSet, RngStream, check_arg, shown
from .filter import FilterState, GaussianPrior, step
from .models import ConstantVelocity2D, RandomWalk1D
from .resampling import ResamplePolicy
from .sim import Scenario, Trace, check_dump_steps, rmse, run_scenario


class ConfigError(ValueError):
    """Invalid run config or golden fixture; the message carries the field path."""


# scenario name -> model class and its config key -> constructor argument map
SCENARIOS = {
    "rw1d": (RandomWalk1D, {"q": "q", "r": "r"}),
    "cv2d": (ConstantVelocity2D, {"dt": "dt", "q_pos": "q_pos", "q_vel": "q_vel", "r": "r_meas"}),
}

# constructor argument -> config field, where the two names differ
_FIELDS = {
    "t_steps": "T",
    "n_particles": "N",
    "scheme": "resampler",
    "mean": "prior.mean",
    "std": "prior.std",
}

# library argument -> golden fixture field, where the two names differ
_FIXTURE_FIELDS = {"particles": "initial_particles"}

DEMOS = {
    "demo-1d": {
        "scenario": "rw1d", "T": 15, "N": 200,
        "model": {"q": 1.0, "r": 4.0},
        "prior": {"mean": [0.0], "std": [2.0]},
        "initial_truth": [0.0],
    },
    "demo-2d": {
        "scenario": "cv2d", "T": 30, "N": 500,
        "model": {"dt": 1.0, "q_pos": 0.2, "q_vel": 0.05, "r": 2.0},
        "prior": {"mean": [0.0, 0.0, 0.0, 0.0], "std": [2.0, 2.0, 2.0, 2.0]},
        "initial_truth": [0.0, 0.0, 1.0, 0.5],
    },
}


@dataclass
class RunConfig:
    """A checked run config: the scenario built from it, the config's seed (if
    any) and the steps whose particle clouds are dumped."""

    scenario: Scenario
    seed: int | None
    dump_particles: list


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _reported(exc: ArgumentError, path: str) -> ConfigError:
    """A library argument error as a ConfigError under the field path ``path``."""
    return ConfigError(f"{path}{'' if exc.index is None else f'[{exc.index}]'}: {exc.rule}")


def _number(value, path: str, low=None) -> float:
    """value as a float under the library's numeric rule, and >= low unless that
    is None; an error is an ArgumentError named ``path``, for the caller to report."""
    return float(check_arg(path, value, low=low, scalar=True))


def _float_list(value, path: str, length: int | None = None) -> list:
    """value as a list of numbers, of ``length`` numbers unless that is None."""
    if not isinstance(value, list):
        _fail(path, f"must be a list of numbers, got {shown(value)}")
    if length is not None and len(value) != length:
        _fail(path, f"must have length {length}, got {len(value)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _object(value, path: str, required, optional=()) -> dict:
    """value as a JSON object with every required key and no unknown one;
    ``path`` is the object's field path, "" for the file's root."""
    if not isinstance(value, dict):
        _fail(path or "root", f"must be a JSON object, got {shown(value)}")
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in required and key not in optional:
            _fail(prefix + shown(key)[1:-1], "unknown field")  # the key bounded, unquoted
    for key in required:
        if key not in value:
            _fail(prefix + key, "missing required field")
    return value


def _dump_steps(steps, path: str, t_steps: int) -> list:
    """steps as a list of integer step indices in [0, T)."""
    if not isinstance(steps, list):
        _fail(path, f"must be a list of step indices, got {shown(steps)}")
    try:
        return check_dump_steps(steps, t_steps)
    except ArgumentError as exc:
        raise _reported(exc, path) from None


def parse_config(data: dict) -> RunConfig:
    """Check a config mapping and build the run's library objects from it.

    The checks here are those of the JSON boundary: field names, value
    types and list lengths. Each value rule, the numeric one included, is the
    library's own; its errors come back as ConfigError under the field path."""
    _object(data, "", ("scenario", "T", "N", "model", "prior", "initial_truth"),
            ("resampler", "threshold_fraction", "estimator", "seed", "dump_particles"))
    name = data["scenario"]
    if not isinstance(name, str) or name not in SCENARIOS:
        _fail("scenario", f"must be one of {sorted(SCENARIOS)}, got {shown(name)}")
    model_cls, keys = SCENARIOS[name]
    block = _object(data["model"], "model", tuple(keys))
    prior = _object(data["prior"], "prior", ("mean", "std"))
    dim = model_cls.state_dim
    # an optional field the config leaves out takes Scenario's default
    policy = Scenario.policy
    try:
        scenario = Scenario(
            model=model_cls(**{arg: _number(block[key], f"model.{key}") for key, arg in keys.items()}),
            t_steps=data["T"],
            prior=GaussianPrior(_float_list(prior["mean"], "prior.mean", dim),
                                _float_list(prior["std"], "prior.std", dim)),
            initial_truth=_float_list(data["initial_truth"], "initial_truth", dim),
            n_particles=data["N"],
            policy=ResamplePolicy(
                data.get("resampler", policy.scheme),
                _number(data.get("threshold_fraction", policy.threshold_fraction), "threshold_fraction"),
            ),
            estimator=data.get("estimator", Scenario.estimator),
        )
        seed = data.get("seed")
        if seed is not None:
            RngStream(seed)
    except ArgumentError as exc:
        fields = dict(_FIELDS, **{arg: f"model.{key}" for key, arg in keys.items()})
        raise _reported(exc, fields.get(exc.name, exc.name)) from None
    dump = _dump_steps(data.get("dump_particles", []), "dump_particles", scenario.t_steps)
    return RunConfig(scenario, seed, dump)


def _read_json(path, kind: str):
    """The parsed JSON of the ``kind`` file at ``path``, a Path or a package resource."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    return parse_config(_read_json(Path(path), "config"))


def build_scenario(cfg: RunConfig) -> Scenario:
    """The scenario of a parsed config, ready for run_scenario."""
    return cfg.scenario


def _fmt(value: float) -> str:
    return f"{value:.9g}"


# Rows of a trace or a particle dump formatted and written at a time: the
# writer's memory stays the same whatever T or N is.
_BLOCK_ROWS = 2048


def write_trace_csv(path, trace: Trace, model) -> None:
    """Fixed column order: k, truth_*, meas_*, est_*, ess, resampled, degenerate."""
    columns = (
        ["k"]
        + [f"truth_{c}" for c in model.state_labels]
        + [f"meas_{c}" for c in model.obs_labels]
        + [f"est_{c}" for c in model.state_labels]
        + ["ess", "resampled", "degenerate"]
    )
    table = np.column_stack((
        np.arange(len(trace)), trace.truth, trace.measurement, trace.estimate,
        trace.ess, trace.resampled, trace.degenerate,
    ))
    row_format = "%d," + ",".join(["%.9g"] * (len(columns) - 3)) + ",%d,%d\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            fh.writelines(row_format % tuple(row) for row in table[start:start + _BLOCK_ROWS].tolist())


def write_particles_csv(path, trace: Trace, model) -> None:
    """Columns k, i, weight, state_*: one row per particle of each dumped step.

    After a resampling step the copies of a survivor sit on consecutive rows
    with the same weight and state, so each run of such rows is formatted
    once. Runs are told apart by their bits, not by ==: 0.0 and -0.0 compare
    equal but print as 0 and -0."""
    columns = ["k", "i", "weight"] + list(model.state_labels)
    row_format = ",".join(["%.9g"] * (len(columns) - 2)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for k in sorted(trace.snapshots):
            particles, weights = trace.snapshots[k]
            for start in range(0, len(weights), _BLOCK_ROWS):
                stop = start + _BLOCK_ROWS
                table = np.column_stack((weights[start:stop], particles[start:stop]))
                bits = table.view(np.uint64)
                firsts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
                texts = np.array([row_format % tuple(row) for row in table[firsts].tolist()],
                                 dtype=object)
                rows = np.repeat(texts, np.diff(firsts, append=len(table))).tolist()
                fh.write("".join([f"{k},{i},{row}" for i, row in enumerate(rows, start)]))


def _resolve_seed(cli_seed, cfg_seed) -> int:
    """The run's seed: --seed's text, the config's seed (checked by parse_config),
    SMC_SEED's text, 0. A text must be an int() and meet RngStream's rule; a
    sign and decimal digits that int() refuses (more than 4300 digits) break
    the range rule."""
    if cli_seed is None and cfg_seed is not None:
        return cfg_seed
    text, source = (cli_seed, "--seed") if cli_seed is not None else (os.environ.get("SMC_SEED"), "SMC_SEED")
    if text is None:
        return 0
    try:
        return RngStream(int(text)).seed
    except ArgumentError as exc:
        raise _reported(exc, source) from None
    except ValueError:
        kind = "an unsigned 64-bit integer" if re.fullmatch(r"[+-]?\d+", text.strip()) else "an integer"
        _fail(source, f"must be {kind}, got {shown(text)}")


def _run_summary(trace: Trace, model) -> str:
    if len(trace) > 1:
        truth_obs = model.h(trace.truth[1:])
        rmse_truth = rmse(model.h(trace.estimate[1:]), truth_obs)
        rmse_meas = rmse(trace.measurement[1:], truth_obs)
    else:
        rmse_truth = rmse_meas = float("nan")
    est_txt = "[" + ", ".join(_fmt(v) for v in trace.estimate[-1]) + "]"
    return (
        f"final_estimate={est_txt} rmse_vs_truth={_fmt(rmse_truth)} "
        f"rmse_vs_measurements={_fmt(rmse_meas)} resamples={int(trace.resampled.sum())}"
    )


def _parse_dump_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--dump-particles: must be comma-separated integers, got {shown(text)}") from None


def cmd_run(scenario: Scenario, seed: int, out_path, dumps) -> int:
    try:
        trace = run_scenario(scenario, seed, dump_steps=dumps)
    except ArgumentError as exc:  # a truth that overflows fails the step's measurement check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        write_trace_csv(out_path, trace, scenario.model)
        if dumps:
            write_particles_csv(f"{out_path}.particles.csv", trace, scenario.model)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(_run_summary(trace, scenario.model))
    return 0


def _bundled_fixture(name: str):
    candidate = resources.files("smcfilter").joinpath("fixtures", name)
    return candidate if candidate.is_file() else None


def _load_fixture(path_arg: str) -> dict:
    path = Path(path_arg)
    if not path.is_file():
        path = _bundled_fixture(path.name)
        if path is None:
            raise ConfigError(f"fixture not found: {path_arg}")
    return _object(_read_json(path, "fixture"), "",
                   ("initial_particles", "noises", "z", "expected_predicted",
                    "expected_weights", "tolerance"), ("r",))


def _tolerances(tol) -> tuple[float, float]:
    """(predicted, weights): one number for both, or an object; 1e-9 for a key left out."""
    if isinstance(tol, dict):
        _object(tol, "tolerance", (), ("predicted", "weights"))
        return (_number(tol.get("predicted", 1e-9), "tolerance.predicted", low=0),
                _number(tol.get("weights", 1e-9), "tolerance.weights", low=0))
    tol = _number(tol, "tolerance", low=0)
    return tol, tol


def cmd_golden(fixture_arg: str) -> int:
    try:
        data = _load_fixture(fixture_arg)
        tol_predicted, tol_weights = _tolerances(data["tolerance"])
        initial = ParticleSet.uniform(_float_list(data["initial_particles"], "initial_particles"))
        noises = _float_list(data["noises"], "noises", initial.n_particles)
        expected_predicted, expected_weights = (
            np.array(_float_list(data[key], key)) for key in ("expected_predicted", "expected_weights")
        )
        z = data["z"]
        z = _float_list(z, "z", RandomWalk1D.obs_dim) if isinstance(z, list) else _number(z, "z")
        # threshold 0 keeps the post-step set equal to the predicted/weighted one
        state = FilterState(
            set=initial,
            model=RandomWalk1D(q=1.0, r=_number(data.get("r", 4.0), "r")),
            policy=ResamplePolicy("systematic", 0.0),
            rng=RngStream(0),
        )
        step(state, z, noises)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArgumentError as exc:
        print(f"error: {_reported(exc, _FIXTURE_FIELDS.get(exc.name, exc.name))}", file=sys.stderr)
        return 2

    predicted = state.set.particles.ravel()
    weights = state.set.weights
    failures = []
    for name, actual, expected, tol in (
        ("predicted", predicted, expected_predicted, tol_predicted),
        ("weights", weights, expected_weights, tol_weights),
    ):
        if actual.shape != expected.shape:
            failures.append(f"{name}: shape {actual.shape} vs expected {expected.shape}")
            continue
        bad = np.flatnonzero(~(np.abs(actual - expected) <= tol))
        for i in bad:
            failures.append(
                f"{name}[{i}]: expected {expected.flat[i]:.6g} "
                f"actual {actual.flat[i]:.6g} (tolerance {tol:g})"
            )
    if failures:
        for line in failures:
            print(f"MISMATCH {line}")
        print(f"golden fixture FAILED: {fixture_arg} ({len(failures)} mismatches)")
        return 1
    print(f"golden fixture ok: {fixture_arg}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smcfilter",
        description="Particle-filter tracking simulations with CSV trace output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    golden_p = sub.add_parser("golden", help="replay a golden-vector fixture")
    golden_p.add_argument("fixture", help="fixture path or bundled fixture name")

    for name, helptext in (("run", "run a scenario described by a JSON config"),
                           ("demo-1d", "random-walk tracking preset"),
                           ("demo-2d", "constant-velocity tracking preset")):
        run_p = sub.add_parser(name, help=helptext)
        if name == "run":
            run_p.add_argument("--config", required=True, help="path to the JSON run config")
        run_p.add_argument("--seed", default=None, help="seed override (u64)")
        run_p.add_argument("--out", required=name == "run", default=f"{name}.csv",
                           help="trace CSV output path")
        run_p.add_argument("--dump-particles", default=None, metavar="K1,K2,...",
                           help="steps whose particle clouds go to <out>.particles.csv")

    args = parser.parse_args(argv)

    if args.command == "golden":
        return cmd_golden(args.fixture)

    try:
        if args.command == "run":
            cfg = load_config(args.config)
        else:
            cfg = parse_config(DEMOS[args.command])
        dumps = cfg.dump_particles
        if args.dump_particles is not None:
            dumps = _dump_steps(_parse_dump_list(args.dump_particles), "--dump-particles",
                                cfg.scenario.t_steps)
        seed = _resolve_seed(args.seed, cfg.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return cmd_run(cfg.scenario, seed, args.out, dumps)


if __name__ == "__main__":
    sys.exit(main())
