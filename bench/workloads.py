"""The benchmark's workloads, one repetition of each, and the correctness gate.

Every workload is a closed loop with a single caller: the next measurement
reaches ``filter.step`` only after the previous step has returned, which is
how the library is used. Work never waits on another thread or process (one
thread, no queues), so the benchmark reports no wait times.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import kalman
from smcfilter import cli, sim

CV2D_MODEL = {"dt": 1.0, "q_pos": 0.2, "q_vel": 0.05, "r": 2.0}
CV2D_PRIOR = {"mean": [0.0, 0.0, 0.0, 0.0], "std": [2.0, 2.0, 2.0, 2.0]}
CV2D_TRUTH = [0.0, 0.0, 1.0, 0.5]


@dataclass(frozen=True)
class Workload:
    name: str
    # "sim" runs the config through sim.run_scenario; "cli" through
    # cli.main(["run", ...]), which also writes the CSV output.
    kind: str
    config: dict
    smoke_t: int
    # kf_gap above this fails the gate. Each is several times the gap the
    # seed code shows (rw1d ~0.16, cv2d 0.01-0.03, map ~1.4: a MAP estimate is
    # one posterior draw) and far below that of a filter ignoring its data.
    kf_tolerance: float
    # Layers this workload was chosen to load; the smoke run checks that the
    # traced run sees calls into each.
    loads: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # Per-step Python overhead is the whole cost: validation, two
        # normalizations, object construction and the sim loop's scalar draws.
        # The kernels barely register, so a kernel change should not move it.
        Workload(
            name="rw1d-n100",
            kind="sim",
            config={
                "scenario": "rw1d", "T": 20000, "N": 100,
                "model": {"q": 1.0, "r": 4.0},
                "prior": {"mean": [0.0], "std": [2.0]},
                "initial_truth": [0.0],
                "resampler": "systematic", "threshold_fraction": 0.5,
                "estimator": "weighted_mean",
            },
            smoke_t=50,
            kf_tolerance=0.5,
            loads=("core.normalize", "filter.step", "core.particle_set", "sim.truth"),
        ),
        # The array kernels are everything: RNG, propagate, likelihood and
        # systematic resampling; orchestration is under 1%. T gives >= 100
        # step samples per repetition.
        Workload(
            name="cv2d-n1e5",
            kind="sim",
            config={
                "scenario": "cv2d", "T": 101, "N": 100000,
                "model": CV2D_MODEL, "prior": CV2D_PRIOR, "initial_truth": CV2D_TRUTH,
                "resampler": "systematic", "threshold_fraction": 0.5,
                "estimator": "weighted_mean",
            },
            smoke_t=6,
            kf_tolerance=0.1,
            loads=("core.rng", "models.propagate", "models.log_likelihood", "resampling.resample"),
        ),
        # The shared layers used differently: multinomial resampling (N
        # uniforms and a sort) on every step, an argmax estimate instead of a
        # matmul, config parsing and ~6 MB of trace and particle CSV. A change
        # that helps systematic/mean but hurts multinomial/map shows here.
        Workload(
            name="cli-cv2d-mnmap",
            kind="cli",
            config={
                "scenario": "cv2d", "T": 300, "N": 10000,
                "model": CV2D_MODEL, "prior": CV2D_PRIOR, "initial_truth": CV2D_TRUTH,
                "resampler": "multinomial", "threshold_fraction": 1.0,
                "estimator": "map",
                "dump_particles": list(range(0, 300, 30)),
            },
            smoke_t=31,
            kf_tolerance=3.0,
            loads=("cli.config", "cli.write", "resampling.resample", "core.estimate"),
        ),
    )
}


def make_config(workload: Workload, seed: int, smoke: bool = False) -> dict:
    """The run config for one seed; the seed is the only input that varies."""
    cfg = dict(workload.config, seed=seed)
    if smoke:
        cfg["T"] = workload.smoke_t
        cfg["dump_particles"] = [k for k in cfg.get("dump_particles", []) if k < cfg["T"]]
    return cfg


@dataclass
class Rep:
    """One repetition: its timing, its output digest and what the gate needs."""

    run_s: float = float("nan")
    digest: str = ""
    measurements: np.ndarray | None = None
    estimates: np.ndarray | None = None
    kf_gap: float = float("nan")
    errors: list = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_trace_csv(path: Path, model) -> tuple[np.ndarray, np.ndarray]:
    """Measurements and estimates for k >= 1 from the CLI's trace CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))[1:]
    meas = [[float(r[f"meas_{c}"]) for c in model.obs_labels] for r in rows]
    est = [[float(r[f"est_{c}"]) for c in model.state_labels] for r in rows]
    return np.array(meas), np.array(est)


class Runner:
    """Runs repetitions of one workload at one seed inside ``work_dir``."""

    def __init__(self, workload: Workload, cfg: dict, work_dir: Path):
        self.workload = workload
        self.cfg = cfg
        self.trace_path = work_dir / f"{workload.name}.trace.csv"
        self.config_path = work_dir / f"{workload.name}.config.json"
        self.config_path.write_text(json.dumps(cfg))
        # The oracle's model and prior come from the same config, built once
        # here so that no gate work lands in a traced repetition.
        reference = cli.build_scenario(cli.parse_config(cfg))
        self.model = reference.model
        self.prior = reference.prior
        self._oracle: tuple | None = None

    def run(self) -> Rep:
        rep = Rep()
        try:
            if self.workload.kind == "cli":
                self._run_cli(rep)
            else:
                self._run_sim(rep)
        except Exception as exc:  # a failed repetition is counted, not fatal
            rep.errors.append(f"{type(exc).__name__}: {exc}")
        return rep

    def _run_sim(self, rep: Rep) -> None:
        start = perf_counter()
        scenario = cli.build_scenario(cli.parse_config(self.cfg))
        trace = sim.run_scenario(scenario, self.cfg["seed"])
        rep.run_s = perf_counter() - start
        # The digest covers the program's own CSV rendering of the trace.
        cli.write_trace_csv(self.trace_path, trace, scenario.model)
        rep.digest = _sha256(self.trace_path)
        rep.measurements = trace.stack("measurement")[1:]
        rep.estimates = trace.stack("estimate")[1:]

    def _run_cli(self, rep: Rep) -> None:
        argv = ["run", "--config", str(self.config_path), "--out", str(self.trace_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        rep.run_s = perf_counter() - start
        if code != 0:
            rep.errors.append(f"exit code {code}: {stderr.getvalue().strip()}")
            return
        rep.digest = _sha256(self.trace_path)
        if self.cfg.get("dump_particles"):
            rep.digest += _sha256(Path(f"{self.trace_path}.particles.csv"))
        rep.measurements, rep.estimates = _read_trace_csv(self.trace_path, self.model)

    def check(self, rep: Rep, reference_digest: str) -> None:
        """Gate one repetition: outputs identical to the other repetitions at
        this seed, and the estimates within tolerance of the Kalman posterior."""
        if rep.errors:
            return
        if rep.digest != reference_digest:
            rep.errors.append("output digest differs from the first repetition at this seed")
        if self._oracle is None or not np.array_equal(self._oracle[0], rep.measurements):
            means, covs = kalman.kalman_filter(
                self.model, self.prior.mean, self.prior.std, rep.measurements
            )
            self._oracle = (rep.measurements, means, covs)
        _, means, covs = self._oracle
        rep.kf_gap = kalman.kf_gap(self.model, rep.estimates, means, covs)
        if not rep.kf_gap <= self.workload.kf_tolerance:
            rep.errors.append(f"kf_gap {rep.kf_gap:.4g} above {self.workload.kf_tolerance}")
