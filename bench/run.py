"""smcfilter benchmark: end-to-end metrics per workload, or a traced run that
splits the time over smcfilter's layers.

    python3 bench/run.py --workload rw1d-n100 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cv2d-n1e5 --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

Run it from the repository root; it imports smcfilter from ``src/``. Each run
builds its inputs from ``--seed``, repeats the workload for ``--seconds``
after one warm-up repetition, and gates every repetition (see
workloads.Runner.check). Human-readable lines go first; the last line of
standard output is the JSON result, whose ``attempted`` and ``failed`` count
repetitions (fail_ratio = failed / attempted). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. Each result is also
written to ``bench/out/<workload>-seed<n>-trace<t>.json`` with the
environment it ran in, and the spans of a workload's last traced repetition
to ``bench/out/<workload>.spans.csv``.

End-to-end metrics: ``run_s`` is the median wall time of one seeded run
(config to trace, plus the CSV writes on the CLI workload); ``step_us_p50``
and ``step_us_p90`` are percentiles over every ``filter.step`` call of the
measured repetitions; ``setup_s`` is the median, over several fresh
interpreters, of the time to import smcfilter, build the scenario and draw
the prior; ``peak_rss_mb`` is the process's high-water mark. ``kf_gap``
(see kalman.kf_gap) is printed with them and reported as the per-layer
``filter.kf_gap``: it is fixed by the seed, so compare it at equal seeds.

``--smoke`` runs every workload with a tiny horizon and one repetition in
both modes, and checks that every metric BENCHMARK.json names is reported
with its unit and that each workload's traced run calls into the layers it
was chosen to load.
"""

from __future__ import annotations

import os

# One thread of work: BLAS pools are pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

END_TO_END_UNITS = {
    "run_s": "s",
    "step_us_p50": "us",
    "step_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.rng.draws": "count",
    "core.rng.self_ms": "ms",
    "core.normalize.calls": "count",
    "core.normalize.self_ms": "ms",
    "core.particle_set.self_ms": "ms",
    "core.estimate.self_ms": "ms",
    "models.propagate.self_ms": "ms",
    "models.log_likelihood.self_ms": "ms",
    "resampling.ess.self_ms": "ms",
    "resampling.resample.calls": "count",
    "resampling.resample.self_ms": "ms",
    "resampling.fire_ratio": "ratio",
    "resampling.unique_ancestor_ratio": "ratio",
    "filter.step.self_ms": "ms",
    "filter.degenerate_steps": "count",
    "filter.kf_gap": "sigma",
    "sim.run_scenario.self_ms": "ms",
    "sim.truth.self_ms": "ms",
    "cli.config.self_ms": "ms",
    "cli.write.self_ms": "ms",
    "cli.write.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# Layers whose call counts must repeat exactly between traced repetitions.
COUNTED_LAYERS = ("core.rng", "core.normalize", "resampling.resample", "filter.step")


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def probe_setup(config_path: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first step being ready."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


class StepTimer:
    """One timer around each ``smcfilter.filter.step`` call, the latency an
    online tracker sees per measurement."""

    def __init__(self):
        self.samples_ns = array("q")

    def __enter__(self):
        from smcfilter import filter as sir

        self._module = sir
        self._original = step = sir.step
        samples = self.samples_ns

        def timed_step(*args, **kwargs):
            start = perf_counter_ns()
            outcome = step(*args, **kwargs)
            samples.append(perf_counter_ns() - start)
            return outcome

        sir.step = timed_step
        return self

    def __exit__(self, *exc):
        self._module.step = self._original


def _median(values) -> float | None:
    values = [v for v in values if v == v]  # drop NaN
    return statistics.median(values) if values else None


def _gated(runner, reference=None):
    """Run one repetition and gate it against the reference repetition's
    digest (its own, for the reference itself)."""
    rep = runner.run()
    runner.check(rep, rep.digest if reference is None else reference.digest)
    return rep


def _result(reps, metrics, units, details) -> tuple:
    failed = sum(1 for r in reps if r.errors)
    details["errors"] = sorted({e for r in reps for e in r.errors})
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, details


def measure_end_to_end(runner, seconds: float) -> tuple:
    """(result, details) for one warm-up, then repetitions for ``seconds``.

    A set-up probe follows each measured repetition, so that set-up time is
    sampled across the whole run, as the repetitions are.
    """
    with StepTimer() as timer:
        reference = _gated(runner)
        del timer.samples_ns[:]
        measured, setup = [], []
        deadline = perf_counter() + seconds
        while not measured or perf_counter() < deadline:
            measured.append(_gated(runner, reference))
            setup.append(probe_setup(runner.config_path))
    samples = sorted(timer.samples_ns)
    reps = [reference] + measured
    metrics = {
        "run_s": _median(r.run_s for r in measured),
        "step_us_p50": samples[(len(samples) - 1) // 2] / 1e3 if samples else None,
        "step_us_p90": samples[int(0.9 * (len(samples) - 1))] / 1e3 if samples else None,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "kf_gap": _median(r.kf_gap for r in reps),
        "reps": len(measured),
        "step_samples": len(samples),
        "setup_probes": len(setup),
        "run_s_all": [r.run_s for r in measured],
        "setup_s_all": setup,
    }
    return _result(reps, metrics, END_TO_END_UNITS, details)


def measure_layers(runner, seconds: float) -> tuple:
    """(result, details, last tracer): after one warm-up, alternate untraced
    and traced repetitions for ``seconds``. Times are medians over the traced
    repetitions; counts come from the first and must repeat exactly."""
    from tracer import Tracer

    reference = _gated(runner)
    reps, untraced, traced, tables = [reference], [], [], []
    first_counters = tracer = None
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        rep = _gated(runner, reference)
        reps.append(rep)
        untraced.append(rep.run_s)
        tracer = Tracer()
        tracer.install()
        try:
            rep = tracer.run(runner.run)
        finally:
            tracer.uninstall()
        runner.check(rep, reference.digest)
        table = tracer.layer_table()
        if tables and (
            tracer.counters != first_counters
            or any(table[n]["calls"] != tables[0][n]["calls"] for n in COUNTED_LAYERS)
        ):
            rep.errors.append("traced counts differ from the first traced repetition")
        reps.append(rep)
        traced.append(rep.run_s)
        tables.append(table)
        if first_counters is None:
            first_counters = tracer.counters

    first, counters = tables[0], first_counters
    steps = first["filter.step"]["calls"]
    resamples = first["resampling.resample"]["calls"]
    self_ms = {layer: statistics.median(t[layer]["self_ms"] for t in tables) for layer in first}
    metrics = {
        "core.rng.draws": counters["core.rng.draws"],
        "core.normalize.calls": first["core.normalize"]["calls"],
        "resampling.resample.calls": resamples,
        "resampling.fire_ratio": resamples / steps if steps else 0.0,
        "resampling.unique_ancestor_ratio": (
            counters["resampling.unique_ancestors"] / resamples if resamples else 0.0
        ),
        "filter.degenerate_steps": counters["filter.degenerate_steps"],
        "filter.kf_gap": _median(r.kf_gap for r in reps),
        "cli.write.bytes": counters["cli.write.bytes"],
        "trace.overhead_ratio": _median(traced) / _median(untraced),
    }
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_ms"):
            metrics[name] = self_ms[name[: -len(".self_ms")]]
    total = sum(self_ms.values())
    details = {
        "traced_reps": len(traced),
        "untraced_reps": len(untraced),
        "layers": {
            layer: {
                "calls": first[layer]["calls"],
                "self_ms": self_ms[layer],
                "share": self_ms[layer] / total if total else 0.0,
            }
            for layer in first
        },
    }
    result, details = _result(reps, metrics, PER_LAYER_UNITS, details)
    return result, details, tracer


def _print_lines(workload: str, result: dict, details: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']} {metric['unit']}")
    for key in ("kf_gap", "reps", "step_samples", "setup_probes", "traced_reps", "untraced_reps"):
        if key in details:
            print(f"{workload} {key} = {details[key]}")
    print(f"{workload} fail_ratio = {result['failed']}/{result['attempted']}")
    for error in details["errors"]:
        print(f"{workload} FAILED: {error}")
    layers = details.get("layers", {})
    for layer, row in sorted(layers.items(), key=lambda item: -item[1]["self_ms"]):
        print(
            f"{workload} layer {layer:<22} calls={row['calls']:<9} "
            f"self_ms={row['self_ms']:10.2f} share={100 * row['share']:5.1f}%"
        )


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple:
    """Measure one workload; (result, details). Scratch files live in a
    per-process directory under bench/out that is removed afterwards."""
    from workloads import WORKLOADS, Runner, make_config

    workload = WORKLOADS[name]
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, make_config(workload, seed, smoke), work_dir)
        if trace:
            result, details, tracer = measure_layers(runner, seconds)
            if not smoke:
                tracer.write_spans(OUT_DIR / f"{name}.spans.csv")
        else:
            result, details = measure_end_to_end(runner, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result, details


def smoke() -> int:
    """Every workload, tiny horizon, one measured repetition in each mode."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for name, workload in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run_one(name, 1, 0.0, trace, smoke=True)
            _print_lines(name, result, details)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name}: {key} metrics {got} differ from BENCHMARK.json {expected}")
            missing = [m for m, v in result["metrics"].items() if v["value"] is None]
            if missing:
                problems.append(f"{name}: no value for {missing}")
            if result["failed"]:
                problems.append(f"{name}: {result['failed']} repetitions failed the gate")
            if trace:
                idle = [l for l in workload.loads if details["layers"][l]["calls"] == 0]
                if idle:
                    problems.append(f"{name}: traced run never called {idle}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    if not (SRC / "smcfilter" / "__init__.py").is_file():
        print(f"error: smcfilter sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import smcfilter

    if not Path(smcfilter.__file__).resolve().is_relative_to(SRC):
        print(f"error: smcfilter imported from {smcfilter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    env = environment()
    print(f"env {json.dumps(env)}")
    result, details = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_lines(args.workload, result, details)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details, **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
