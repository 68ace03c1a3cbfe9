"""Every name the benchmark's layer tracer hooks must exist in smcfilter.

The tracer (bench/tracer.py) skips a hook whose target is missing and reports
its layer as zero calls, so a refactor that renames a hooked function would
otherwise go unnoticed. This test reads the hook table and changes nothing.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Hooks whose target smcfilter no longer has on purpose, with the reason.
# Each must stay unresolvable, so an entry cannot outlive the hook's removal
# from the table.
RETIRED = {
    ("smcfilter.filter", "effective_sample_size"): (
        "the step takes its ESS from resampling._ess, which skips the public "
        "sum check; its cost now shows in filter.step self time"
    ),
    ("smcfilter.filter", "normalized_log_weights"): (
        "normalize_weights returns the shift m and the sum s, and a step that "
        "keeps its weights normalizes its own log-weights in place with them; "
        "core.normalize still sees one normalize_weights call per step"
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
