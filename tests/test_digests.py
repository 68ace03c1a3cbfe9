"""Pinned sha256 digests of seeded CLI output.

Criterion 10 only compares a run with its own rerun, so a change that moves
the floats would pass it. These digests pin the bytes themselves: a kernel
rewrite that claims to be bit-identical must leave every one unchanged. A
change that moves the floats on purpose has to update them and say why.
"""

import hashlib
import json

import pytest

from smcfilter import cli

CV2D_MNMAP = {
    "scenario": "cv2d",
    "T": 20,
    "N": 300,
    "model": {"dt": 1.0, "q_pos": 0.2, "q_vel": 0.05, "r": 2.0},
    "prior": {"mean": [0.0, 0.0, 0.0, 0.0], "std": [2.0, 2.0, 2.0, 2.0]},
    "initial_truth": [0.0, 0.0, 1.0, 0.5],
    "resampler": "multinomial",
    "threshold_fraction": 1.0,
    "estimator": "map",
    "seed": 7,
    "dump_particles": [0, 1, 10, 19],
}

DIGESTS = {
    "demo-1d": "f41f180930443c8db9eee6fe7a2ef7e49a5b337b8deb5a77d9f6783b085b5560",
    "demo-2d": "c228c0550fb84f0612bdd9087a2dc9eace42b856ff9646b8688d7bf9e78b8a1d",
    "cv2d-mnmap": "3f8dad68321b2a5ff8bb9432b0be9d42c5a1638b9abc97943edffb3830409700",
    "cv2d-mnmap.particles": "1935e3b93e478b6be8479b243a3be485540f435be72ab89c1fb29865ed9b8e25",
    "cv2d-kept.particles": "251665e60258d5db60f90aa7eac075ed998c7d813532e86640147a57a381c724",
}

# Long weighted-mean runs with systematic resampling at threshold 0.5, the
# settings of the benchmark's sim workloads at a smaller size. Particles are
# dumped after steps 0, 1 and T-1.
LONG_RUNS = {
    "rw1d-long": {
        "scenario": "rw1d",
        "T": 2000,
        "N": 100,
        "model": {"q": 1.0, "r": 4.0},
        "prior": {"mean": [0.0], "std": [2.0]},
        "initial_truth": [0.0],
        "resampler": "systematic",
        "threshold_fraction": 0.5,
        "estimator": "weighted_mean",
        "dump_particles": [0, 1, 1999],
    },
    "cv2d-long": dict(
        CV2D_MNMAP,
        T=50,
        N=10000,
        resampler="systematic",
        threshold_fraction=0.5,
        estimator="weighted_mean",
        dump_particles=[0, 1, 49],
    ),
}

# (trace CSV, particle CSV) per (run, seed)
LONG_RUN_DIGESTS = {
    ("rw1d-long", 7): (
        "b6d1c3f3e1d5bfd5f6ebca31b2c2e106104006e4701d4cd19ee692a9e5711752",
        "eaf0d36e38cb2c6515d6872fd81ead7d734372d273a2d0f6987b4180c5bbc3fa",
    ),
    ("rw1d-long", 11): (
        "d3106e3c638d814419deab5c4ebfae477582056abc8b22cb5c57629b0f7af985",
        "eeb7541bcda5fd1f6c96914f8e3571c20a32ebb497aaca0a09f72994aa558042",
    ),
    ("cv2d-long", 7): (
        "ab096d6e3059f28113ef1b42a6cec05bdf960e46710235c2f0726b7402747da2",
        "723ba30cad62fbcfdc47391a93ed297887ddf5e0738a4aa43ed73fc1ba519b88",
    ),
    ("cv2d-long", 11): (
        "b4f238ca49a479d13bac3913c2e4a82a63bcded4671d0d96ae72bee6f9d95ad4",
        "c6d4df7f32148fb48371c1f2f0de425ade9ef9e14ccca466f50b8765f3a5adfb",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["demo-1d", "demo-2d"])
def test_demo_trace_digest(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--seed", "7", "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[command]


def test_multinomial_map_run_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CV2D_MNMAP))
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS["cv2d-mnmap"]
    assert sha256(tmp_path / "trace.csv.particles.csv") == DIGESTS["cv2d-mnmap.particles"]


def test_unresampled_dump_digest(tmp_path):
    """Threshold 0 never resamples: the weights are not uniform and no row
    repeats the one above, so every row of the dump is formatted on its own."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CV2D_MNMAP, threshold_fraction=0.0)))
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    dump = tmp_path / "trace.csv.particles.csv"
    rows = [line.split(",", 2)[2] for line in dump.read_text().splitlines()[1:]]
    assert all(a != b for a, b in zip(rows, rows[1:]))
    assert sha256(dump) == DIGESTS["cv2d-kept.particles"]


@pytest.mark.parametrize("run, seed", sorted(LONG_RUN_DIGESTS))
def test_long_run_digests(tmp_path, run, seed):
    """Thousands of steps, so an estimate or ESS that moves by an ulp has
    many chances to cross a printed digit or flip a resample decision."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(LONG_RUNS[run]))
    out = tmp_path / "trace.csv"
    args = ["run", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    assert cli.main(args) == 0
    trace, particles = LONG_RUN_DIGESTS[run, seed]
    assert sha256(out) == trace
    assert sha256(tmp_path / "trace.csv.particles.csv") == particles
