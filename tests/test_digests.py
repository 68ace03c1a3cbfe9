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
