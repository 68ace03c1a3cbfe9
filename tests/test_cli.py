import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcfilter import cli
from smcfilter.cli import ConfigError, load_config, parse_config
from smcfilter.models import ConstantVelocity2D, RandomWalk1D
from smcfilter.resampling import ResamplePolicy
from smcfilter.sim import Trace, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"

CV2D = {
    "scenario": "cv2d",
    "model": {"dt": 1.0, "q_pos": 0.2, "q_vel": 0.05, "r": 2.0},
    "prior": {"mean": [0.0] * 4, "std": [2.0] * 4},
    "initial_truth": [0.0, 0.0, 1.0, 0.5],
}


def sample_config(**overrides):
    data = {
        "scenario": "rw1d",
        "T": 10,
        "N": 50,
        "model": {"q": 1.0, "r": 4.0},
        "prior": {"mean": [0.0], "std": [2.0]},
        "initial_truth": [0.0],
        "resampler": "systematic",
        "threshold_fraction": 0.5,
        "estimator": "weighted_mean",
        "seed": 7,
        "dump_particles": [],
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# Any JSON value: what json.loads can return, NaN and the infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
# A list of 1e5 copies of one value: echoed whole, it would flood the error line.
LONG_LISTS = st.builds(lambda item: [item] * 100_000, JSON_VALUES)
CONFIG_FIELDS = [(key,) for key in sample_config()] + [
    ("model", "q"), ("model", "r"), ("prior", "mean"), ("prior", "std")]


class TestConfigParsing:
    def test_defaults_applied(self):
        data = sample_config()
        for key in ("resampler", "threshold_fraction", "estimator", "seed", "dump_particles"):
            data.pop(key)
        cfg = parse_config(data)
        assert cfg.scenario.policy == ResamplePolicy("systematic", 0.5)
        assert cfg.scenario.estimator == "weighted_mean"
        assert cfg.seed is None
        assert cfg.dump_particles == []

    @pytest.mark.parametrize(
        "mutation, path",
        [
            ({"scenario": "ekf"}, "scenario"),
            ({"T": 0}, "T"),
            ({"N": "many"}, "N"),
            ({"model": {"q": 1.0}}, "model.r"),
            ({"model": {"q": -1.0, "r": 4.0}}, "model.q"),
            ({"model": {"q": 1.0, "r": 0.0}}, "model.r"),
            ({"model": {"q": 1.0, "r": 4.0, "dt": 1.0}}, "model.dt"),
            ({"prior": {"mean": [0.0], "std": [-2.0]}}, "prior.std[0]"),
            ({"prior": {"mean": [0.0, 1.0], "std": [2.0]}}, "prior.mean"),
            ({"initial_truth": [0.0, 0.0]}, "initial_truth"),
            ({"resampler": "residual"}, "resampler"),
            ({"threshold_fraction": 1.5}, "threshold_fraction"),
            ({"estimator": "mode"}, "estimator"),
            ({"seed": -3}, "seed"),
            ({"dump_particles": [12]}, "dump_particles[0]"),
            ({"extra_field": 1}, "extra_field"),
            ({"N": 0}, "N"),
            ({**CV2D, "model": {**CV2D["model"], "q_pos": -0.1}}, "model.q_pos"),
            ({**CV2D, "model": {**CV2D["model"], "r": 0.0}}, "model.r"),
            ({"model": {"q": float("nan"), "r": 4.0}}, "model.q"),
            ({"model": {"q": 1.0, "r": float("inf")}}, "model.r"),
            ({"prior": {"mean": [0.0], "std": [float("inf")]}}, "prior.std[0]"),
            ({"prior": {"mean": [float("-inf")], "std": [2.0]}}, "prior.mean[0]"),
            ({"initial_truth": [float("nan")]}, "initial_truth[0]"),
            ({**CV2D, "model": {**CV2D["model"], "dt": float("inf")}}, "model.dt"),
            ({"threshold_fraction": float("nan")}, "threshold_fraction"),
            ({"resampler": ["systematic"]}, "resampler"),
            ({"scenario": ["rw1d"]}, "scenario"),
            ({"seed": 2**64}, "seed"),
            ({"dump_particles": [-1]}, "dump_particles[0]"),
            ({"prior": {"mean": [0.0]}}, "prior.std"),
            # integers beyond the float range
            ({"T": 10**400}, "T"),
            ({"N": 10**400}, "N"),
            ({"model": {"q": 10**400, "r": 4.0}}, "model.q"),
            ({"prior": {"mean": [10**400], "std": [2.0]}}, "prior.mean[0]"),
            ({"threshold_fraction": 10**400}, "threshold_fraction"),
            # values too long to echo whole
            ({"T": 10**5000}, "T"),
            ({"seed": 10**5000}, "seed"),
            ({"model": {"q": 10**5000, "r": 4.0}}, "model.q"),
            ({"dump_particles": [10**5000]}, "dump_particles[0]"),
            ({"prior": {"mean": {"x": [0] * 100_000}, "std": [2.0]}}, "prior.mean"),
            ({"scenario": "x" * 100_000}, "scenario"),
        ],
    )
    def test_field_path_in_error(self, mutation, path):
        # the message starts with exactly this path: model.r, not model.r_meas
        with pytest.raises(ConfigError, match="^" + re.escape(path) + ": ") as info:
            parse_config(sample_config(**mutation))
        assert len(str(info.value)) <= 200

    def test_non_finite_json_values_rejected(self, tmp_path):
        # Python's json reads NaN and Infinity; the model rejects them when built
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(sample_config(model={"q": float("nan"), "r": 4.0})))
        assert "NaN" in path.read_text()
        with pytest.raises(ConfigError, match=r"^model\.q: must be finite, got nan$"):
            load_config(path)

    def test_library_message_under_field_path(self):
        with pytest.raises(ConfigError) as info:
            parse_config(sample_config(model={"q": 1.0, "r": -4.0}))
        assert str(info.value) == "model.r: must be > 0, got -4.0"

    @pytest.mark.parametrize("key", ["T", "N", "seed"])
    def test_non_integer_count_keeps_the_boundary_message(self, key):
        # the library's integer rule is the only one; its error comes back
        # under the config's field path. A null seed is a config without one.
        for value in (2.5, "5", True, None, [5]) if key != "seed" else (2.5, "5", True, [5]):
            with pytest.raises(ConfigError) as info:
                parse_config(json.loads(json.dumps(sample_config(**{key: value}))))
            assert str(info.value) == f"{key}: must be an integer, got {value!r}"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES | LONG_LISTS)
    @example(("prior", "mean"), {"x": [0] * 100_000})
    @example(("model", "q"), [0.0] * 200_000)
    @example(("model", "q"), 10**5000)
    @example(("seed",), [10**5000])
    @example(("dump_particles",), ["x" * 1000])
    @example(("model",), {"q": 1.0, "r": 4.0, "\n" * 300: 1})
    def test_any_json_value_at_any_field_parses_or_gives_one_short_line(self, field, value):
        data = sample_config()
        *parents, key = field
        target = data
        for parent in parents:
            target = target[parent]
        target[key] = value
        try:
            cfg = parse_config(data)
        except ConfigError as exc:
            message = str(exc)
            assert len(message) <= 200 and "\n" not in message, message
        else:
            assert isinstance(cfg, cli.RunConfig)

    def test_missing_required_field(self):
        data = sample_config()
        data.pop("model")
        with pytest.raises(ConfigError, match="model"):
            parse_config(data)

    def test_load_config_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(missing)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="bad.json"):
            load_config(path)
        # json refuses an integer literal longer than Python's 4300-digit limit
        path.write_text('{"T": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="bad.json"):
            load_config(path)


class TestRunCommand:
    def test_run_writes_trace_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, sample_config())
        out = tmp_path / "trace.csv"
        rc = cli.main(["run", "--config", config, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,truth_x,meas_x,est_x,ess,resampled,degenerate"
        assert len(lines) == 11  # header + T rows
        summary = capsys.readouterr().out
        assert "rmse_vs_truth=" in summary and "resamples=" in summary

    def test_demo_1d_preset(self, tmp_path):
        out = tmp_path / "demo1.csv"
        rc = cli.main(["demo-1d", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 16
        assert lines[0] == "k,truth_x,meas_x,est_x,ess,resampled,degenerate"

    def test_demo_2d_preset(self, tmp_path):
        out = tmp_path / "demo2.csv"
        rc = cli.main(["demo-2d", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 31
        assert lines[0] == (
            "k,truth_px,truth_py,truth_vx,truth_vy,meas_px,meas_py,"
            "est_px,est_py,est_vx,est_vy,ess,resampled,degenerate"
        )

    def test_missing_config_exits_1_and_names_path(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "ghost.json"), "--out", "x.csv"])
        assert rc == 1
        assert "ghost.json" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, sample_config(model={"q": 1.0, "r": -4.0}))
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "model.r" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, sample_config())
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "no/dir/t.csv")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, sample_config())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", "--config", config, "--seed", "12", "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", config, "--seed", "12", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, sample_config())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", config, "--out", str(out_a)])
        cli.main(["run", "--config", config, "--seed", "8", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        data = sample_config()
        data.pop("seed")
        config = write_config(tmp_path, data)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("SMC_SEED", "321")
        cli.main(["run", "--config", config, "--out", str(out_a)])
        cli.main(["run", "--config", config, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        # explicit --seed wins over the environment
        cli.main(["run", "--config", config, "--seed", "5", "--out", str(out_c)])
        assert out_a.read_bytes() != out_c.read_bytes()

    def test_invalid_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        data = sample_config()
        data.pop("seed")
        config = write_config(tmp_path, data)
        monkeypatch.setenv("SMC_SEED", "abc")
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "SMC_SEED" in capsys.readouterr().err
        monkeypatch.setenv("SMC_SEED", "-3")
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: SMC_SEED: must be an unsigned 64-bit integer, got -3\n"
        )
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "text, rule",
        [(str(2**64), f"must be an unsigned 64-bit integer, got {2**64}"),
         ("1.5", "must be an integer, got '1.5'"),
         # int() reads no text of more than 4300 digits
         ("1" * 5000, "must be an integer, got '111111111111...1111111111111'")],
        ids=["out-of-range", "not-an-integer", "beyond-int"],
    )
    def test_bad_seed_flag_exits_1(self, tmp_path, capsys, text, rule):
        config = write_config(tmp_path, sample_config())
        rc = cli.main(["run", "--config", config, "--seed", text,
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --seed: {rule}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_truth_overflow_reports_the_measurement_not_the_seed(self, tmp_path, capsys):
        # the truth's px + vx dt passes the largest double at k = 1, so its
        # measurement is infinite while every particle stays finite
        data = dict(CV2D, T=3, N=5, seed=3, initial_truth=[0.0, 0.0, 10.0, 0.0],
                    model=dict(CV2D["model"], dt=1e308),
                    prior={"mean": [0.0] * 4, "std": [1.0, 1.0, 1e-3, 1e-3]})
        config = write_config(tmp_path, data)
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: measurement[0] must be finite, got inf\n"

    def test_config_seed_error_names_field(self, tmp_path, capsys):
        config = write_config(tmp_path, sample_config(seed=-3))
        rc = cli.main(["run", "--config", config, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: seed: must be an unsigned 64-bit integer, got -3\n"
        )

    def test_particle_dump(self, tmp_path):
        config = write_config(tmp_path, sample_config(dump_particles=[0, 5]))
        out = tmp_path / "trace.csv"
        rc = cli.main(["run", "--config", config, "--out", str(out)])
        assert rc == 0
        dump = tmp_path / "trace.csv.particles.csv"
        lines = dump.read_text().splitlines()
        assert lines[0] == "k,i,weight,x"
        assert len(lines) == 1 + 2 * 50  # two dumped steps, N=50 each
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_dump_override_flag(self, tmp_path):
        config = write_config(tmp_path, sample_config())
        out = tmp_path / "trace.csv"
        rc = cli.main(["run", "--config", config, "--out", str(out),
                       "--dump-particles", "1,2"])
        assert rc == 0
        lines = (tmp_path / "trace.csv.particles.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 50

    @pytest.mark.parametrize("steps", ["99,-1", "10", "-1", "1,2,x"])
    def test_dump_override_flag_checked(self, tmp_path, capsys, steps):
        config = write_config(tmp_path, sample_config())  # T=10
        out = tmp_path / "trace.csv"
        rc = cli.main(["run", "--config", config, "--out", str(out), "--dump-particles", steps])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --dump-particles")
        assert not out.exists()
        assert not (tmp_path / "trace.csv.particles.csv").exists()

    def test_float_format_nine_significant_digits(self, tmp_path):
        config = write_config(tmp_path, sample_config())
        out = tmp_path / "trace.csv"
        cli.main(["run", "--config", config, "--out", str(out)])
        row = out.read_text().splitlines()[2].split(",")
        value = row[1]
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) <= 9


def reference_write_particles_csv(path, trace, model) -> None:
    """The row-at-a-time particle writer: every row formatted on its own."""
    columns = ["k", "i", "weight"] + list(model.state_labels)

    def rows():
        for k in sorted(trace.snapshots):
            particles, weights = trace.snapshots[k]
            n = len(weights)
            yield from np.column_stack((np.full(n, k), np.arange(n), weights, particles)).tolist()

    row_format = "%d,%d," + ",".join(["%.9g"] * (len(columns) - 2)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % tuple(row) for row in rows())


# Signed zeros (equal under ==, printed as 0 and -0), the smallest subnormal
# and a huge magnitude, plus ordinary values; few enough that neighbouring
# rows often share a weight or a state.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0]
MODELS = {1: RandomWalk1D, 4: ConstantVelocity2D}


@st.composite
def dumps(draw):
    """(block, dim, snapshots): each snapshot is runs of repeated (weight,
    state) rows; block is the writer's rows per write, small enough that
    runs cross from one block into the next."""
    block = draw(st.integers(1, 8))
    dim = draw(st.sampled_from(sorted(MODELS)))
    row = st.tuples(st.sampled_from(EDGE_VALUES),
                    st.lists(st.sampled_from(EDGE_VALUES), min_size=dim, max_size=dim))
    snapshots = {}
    for k in draw(st.sets(st.integers(0, 300), min_size=1, max_size=3)):
        runs = draw(st.lists(st.tuples(row, st.integers(1, 4)), min_size=1, max_size=12))
        rows = [r for r, count in runs for _ in range(count)]
        snapshots[k] = (np.array([x for _, x in rows]), np.array([w for w, _ in rows]))
    return block, dim, snapshots


class TestParticleWriter:
    @settings(max_examples=200, deadline=None)
    @given(dumps())
    @example((2048, 1, {0: (np.array([[0.5]]), np.array([1.0]))}))
    @example((2048, 1, {3: (np.array([[0.0], [-0.0], [-0.0], [0.0]]), np.full(4, 0.25))}))
    @example((2048, 4, {9: (np.array([[1e300] * 4, [5e-324] * 4]), np.array([0.5, 0.5]))}))
    def test_matches_row_at_a_time_writer(self, tmp_path_factory, dump):
        block, dim, snapshots = dump
        trace = Trace(*[np.empty(0)] * 6, final_ess=1.0, snapshots=snapshots)
        tmp = tmp_path_factory.mktemp("dump")
        with mock.patch.object(cli, "_BLOCK_ROWS", block):
            cli.write_particles_csv(tmp / "runs.csv", trace, MODELS[dim])
        reference_write_particles_csv(tmp / "rows.csv", trace, MODELS[dim])
        assert (tmp / "runs.csv").read_bytes() == (tmp / "rows.csv").read_bytes()

    def test_signed_zero_rows_keep_their_sign(self, tmp_path):
        # prior -0 + 0 * noise and q = 0 give particles of both signs that
        # resampling then copies onto consecutive rows
        data = sample_config(T=5, model={"q": 0.0, "r": 1.0},
                             prior={"mean": [-0.0], "std": [0.0]},
                             threshold_fraction=1.0, dump_particles=[0, 1, 4])
        out = tmp_path / "trace.csv"
        assert cli.main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
        dump = (tmp_path / "trace.csv.particles.csv").read_bytes()
        states = {line.rsplit(b",", 1)[1] for line in dump.splitlines()[1:]}
        assert states == {b"0", b"-0"}
        cfg = parse_config(data)
        trace = run_scenario(cfg.scenario, cfg.seed, cfg.dump_particles)
        reference_write_particles_csv(tmp_path / "rows.csv", trace, cfg.scenario.model)
        assert dump == (tmp_path / "rows.csv").read_bytes()


class TestGoldenCommand:
    def test_bundled_fixtures_pass(self, capsys):
        assert cli.main(["golden", "ch4_k1.json"]) == 0
        assert cli.main(["golden", "ch4_k2.json"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fixture_by_path(self, tmp_path):
        fixture = {
            "initial_particles": [0.0, 1.0],
            "noises": [0.0, 0.0],
            "z": 0.5,
            "expected_predicted": [0.0, 1.0],
            "expected_weights": [0.5, 0.5],
            "tolerance": 1e-9,
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(fixture))
        assert cli.main(["golden", str(path)]) == 0

    def test_perturbed_weights_fail_with_report(self, tmp_path, capsys):
        bundled = json.loads(
            (cli._bundled_fixture("ch4_k1.json")).read_text()
        )
        bundled["expected_weights"] = [w + 0.05 for w in bundled["expected_weights"]]
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(bundled))
        rc = cli.main(["golden", str(path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "expected" in out and "actual" in out

    def test_missing_fixture_exits_2(self, capsys):
        assert cli.main(["golden", "no_such_fixture.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_fixture_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"initial_particles": [1.0]}))
        assert cli.main(["golden", str(path)]) == 2
        assert capsys.readouterr().err == "error: noises: missing required field\n"

    def test_empty_initial_particles_exits_2(self, tmp_path, capsys):
        fixture = json.loads(cli._bundled_fixture("ch4_k1.json").read_text())
        fixture["initial_particles"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(fixture))
        assert cli.main(["golden", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: particles must be a non-empty") and err.count("\n") == 1

    def test_unparseable_fixture_exits_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{{{")
        assert cli.main(["golden", str(path)]) == 2
        path.write_text('{"r": ' + "1" * 5000 + "}")
        assert cli.main(["golden", str(path)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tolerance", {"predicted": None}),
            ("tolerance", {"weights": "tight"}),
            pytest.param("tolerance", 10**400, id="tolerance-huge-int"),
            ("r", None),
            pytest.param("r", 10**400, id="r-huge-int"),
            ("initial_particles", {"a": 1}),
            ("initial_particles", [10**400, 0.0, 0.0, 0.0, 0.0]),
            ("noises", {"a": 1}),
            ("z", {"a": 1}),
            ("expected_predicted", {"a": 1}),
            ("expected_weights", [None, None, None, None, None]),
            ("expected_predicted", [-1.2, -0.2, "2.0", 2.3, 3.5]),
            ("initial_particles", [[-1.5], [0.2], [1.0], [2.5], [3.0]]),
            ("noises", [0.3, -0.4, True, -0.2, 0.5]),
            ("z", [None]),
            pytest.param("tolerance", float("inf"), id="tolerance-inf"),
            pytest.param("tolerance", "1e400", id="tolerance-1e400"),
            pytest.param("tolerance", -1, id="tolerance-negative"),
            pytest.param("tolerance", {"weights": -0.1}, id="tolerance-weights-negative"),
            pytest.param("R", 1.0, id="unknown-field"),
            pytest.param("z", [], id="z-empty"),
            pytest.param("noises", [0.0], id="noises-short"),
            pytest.param("r", -1.0, id="r-negative"),
            pytest.param("r", 0, id="r-zero"),
            pytest.param("r", float("nan"), id="r-nan"),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, value):
        fixture = json.loads(cli._bundled_fixture("ch4_k1.json").read_text())
        fixture[field] = value
        path = tmp_path / "malformed.json"
        # "1e400" stands for the literal, which JSON reads as inf
        path.write_text(json.dumps(fixture).replace('"1e400"', "1e400"))
        assert cli.main(["golden", str(path)]) == 2
        err = capsys.readouterr().err
        # one line, under the field's path
        assert re.match(rf"error: {field}(\.\w+|\[\d+\])?: ", err) and err.count("\n") == 1

    def test_expected_length_mismatch_is_reported(self, tmp_path, capsys):
        fixture = json.loads(cli._bundled_fixture("ch4_k1.json").read_text())
        fixture["expected_predicted"] = [1.0, 2.0]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(fixture))
        assert cli.main(["golden", str(path)]) == 1
        assert "MISMATCH predicted: shape (5,) vs expected (2,)" in capsys.readouterr().out


def _readme_block(heading: str, language: str = "json") -> str:
    """The first fenced code block of a language under a README heading."""
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(r"```" + language + r"\n(.*?)```", section, re.S).group(1)


class TestReadmeExamples:
    def test_run_config_block_parses(self):
        data = json.loads(_readme_block("### Run config (JSON)"))
        cfg = parse_config(data)
        scenario = cfg.scenario
        assert (scenario.t_steps, scenario.n_particles) == (data["T"], data["N"])
        assert (cfg.seed, cfg.dump_particles) == (data["seed"], data["dump_particles"])

    def test_golden_fixture_block_passes(self, tmp_path, capsys):
        path = tmp_path / "readme_fixture.json"
        path.write_text(_readme_block("### Golden fixture (JSON)"))
        assert cli.main(["golden", str(path)]) == 0
        assert "golden fixture ok" in capsys.readouterr().out

    def test_library_block_runs(self, capsys):
        exec(_readme_block("## Library", "python"), {})
        estimate_line, step_line = capsys.readouterr().out.splitlines()
        assert estimate_line.startswith("[") and step_line.startswith("[")
