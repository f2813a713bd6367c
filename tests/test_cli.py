import csv
import json
import math

import pytest

from ofdmradar import baselines, serialize
from ofdmradar.cli import main


def simulate_file(tmp_path):
    path = tmp_path / "meas.json"
    assert main(["simulate", "--preset", "rmse1", "--seed", "3", "--out", str(path),
                 "--quiet"]) == 0
    return path


def spec_8x8_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    assert main(["scenario", "--preset", "rmse1", "--out", str(spec_path), "--quiet"]) == 0
    spec = json.loads(spec_path.read_text())
    spec["config"]["M"] = spec["config"]["N"] = 8
    spec_path.write_text(json.dumps(spec))
    return spec_path


def simulate_8x8_file(tmp_path):
    spec_path = spec_8x8_file(tmp_path)
    path = tmp_path / "meas.json"
    assert main(["simulate", "--spec", str(spec_path), "--seed", "3", "--ber", "0.01",
                 "--out", str(path), "--quiet"]) == 0
    return path


class TestSolve:
    def test_csl1_csv_is_reproducible_and_the_receivers_estimate(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        outs = [tmp_path / "est1.csv", tmp_path / "est2.csv"]
        for out in outs:
            assert main(["solve", "--input", str(meas_path), "--algo", "csl1",
                         "--format", "csv", "--out", str(out), "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        measurement, config, _ = serialize.measurement_from_dict(
            json.loads(meas_path.read_text()))
        assert (measurement.M, measurement.N) == (8, 8)
        cfg = baselines.default_csl1_config(8, 8, config.sigma)
        want = serialize.estimate_to_csv(baselines.csl1_estimate(measurement, cfg), config)
        assert outs[0].read_text() == want

    def test_music_csv_is_the_receivers_estimate(self, tmp_path):
        meas_path = simulate_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["solve", "--input", str(meas_path), "--algo", "music",
                     "--format", "csv", "--out", str(out), "--quiet"]) == 0
        measurement, config, _ = serialize.measurement_from_dict(
            json.loads(meas_path.read_text()))
        cfg = baselines.default_music_config(measurement.M, measurement.N)
        want = serialize.estimate_to_csv(baselines.music_estimate(measurement, cfg), config)
        assert out.read_text() == want

    def test_non_measurement_input_is_a_config_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        assert main(["scenario", "--preset", "rmse1", "--out", str(spec_path),
                     "--quiet"]) == 0
        assert main(["solve", "--input", str(spec_path), "--algo", "music"]) == 2

    def test_music_json_is_reproducible_apart_from_timing(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        docs = []
        for out in (tmp_path / "est1.json", tmp_path / "est2.json"):
            assert main(["solve", "--input", str(meas_path), "--algo", "music",
                         "--out", str(out), "--quiet"]) == 0
            doc = json.loads(out.read_text())
            assert set(doc.pop("timing_s")) == {"solve"}
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_error_exits_3(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        assert main(["solve", "--input", str(meas_path), "--algo", "anl1",
                     "--lambda", "1e308", "--quiet"]) == 3


class TestMalformedInput:
    def test_spec_missing_a_key_exits_2(self, tmp_path, capsys):
        spec_path = spec_8x8_file(tmp_path)
        spec = json.loads(spec_path.read_text())
        del spec["n_targets"]
        spec_path.write_text(json.dumps(spec))
        assert main(["simulate", "--spec", str(spec_path), "--quiet"]) == 2
        assert "n_targets" in capsys.readouterr().err

    def test_spec_that_is_not_json_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("n_targets = 3\n")
        assert main(["bench", "--spec", str(spec_path), "--quiet"]) == 2
        assert str(spec_path) in capsys.readouterr().err

    def test_measurement_as_spec_exits_2(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        assert main(["simulate", "--spec", str(meas_path), "--quiet"]) == 2


class TestSpectrum:
    @pytest.mark.parametrize("kind", ["solution", "measurement"])
    @pytest.mark.parametrize("flags, shape", [([], (128, 128)),
                                              (["--grid-psi", "40"], (128, 40)),
                                              (["--grid-phi", "24"], (24, 128))])
    def test_grid_flags_set_the_csv_shape(self, tmp_path, kind, flags, shape):
        path = simulate_8x8_file(tmp_path)
        if kind == "solution":
            sol_path = tmp_path / "sol.json"
            assert main(["solve", "--input", str(path), "--algo", "an", "--iters", "5",
                         "--out", str(sol_path), "--quiet"]) == 0
            path = sol_path
        out = tmp_path / "grid.csv"
        assert main(["spectrum", "--input", str(path), *flags, "--out", str(out),
                     "--quiet"]) == 0
        rows = out.read_text().splitlines()
        assert (len(rows), len(rows[0].split(","))) == shape


def read_csv(path):
    return list(csv.DictReader(path.read_text().splitlines()))


class TestBench:
    def test_rows_derive_from_trials_per_pass(self, tmp_path):
        # Seed 7 is one where MUSIC matches targets at 8x8, so the RMSE
        # columns hold numbers rather than NaN.
        out = tmp_path / "report.csv"
        assert main(["bench", "--spec", str(spec_8x8_file(tmp_path)), "--seed", "7",
                     "--trials", "2", "--ber", "0.01,0.01", "--algos", "music",
                     "--format", "csv", "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        trials = read_csv(tmp_path / "report.csv.trials.csv")
        assert len(rows) == 2 and len(trials) == 4
        for row, group in zip(rows, (trials[:2], trials[2:])):
            used = [t for t in group if t["failed"] == "0"]
            matched = sum(int(t["n_matched"]) for t in used)
            assert matched > 0
            sq_r = sq_v = 0.0
            for t in used:
                sq_r += float(t["sq_range_error"])
                sq_v += float(t["sq_velocity_error"])
            assert {t["ber"] for t in group} == {row["ber"]} == {"0.01"}
            assert int(row["trials_used"]) == len(used)
            assert float(row["range_rmse_m"]) == math.sqrt(sq_r / matched)
            assert float(row["velocity_rmse_mps"]) == math.sqrt(sq_v / matched)
            assert float(row["identification_rate"]) == matched / (3 * len(used))
        assert rows[0] == rows[1]
