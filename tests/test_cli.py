import json

from ofdmradar import baselines, serialize
from ofdmradar.cli import main


def simulate_file(tmp_path):
    path = tmp_path / "meas.json"
    assert main(["simulate", "--preset", "rmse1", "--seed", "3", "--out", str(path),
                 "--quiet"]) == 0
    return path


def simulate_8x8_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    assert main(["scenario", "--preset", "rmse1", "--out", str(spec_path), "--quiet"]) == 0
    spec = json.loads(spec_path.read_text())
    spec["config"]["M"] = spec["config"]["N"] = 8
    spec_path.write_text(json.dumps(spec))
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
