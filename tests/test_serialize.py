import dataclasses
import json
import math

import numpy as np
import pytest

from ofdmradar import ConfigError, Path, RmseReport, RmseRow, preset, serialize, simulate_trial
from ofdmradar.bench import PRESETS, TrialRecord


def through_json(doc):
    return json.loads(serialize.dumps(doc))


@pytest.mark.parametrize("name", PRESETS)
def test_scenario_round_trip(name):
    spec = preset(name)
    assert serialize.scenario_from_dict(serialize.scenario_to_dict(spec)) == spec
    assert serialize.scenario_from_dict(through_json(serialize.scenario_to_dict(spec))) == spec


def test_file_keys_keep_their_order():
    doc = serialize.scenario_to_dict(preset("rmse1"))
    assert list(doc) == [
        "kind", "name", "config", "n_targets", "n_clutter", "target_powers_db",
        "clutter_power_db", "direct_path_power_db", "direct_path_range_m", "range_bounds_m",
        "clutter_velocity_bounds_mps", "target_velocity_bounds_mps", "ber", "seed", "trials"]
    assert list(serialize.config_to_dict(preset("rmse1").config)) == [
        "M", "N", "delta_f_hz", "T_s", "T_cp_s", "T_bar_s", "f_c_hz", "noise_power_db"]


def test_scenario_keys_left_out_take_their_defaults():
    doc = serialize.scenario_to_dict(preset("rmse1"))
    for key in ("name", "direct_path_range_m", "ber", "seed", "trials"):
        del doc[key]
    got = serialize.scenario_from_dict(doc)
    assert (got.name, got.direct_path_range_m, got.ber, got.seed, got.trials) == (
        "custom", 5e3, 0.0, 1, 20)
    assert got == dataclasses.replace(preset("rmse1"), name="custom")


class TestConfigTiming:
    def test_file_without_derived_timing_is_read(self):
        doc = serialize.config_to_dict(preset("rmse1").config)
        del doc["T_s"], doc["T_bar_s"]
        assert serialize.config_from_dict(doc) == preset("rmse1").config

    @pytest.mark.parametrize("key", ["T_s", "T_bar_s"])
    def test_timing_within_tolerance_is_accepted(self, key):
        doc = serialize.config_to_dict(preset("rmse1").config)
        doc[key] *= 1.0 + 1e-13
        assert serialize.config_from_dict(doc) == preset("rmse1").config

    @pytest.mark.parametrize("key, factor", [("T_s", 1.0 + 1e-11), ("T_s", 0.5),
                                             ("T_bar_s", 1.0 - 1e-11), ("T_bar_s", math.nan)])
    def test_inconsistent_timing_rejected(self, key, factor):
        doc = serialize.config_to_dict(preset("rmse1").config)
        doc[key] *= factor
        with pytest.raises(ConfigError, match=key):
            serialize.config_from_dict(doc)


def test_measurement_round_trip():
    spec = preset("rmse1")
    scene, measurement = simulate_trial(spec, 1e-2, 0)
    doc = through_json(serialize.measurement_to_dict(measurement, spec.config, truth=scene))
    got, config, truth = serialize.measurement_from_dict(doc)
    assert config == spec.config
    assert truth == scene
    assert doc["sigma2"] == spec.config.sigma2
    for name in ("S_hat", "r_bar", "e_bar_true", "v_bar_true"):
        assert np.array_equal(getattr(got, name), getattr(measurement, name))


@pytest.mark.parametrize("key, value", [("alpha_re", math.nan), ("alpha_im", math.inf)])
def test_path_with_non_finite_alpha_rejected(key, value):
    path = Path(alpha=0.5 - 0.25j, phi=0.2, psi=0.3)
    doc = serialize.path_to_dict(path)
    assert serialize.path_from_dict(doc) == path
    doc[key] = value
    with pytest.raises(ConfigError, match="alpha"):
        serialize.path_from_dict(doc)


def test_records_are_written_by_declared_type():
    report = RmseReport(spec=preset("rmse1"), algorithms=("CS-L1",),
                        rows=[RmseRow(ber=0, algorithm="CS-L1", range_rmse_m=math.nan,
                                      velocity_rmse_mps=2.5, identification_rate=0.0,
                                      trials_used=0)],
                        trials=[TrialRecord(ber=0, algorithm="CS-L1", trial=3, n_matched=0,
                                            sq_range_error=0.0, sq_velocity_error=0.0,
                                            failed=True, failure="non-finite, at 1")])
    assert serialize.report_to_csv(report) == (
        "ber,algorithm,range_rmse_m,velocity_rmse_mps,identification_rate,trials_used\n"
        "0.0,CS-L1,nan,2.5,0.0,0\n")
    assert serialize.trials_to_csv(report) == (
        "ber,algorithm,trial,n_matched,sq_range_error,sq_velocity_error,failed,failure\n"
        "0.0,CS-L1,3,0,0.0,0.0,1,non-finite; at 1\n")
    assert list(serialize.report_to_dict(report)["rows"][0]) == [
        "ber", "algorithm", "range_rmse_m", "velocity_rmse_mps", "identification_rate",
        "trials_used"]
