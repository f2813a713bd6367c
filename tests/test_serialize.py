import dataclasses
import json
import math

import numpy as np
import pytest

from ofdmradar import (ConfigError, Path, RmseReport, RmseRow, bench, objective_primal, preset,
                       serialize, simulate_trial)
from ofdmradar.bench import ALGO_KEYS, PRESETS, TrialRecord
from ofdmradar.extract import Estimate


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


@pytest.mark.parametrize("where, key", [("scenario", "trails"), ("config", "noise_power_dbb"),
                                        ("config", "kind")])
def test_unknown_keys_are_rejected_by_name(where, key):
    doc = serialize.scenario_to_dict(preset("rmse1"))
    (doc if where == "scenario" else doc["config"])[key] = 3
    with pytest.raises(ConfigError, match=f"unknown {where} keys: {key}$"):
        serialize.scenario_from_dict(doc)


@pytest.mark.parametrize("where, key, misspelt", [
    ("measurement", "e_bar_true", "e_bar_ture"), ("config", "noise_power_db", "noise_power_dbb"),
    ("truth", "targets", "targest"), ("path", "phi", "phii")])
def test_a_misspelt_key_is_named_before_any_field_is_read(where, key, misspelt):
    # A misspelt required key is reported as the unknown key, not as the missing one, and a
    # misspelt optional one, such as the ground-truth error vector, is not silently dropped.
    spec = preset("rmse1")
    scene, measurement = simulate_trial(spec, 1e-2, 0)
    doc = through_json(serialize.measurement_to_dict(measurement, spec.config, truth=scene))
    part = (doc if where == "measurement" else
            doc["truth"]["targets"][0] if where == "path" else doc[where])
    part[misspelt] = part.pop(key)
    with pytest.raises(ConfigError, match=f"unknown {where} keys: {misspelt}$"):
        serialize.measurement_from_dict(doc)


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


@pytest.fixture(scope="module")
def measurement_8x8():
    spec = preset("rmse1")
    spec = dataclasses.replace(spec, config=dataclasses.replace(spec.config, M=8, N=8))
    return simulate_trial(spec, 1e-2, 0)[1], spec.config


DUAL_SOLVE_KEYS = ["kind", "algo", "M", "N", "solver", "z_hat", "e_hat", "nu_hat", "residuals",
                   "objective", "converged", "iterations", "timing_s", "estimate"]


@pytest.mark.parametrize("algo", ALGO_KEYS)
def test_solve_document_of_every_receiver(measurement_8x8, algo):
    measurement, config = measurement_8x8
    cap = {"max_iters": 30} if algo in ("anl1", "an") else {}
    settings, estimate, solution, timing = bench.run_receiver(ALGO_KEYS[algo], measurement,
                                                              config, **cap)
    doc = through_json(serialize.solve_to_dict(algo, measurement, config, settings, estimate,
                                               timing, solution))
    assert doc["solver"] == dataclasses.asdict(settings)
    assert (doc["algo"], doc["M"], doc["N"], doc["timing_s"]) == (algo, 8, 8, timing)
    assert doc["estimate"] == through_json(serialize.estimate_to_dict(estimate, config))
    if solution is None:
        assert algo in ("csl1", "music")
        assert list(doc) == ["kind", "algo", "M", "N", "solver", "timing_s", "estimate"]
        assert doc["kind"] == "estimate"
        return
    assert list(doc) == DUAL_SOLVE_KEYS and doc["kind"] == "solution"
    assert doc["objective"] == objective_primal(solution, measurement, settings)
    assert (doc["converged"], doc["iterations"]) == (solution.diagnostics.converged,
                                                     solution.diagnostics.iterations)
    M, N, nu = serialize.solution_from_dict(doc)
    assert (M, N) == (8, 8) and np.array_equal(nu, solution.nu_hat)
    doc["nu_hat"] = doc["nu_hat"][:-2]
    with pytest.raises(ConfigError, match="nu_hat must hold M.N=64 complex entries, got 63"):
        serialize.solution_from_dict(doc)


@pytest.mark.parametrize("write", [serialize.estimate_to_dict, serialize.estimate_to_csv])
def test_an_estimate_without_one_statistic_per_path_is_not_written(write):
    # Every receiver's estimate holds one statistic per path; a shorter tuple is a fault.
    estimate = Estimate(paths=(Path(alpha=1.0, phi=0.1, psi=0.2),))
    with pytest.raises(ValueError, match="zip"):
        write(estimate, preset("rmse1").config)
