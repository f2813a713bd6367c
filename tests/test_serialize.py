import json
import math

import numpy as np
import pytest

from ofdmradar import RmseReport, RmseRow, preset, serialize, simulate_trial
from ofdmradar.bench import PRESETS, TrialRecord


def through_json(doc):
    return json.loads(serialize.dumps(doc))


@pytest.mark.parametrize("name", PRESETS)
def test_scenario_round_trip(name):
    spec = preset(name)
    assert serialize.scenario_from_dict(through_json(serialize.scenario_to_dict(spec))) == spec


def test_measurement_round_trip():
    spec = preset("rmse1")
    scene, measurement = simulate_trial(spec, 1e-2, 0)
    doc = through_json(serialize.measurement_to_dict(measurement, spec.config, truth=scene))
    got, config, truth = serialize.measurement_from_dict(doc)
    assert config == spec.config
    assert truth == scene
    assert got.sigma2 == measurement.sigma2
    for name in ("S_hat", "r_bar", "e_bar_true", "v_bar_true"):
        assert np.array_equal(getattr(got, name), getattr(measurement, name))


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
