import dataclasses

import numpy as np

from ofdmradar import (Path, gate_identification, gates, normalized_to_physical,
                       physical_to_normalized, preset, simulate_trial)
from ofdmradar.extract import Estimate


def trial(seed, index):
    return simulate_trial(dataclasses.replace(preset("rmse1"), seed=seed), 1e-2, index)


class TestSimulateTrial:
    def test_seeds_do_not_share_trials(self):
        # Pairs whose seed + trial sums agree must still draw different scenes.
        assert not np.array_equal(trial(1, 1)[1].r_bar, trial(2, 0)[1].r_bar)

    def test_reproducible(self):
        (scene_a, meas_a), (scene_b, meas_b) = trial(1, 1), trial(1, 1)
        assert scene_a == scene_b
        assert np.array_equal(meas_a.r_bar, meas_b.r_bar)
        assert np.array_equal(meas_a.S_hat, meas_b.S_hat)


CONFIG = preset("rmse1").config
RANGE_GATE = gates(CONFIG)[0]


def path(range_m, velocity_mps):
    phi, psi = physical_to_normalized(range_m, velocity_mps, CONFIG)
    return Path(alpha=1.0, phi=phi, psi=psi)


def match(truth, estimates):
    pairs = gate_identification(Estimate(paths=tuple(estimates)), list(truth), CONFIG)
    return [(m.target_index, m.estimate_index) for m in pairs]


class TestGateIdentification:
    def test_clutter_speed_estimates_are_dropped(self):
        for velocity in (2.5, -2.5):
            assert match([path(10e3, velocity)], [path(10e3, velocity)]) == []
        assert match([path(10e3, 3.5)], [path(10e3, 3.5)]) == [(0, 0)]

    def test_miss_at_the_gate_is_rejected(self):
        truth = Path(alpha=1.0, phi=0.1, psi=0.0)
        at_gate = Path(alpha=1.0, phi=0.1, psi=1.0 / (4 * CONFIG.N))
        assert normalized_to_physical(at_gate.phi, at_gate.psi, CONFIG)[0] == RANGE_GATE
        assert match([truth], [at_gate]) == []
        inside = Path(alpha=1.0, phi=0.1, psi=float(np.nextafter(at_gate.psi, 0.0)))
        assert match([truth], [inside]) == [(0, 0)]

    def test_nearest_pair_wins(self):
        assert match([path(10e3, 50.0)], [path(10.4e3, 50.0), path(10.1e3, 50.0)]) == [(0, 1)]
        assert match([path(10e3, 50.0), path(10.5e3, 50.0)], [path(10.4e3, 50.0)]) == [(1, 0)]

    def test_each_target_and_estimate_used_once(self):
        truth = [path(10e3, 50.0), path(10.3e3, 50.0)]
        estimates = [path(10.1e3, 50.0), path(10.05e3, 50.0), path(10.02e3, 50.0)]
        # Nearest first: estimate 2 takes target 0; estimate 0 is then the
        # nearest left for target 1, and estimate 1 matches nothing.
        assert match(truth, estimates) == [(0, 2), (1, 0)]
