import dataclasses

import numpy as np

from ofdmradar import preset, simulate_trial


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
