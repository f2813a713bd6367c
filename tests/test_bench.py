import dataclasses
import math

import numpy as np
import pytest

from ofdmradar import (ConfigError, NumericError, Path, admm, baselines, bench, extract,
                       gate_identification, gates, normalized_to_physical,
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

    @pytest.mark.parametrize("index", [0, 1])
    def test_scene_and_noise_do_not_depend_on_ber(self, index):
        # The error draw has one shape at every BER, so the noise after it is shared.
        scene0, meas0 = simulate_trial(preset("rmse1"), 0.0, index)
        for ber in (1e-3, 1e-2, 1e-1, 0.5):
            scene, meas = simulate_trial(preset("rmse1"), ber, index)
            assert scene == scene0
            assert np.array_equal(meas.v_bar_true, meas0.v_bar_true)


class TestScenarioSpec:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            dataclasses.replace(preset("rmse1"), seed=-1)
        assert dataclasses.replace(preset("rmse1"), seed=0).seed == 0

    def test_negative_trial_rejected(self):
        with pytest.raises(ConfigError, match="trial"):
            simulate_trial(preset("rmse1"), 0.0, -1)


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


def written_out_dispatch(name, measurement, config, n_paths):
    """The benchmark protocol spelled out: 600 ADMM sweeps, MUSIC at min(K, 15) on a 4x grid."""
    M, N = measurement.M, measurement.N
    if name in ("CS-ANL1", "CS-AN"):
        lam, mu = admm.default_weights(config.sigma, M, N)
        if name == "CS-AN":
            mu = 0.0
        solution = admm.solve(measurement, admm.SolverConfig(lam=lam, mu=mu, max_iters=600))
        return extract.estimate_from_solution(solution, measurement, lam, mu)
    if name == "CS-L1":
        return baselines.csl1_estimate(measurement,
                                       baselines.default_csl1_config(M, N, config.sigma))
    cfg = baselines.default_music_config(M, N, K_signal=min(n_paths, 15), grid_factor=4)
    return baselines.music_estimate(measurement, cfg)


class TestRunAlgorithm:
    SPEC = dataclasses.replace(
        preset("rmse1"), config=dataclasses.replace(preset("rmse1").config, M=8, N=8))

    @pytest.mark.parametrize("name, n_paths", [("CS-ANL1", 9), ("CS-AN", 9), ("CS-L1", 9),
                                               ("2D-MUSIC", 9), ("2D-MUSIC", 40)])
    def test_equals_the_written_out_dispatch(self, name, n_paths):
        _, measurement = simulate_trial(self.SPEC, 1e-2, 0)
        got = bench.run_algorithm(name, measurement, self.SPEC.config, n_paths)
        assert got.paths
        assert got == written_out_dispatch(name, measurement, self.SPEC.config, n_paths)

    def test_unknown_name_is_a_config_error(self):
        _, measurement = simulate_trial(self.SPEC, 1e-2, 0)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            bench.run_algorithm("CS-XYZ", measurement, self.SPEC.config, 3)

    def test_iteration_cap_reaches_the_dual_receivers_only(self):
        _, measurement = simulate_trial(self.SPEC, 1e-2, 0)
        caps = {name: bench.receiver_settings(name, measurement, self.SPEC.config, 3, 7,
                                              4).max_iters
                for name in ("CS-ANL1", "CS-AN", "CS-L1")}
        assert caps == {"CS-ANL1": 7, "CS-AN": 7,
                        "CS-L1": baselines.default_csl1_config(8, 8, 1.0).max_iters}


class TestRunBenchmark:
    SPEC = dataclasses.replace(TestRunAlgorithm.SPEC, seed=7, trials=2)

    def test_failed_trial_is_recorded_and_left_out_of_its_row(self, monkeypatch):
        # MUSIC raises on its second trial; CS-L1 runs both.
        run_algorithm, music_calls = bench.run_algorithm, []

        def failing_on_music_trial_1(name, *args, **kwargs):
            if name == "2D-MUSIC":
                music_calls.append(name)
                if len(music_calls) == 2:
                    raise NumericError("non-finite iterate at iteration 4", iteration=4)
            return run_algorithm(name, *args, **kwargs)

        monkeypatch.setattr(bench, "run_algorithm", failing_on_music_trial_1)
        seen = []
        report = bench.run_benchmark(self.SPEC, ("CS-L1", "2D-MUSIC"), [1e-2],
                                     progress=seen.append)
        assert seen == report.trials
        assert [(r.algorithm, r.trial, r.failed) for r in report.trials] == [
            ("CS-L1", 0, False), ("2D-MUSIC", 0, False),
            ("CS-L1", 1, False), ("2D-MUSIC", 1, True)]
        failed = report.trials[3]
        assert failed.failure == "non-finite iterate at iteration 4"
        assert (failed.n_matched, failed.sq_range_error, failed.sq_velocity_error) == (0, 0.0, 0.0)
        assert all(r.failure == "" for r in report.trials[:3])
        csl1_row, music_row = report.rows
        assert (csl1_row.trials_used, music_row.trials_used) == (2, 1)
        music_0 = report.trials[1]
        assert music_0.n_matched > 0
        assert music_row.range_rmse_m == math.sqrt(music_0.sq_range_error / music_0.n_matched)
        assert music_row.identification_rate == music_0.n_matched / 3
