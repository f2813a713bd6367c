import numpy as np
import pytest

from ofdmradar import (ConfigError, DegenerateDictionaryError, Path, Scene,
                       SolverConfig, atom, detect_error_support, dual_polynomial,
                       dual_poly_grid, estimate_from_solution, generate_symbols,
                       locate_peaks, ls_amplitudes, measure, qpsk, refine_peak,
                       simulate, solve)
from conftest import small_config


class TestDualPolynomial:
    def test_self_inner_product(self):
        M, N = 4, 5
        nu = atom(0.3, 0.6, M, N)
        assert dual_polynomial(nu, 0.3, 0.6, M, N) == pytest.approx(M * N)

    def test_zero_vector(self):
        assert dual_polynomial(np.zeros(12), 0.1, 0.9, 3, 4) == 0

    def test_matches_double_loop(self, rng):
        M, N = 3, 4
        nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        for phi, psi in [(0.12, 0.77), (0.5, 0.25), (0.9, 0.01)]:
            want = 0j
            for n in range(N):
                for m in range(M):
                    a = np.exp(1j * (2 * np.pi * m * phi - 2 * np.pi * n * psi))
                    want += nu[n * M + m] * np.conj(a)
            assert dual_polynomial(nu, phi, psi, M, N) == pytest.approx(want)

    def test_grid_matches_pointwise(self, rng):
        M, N = 3, 3
        nu = rng.normal(size=9) + 1j * rng.normal(size=9)
        G = dual_poly_grid(nu, M, N, 12, 15)
        for p in (0, 5, 11):
            for q in (0, 7, 14):
                assert G[p, q] == pytest.approx(
                    dual_polynomial(nu, p / 12, q / 15, M, N))


class TestLocatePeaks:
    def test_rank_one_certificate(self):
        M = N = 8
        lam = 2.5
        nu = (lam / (M * N)) * atom(0.3, 0.7, M, N)
        peaks = locate_peaks(nu, lam, M, N)
        assert len(peaks) == 1
        assert peaks[0].phi == pytest.approx(0.3, abs=1e-6)
        assert peaks[0].psi == pytest.approx(0.7, abs=1e-6)
        assert peaks[0].magnitude == pytest.approx(lam, rel=1e-9)

    def test_small_dual_vector_gives_nothing(self, rng):
        M = N = 8
        nu = rng.normal(size=64) + 1j * rng.normal(size=64)
        nu *= 0.5 / (np.abs(nu).max() * M * N)  # way below threshold
        assert locate_peaks(nu, 10.0, M, N) == []

    def test_grid_independence_of_refinement(self):
        M = N = 8
        lam = 1.0
        nu = (lam / (M * N)) * (atom(0.21, 0.43, M, N) + atom(0.7, 0.9, M, N))
        a = locate_peaks(nu, 0.5 * lam, M, N, grid_factor=16)
        b = locate_peaks(nu, 0.5 * lam, M, N, grid_factor=32)
        assert len(a) == len(b)
        for pa, pb in zip(sorted(a, key=lambda p: p.phi), sorted(b, key=lambda p: p.phi)):
            assert abs(pa.phi - pb.phi) < 1e-6
            assert abs(pa.psi - pb.psi) < 1e-6

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            locate_peaks(np.zeros(16), 0.0, 4, 4)


class TestRefinePeak:
    def test_converges_to_true_maximum(self):
        M = N = 6
        nu = atom(0.377, 0.612, M, N)
        # start one grid cell off
        pk = refine_peak(nu, 0.377 + 1 / (16 * M), 0.612 - 1 / (16 * N), M, N)
        assert pk.phi == pytest.approx(0.377, abs=1e-8)
        assert pk.psi == pytest.approx(0.612, abs=1e-8)


class TestErrorSupport:
    def test_mu_zero_not_applicable(self):
        assert detect_error_support(np.ones(4), 0.0, 1.0) == ()

    def test_thresholding(self):
        e = np.array([0.0, 1e-3, 0.5, 0.0])
        assert detect_error_support(e, 0.1, 1.0) == (1, 2)


class TestLsAmplitudes:
    def test_exact_single_path(self):
        cfg = small_config(4, 4, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(2 + 1j, 0.3, 0.8),))
        meas = simulate(scene, cfg, qpsk(), 0.0, 0)
        alpha = ls_amplitudes(meas.r_bar, meas.s_tilde, None, [(0.3, 0.8)], 4, 4)
        assert alpha[0] == pytest.approx(2 + 1j, abs=1e-10)

    def test_two_paths_match_normal_equations(self, rng):
        M = N = 6
        cfg = small_config(M, N, noise_power_db=-np.inf)
        paths = (Path(1.5, 0.2, 0.3), Path(0.5j, 0.7, 0.8))
        meas = simulate(Scene(targets=paths), cfg, qpsk(), 0.0, 1)
        freqs = [(0.2, 0.3), (0.7, 0.8)]
        got = ls_amplitudes(meas.r_bar, meas.s_tilde, None, freqs, M, N)
        # independent oracle: explicit normal equations
        A = np.stack([meas.s_tilde * atom(p, s, M, N) for p, s in freqs], axis=1)
        want = np.linalg.solve(A.conj().T @ A, A.conj().T @ meas.r_bar)
        assert np.allclose(got, want, atol=1e-8)
        assert np.allclose(got, [1.5, 0.5j], atol=1e-8)

    def test_duplicate_frequencies_degenerate(self):
        cfg = small_config(4, 4)
        meas = simulate(Scene(targets=(Path(1.0, 0.3, 0.8),)), cfg, qpsk(), 0.0, 2)
        with pytest.raises(DegenerateDictionaryError) as err:
            ls_amplitudes(meas.r_bar, meas.s_tilde, None,
                          [(0.3, 0.8), (0.3, 0.8)], 4, 4)
        assert err.value.pairs

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ls_amplitudes(np.zeros(4), np.ones(4), None, [], 2, 2)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def solve_noiseless(self):
        # One 8000-iteration solve, shared by the tests that only read it.
        M = N = 8
        cfg = small_config(M, N, noise_power_db=-120.0)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.8 * np.exp(0.7j), 0.62, 0.75)))
        meas = simulate(scene, cfg, qpsk(), 0.0, 0)
        lam = 0.05
        sol = solve(meas, SolverConfig(lam=lam, mu=0.0, max_iters=8000, tol=1e-7))
        return cfg, scene, meas, lam, sol

    def test_peaks_at_planted_frequencies(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        peaks = locate_peaks(sol.nu_hat, lam, 8, 8)
        found = sorted((p.phi, p.psi) for p in peaks)
        assert len(found) >= 2
        for p in scene.targets:
            best = min(peaks, key=lambda pk: abs(pk.phi - p.phi) + abs(pk.psi - p.psi))
            assert abs(best.phi - p.phi) < 1e-3
            assert abs(best.psi - p.psi) < 1e-3

    def test_certificate_phase_matches_amplitude_phase(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        est = estimate_from_solution(sol, meas, lam, 0.0)
        peaks = locate_peaks(sol.nu_hat, lam, 8, 8)
        for path in est.paths[:2]:
            pk = min(peaks, key=lambda q: abs(q.phi - path.phi) + abs(q.psi - path.psi))
            phase_q = np.angle(pk.value)
            phase_a = np.angle(path.alpha)
            dphase = np.angle(np.exp(1j * (phase_q - phase_a)))
            assert abs(dphase) < np.deg2rad(5)

    def test_noiseless_single_error_support(self):
        M = N = 8
        cfg = small_config(M, N, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.8, 0.62, 0.75)))
        from ofdmradar import bpsk
        S = generate_symbols(cfg, bpsk(), 3)
        S_hat = S.copy()
        S_hat[3, 4] = -S_hat[3, 4]
        meas = measure(scene, S, S_hat, cfg, 4)
        sol = solve(meas, SolverConfig(lam=0.16, mu=0.02, max_iters=6000, tol=1e-6))
        est = estimate_from_solution(sol, meas, 0.16, 0.02)
        assert est.error_support == (4 * M + 3,)

    def test_paths_sorted_by_magnitude(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        est = estimate_from_solution(sol, meas, lam, 0.0)
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)

