import math

import numpy as np
import pytest

from ofdmradar import (ConfigError, CsL1Config, MusicConfig, NumericError, Path,
                       Scene, csl1_estimate, default_csl1_config,
                       default_music_config, dual_poly_grid, music_estimate,
                       music_spectrum, qpsk, simulate, spatial_smooth)
from ofdmradar.baselines import _synthesize, csl1_dictionary
from ofdmradar.extract import _dft_factors
from ofdmradar.operators import _shrink, soft_threshold
from conftest import small_config


def noiseless_measurement(M=8, N=8, paths=((1.0, 0.2, 0.3),), seed=0):
    cfg = small_config(M, N, noise_power_db=-300.0)
    scene = Scene(targets=tuple(Path(a, p, s) for a, p, s in paths))
    return cfg, scene, simulate(scene, cfg, qpsk(), 0.0, seed)


class TestSpatialSmooth:
    def test_degenerate_single_cell(self):
        cfg, scene, meas = noiseless_measurement(M=2, N=2)
        Y = spatial_smooth(meas, MusicConfig(M_sub=1, N_sub=1, K_signal=1))
        Rn = meas.r_bar.reshape(2, 2, order="F") / meas.S_hat
        assert Y.shape == (1, 4)
        # anchor order: subcarrier index fastest
        assert np.allclose(Y[0], [Rn[0, 0], Rn[0, 1], Rn[1, 0], Rn[1, 1]])

    def test_index_oracle(self):
        M, N = 4, 4
        cfg, scene, meas = noiseless_measurement(M=M, N=N, seed=3)
        Ms, Ns = M - 1, N - 1
        Y = spatial_smooth(meas, MusicConfig(M_sub=Ms, N_sub=Ns, K_signal=1))
        assert Y.shape == (Ms * Ns, 4)
        Rn = meas.r_bar.reshape(M, N, order="F") / meas.S_hat
        for m in range(2):
            for n in range(2):
                col = m * 2 + n
                for q in range(Ns):
                    for p in range(Ms):
                        assert Y[q * Ms + p, col] == Rn[m + p, n + q]

    def test_single_path_rank_one(self):
        cfg, scene, meas = noiseless_measurement(M=8, N=8)
        Y = spatial_smooth(meas, MusicConfig(M_sub=4, N_sub=4, K_signal=1))
        svals = np.linalg.svd(Y, compute_uv=False)
        assert svals[0] > 1e-6
        assert svals[1] / svals[0] < 1e-10

    def test_bad_subarray_rejected(self):
        cfg, scene, meas = noiseless_measurement()
        with pytest.raises(ConfigError):
            spatial_smooth(meas, MusicConfig(M_sub=8, N_sub=4, K_signal=1))


class TestMusicSpectrum:
    def test_single_path_peak_within_cell(self):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),))
        mcfg = default_music_config(8, 8, K_signal=1)
        spec = music_spectrum(spatial_smooth(meas, mcfg), mcfg)
        p, q = np.unravel_index(np.argmax(spec), spec.shape)
        assert abs(p / mcfg.grid_phi - 0.37) <= 1.0 / mcfg.grid_phi
        assert abs(q / mcfg.grid_psi - 0.81) <= 1.0 / mcfg.grid_psi

    def test_two_paths_two_maxima(self):
        cfg, scene, meas = noiseless_measurement(
            paths=((1.0, 0.2, 0.3), (0.8, 0.62, 0.75)), seed=5)
        mcfg = default_music_config(8, 8, K_signal=2)
        spec = music_spectrum(spatial_smooth(meas, mcfg), mcfg)
        est = music_estimate(meas, mcfg)
        assert len(est.paths) == 2
        for truth in scene.targets:
            best = min(est.paths, key=lambda e: abs(e.phi - truth.phi) + abs(e.psi - truth.psi))
            assert abs(best.phi - truth.phi) <= 1.0 / mcfg.grid_phi
            assert abs(best.psi - truth.psi) <= 1.0 / mcfg.grid_psi

    def test_zero_signal_dimension_rejected(self):
        cfg, scene, meas = noiseless_measurement()
        mcfg = MusicConfig(M_sub=4, N_sub=4, K_signal=0)
        with pytest.raises(ConfigError):
            music_spectrum(spatial_smooth(meas, mcfg), mcfg)

    def test_scale_invariant_argmax(self, rng):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),), seed=6)
        mcfg = default_music_config(8, 8, K_signal=1)
        Y = spatial_smooth(meas, mcfg)
        ref = np.unravel_index(np.argmax(music_spectrum(Y, mcfg)), (128, 128))
        for _ in range(5):
            c = rng.normal() + 1j * rng.normal()
            if abs(c) < 1e-3:
                continue
            got = np.unravel_index(np.argmax(music_spectrum(c * Y, mcfg)), (128, 128))
            assert got == ref

    def test_matches_fft_formula(self, rng):
        mcfg = MusicConfig(M_sub=3, N_sub=4, K_signal=2, grid_phi=12, grid_psi=20)
        Y = rng.normal(size=(12, 9)) + 1j * rng.normal(size=(12, 9))
        # Reference: conjugated noise vectors through an ifft/fft pair.
        F = np.linalg.svd(Y)[0]
        mats = np.conj(F[:, 2:]).reshape(3, 4, -1, order="F")
        X = np.fft.ifft(mats, n=12, axis=0) * 12
        X = np.fft.fft(X, n=20, axis=1)
        want = 1.0 / np.sum(np.abs(X) ** 2, axis=2)
        assert np.allclose(music_spectrum(Y, mcfg), want, rtol=1e-12, atol=0)

    def test_auto_dimension_single_path(self):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),), seed=7)
        mcfg = default_music_config(8, 8, K_signal="auto")
        est = music_estimate(meas, mcfg)
        assert len(est.paths) == 1
        assert abs(est.paths[0].phi - 0.37) <= 1.0 / mcfg.grid_phi


GRID_SIZES = [(2, 3, 4, 6), (3, 2, 6, 4), (8, 8, 32, 32)]


class TestCsL1Operators:
    """DFT-factor operators of the CS-L1 solver against the dense dictionary."""

    @pytest.mark.parametrize("M, N, Mg, Ng", GRID_SIZES)
    def test_forward(self, rng, M, N, Mg, Ng):
        x = rng.normal(size=Mg * Ng) + 1j * rng.normal(size=Mg * Ng)
        want = csl1_dictionary(M, N, Mg, Ng) @ x
        assert np.allclose(_synthesize(x, M, N, Mg, Ng), want, rtol=0, atol=1e-12 * Mg * Ng)

    @pytest.mark.parametrize("M, N, Mg, Ng", GRID_SIZES)
    def test_adjoint(self, rng, M, N, Mg, Ng):
        y = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        want = csl1_dictionary(M, N, Mg, Ng).conj().T @ y
        got = dual_poly_grid(y, M, N, Mg, Ng).ravel(order="F")
        assert np.allclose(got, want, rtol=0, atol=1e-12 * M * N)

    @pytest.mark.parametrize("M, N, Mg, Ng", GRID_SIZES)
    def test_closed_form_lipschitz(self, rng, M, N, Mg, Ng):
        s = rng.uniform(0.5, 2.0, M * N) * np.exp(2j * np.pi * rng.uniform(size=M * N))
        A = s[:, None] * csl1_dictionary(M, N, Mg, Ng)
        assert Mg * Ng * np.max(np.abs(s)) ** 2 == pytest.approx(np.linalg.norm(A, 2) ** 2,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("M, N, Mg, Ng", [(3, 5, 7, 11), (16, 4, 64, 12)])
    def test_adjoint_identity(self, rng, M, N, Mg, Ng):
        y = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        X = rng.normal(size=(Mg, Ng)) + 1j * rng.normal(size=(Mg, Ng))
        lhs = np.vdot(dual_poly_grid(y, M, N, Mg, Ng), X)
        rhs = np.vdot(y, _synthesize(X, M, N, Mg, Ng))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_factors_are_read_only(self):
        for factor in _dft_factors(3, 5, 7, 11):
            with pytest.raises(ValueError):
                factor[0, 0] = 0

    @pytest.mark.parametrize("Mg, Ng", [(2, 11), (7, 4), (0, 11)])
    def test_coarse_grid_rejected(self, rng, Mg, Ng):
        y = rng.normal(size=15) + 0j
        with pytest.raises(ConfigError):
            dual_poly_grid(y, 3, 5, Mg, Ng)
        with pytest.raises(ConfigError):
            _synthesize(np.zeros(Mg * Ng, dtype=complex), 3, 5, Mg, Ng)


class TestCsL1:
    def test_on_grid_exact_support(self):
        M = N = 8
        grid = 32
        cfg, scene, meas = noiseless_measurement(
            M=M, N=N, paths=((1.0, 8 / grid, 12 / grid),), seed=8)
        gamma = 0.01 * np.linalg.norm(meas.r_bar)
        est = csl1_estimate(meas, CsL1Config(M_grid=grid, N_grid=grid, gamma=gamma,
                                             max_iters=6000, tol=1e-12))
        assert len(est.paths) == 1
        assert est.paths[0].phi == 8 / grid
        assert est.paths[0].psi == 12 / grid
        assert abs(est.paths[0].alpha) == pytest.approx(1.0, rel=0.1)

    def test_subgradient_certificate(self):
        M = N = 8
        grid = 32
        cfg, scene, meas = noiseless_measurement(
            M=M, N=N, paths=((1.0, 8 / grid, 12 / grid),), seed=9)
        gamma = 0.01 * np.linalg.norm(meas.r_bar)
        ccfg = CsL1Config(M_grid=grid, N_grid=grid, gamma=gamma,
                          max_iters=8000, tol=1e-13)
        est = csl1_estimate(meas, ccfg)
        A = meas.s_tilde[:, None] * csl1_dictionary(M, N, grid, grid)
        x = np.zeros(A.shape[1], dtype=complex)
        for p in est.paths:
            x[int(round(p.psi * grid)) * grid + int(round(p.phi * grid))] = p.alpha
        corr = np.abs(A.conj().T @ (meas.r_bar - A @ x))
        tol = 1e-3
        assert corr.max() <= gamma * (1 + tol)
        on_support = corr[np.abs(x) > 0]
        assert np.all(np.abs(on_support - gamma) <= gamma * tol)

    def test_large_gamma_gives_zero(self):
        M = N = 8
        cfg, scene, meas = noiseless_measurement(M=M, N=N, seed=10)
        A = meas.s_tilde[:, None] * csl1_dictionary(M, N, 16, 16)
        g0 = np.abs(A.conj().T @ meas.r_bar).max()
        est = csl1_estimate(meas, CsL1Config(M_grid=16, N_grid=16, gamma=1.01 * g0,
                                             max_iters=500, tol=1e-12))
        assert est.paths == ()

    def test_off_grid_support_splits(self):
        M = N = 8
        grid = 32
        off = (8.5 / grid, 12.5 / grid)  # halfway between lattice points
        cfg, scene, meas = noiseless_measurement(M=M, N=N, paths=((1.0,) + off,),
                                                 seed=11)
        gamma = 0.01 * np.linalg.norm(meas.r_bar)
        est = csl1_estimate(meas, CsL1Config(M_grid=grid, N_grid=grid, gamma=gamma,
                                             max_iters=6000, tol=1e-12))
        near = [p for p in est.paths
                if abs(p.phi - off[0]) < 3 / grid and abs(p.psi - off[1]) < 3 / grid]
        assert len(near) >= 2

    @pytest.mark.parametrize("M, N", [(4, 4), (3, 5)])
    def test_matches_two_synthesis_reference(self, M, N):
        # Reference: the loop that synthesizes y for the gradient and x for
        # the objective, on flat column-major iterates; it counts restarts.
        def reference(meas, ccfg):
            Mg, Ng = ccfg.M_grid, ccfg.N_grid
            s, r, gamma = meas.s_tilde, meas.r_bar, ccfg.gamma

            def forward(v):
                return s * _synthesize(v, M, N, Mg, Ng)

            L = 1.01 * Mg * Ng * float(np.max(np.abs(s))) ** 2
            x = y = np.zeros(Mg * Ng, dtype=complex)
            tau, restarts = 1.0, 0
            obj_prev = 0.5 * float(np.vdot(r, r).real)
            for _ in range(ccfg.max_iters):
                grad = dual_poly_grid(np.conj(s) * (forward(y) - r), M, N, Mg, Ng)
                x_new = soft_threshold(y - grad.ravel(order="F") / L, gamma / L)
                tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
                y = x_new + ((tau - 1.0) / tau_new) * (x_new - x)
                x, tau = x_new, tau_new
                fit = forward(x) - r
                obj = 0.5 * float(np.vdot(fit, fit).real) + gamma * float(np.sum(np.abs(x)))
                if obj > obj_prev:
                    y, tau = x, 1.0
                    restarts += 1
                elif abs(obj_prev - obj) <= ccfg.tol * max(1.0, abs(obj)):
                    break
                obj_prev = obj
            return x, restarts

        cfg = small_config(M, N, noise_power_db=-20.0)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.6, 0.55, 0.8)))
        meas = simulate(scene, cfg, qpsk(), 0.0, 1)
        ccfg = CsL1Config(4 * M, 4 * N, 0.01 * np.linalg.norm(meas.r_bar),
                          max_iters=3000, tol=1e-12)
        x, restarts = reference(meas, ccfg)
        assert restarts > 0
        mags = np.abs(x)
        sel = np.flatnonzero(mags > 1e-3 * mags.max())
        order = sel[np.argsort(-mags[sel])]
        est = csl1_estimate(meas, ccfg)
        assert [(p.phi, p.psi) for p in est.paths] == [
            ((l % ccfg.M_grid) / ccfg.M_grid, (l // ccfg.M_grid) / ccfg.N_grid) for l in order]
        np.testing.assert_allclose([p.alpha for p in est.paths], x[order], rtol=1e-10, atol=0)

    def test_matches_zero_padded_fft_reference(self):
        # Reference: the FISTA loop with C^H and C applied by zero-padded FFTs.
        M = N = 8
        cfg, meas = fixed_8x8_measurement()
        ccfg = default_csl1_config(M, N, cfg.sigma)
        Mg, Ng = ccfg.M_grid, ccfg.N_grid
        s, r, gamma = meas.s_tilde, meas.r_bar, ccfg.gamma

        def adjoint(y):
            V = y.reshape(M, N, order="F")
            return np.fft.fft(np.fft.ifft(V, n=Ng, axis=1) * Ng, n=Mg, axis=0)

        def synthesize(X):
            Y = np.fft.fft(np.fft.ifft(X, axis=0)[:M] * Mg, axis=1)[:, :N]
            return Y.ravel(order="F")

        L = 1.01 * Mg * Ng * float(np.max(np.abs(s))) ** 2
        x = y = np.zeros((Mg, Ng), dtype=complex)
        Cx = Cy = np.zeros(M * N, dtype=complex)
        tau = 1.0
        obj_prev = 0.5 * float(np.vdot(r, r).real)
        for _ in range(ccfg.max_iters):
            x_new = soft_threshold(y - adjoint(np.conj(s) / L * (s * Cy - r)), gamma / L)
            Cx_new = synthesize(x_new)
            tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
            beta = (tau - 1.0) / tau_new
            y, Cy = x_new + beta * (x_new - x), Cx_new + beta * (Cx_new - Cx)
            x, Cx, tau = x_new, Cx_new, tau_new
            fit = s * Cx - r
            obj = 0.5 * float(np.vdot(fit, fit).real) + gamma * float(np.sum(np.abs(x)))
            if obj > obj_prev:
                y, Cy, tau = x, Cx, 1.0
            elif abs(obj_prev - obj) <= ccfg.tol * max(1.0, abs(obj)):
                break
            obj_prev = obj

        x = x.ravel(order="F")
        mags = np.abs(x)
        sel = np.flatnonzero(mags > 1e-3 * mags.max())
        order = sel[np.argsort(-mags[sel])]
        est = csl1_estimate(meas, ccfg)
        assert len(order) > 1
        assert [(p.phi, p.psi) for p in est.paths] == [
            ((l % Mg) / Mg, (l // Mg) / Ng) for l in order]
        np.testing.assert_allclose([p.alpha for p in est.paths], x[order], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("field, value", [
        ("M_grid", 0), ("N_grid", 0), ("gamma", -0.1), ("gamma", math.nan),
        ("gamma", math.inf), ("max_iters", 0), ("tol", 0.0), ("tol", -1e-10),
        ("tol", math.nan), ("tol", math.inf)])
    def test_config_rejects_out_of_range(self, field, value):
        kwargs = dict(M_grid=32, N_grid=32, gamma=0.1)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            CsL1Config(**kwargs)

    def test_config_accepts_zero_gamma(self):
        assert CsL1Config(M_grid=1, N_grid=1, gamma=0.0, max_iters=1).gamma == 0.0

    @pytest.mark.parametrize("M_grid, N_grid", [(7, 32), (32, 7)])
    def test_coarse_grid_rejected(self, M_grid, N_grid):
        cfg, scene, meas = noiseless_measurement()
        with pytest.raises(ConfigError):
            csl1_estimate(meas, CsL1Config(M_grid=M_grid, N_grid=N_grid, gamma=0.1))

    def test_default_config_formula(self):
        ccfg = default_csl1_config(8, 8, sigma=0.1)
        assert ccfg.M_grid == 32 and ccfg.N_grid == 32
        assert ccfg.gamma == pytest.approx(2 * 0.1 * np.sqrt(2 * np.log(32 * 32)))


def allocating_fista(meas, ccfg):
    """Reference: the FISTA loop that allocates every lattice-sized step.

    It thresholds through ``soft_threshold`` and takes the l1 term as
    sum |x|; it returns x on its lattice and the number of momentum restarts.
    """
    M, N = meas.M, meas.N
    Mg, Ng = ccfg.M_grid, ccfg.N_grid
    s, r, gamma = meas.s_tilde, meas.r_bar, ccfg.gamma
    L = 1.01 * Mg * Ng * float(np.max(np.abs(s))) ** 2
    s_conj_step = np.conj(s) / L
    x = y = np.zeros((Mg, Ng), dtype=complex)
    Cx = Cy = np.zeros(M * N, dtype=complex)
    tau, restarts = 1.0, 0
    obj_prev = 0.5 * float(np.vdot(r, r).real)
    for _ in range(ccfg.max_iters):
        step = dual_poly_grid(s_conj_step * (s * Cy - r), M, N, Mg, Ng)
        x_new = soft_threshold(y - step, gamma / L)
        Cx_new = _synthesize(x_new, M, N, Mg, Ng)
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        beta = (tau - 1.0) / tau_new
        y = x_new + beta * (x_new - x)
        Cy = Cx_new + beta * (Cx_new - Cx)
        x, Cx, tau = x_new, Cx_new, tau_new
        fit = s * Cx - r
        obj = 0.5 * float(np.vdot(fit, fit).real) + gamma * float(np.sum(np.abs(x)))
        if obj > obj_prev:
            y, Cy, tau = x, Cx, 1.0
            restarts += 1
        elif abs(obj_prev - obj) <= ccfg.tol * max(1.0, abs(obj)):
            break
        obj_prev = obj
    return x, restarts


def fixed_8x8_measurement():
    """A fixed 8x8 scene with targets, clutter and demodulation errors."""
    cfg = small_config(8, 8, noise_power_db=-20.0)
    scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.5, 0.62, 0.71)),
                  clutter=(Path(0.8, 0.05, 0.0),))
    return cfg, simulate(scene, cfg, qpsk(), 1e-2, 4)


def restarting_8x8_measurement():
    """An 8x8 scene whose FISTA run takes momentum restarts."""
    cfg = small_config(8, 8, noise_power_db=-20.0)
    scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.6, 0.55, 0.8)))
    return cfg, simulate(scene, cfg, qpsk(), 0.0, 1)


class TestCsL1InPlace:
    """The in-place FISTA loop against the allocating one, and its kernel."""

    @pytest.mark.parametrize("make", [fixed_8x8_measurement, restarting_8x8_measurement])
    def test_matches_allocating_reference(self, make):
        cfg, meas = make()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        x, restarts = allocating_fista(meas, ccfg)
        # Both scenes take the restart branch, where y aliases x.
        assert restarts > 0
        Mg, Ng = ccfg.M_grid, ccfg.N_grid
        x = x.ravel(order="F")
        mags = np.abs(x)
        sel = np.flatnonzero(mags > 1e-3 * mags.max())
        order = sel[np.argsort(-mags[sel])]
        est = csl1_estimate(meas, ccfg)
        assert len(order) > 1
        assert [(p.phi, p.psi) for p in est.paths] == [
            ((l % Mg) / Mg, (l // Mg) / Ng) for l in order]
        assert np.array_equal([p.alpha for p in est.paths], x[order])

    def test_repeatable_and_leaves_input_unmutated(self):
        cfg, meas = restarting_8x8_measurement()
        r_bar, S_hat = meas.r_bar.copy(), meas.S_hat.copy()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        first = csl1_estimate(meas, ccfg)
        assert csl1_estimate(meas, ccfg) == first
        assert np.array_equal(meas.r_bar, r_bar) and np.array_equal(meas.s_tilde, S_hat.ravel("F"))

    @staticmethod
    def threshold_inputs():
        # Zeros of both signs, magnitudes below, at and above mu, subnormals
        # and non-finite entries, in every sign combination.
        parts = np.array([0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 2.0, -2.0, 5e-324, -1e-310,
                          np.inf, -np.inf, np.nan])
        v = np.empty((13, 13), dtype=complex)
        v.real, v.imag = parts[:, None], parts[None, :]
        return v

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_kernel_matches_soft_threshold_bitwise(self, mu):
        v = self.threshold_inputs()
        with np.errstate(invalid="ignore"):
            want = soft_threshold(v, mu)
            want_shrunk = np.maximum(np.abs(v) - mu, 0)
            v_before = v.copy()
            x, shrunk = _shrink(v, mu)
            assert np.array_equal(v.view(np.uint64), v_before.view(np.uint64))
            buf = v.copy()
            mag, shrunk_buf = np.empty(v.shape), np.empty(v.shape)
            x_buf, shrunk_out = _shrink(buf, mu, mag, shrunk_buf)
        assert x_buf is buf and shrunk_out is shrunk_buf
        for got in (x, x_buf):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for got in (shrunk, shrunk_out):
            assert np.array_equal(got.view(np.uint64), want_shrunk.view(np.uint64))

class TestEstimateContract:
    def test_music_paths_sorted(self):
        cfg, scene, meas = noiseless_measurement(
            paths=((1.0, 0.2, 0.3), (0.4, 0.62, 0.75)), seed=12)
        est = music_estimate(meas, default_music_config(8, 8, K_signal=2))
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)

    def test_csl1_paths_sorted(self):
        cfg, scene, meas = noiseless_measurement(
            M=8, N=8, paths=((1.0, 8 / 32, 12 / 32), (0.5, 20 / 32, 28 / 32)), seed=13)
        gamma = 0.01 * np.linalg.norm(meas.r_bar)
        est = csl1_estimate(meas, CsL1Config(32, 32, gamma, max_iters=4000, tol=1e-11))
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)
