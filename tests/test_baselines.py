import dataclasses
import math

import numpy as np
import pytest

from ofdmradar import (ConfigError, CsL1Config, MusicConfig, NumericError, Path,
                       Scene, atoms, csl1_estimate, default_csl1_config,
                       default_music_config, dual_poly_grid, music_estimate,
                       music_spectrum, qpsk, simulate, spatial_smooth)
from ofdmradar import baselines
from ofdmradar.baselines import (CSL1_GAP_EVERY, CSL1_PENALTY, CSL1_POLISH_ATOMS,
                                 CSL1_POLISH_MARGIN, CSL1_POLISH_ROUNDS, CSL1_POLISH_WINDOW,
                                 CSL1_RELAXATION, _csl1_solve, _synthesize, csl1_dictionary)
from ofdmradar.extract import _dft_factors
from ofdmradar.operators import _shrink, soft_threshold
from conftest import residual_at_w_gap, small_config


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


class TestMusicConfig:
    @pytest.mark.parametrize("value", [2.5, 4.0, True, np.float64(4.0), "4", 0])
    @pytest.mark.parametrize("field", ["M_sub", "N_sub", "grid_phi", "grid_psi"])
    def test_sizes_must_be_whole_numbers(self, field, value):
        kwargs = dict(M_sub=4, N_sub=4, K_signal=2)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            MusicConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2", "AUTO", None])
    def test_signal_dimension_is_auto_or_a_whole_number(self, value):
        with pytest.raises(ConfigError, match="K_signal"):
            MusicConfig(M_sub=4, N_sub=4, K_signal=value)

    def test_numpy_integers_accepted(self):
        cfg = MusicConfig(M_sub=np.int64(4), N_sub=np.int32(4), K_signal=np.int64(2),
                          grid_phi=np.int64(64), grid_psi=64)
        meas = noiseless_measurement(paths=((1.0, 0.37, 0.81), (0.8, 0.62, 0.2)))[2]
        assert music_spectrum(spatial_smooth(meas, cfg), cfg)[1] == 2


class TestMusicSpectrum:
    def test_single_path_peak_within_cell(self):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),))
        mcfg = dataclasses.replace(default_music_config(8, 8), K_signal=1)
        spec, k = music_spectrum(spatial_smooth(meas, mcfg), mcfg)
        assert k == 1
        p, q = np.unravel_index(np.argmax(spec), spec.shape)
        assert abs(p / mcfg.grid_phi - 0.37) <= 1.0 / mcfg.grid_phi
        assert abs(q / mcfg.grid_psi - 0.81) <= 1.0 / mcfg.grid_psi

    def test_two_paths_two_maxima(self):
        cfg, scene, meas = noiseless_measurement(
            paths=((1.0, 0.2, 0.3), (0.8, 0.62, 0.75)), seed=5)
        mcfg = dataclasses.replace(default_music_config(8, 8), K_signal=2)
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

    def test_observation_with_another_row_count_rejected(self):
        cfg, scene, meas = noiseless_measurement()
        mcfg = dataclasses.replace(default_music_config(8, 8), K_signal=1)
        observation = spatial_smooth(meas, mcfg)
        with pytest.raises(ConfigError, match="observation must have"):
            music_spectrum(observation[1:], mcfg)

    def test_svd_failure_is_a_numeric_error(self, monkeypatch):
        cfg, scene, meas = noiseless_measurement()
        mcfg = dataclasses.replace(default_music_config(8, 8), K_signal=1)
        observation = spatial_smooth(meas, mcfg)

        def failing_svd(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericError, match="SVD failed"):
            music_spectrum(observation, mcfg)

    def test_scale_invariant_argmax(self, rng):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),), seed=6)
        mcfg = dataclasses.replace(default_music_config(8, 8), K_signal=1)
        Y = spatial_smooth(meas, mcfg)
        ref = np.unravel_index(np.argmax(music_spectrum(Y, mcfg)[0]), (128, 128))
        for _ in range(5):
            c = rng.normal() + 1j * rng.normal()
            if abs(c) < 1e-3:
                continue
            got = np.unravel_index(np.argmax(music_spectrum(c * Y, mcfg)[0]), (128, 128))
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
        spectrum, k = music_spectrum(Y, mcfg)
        assert k == 2 and np.allclose(spectrum, want, rtol=1e-12, atol=0)

    def test_auto_dimension_single_path(self):
        cfg, scene, meas = noiseless_measurement(paths=((1.0, 0.37, 0.81),), seed=7)
        mcfg = default_music_config(8, 8)
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
    def test_dictionary_is_the_lattice_atoms(self, M, N, Mg, Ng):
        lattice = [(p / Mg, q / Ng) for q in range(Ng) for p in range(Mg)]
        assert np.array_equal(csl1_dictionary(M, N, Mg, Ng), atoms(lattice, M, N))

    @pytest.mark.parametrize("Mg, Ng", [(2, 11), (7, 4)])
    def test_dictionary_coarser_than_the_data_rejected(self, Mg, Ng):
        with pytest.raises(ConfigError, match="at least as fine as the data"):
            csl1_dictionary(3, 5, Mg, Ng)

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

    def test_large_gamma_runs_no_iteration(self):
        cfg, scene, meas = noiseless_measurement(seed=10)
        A = meas.s_tilde[:, None] * csl1_dictionary(8, 8, 16, 16)
        g0 = np.abs(A.conj().T @ meas.r_bar).max()
        ccfg = CsL1Config(M_grid=16, N_grid=16, gamma=(1 + 1e-9) * g0)
        w, iterations, gap = _csl1_solve(meas, ccfg)
        assert iterations == 0 and gap == 0.0 and not w.any()

    def test_zero_gamma_rejected(self):
        cfg, scene, meas = noiseless_measurement()
        with pytest.raises(ConfigError, match="gamma"):
            csl1_estimate(meas, CsL1Config(M_grid=32, N_grid=32, gamma=0.0))

    @pytest.mark.parametrize("field, value", [
        ("M_grid", 0), ("N_grid", 0), ("gamma", -0.1), ("gamma", math.nan),
        ("gamma", math.inf), ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True),
        ("max_iters", math.nan), ("max_iters", "10"), ("tol", 0.0), ("tol", -1e-10),
        ("tol", math.nan), ("tol", math.inf)])
    def test_config_rejects_out_of_range(self, field, value):
        kwargs = dict(M_grid=32, N_grid=32, gamma=0.1)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            CsL1Config(**kwargs)

    @pytest.mark.parametrize("value", [32.5, 32.0, True, np.float64(32.0), "32", -1])
    @pytest.mark.parametrize("field", ["M_grid", "N_grid"])
    def test_grid_sizes_must_be_whole_numbers(self, field, value):
        kwargs = dict(M_grid=32, N_grid=32, gamma=0.1)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            CsL1Config(**kwargs)

    def test_config_accepts_numpy_integer_grid_sizes(self):
        cfg = CsL1Config(M_grid=np.int64(32), N_grid=np.int32(16), gamma=0.1)
        assert (cfg.M_grid, cfg.N_grid) == (32, 16)

    def test_config_accepts_zero_gamma(self):
        assert CsL1Config(M_grid=1, N_grid=1, gamma=0.0, max_iters=1).gamma == 0.0

    def test_config_accepts_a_numpy_integer_cap(self):
        assert CsL1Config(M_grid=1, N_grid=1, gamma=0.1, max_iters=np.int64(3)).max_iters == 3

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
    """Oracle: restarting FISTA on CS-L1's program, allocating every step.

    It thresholds through ``soft_threshold``, takes the l1 term as sum |x|,
    stops on relative objective change below ``ccfg.tol`` and returns x on
    its lattice.
    """
    M, N = meas.M, meas.N
    Mg, Ng = ccfg.M_grid, ccfg.N_grid
    s, r, gamma = meas.s_tilde, meas.r_bar, ccfg.gamma
    L = 1.01 * Mg * Ng * float(np.max(np.abs(s))) ** 2
    s_conj_step = np.conj(s) / L
    x = y = np.zeros((Mg, Ng), dtype=complex)
    Cx = Cy = np.zeros(M * N, dtype=complex)
    tau = 1.0
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
        elif abs(obj_prev - obj) <= ccfg.tol * max(1.0, abs(obj)):
            break
        obj_prev = obj
    return x


def fixed_8x8_measurement():
    """A fixed 8x8 scene with targets, clutter and demodulation errors."""
    cfg = small_config(8, 8, noise_power_db=-20.0)
    scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.5, 0.62, 0.71)),
                  clutter=(Path(0.8, 0.05, 0.0),))
    return cfg, simulate(scene, cfg, qpsk(), 1e-2, 4)


def two_target_measurement(M, N):
    """Two targets at -20 dB noise, without demodulation errors."""
    cfg = small_config(M, N, noise_power_db=-20.0)
    scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.6, 0.55, 0.8)))
    return cfg, simulate(scene, cfg, qpsk(), 0.0, 1)


MEASUREMENTS = {
    "fixed-8x8": fixed_8x8_measurement,
    "two-target-8x8": lambda: two_target_measurement(8, 8),
    "two-target-4x4": lambda: two_target_measurement(4, 4),
    "two-target-3x5": lambda: two_target_measurement(3, 5),
}


def dense_dual(A, r, gamma, nu):
    """D(theta nu) with nu scaled into |A^H nu| <= gamma."""
    theta = min(1.0, gamma / np.abs(A.conj().T @ nu).max())
    return theta * np.vdot(r, nu).real - 0.5 * theta ** 2 * np.vdot(nu, nu).real


def dense_polished_dual(A, r, gamma, nu, primal, tol):
    """Oracle of the polished point: the best D over the rounds of minimum-norm corrections.

    Each round puts the at most ``CSL1_POLISH_ATOMS`` largest violators of |A^H nu| <= gamma,
    those above gamma by more than ``CSL1_POLISH_MARGIN`` relative, on the circle
    |A_j^H nu| = gamma by least change in nu, through the dense columns A_j.  The rounds
    end once D leaves the gap at ``primal`` within ``tol``.
    """
    best = -np.inf
    for _ in range(CSL1_POLISH_ROUNDS):
        corr = A.conj().T @ nu
        mag = np.abs(corr)
        V = np.argsort(-mag, kind="stable")[:CSL1_POLISH_ATOMS]
        V = V[mag[V] > (1.0 + CSL1_POLISH_MARGIN) * gamma]
        if not V.size:
            break
        AV = A[:, V]
        excess = corr[V] - gamma * corr[V] / mag[V]
        nu = nu - AV @ np.linalg.solve(AV.conj().T @ AV, excess)
        best = max(best, dense_dual(A, r, gamma, nu))
        if (primal - best) / primal <= tol:
            break
    return best


def dense_gap(A, r, gamma, w, x=None, tol=None):
    """Relative duality gap (P - D) / P at w, D at the better of r - A w and r - A x.

    Each dual point is scaled into |A^H nu| <= gamma; without ``x`` only r - A w is taken,
    which is CS-L1's earlier, residual-at-w rule.  With ``tol`` the polished r - A x is
    taken as well when the two points leave the gap in (tol, CSL1_POLISH_WINDOW tol].
    """
    nu = r - A @ w
    primal = 0.5 * np.vdot(nu, nu).real + gamma * np.abs(w).sum()
    if x is None:
        return (primal - dense_dual(A, r, gamma, nu)) / primal
    best = max(dense_dual(A, r, gamma, nu), dense_dual(A, r, gamma, r - A @ x))
    if tol is not None and tol < (primal - best) / primal <= CSL1_POLISH_WINDOW * tol:
        best = max(best, dense_polished_dual(A, r, gamma, r - A @ x, primal, tol))
    return (primal - best) / primal


def dense_program(meas, ccfg):
    """The dense A, A^H r, the solve's penalty rho and the x-step's explicit Woodbury inverse."""
    Mg, Ng = ccfg.M_grid, ccfg.N_grid
    s = meas.s_tilde
    A = s[:, None] * csl1_dictionary(meas.M, meas.N, Mg, Ng)
    AH = A.conj().T
    AHr = AH @ meas.r_bar
    rho = CSL1_PENALTY * Mg * Ng * ccfg.gamma / np.abs(AHr).max()
    inverse = (np.eye(Mg * Ng) - AH @ (A / (rho + Mg * Ng * np.abs(s) ** 2)[:, None])) / rho
    return A, AHr, rho, inverse


def allocating_admm(meas, ccfg, x_point=True):
    """Reference: over-relaxed scaled ADMM on x = w with the dense dictionary.

    The x-step applies (A^H A + rho I)^-1 as an explicit Woodbury matrix.  The gap at w
    takes the x-iterate before relaxation as its second dual point and, near ``tol``, its
    polished residual, or with ``x_point=False`` the residual at w alone.  It returns w
    flat column-major, the iterations run and the gap at w.
    """
    r, gamma = meas.r_bar, ccfg.gamma
    A, AHr, rho, inverse = dense_program(meas, ccfg)
    w = u = np.zeros(A.shape[1], dtype=complex)
    for it in range(1, ccfg.max_iters + 1):
        x = inverse @ (AHr + rho * (w - u))
        x_hat = CSL1_RELAXATION * x + (1 - CSL1_RELAXATION) * w
        w = soft_threshold(x_hat + u, gamma / rho)
        u = u + x_hat - w
        if it % CSL1_GAP_EVERY == 0 or it == ccfg.max_iters:
            gap = (dense_gap(A, r, gamma, w, x, ccfg.tol) if x_point
                   else dense_gap(A, r, gamma, w))
            if gap <= ccfg.tol:
                break
    return w, it, gap


def record_gap_checks(monkeypatch):
    """Record (z, nu_x) at each of ``_csl1_solve``'s gap checks, z flat column-major.

    z = w - u is the input of the x-step's synthesis, the last one before the check.
    """
    checks, last_z = [], []
    synthesize, gap = baselines._synthesize, baselines._csl1_gap

    def recording_synthesize(X, *args):
        last_z[:] = [np.array(X).ravel(order="F")]
        return synthesize(X, *args)

    def recording_gap(w, l1, nu_x, *args):
        checks.append((last_z[0], nu_x.copy()))
        return gap(w, l1, nu_x, *args)

    monkeypatch.setattr(baselines, "_synthesize", recording_synthesize)
    monkeypatch.setattr(baselines, "_csl1_gap", recording_gap)
    return checks


class TestCsL1InPlace:
    """The in-place ADMM loop against allocating references, and its kernel."""

    @pytest.mark.parametrize("case", MEASUREMENTS)
    def test_matches_allocating_admm_reference(self, case):
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(meas.M, meas.N, cfg.sigma)
        w, iterations, _ = allocating_admm(meas, ccfg)
        assert iterations < ccfg.max_iters
        assert _csl1_solve(meas, ccfg)[1] == iterations
        Mg, Ng = ccfg.M_grid, ccfg.N_grid
        mags = np.abs(w)
        sel = np.flatnonzero(mags > 1e-3 * mags.max())
        order = sel[np.argsort(-mags[sel])]
        est = csl1_estimate(meas, ccfg)
        assert len(order) > 1
        assert [(p.phi, p.psi) for p in est.paths] == [
            ((l % Mg) / Mg, (l // Mg) / Ng) for l in order]
        np.testing.assert_allclose([p.alpha for p in est.paths], w[order], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("case", ["fixed-8x8", "two-target-8x8"])
    def test_objective_at_most_fistas(self, case):
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        A = meas.s_tilde[:, None] * csl1_dictionary(8, 8, ccfg.M_grid, ccfg.N_grid)

        def objective(x):
            fit = meas.r_bar - A @ x.ravel(order="F")
            return 0.5 * np.vdot(fit, fit).real + ccfg.gamma * np.abs(x).sum()

        # A vanishing tol switches FISTA's relative-change stop off: it runs to its cap.
        capped = dataclasses.replace(ccfg, tol=1e-300)
        fista = objective(allocating_fista(meas, capped))
        # The certified solve is within its gap of the optimum, which FISTA's value bounds.
        w, _, gap = _csl1_solve(meas, ccfg)
        assert 0 < gap <= ccfg.tol
        assert objective(w) - fista <= gap * objective(w)
        # With FISTA's iteration budget, ADMM ends no higher.
        assert objective(_csl1_solve(meas, capped)[0]) <= fista

    @pytest.mark.parametrize("case", MEASUREMENTS)
    @pytest.mark.parametrize("tol", [1e-4, 1e-7])
    def test_gap_certificate(self, monkeypatch, case, tol):
        cfg, meas = MEASUREMENTS[case]()
        ccfg = dataclasses.replace(default_csl1_config(meas.M, meas.N, cfg.sigma), tol=tol)
        checks = record_gap_checks(monkeypatch)
        w, iterations, gap = _csl1_solve(meas, ccfg)
        assert iterations < ccfg.max_iters
        # The dense x-iterate of the last check, from the z its x-step saw.
        z, _ = checks[-1]
        A, AHr, rho, inverse = dense_program(meas, ccfg)
        x = inverse @ (AHr + rho * z)
        dense = dense_gap(A, meas.r_bar, ccfg.gamma, w.ravel(order="F"), x, tol)
        assert dense <= tol
        assert dense == pytest.approx(gap, rel=1e-6)

    @pytest.mark.parametrize("case", MEASUREMENTS)
    @pytest.mark.parametrize("unit_symbols", [True, False])
    def test_x_point_is_the_dense_x_iterate_residual(self, monkeypatch, case, unit_symbols):
        # r - A x = rho D (r - A z) rests on A A^H = M_grid N_grid diag(|s|^2), which
        # holds for any symbol magnitudes.
        cfg, meas = MEASUREMENTS[case]()
        if not unit_symbols:
            gains = np.random.default_rng(7).uniform(0.5, 2.0, meas.S_hat.shape)
            meas = dataclasses.replace(meas, S_hat=gains * meas.S_hat)
        ccfg = default_csl1_config(meas.M, meas.N, cfg.sigma)
        checks = record_gap_checks(monkeypatch)
        _csl1_solve(meas, ccfg)
        A, AHr, rho, inverse = dense_program(meas, ccfg)
        assert len(checks) > 1
        for z, nu_x in checks:
            want = meas.r_bar - A @ (inverse @ (AHr + rho * z))
            np.testing.assert_allclose(nu_x, want, rtol=0,
                                       atol=1e-12 * np.linalg.norm(meas.r_bar))

    @pytest.mark.parametrize("case", ["fixed-8x8", "two-target-8x8"])
    def test_x_point_correlations_are_read_from_the_step(self, monkeypatch, case):
        # A^H nu_x = (rho / alpha) step by linearity; each check gets it without an adjoint.
        cfg, meas = MEASUREMENTS[case]()
        ccfg = dataclasses.replace(default_csl1_config(8, 8, cfg.sigma), tol=1e-7)
        pairs, gap = [], baselines._csl1_gap

        def recording_gap(w, l1, nu_x, corr_x, *args):
            pairs.append((baselines._csl1_correlations(nu_x, meas, ccfg), corr_x.copy()))
            return gap(w, l1, nu_x, corr_x, *args)

        monkeypatch.setattr(baselines, "_csl1_gap", recording_gap)
        _csl1_solve(meas, ccfg)
        assert len(pairs) > 1
        for want, got in pairs:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("max_iters, tol", [(2 * CSL1_GAP_EVERY + 7, 1e-300),
                                                (4000, 1e-4)])
    def test_checks_run_at_multiples_of_the_cadence_and_at_the_cap(self, monkeypatch,
                                                                    max_iters, tol):
        # The loop shrinks once per iteration, and the gap never does, so the shrinks
        # counted at a check are the iterations run.
        cfg, meas = fixed_8x8_measurement()
        ccfg = dataclasses.replace(default_csl1_config(8, 8, cfg.sigma), max_iters=max_iters,
                                   tol=tol)
        shrinks, checks = [0], []
        shrink, gap = baselines._shrink, baselines._csl1_gap

        def counting_shrink(*args):
            shrinks[0] += 1
            return shrink(*args)

        def recording_gap(*args):
            checks.append(shrinks[0])
            return gap(*args)

        monkeypatch.setattr(baselines, "_shrink", counting_shrink)
        monkeypatch.setattr(baselines, "_csl1_gap", recording_gap)
        iterations = _csl1_solve(meas, ccfg)[1]
        cadence = list(range(CSL1_GAP_EVERY, iterations + 1, CSL1_GAP_EVERY))
        assert checks == (cadence if iterations % CSL1_GAP_EVERY == 0
                          else cadence + [iterations])
        assert iterations == max_iters if tol < 1e-100 else iterations < max_iters

    @pytest.mark.parametrize("case", MEASUREMENTS)
    def test_stops_no_later_than_the_residual_at_w_rule(self, monkeypatch, case):
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(meas.M, meas.N, cfg.sigma)
        iterations = _csl1_solve(meas, ccfg)[1]
        w_only = allocating_admm(meas, ccfg, x_point=False)[1]
        assert iterations <= w_only < ccfg.max_iters
        # The fast solve under the earlier rule stops where the dense one does.
        monkeypatch.setattr(baselines, "_csl1_gap", residual_at_w_gap)
        assert _csl1_solve(meas, ccfg)[1] == w_only

    @pytest.mark.parametrize("case", MEASUREMENTS)
    def test_objective_within_tol_of_a_tight_solve(self, case):
        # No dual point enters: the certified w against w_ref from a solve at tol 1e-12.
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(meas.M, meas.N, cfg.sigma)
        tight = dataclasses.replace(ccfg, tol=1e-12, max_iters=20000)
        w, _, _ = _csl1_solve(meas, ccfg)
        w_ref, iterations, _ = _csl1_solve(meas, tight)
        assert iterations < tight.max_iters
        A = dense_program(meas, ccfg)[0]

        def objective(x):
            fit = meas.r_bar - A @ x.ravel(order="F")
            return 0.5 * np.vdot(fit, fit).real + ccfg.gamma * np.abs(x).sum()

        assert objective(w) - objective(w_ref) <= ccfg.tol * objective(w)

    @pytest.mark.parametrize("k", [1e-3, 37.0])
    def test_scale_equivariant(self, k):
        cfg, meas = fixed_8x8_measurement()
        est = csl1_estimate(meas, default_csl1_config(8, 8, cfg.sigma))
        scaled = csl1_estimate(dataclasses.replace(meas, r_bar=k * meas.r_bar),
                               default_csl1_config(8, 8, k * cfg.sigma))
        assert len(est.paths) > 1
        assert [(p.phi, p.psi) for p in scaled.paths] == [(p.phi, p.psi) for p in est.paths]
        np.testing.assert_allclose([p.alpha for p in scaled.paths],
                                   [k * p.alpha for p in est.paths], rtol=1e-9, atol=0)

    def test_repeatable_and_leaves_input_unmutated(self):
        cfg, meas = two_target_measurement(8, 8)
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


class TestCsL1Polish:
    """The polished third dual point: a lower bound on P*, an earlier stop on the same
    iterates, and a fallback to the two-point certificate."""

    @staticmethod
    def record_polish(monkeypatch):
        """Record the D that each ``_csl1_polished_dual`` call returns."""
        duals, polish = [], baselines._csl1_polished_dual

        def recording(*args):
            duals.append(polish(*args))
            return duals[-1]

        monkeypatch.setattr(baselines, "_csl1_polished_dual", recording)
        return duals

    @pytest.mark.parametrize("case", ["fixed-8x8", "two-target-8x8"])
    @pytest.mark.parametrize("window", [CSL1_POLISH_WINDOW, math.inf])
    def test_bound_below_the_optimum_and_same_iterate_sooner(self, monkeypatch, case, window):
        # With an unbounded window the point is polished at every check above tol.
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        A = dense_program(meas, ccfg)[0]

        def objective(x):
            fit = meas.r_bar - A @ x.ravel(order="F")
            return 0.5 * np.vdot(fit, fit).real + ccfg.gamma * np.abs(x).sum()

        # P* from a tight solve certified by the two earlier points alone, and the
        # iterations the two-point certificate needs at tol.
        monkeypatch.setattr(baselines, "CSL1_POLISH_WINDOW", 0.0)
        tight = dataclasses.replace(ccfg, tol=1e-12, max_iters=20000)
        w_ref, ref_iterations, ref_gap = _csl1_solve(meas, tight)
        assert ref_iterations < tight.max_iters
        p_star_floor = objective(w_ref) * (1.0 - ref_gap)
        two_point = _csl1_solve(meas, ccfg)[1]

        monkeypatch.setattr(baselines, "CSL1_POLISH_WINDOW", window)
        duals = self.record_polish(monkeypatch)
        w, iterations, gap = _csl1_solve(meas, ccfg)
        assert max(duals) > -math.inf
        assert all(d <= p_star_floor for d in duals)
        assert 0 < gap <= ccfg.tol
        assert iterations < two_point
        # The stop test reads the iterates and never writes them: with no stop, the loop
        # reaches the same w at the same iteration.
        monkeypatch.setattr(baselines, "_csl1_gap", lambda *args: math.inf)
        w_unstopped = _csl1_solve(meas, dataclasses.replace(ccfg, max_iters=iterations))[0]
        assert np.array_equal(w, w_unstopped)

    @pytest.mark.parametrize("case", ["fixed-8x8", "two-target-8x8"])
    def test_rounds_end_at_a_certifying_dual(self, monkeypatch, case):
        # With the window unbounded every check above tol polishes.
        cfg, meas = MEASUREMENTS[case]()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        monkeypatch.setattr(baselines, "CSL1_POLISH_WINDOW", math.inf)
        polish, dual = baselines._csl1_polished_dual, baselines._csl1_dual

        def solve_recording_rounds(all_rounds):
            """The solve, and each polish call's P(w) and the D of each of its rounds; with
            ``all_rounds`` the call sees a P(w) of inf, which no D certifies."""
            calls, inside = [], []

            def recording_polish(nu, corr, mag, primal, *args):
                calls.append((primal, []))
                inside.append(True)
                try:
                    return polish(nu, corr, mag, math.inf if all_rounds else primal, *args)
                finally:
                    inside.pop()

            def recording_dual(*args):
                d = dual(*args)
                if inside:
                    calls[-1][1].append(d)
                return d

            monkeypatch.setattr(baselines, "_csl1_polished_dual", recording_polish)
            monkeypatch.setattr(baselines, "_csl1_dual", recording_dual)
            return _csl1_solve(meas, ccfg), calls

        (w, iterations, gap), calls = solve_recording_rounds(False)
        (w_all, iterations_all, gap_all), calls_all = solve_recording_rounds(True)
        certifies = [[(primal - d) / primal <= ccfg.tol for d in rounds]
                     for primal, rounds in calls]
        # Only the last round of the last call certifies, and every earlier call ran the
        # rounds it runs without the early end.
        assert certifies[-1][-1]
        assert sum(map(sum, certifies)) == 1
        assert [rounds for _, rounds in calls[:-1]] == [rounds for _, rounds in calls_all[:-1]]
        assert calls[-1][1] == calls_all[-1][1][:len(calls[-1][1])]
        assert len(calls[-1][1]) < len(calls_all[-1][1])
        assert iterations == iterations_all
        assert np.array_equal(w, w_all)
        # The gap reported is that of the first certifying D, which later rounds can lower.
        assert gap_all <= gap <= ccfg.tol

    @pytest.mark.parametrize("failure", ["singular", "nan", "inf"])
    def test_failed_correction_keeps_the_two_point_certificate(self, monkeypatch, failure):
        cfg, meas = fixed_8x8_measurement()
        ccfg = default_csl1_config(8, 8, cfg.sigma)
        with monkeypatch.context() as m:
            m.setattr(baselines, "CSL1_POLISH_WINDOW", 0.0)
            want_w, want_iterations, want_gap = _csl1_solve(meas, ccfg)

        def failing_solve(a, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan if failure == "nan" else np.inf)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        duals = self.record_polish(monkeypatch)
        w, iterations, gap = _csl1_solve(meas, ccfg)
        assert duals and all(d == -math.inf for d in duals)
        assert (iterations, gap) == (want_iterations, want_gap)
        assert np.array_equal(w, want_w)


class TestEstimateContract:
    def test_music_paths_sorted(self):
        cfg, scene, meas = noiseless_measurement(
            paths=((1.0, 0.2, 0.3), (0.4, 0.62, 0.75)), seed=12)
        est = music_estimate(meas, dataclasses.replace(default_music_config(8, 8), K_signal=2))
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)

    def test_csl1_paths_sorted(self):
        cfg, scene, meas = noiseless_measurement(
            M=8, N=8, paths=((1.0, 8 / 32, 12 / 32), (0.5, 20 / 32, 28 / 32)), seed=13)
        gamma = 0.01 * np.linalg.norm(meas.r_bar)
        est = csl1_estimate(meas, CsL1Config(32, 32, gamma, max_iters=4000, tol=1e-11))
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)
