import warnings

import numpy as np
import pytest

from ofdmradar import (ConfigError, NumericError, Path, Scene, SolverConfig,
                       default_weights, generate_symbols, measure, objective_dual,
                       objective_primal, optimality_residuals, qpsk, simulate, solve,
                       synthesize_clean)
from ofdmradar.admm import atomic_norm_sdp_value
from conftest import small_config


def make_instance(M=4, N=4, K=1, seed=0, noise_power_db=-20.0, ber=0.0):
    cfg = small_config(M, N, noise_power_db=noise_power_db)
    rng = np.random.default_rng(seed)
    paths = tuple(Path(alpha=np.exp(2j * np.pi * rng.uniform()),
                       phi=rng.uniform(), psi=rng.uniform()) for _ in range(K))
    scene = Scene(targets=paths)
    meas = simulate(scene, cfg, qpsk(), ber, rng)
    return cfg, scene, meas


class TestSolverConfig:
    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=0.0, mu=0.1)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, mu=-0.1)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, mu=0.0, rho=0.0)

    def test_default_weights_formula(self):
        lam, mu = default_weights(0.01, 8, 8)
        assert lam == pytest.approx(0.01 * np.sqrt(64 * np.log(64)))
        assert mu == pytest.approx(lam / 8)


class TestSolve:
    def test_zero_input(self):
        cfg, scene, meas = make_instance(seed=1)
        zero = type(meas)(S_hat=meas.S_hat, r_bar=np.zeros_like(meas.r_bar),
                          sigma2=meas.sigma2)
        sol = solve(zero, SolverConfig(lam=0.5, mu=0.1, max_iters=500))
        assert np.abs(sol.z_hat).max() < 1e-8
        assert np.abs(sol.e_hat).max() < 1e-8

    def test_small_lambda_recovers_signal(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=2,
                                         noise_power_db=-np.inf)
        lam = 0.01 * np.linalg.norm(meas.r_bar)
        sol = solve(meas, SolverConfig(lam=lam, mu=0.0, max_iters=4000, tol=1e-7))
        z_true = synthesize_clean(scene, cfg)
        rel = np.linalg.norm(sol.z_hat - z_true) / np.linalg.norm(z_true)
        assert rel < 1e-2

    def test_mu_zero_keeps_error_at_zero(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=3, ber=0.1)
        sol = solve(meas, SolverConfig(lam=0.5, mu=0.0, max_iters=50))
        assert np.all(sol.e_hat == 0)

    def test_deterministic(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=4)
        c = SolverConfig(lam=0.6, mu=0.15, max_iters=120)
        a = solve(meas, c)
        b = solve(meas, c)
        assert np.array_equal(a.z_hat, b.z_hat)
        assert np.array_equal(a.nu_hat, b.nu_hat)
        assert a.diagnostics.objectives == b.diagnostics.objectives

    def test_dual_identity_at_convergence(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=5)
        lam, mu = default_weights(cfg.sigma, 4, 4)
        sol = solve(meas, SolverConfig(lam=lam, mu=mu, max_iters=50000, tol=1e-7))
        assert sol.diagnostics.converged
        w = meas.r_bar - sol.e_hat - meas.s_tilde * sol.z_hat
        nu_true = np.conj(meas.s_tilde) * w
        rel = np.linalg.norm(sol.nu_hat - nu_true) / np.linalg.norm(nu_true)
        assert rel < 1e-3

    def test_theta_psd_and_consistent(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=6)
        sol = solve(meas, SolverConfig(lam=0.7, mu=0.17, max_iters=20000, tol=1e-6))
        theta = sol.Theta
        assert np.linalg.eigvalsh(theta).min() >= -1e-8
        from ofdmradar import block_toeplitz
        A = np.zeros_like(theta)
        A[:16, :16] = block_toeplitz(sol.U, 4, 4)
        A[:16, 16] = sol.z_hat
        A[16, :16] = np.conj(sol.z_hat)
        A[16, 16] = sol.t
        assert np.linalg.norm(theta - A) < 1e-6 * 17 * 10

    def test_objective_trend_converges(self):
        # The reported objective is evaluated at infeasible intermediate
        # iterates, so it can approach the optimum from below; the monitored
        # trend is the trailing-window distance to the final value shrinking
        # after burn-in, not per-step monotonicity.
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=7)
        sol = solve(meas, SolverConfig(lam=0.7, mu=0.17, max_iters=400, tol=1e-12))
        obj = np.array(sol.diagnostics.objectives)
        final = obj[-1]
        early = np.abs(obj[50:150] - final).mean()
        late = np.abs(obj[-100:] - final).mean()
        assert late <= early + 1e-12 * max(1.0, abs(final))

    def test_overflow_raises_before_any_warning(self):
        # lam = 1e308 overflows the t update of the first sweep; the solve
        # stops there instead of projecting a non-finite matrix.
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                solve(meas, SolverConfig(lam=1e308, mu=0.1, max_iters=5))
        assert err.value.iteration == 1


class TestObjectives:
    def test_primal_zero_state(self):
        cfg, scene, meas = make_instance(seed=8)
        zero = type(meas)(S_hat=meas.S_hat, r_bar=np.zeros_like(meas.r_bar),
                          sigma2=meas.sigma2)
        sol = solve(zero, SolverConfig(lam=1.0, mu=0.1, max_iters=1))
        sol.z_hat = np.zeros_like(sol.z_hat)
        sol.e_hat = np.zeros_like(sol.e_hat)
        sol.U = np.zeros_like(sol.U)
        sol.t = 0.0
        assert objective_primal(sol, zero, SolverConfig(lam=1.0, mu=0.1)) == 0.0

    def test_primal_zero_state_energy(self):
        cfg, scene, meas = make_instance(seed=9)
        r = meas.r_bar * (2.0 / np.linalg.norm(meas.r_bar))
        scaled = type(meas)(S_hat=meas.S_hat, r_bar=r, sigma2=meas.sigma2)
        sol = solve(scaled, SolverConfig(lam=1.0, mu=0.1, max_iters=1))
        sol.z_hat = np.zeros_like(sol.z_hat)
        sol.e_hat = np.zeros_like(sol.e_hat)
        sol.U = np.zeros_like(sol.U)
        sol.t = 0.0
        # 0.5 * ||r||^2 with ||r|| = 2
        assert objective_primal(sol, scaled, SolverConfig(lam=1.0, mu=0.1)) == pytest.approx(2.0)

    def test_dual_zero(self):
        cfg, scene, meas = make_instance(seed=10)
        assert objective_dual(np.zeros_like(meas.r_bar), meas,
                              SolverConfig(lam=1.0, mu=0.1)) == 0.0

    def test_dual_scaled_closed_form(self):
        cfg, scene, meas = make_instance(seed=11)
        r = meas.r_bar
        for s in (0.01, 0.1):
            nu = s * np.conj(meas.s_tilde) * r
            want = s * np.vdot(r, r).real - 0.5 * s ** 2 * np.vdot(r, r).real
            got = objective_dual(nu, meas, SolverConfig(lam=1.0, mu=0.1))
            assert got == pytest.approx(want)

    def test_duality_gap_at_convergence(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=12)
        lam, mu = default_weights(cfg.sigma, 4, 4)
        c = SolverConfig(lam=lam, mu=mu, max_iters=50000, tol=1e-7)
        sol = solve(meas, c)
        p = objective_primal(sol, meas, c)
        d = objective_dual(sol.nu_hat, meas, c)
        assert abs(p - d) / abs(p) < 1e-3


class TestOptimalityResiduals:
    def test_converged_instance(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=13)
        lam, mu = default_weights(cfg.sigma, 4, 4)
        c = SolverConfig(lam=lam, mu=mu, max_iters=50000, tol=1e-7)
        sol = solve(meas, c)
        rep = optimality_residuals(sol, meas, c)
        tol = 1e-3 * max(lam, mu, 1.0)
        assert abs(rep.atomic_balance) < tol
        assert abs(rep.l1_balance) < tol
        assert rep.dual_norm_excess < tol
        assert rep.linf_excess < tol

    def test_zero_state_violates_certificate(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=14,
                                         noise_power_db=-np.inf)
        c = SolverConfig(lam=1e-3, mu=1e-4)
        sol = solve(meas, SolverConfig(lam=1e-3, mu=1e-4, max_iters=1))
        sol.z_hat[:] = 0
        sol.e_hat[:] = 0
        rep = optimality_residuals(sol, meas, c)
        # with z = e = 0 and large r, the dual-feasibility conditions break
        assert rep.dual_norm_excess > 0
        assert rep.linf_excess > 0

    def test_mu_zero_marks_not_applicable(self):
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=15)
        c = SolverConfig(lam=0.7, mu=0.0, max_iters=2000)
        sol = solve(meas, c)
        rep = optimality_residuals(sol, meas, c)
        assert rep.l1_balance is None
        assert rep.linf_excess is None


class TestAtomicNormValue:
    def test_single_atom_value(self):
        # for z = alpha * atom, the lifted program value equals |alpha|
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=17,
                                         noise_power_db=-np.inf)
        lam = 0.005 * np.linalg.norm(meas.r_bar)
        sol = solve(meas, SolverConfig(lam=lam, mu=0.0, max_iters=8000, tol=1e-8))
        val = atomic_norm_sdp_value(sol.U, sol.t, 4, 4)
        alpha = scene.targets[0].alpha
        assert val == pytest.approx(abs(alpha), rel=0.05)
