import math
import warnings

import numpy as np
import pytest

from ofdmradar import (ConfigError, NumericError, Path, Scene, SolverConfig, admm,
                       block_toeplitz, default_weights, generate_symbols, measure,
                       objective_primal, optimality_residuals, qpsk, simulate, solve,
                       synthesize_clean)
from ofdmradar.admm import atomic_norm_sdp_value
from ofdmradar.operators import adjoint_normalized, block_toeplitz, soft_threshold, symmetrize_param
from conftest import small_config


def objective_dual(nu, measurement, config):
    """Dual objective oracle: <inv(S^H) nu, r>_R - ||inv(S^H) nu||^2 / 2."""
    x = nu / np.conj(measurement.s_tilde)
    return float(np.vdot(measurement.r_bar, x).real) - 0.5 * float(np.vdot(x, x).real)


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

    @pytest.mark.parametrize("field", ["lam", "mu", "rho", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**{"lam": 1.0, "mu": 0.1, field: value})

    def test_default_weights_formula(self):
        lam, mu = default_weights(0.01, 8, 8)
        assert lam == pytest.approx(0.01 * np.sqrt(64 * np.log(64)))
        assert mu == pytest.approx(lam / 8)


class TestSolve:
    def test_zero_input(self):
        cfg, scene, meas = make_instance(seed=1)
        zero = type(meas)(S_hat=meas.S_hat, r_bar=np.zeros_like(meas.r_bar))
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
        assert a.diagnostics.primal_residuals == b.diagnostics.primal_residuals
        assert a.diagnostics.dual_residuals == b.diagnostics.dual_residuals
        assert objective_primal(a, meas, c) == objective_primal(b, meas, c)

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
        # The last primal residual is ||Theta - A|| for the PSD Theta, so the
        # lift A of the reported U, z and t lies within it of the PSD cone.
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=6)
        sol = solve(meas, SolverConfig(lam=0.7, mu=0.17, max_iters=20000, tol=1e-6))
        A = np.zeros((17, 17), dtype=complex)
        A[:16, :16] = block_toeplitz(sol.U, 4, 4)
        A[:16, 16] = sol.z_hat
        A[16, :16] = np.conj(sol.z_hat)
        A[16, 16] = sol.t
        primal = sol.diagnostics.primal_residuals[-1]
        cone_distance = np.linalg.norm(np.minimum(np.linalg.eigvalsh(A), 0.0))
        assert cone_distance <= primal + 1e-8
        assert primal < 1e-6 * 17 * 10

    def test_objective_trend_converges(self):
        # A solve capped at k sweeps returns sweep k's iterates, whose objective
        # is infeasible and can approach the optimum from below; the trend is
        # the distance to the 400-sweep value shrinking after burn-in, over
        # every tenth sweep of 51-150 and of 301-400, not per-step monotonicity.
        cfg, scene, meas = make_instance(M=4, N=4, K=2, seed=7)

        def objective_at(sweeps):
            c = SolverConfig(lam=0.7, mu=0.17, max_iters=sweeps, tol=1e-12)
            return objective_primal(solve(meas, c), meas, c)

        final = objective_at(400)
        early = np.mean([abs(objective_at(k) - final) for k in range(51, 151, 10)])
        late = np.mean([abs(objective_at(k) - final) for k in range(301, 401, 10)])
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


def unscaled_reference(meas, config):
    """The sweep in unscaled form: multiplier Upsilon, separate ascent step, and
    a projection rebuilt from every clamped eigenpair.  Returns (z, nu, primal
    residuals, dual residuals, final objective, iterations, converged)."""
    M, N = meas.M, meas.N
    mn = M * N
    s, r = meas.s_tilde, meas.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    denom = np.abs(s) ** 2 + 2.0 * rho
    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    Theta = np.zeros((mn + 1, mn + 1), dtype=complex)
    Upsilon = np.zeros_like(Theta)
    primals, duals = [], []
    converged = False
    for it in range(1, config.max_iters + 1):
        z = (np.conj(s) * r - np.conj(s) * e + 2.0 * rho * Theta[:mn, mn]
             + 2.0 * Upsilon[:mn, mn]) / denom
        t = Theta[mn, mn].real + (Upsilon[mn, mn].real - 0.5 * lam) / rho
        U = adjoint_normalized(Theta[:mn, :mn] + Upsilon[:mn, :mn] / rho, M, N)
        U[M - 1, N - 1] -= lam / (2.0 * mn * rho)
        U = symmetrize_param(U)
        if mu > 0:
            e = soft_threshold(r - s * z, mu)
        A = np.empty_like(Theta)
        A[:mn, :mn] = block_toeplitz(U, M, N)
        A[:mn, mn] = z
        A[mn, :mn] = np.conj(z)
        A[mn, mn] = t
        H = A - Upsilon / rho
        H = 0.5 * (H + H.conj().T)
        w, V = np.linalg.eigh(H)
        X = (V * np.maximum(w, 0.0)) @ V.conj().T
        Theta_new = 0.5 * (X + X.conj().T)
        primal = np.linalg.norm(Theta_new - A)
        dual = rho * np.linalg.norm(Theta_new - Theta)
        Upsilon = Upsilon + rho * (Theta_new - A)
        Theta = Theta_new
        primals.append(primal)
        duals.append(dual)
        if primal < config.tol * (mn + 1) and dual < config.tol * (mn + 1):
            converged = True
            break
    fit = r - e - s * z
    objective = (0.5 * np.vdot(fit, fit).real + lam * atomic_norm_sdp_value(U, t, M, N)
                 + mu * np.abs(e).sum())
    return z, -2.0 * Upsilon[:mn, mn], primals, duals, objective, it, converged


class TestScaledForm:
    @pytest.mark.parametrize("M, N, mu_scale, max_iters", [(4, 4, 1.0, 300), (4, 4, 0.0, 300),
                                                           (8, 8, 1.0, 600), (8, 8, 0.0, 600)])
    def test_matches_unscaled_sweep(self, M, N, mu_scale, max_iters):
        cfg, scene, meas = make_instance(M=M, N=N, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, M, N)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=max_iters)
        sol = solve(meas, c)
        z, nu, primals, duals, objective, iterations, converged = unscaled_reference(meas, c)
        d = sol.diagnostics
        assert d.iterations == iterations
        assert d.converged == converged
        for got, want in ((sol.z_hat, z), (sol.nu_hat, nu),
                          (np.array(d.primal_residuals), np.array(primals)),
                          (np.array(d.dual_residuals), np.array(duals)),
                          (objective_primal(sol, meas, c), objective)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("mu_scale", [1.0, 0.0])
    def test_projection_input_is_exactly_hermitian(self, monkeypatch, mu_scale):
        # psd_project does not symmetrize, so every sweep must build G = A - W
        # exactly Hermitian: T(U) of a Hermitian-consistent U, the z/conj(z)
        # border, a real t and the previous sweep's Hermitian Theta.
        cfg, scene, meas = make_instance(M=8, N=8, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, 8, 8)
        project, calls = admm.psd_project, []

        def checked(G):
            calls.append(np.array_equal(G, G.conj().T))
            return project(G)

        monkeypatch.setattr(admm, "psd_project", checked)
        sol = solve(meas, SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600))
        assert len(calls) == sol.diagnostics.iterations > 1
        assert all(calls)


class TestObjectives:
    def test_primal_zero_state(self):
        cfg, scene, meas = make_instance(seed=8)
        zero = type(meas)(S_hat=meas.S_hat, r_bar=np.zeros_like(meas.r_bar))
        sol = solve(zero, SolverConfig(lam=1.0, mu=0.1, max_iters=1))
        sol.z_hat = np.zeros_like(sol.z_hat)
        sol.e_hat = np.zeros_like(sol.e_hat)
        sol.U = np.zeros_like(sol.U)
        sol.t = 0.0
        assert objective_primal(sol, zero, SolverConfig(lam=1.0, mu=0.1)) == 0.0

    def test_primal_zero_state_energy(self):
        cfg, scene, meas = make_instance(seed=9)
        r = meas.r_bar * (2.0 / np.linalg.norm(meas.r_bar))
        scaled = type(meas)(S_hat=meas.S_hat, r_bar=r)
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
