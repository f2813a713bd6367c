import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ofdmradar import (ConfigError, NumericError, Path, Scene, SolverConfig, admm, bench,
                       default_weights, generate_symbols, measure, objective_primal,
                       optimality_residuals, qpsk, simulate, solve, synthesize_clean)
from ofdmradar.admm import atomic_norm_sdp_value
from ofdmradar.operators import soft_threshold
from conftest import (coefficient_pair_solve, complex_adjoint_normalized, complex_block_toeplitz,
                      complex_frame_vector, complex_lift_solve, dense_q, folded_frame,
                      real_frame, real_frame_vector, small_config, symmetrize_param,
                      theta_w_solve)


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


def assert_same_solve(got, want):
    """The same sweep count and stop, and the same solution and residual histories up to
    rounding (1e-12 of each quantity's largest entry)."""
    mine, theirs = got.diagnostics, want.diagnostics
    assert mine.iterations == theirs.iterations and mine.converged == theirs.converged
    for g, o in ((got.z_hat, want.z_hat), (got.e_hat, want.e_hat),
                 (got.nu_hat, want.nu_hat), (got.U, want.U), (got.t, want.t),
                 (mine.primal_residuals, theirs.primal_residuals),
                 (mine.dual_residuals, theirs.dual_residuals)):
        g, o = np.asarray(g), np.asarray(o)
        assert np.abs(g - o).max() <= 1e-12 * np.abs(o).max()


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

    @pytest.mark.parametrize("value", [0, -3, 2.5, True, math.nan, "10"])
    def test_max_iters_must_be_a_whole_number(self, value):
        with pytest.raises(ConfigError, match="max_iters"):
            SolverConfig(lam=1.0, mu=0.1, max_iters=value)

    def test_accepts_a_numpy_integer_cap(self):
        assert SolverConfig(lam=1.0, mu=0.1, max_iters=np.int64(3)).max_iters == 3

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
        # The lift A = [[T(U), z], [z^H, t]] of the reported U, z and t = tr S lies
        # within a bound of the PSD cone that the last sweep's residuals give.
        # - The last sweep projects G = A_hat - W onto PSD Theta+, with A_hat =
        #   alpha D L D + (1 - alpha) Theta for the real lift L of U, z and S; its
        #   residuals are primal = ||Theta+ - A_hat|| and dual = rho ||Theta+ - Theta||.
        #   So ||D L D - Theta+|| <= (primal + (alpha - 1) dual / rho) / alpha.
        # - D^-1 Theta+ D^-1 is PSD, and D^-1 scales no entry by more than
        #   1 / min(a, b)^2.
        # - The map [[X, B], [B^T, S]] -> [[Q X Q^H, Q (B e1 + i B e2)], [., tr S]]
        #   takes L to A, takes each PSD y y^T (y = (v, c1, c2)) to the PSD
        #   x x^H with x = (Q v, c1 - i c2), and stretches Frobenius norms by at
        #   most sqrt(2) (the corner: (s11 + s22)^2 <= 2 (s11^2 + s22^2)).
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=6)
        c = SolverConfig(lam=0.7, mu=0.17, max_iters=20000, tol=1e-6)
        sol = solve(meas, c)
        A = np.zeros((17, 17), dtype=complex)
        A[:16, :16] = complex_block_toeplitz(sol.U, 4, 4)
        A[:16, 16] = sol.z_hat
        A[16, :16] = np.conj(sol.z_hat)
        A[16, 16] = sol.t
        d = sol.diagnostics
        primal, dual = d.primal_residuals[-1], d.dual_residuals[-1]
        alpha = admm.RELAXATION
        to_lift = (primal + (alpha - 1.0) * dual / c.rho) / alpha
        bound = math.sqrt(2.0) * to_lift / min(admm.TOEPLITZ_SCALE, admm.CORNER_SCALE) ** 2
        cone_distance = np.linalg.norm(np.minimum(np.linalg.eigvalsh(A), 0.0))
        assert d.converged and primal < c.tol * 17
        assert cone_distance <= bound + 1e-12

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
    """The sweep in unscaled form on the real lift, with a dense Q: multiplier Upsilon,
    separate ascent step, and a projection rebuilt from every clamped eigenpair, all on
    the congruent lift D L D, D = diag(a I_MN, b I_2) for a, b = ``admm.TOEPLITZ_SCALE``,
    ``admm.CORNER_SCALE``, and at its relaxation alpha D L D + (1 - alpha) Theta for
    alpha = ``admm.RELAXATION``.  L is [[Re(Q^H T(U) Q), Re w, Im w], [., S]] with
    w = Q^H z.  Each block update minimizes the augmented Lagrangian with the Frobenius
    penalty of D L D.  Returns (z, nu, primal residuals, dual residuals, final
    objective, iterations, converged)."""
    M, N = meas.M, meas.N
    mn = M * N
    s, r = meas.s_tilde, meas.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    alpha = admm.RELAXATION
    a, b = admm.TOEPLITZ_SCALE, admm.CORNER_SCALE
    Q = dense_q(mn)
    d = np.append(np.full(mn, a), [b, b])
    denom = np.abs(s) ** 2 + 2.0 * rho * (a * b) ** 2
    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    Theta = np.zeros((mn + 2, mn + 2))
    Upsilon = np.zeros_like(Theta)
    primals, duals = [], []
    converged = False
    for it in range(1, config.max_iters + 1):
        border = Q @ (Theta[:mn, mn] + 1j * Theta[:mn, mn + 1])
        border_mult = Q @ (Upsilon[:mn, mn] + 1j * Upsilon[:mn, mn + 1])
        z = (np.conj(s) * r - np.conj(s) * e + 2.0 * a * b * rho * border
             + 2.0 * a * b * border_mult) / denom
        S = (Theta[mn:, mn:] + (Upsilon[mn:, mn:] - 0.5 * lam / b ** 2 * np.eye(2)) / rho) / b ** 2
        P = Theta[:mn, :mn] + Upsilon[:mn, :mn] / rho
        U = complex_adjoint_normalized(Q @ P @ Q.conj().T, M, N) / a ** 2
        U[M - 1, N - 1] -= lam / (2.0 * mn * rho * a ** 4)
        U = symmetrize_param(U)
        if mu > 0:
            e = soft_threshold(r - s * z, mu)
        w = Q.conj().T @ z
        L = np.empty_like(Theta)
        L[:mn, :mn] = (Q.conj().T @ complex_block_toeplitz(U, M, N) @ Q).real
        L[:mn, mn], L[:mn, mn + 1] = w.real, w.imag
        L[mn:, :mn] = L[:mn, mn:].T
        L[mn:, mn:] = S
        A_hat = alpha * (d[:, None] * L * d[None, :]) + (1.0 - alpha) * Theta
        H = A_hat - Upsilon / rho
        H = 0.5 * (H + H.T)
        vals, V = np.linalg.eigh(H)
        X = (V * np.maximum(vals, 0.0)) @ V.T
        Theta_new = 0.5 * (X + X.T)
        primal = np.linalg.norm(Theta_new - A_hat)
        dual = rho * np.linalg.norm(Theta_new - Theta)
        Upsilon = Upsilon + rho * (Theta_new - A_hat)
        Theta = Theta_new
        primals.append(primal)
        duals.append(dual)
        if primal < config.tol * (mn + 1) and dual < config.tol * (mn + 1):
            converged = True
            break
    fit = r - e - s * z
    objective = (0.5 * np.vdot(fit, fit).real
                 + lam * atomic_norm_sdp_value(U, np.trace(S), M, N) + mu * np.abs(e).sum())
    nu = -2.0 * a * b * Q @ (Upsilon[:mn, mn] + 1j * Upsilon[:mn, mn + 1])
    return z, nu, primals, duals, objective, it, converged


def set_lift_scale(monkeypatch, scale):
    monkeypatch.setattr(admm, "TOEPLITZ_SCALE", scale[0])
    monkeypatch.setattr(admm, "CORNER_SCALE", scale[1])


SWEEP_CASES = [(4, 4, 1.0, 300), (4, 4, 0.0, 300), (8, 8, 1.0, 600), (8, 8, 0.0, 600),
               (3, 5, 1.0, 300), (3, 5, 0.0, 300)]
# The module's congruence keeps a case's plain id; the identity D = I adds "unscaled".
LIFT_SCALES = (((admm.TOEPLITZ_SCALE, admm.CORNER_SCALE), ""), ((1.0, 1.0), "-unscaled"))


class TestScaledForm:
    # The relaxed sweep keeps the case's plain id; the plain ADMM sweep adds "unrelaxed".
    @pytest.mark.parametrize("relaxation, scale, M, N, mu_scale, max_iters", [
        pytest.param(relaxation, scale, *case, id="-".join(map(str, case)) + suffix + scaled)
        for scale, scaled in LIFT_SCALES
        for relaxation, suffix in ((1.8, ""), (1.0, "-unrelaxed")) for case in SWEEP_CASES])
    def test_matches_unscaled_sweep(self, monkeypatch, relaxation, scale, M, N, mu_scale,
                                    max_iters):
        monkeypatch.setattr(admm, "RELAXATION", relaxation)
        set_lift_scale(monkeypatch, scale)
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

    @pytest.mark.parametrize("scale, mu_scale", [
        pytest.param(scale, mu_scale, id=f"{mu_scale}{scaled}")
        for scale, scaled in LIFT_SCALES for mu_scale in (1.0, 0.0)])
    def test_projection_input_is_exactly_hermitian(self, monkeypatch, scale, mu_scale):
        # psd_project does not symmetrize, so every sweep must build
        # G = alpha D L D + (1 - alpha) Theta - W as an exactly symmetric real array
        # of order MN+2: a^2 Re(Q^H T(U) Q) of a Hermitian-consistent U, the
        # ab [Re w, Im w] border and its transpose, a symmetric b^2 S, the previous
        # sweep's symmetric Theta and W, combined elementwise with real scalars.
        set_lift_scale(monkeypatch, scale)
        cfg, scene, meas = make_instance(M=8, N=8, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, 8, 8)
        project, calls = admm.psd_project, []

        def checked(G):
            calls.append(G.dtype == np.float64 and G.shape == (66, 66)
                         and np.array_equal(G, G.T))
            return project(G)

        monkeypatch.setattr(admm, "psd_project", checked)
        sol = solve(meas, SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600))
        assert len(calls) == sol.diagnostics.iterations > 1
        assert all(calls)


def rmse1_instance(size, seed, index):
    """One ``rmse1`` trial at M = N = ``size`` and BER 1e-2, drawn as the
    benchmark draws its trials (from SeedSequence((seed, index))), with its
    default weights."""
    spec = bench.preset("rmse1")
    cfg = replace(spec.config, M=size, N=size)
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    drawn = bench.draw_scene(replace(spec, config=cfg), rng)
    meas = simulate(drawn, cfg, qpsk(), 1e-2, rng)
    return (meas, *default_weights(cfg.sigma, size, size))


class TestCongruence:
    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    def test_same_optimum_as_identity_lift(self, monkeypatch, mu_scale):
        # D L D is PSD exactly when L is, so the scaled lift and D = I solve one
        # program: at a tight tolerance they reach the same objective and signal.
        cfg, scene, meas = make_instance(M=8, N=8, K=3, seed=22, ber=0.05)
        lam, mu = default_weights(cfg.sigma, 8, 8)
        # The scaled lift stops at 365 / 566 sweeps and D = I at 735 / 843, well
        # before the cap (objectives 1.4e-8 / 7.1e-10 apart, relative).
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=5000, tol=1e-8)
        scaled = solve(meas, c)
        set_lift_scale(monkeypatch, (1.0, 1.0))
        identity = solve(meas, c)
        assert scaled.diagnostics.converged and identity.diagnostics.converged
        want = objective_primal(identity, meas, c)
        assert abs(objective_primal(scaled, meas, c) - want) <= 1e-6 * abs(want)
        rel = np.linalg.norm(scaled.z_hat - identity.z_hat) / np.linalg.norm(identity.z_hat)
        assert rel <= 1e-5

    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    def test_scaled_lift_stops_sooner_and_more_optimal(self, monkeypatch, mu_scale):
        # Trial 1 of seed 1 of the benchmark's dual-8 workload, at the default
        # tolerance and the benchmark's 600-sweep cap: 58 against 81 sweeps on
        # CS-ANL1, 48 against 56 on CS-AN.  Fewer sweeps is a trend over trials,
        # not a bound on each: of seed 1's trials 0-7, trial 7 ties on CS-AN
        # (50 sweeps each), while every one of the 16 solves ends at a lower
        # violation.
        meas, lam, mu = rmse1_instance(size=8, seed=1, index=1)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600)

        def sweeps_and_violation():
            sol = solve(meas, c)
            assert sol.diagnostics.converged
            return sol.diagnostics.iterations, optimality_residuals(sol, meas, c).max_violation()

        scaled_sweeps, scaled_violation = sweeps_and_violation()
        set_lift_scale(monkeypatch, (1.0, 1.0))
        identity_sweeps, identity_violation = sweeps_and_violation()
        assert scaled_sweeps < identity_sweeps
        assert scaled_violation < identity_violation


class TestRealLift:
    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    @pytest.mark.parametrize("M, N", [(8, 8), (3, 5)], ids=["8x8", "3x5"])
    def test_same_optimum_as_complex_lift(self, M, N, mu_scale):
        # [[T, z], [z^H, t]] is PSD exactly when [[Re(Q^H T Q), Re w, Im w], [., S]]
        # is for some real 2 x 2 S with tr S = t (w = Q^H z), so the real lift of
        # order MN+2 and the complex lift of order MN+1 solve one program: at a
        # tight tolerance they reach the same objective and signal, at even and
        # odd MN, under one congruence D.
        cfg, scene, meas = make_instance(M=M, N=N, K=3, seed=22, ber=0.05)
        lam, mu = default_weights(cfg.sigma, M, N)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=20000, tol=1e-9)
        real = solve(meas, c)
        complex_ = complex_lift_solve(meas, c, scale=(admm.TOEPLITZ_SCALE, admm.CORNER_SCALE))
        assert real.diagnostics.converged and complex_.diagnostics.converged
        want = objective_primal(complex_, meas, c)
        assert abs(objective_primal(real, meas, c) - want) <= 1e-8 * abs(want)
        rel = np.linalg.norm(real.z_hat - complex_.z_hat) / np.linalg.norm(complex_.z_hat)
        assert rel <= 1e-6

    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    @pytest.mark.parametrize("M, N", [(8, 8), (3, 5)], ids=["8x8", "3x5"])
    def test_oracle_operators_give_the_same_solve(self, monkeypatch, M, N, mu_scale):
        # The sweep's gather and bincount against the complex operators they replaced,
        # on the whole lift: the real frame of the complex lift T(U), bordered by Q^H z
        # through the slice-update oracle and cornered by S, and the fold of the complex
        # adjoint of folded_frame's half-height input read from the lift's block, 2 Q p
        # through the slice-update oracle and the corner.  Both give the same sweeps, and
        # the same solution up to rounding.
        cfg, scene, meas = make_instance(M=M, N=N, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, M, N)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600)
        got = solve(meas, c)
        mn = M * N

        def oracle_block(U, z, S, M, N, out):
            real_frame(complex_block_toeplitz(U, M, N), out[:mn, :mn])
            w = real_frame_vector(z)
            out[:mn, mn], out[:mn, mn + 1] = w.real, w.imag
            out[mn:, :mn] = out[:mn, mn:].T
            out[mn:, mn:] = S
            return out

        def oracle_adjoint(P, M, N):
            Y = folded_frame(P[:mn, :mn], np.empty((mn - mn // 2, mn), dtype=complex))
            q = 2.0 * complex_frame_vector(P[:mn, mn] + 1j * P[:mn, mn + 1])
            return symmetrize_param(complex_adjoint_normalized(Y, M, N)), q, P[mn:, mn:].copy()

        monkeypatch.setattr(admm, "block_toeplitz", oracle_block)
        monkeypatch.setattr(admm, "adjoint_normalized", oracle_adjoint)
        assert_same_solve(got, solve(meas, c))


class TestThetaGState:
    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    @pytest.mark.parametrize("M, N", [(8, 8), (3, 5)], ids=["8x8", "3x5"])
    def test_same_solve_as_the_theta_w_sweep(self, M, N, mu_scale):
        # Carrying (Theta, G), with W = Theta - G derived, is the (Theta, W) sweep
        # rearranged: the same sweeps and stop, and the same solution and residual
        # histories up to rounding.
        cfg, scene, meas = make_instance(M=M, N=N, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, M, N)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600)
        assert_same_solve(solve(meas, c), theta_w_solve(meas, c))

    @pytest.mark.parametrize("mu_scale", [1.0, 0.0], ids=["CS-ANL1", "CS-AN"])
    @pytest.mark.parametrize("M, N", [(8, 8), (3, 5)], ids=["8x8", "3x5"])
    def test_same_solve_as_the_coefficient_pair_sweep(self, M, N, mu_scale):
        # One gather and one bincount of the whole lift are the block-only operators with
        # the border, its mirror and the corner written by hand through Q's coefficient
        # pairs: the same sweeps and stop, and the same solution and residual histories
        # up to rounding.  The optimality violation is not compared: it is a difference
        # of near-equal terms that rounding moves by about 1e-12 relative.
        cfg, scene, meas = make_instance(M=M, N=N, K=3, seed=19, ber=0.05)
        lam, mu = default_weights(cfg.sigma, M, N)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=600)
        assert_same_solve(solve(meas, c), coefficient_pair_solve(meas, c))

    def test_sweep_holds_three_lift_buffers(self, monkeypatch):
        # Theta, G and the buffer that takes P and the lift are the only arrays of order
        # MN+2 alive when the cone projection starts: the old G's storage is freed at
        # each sweep's rotation.  Warm caches first, so the lift table is not counted.
        cfg, scene, meas = make_instance(M=16, N=16, K=1, seed=18)
        lam, mu = default_weights(cfg.sigma, 16, 16)
        solve(meas, SolverConfig(lam=lam, mu=mu, max_iters=1))
        project, live = admm.psd_project, []

        def measured(G):
            live.append(tracemalloc.get_traced_memory()[0])
            return project(G)

        monkeypatch.setattr(admm, "psd_project", measured)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(meas, SolverConfig(lam=lam, mu=mu, max_iters=6))
        finally:
            tracemalloc.stop()
        assert len(live) == 6
        assert max(live) - base < 3.5 * 258 * 258 * 8

    def test_infinite_shrink_input_is_a_numeric_error(self, monkeypatch):
        # The e-update's shrink raises on an infinite entry (inf / inf) under the
        # sweep's errstate, and the solve reports it as a typed error at that sweep.
        cfg, scene, meas = make_instance(M=4, N=4, K=1, seed=18, ber=0.05)
        shrink, calls = admm._shrink, []

        def infinite(v, mu, mag, shrunk):
            calls.append(len(calls))
            v[0] = np.inf
            return shrink(v, mu, mag, shrunk)

        monkeypatch.setattr(admm, "_shrink", infinite)
        with pytest.raises(NumericError) as err:
            solve(meas, SolverConfig(lam=0.7, mu=0.17, max_iters=5))
        assert err.value.iteration == 1 and calls == [0]


class TestRelaxation:
    @pytest.mark.parametrize("mu_scale", [1.0, 0.0])
    @pytest.mark.parametrize("seed", [20, 21])
    def test_relaxed_sweep_stops_sooner_and_no_less_optimal(self, monkeypatch, seed, mu_scale):
        # At 8x8 and tol 1e-5, the module's relaxation against the plain sweep
        # (alpha = 1) on the same instance and weights.
        cfg, scene, meas = make_instance(M=8, N=8, K=3, seed=seed, ber=0.05)
        lam, mu = default_weights(cfg.sigma, 8, 8)
        c = SolverConfig(lam=lam, mu=mu * mu_scale, max_iters=5000, tol=1e-5)

        def sweeps_and_violation():
            sol = solve(meas, c)
            assert sol.diagnostics.converged
            return sol.diagnostics.iterations, optimality_residuals(sol, meas, c).max_violation()

        relaxed_sweeps, relaxed_violation = sweeps_and_violation()
        monkeypatch.setattr(admm, "RELAXATION", 1.0)
        plain_sweeps, plain_violation = sweeps_and_violation()
        assert relaxed_sweeps < plain_sweeps
        assert relaxed_violation <= plain_violation


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
