import numpy as np
import pytest

from ofdmradar import Path, RadarConfig, Scene, atoms, dual_poly_grid, steering
from ofdmradar.baselines import _synthesize
from ofdmradar.extract import GRAD_TOL, MAX_NEWTON_STEPS, Peak, _dual_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_config(M=8, N=8, noise_power_db=-20.0):
    return RadarConfig(M=M, N=N, delta_f=5e3, T_cp=1e-4, f_c=2e9,
                       noise_power_db=noise_power_db)


def atom(phi, psi, M, N):
    """The one atom at (phi, psi): column 0 of ``atoms``."""
    return atoms([(phi, psi)], M, N)[:, 0]


def symmetrize_param(U):
    """Project onto Hermitian-consistent parameters: u_l(k) <- (u_l(k) + conj(u_{-l}(-k)))/2."""
    return 0.5 * (U + np.conj(U[::-1, ::-1]))


def scalar_refine_peak(nu, phi, psi, M, N):
    """Oracle: Newton ascent on |Q|^2 from one start, one point per evaluation.

    Same steps, fallbacks, line search, stop rules and wrap rule as
    ``extract.refine_peak``, with the Newton system solved by ``np.linalg.solve``.
    """
    V = _dual_matrix(nu, M, N)

    def value_grad_hess(p, s):
        b_g = steering([p, s], max(M, N))
        slope = 2j * np.pi * np.arange(max(M, N))[:, None]
        D = np.stack([b_g, slope * b_g, slope * (slope * b_g)])
        T = D[:, :M, 0].conj() @ V @ D[:, :N, 1].T
        Q = T[0, 0]
        J = np.array([T[1, 0], T[0, 1]])
        hess_Q = np.array([[T[2, 0], T[1, 1]], [T[1, 1], T[0, 2]]])
        g = 2.0 * (np.conj(Q) * J).real
        H = 2.0 * (np.outer(J.conj(), J) + np.conj(Q) * hess_Q).real
        return Q, abs(Q) ** 2, g, H

    x = np.array([phi, psi], dtype=float)
    Q, F, g, H = value_grad_hess(*x)
    for _ in range(MAX_NEWTON_STEPS):
        if np.linalg.norm(g) <= GRAD_TOL * max(1.0, F):
            break
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g / max(np.linalg.norm(H, ord=2), 1.0)
        if step @ g <= 0:
            step = g / max(abs(H[0, 0]) + abs(H[1, 1]), 1.0)
        improved = False
        for _ in range(25):
            cand = (x + step) % 1.0
            cand[cand == 1.0] = 0.0
            Qc, Fc, gc, Hc = value_grad_hess(*cand)
            if Fc > F:
                x, Q, F, g, H = cand, Qc, Fc, gc, Hc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return Peak(phi=float(x[0]), psi=float(x[1]), value=complex(Q))


def residual_at_w_gap(w, l1, nu_x, measurement, config):
    """Oracle: CS-L1's relative duality gap with the residual r - A w as its only dual point.

    It takes the x-step's point ``nu_x`` as ``baselines._csl1_gap`` does and ignores it, so
    patched in for that function it gives the solve the earlier, residual-at-w stop.
    """
    M, N = measurement.M, measurement.N
    s, r, gamma = measurement.s_tilde, measurement.r_bar, config.gamma
    nu = r - s * _synthesize(w, M, N, config.M_grid, config.N_grid)
    corr_max = float(np.abs(dual_poly_grid(np.conj(s) * nu, M, N, config.M_grid,
                                           config.N_grid)).max())
    theta = gamma / max(corr_max, gamma)
    sq = float(np.vdot(nu, nu).real)
    primal = 0.5 * sq + gamma * l1
    return (primal - (theta * float(np.vdot(r, nu).real) - 0.5 * theta * theta * sq)) / primal


def random_consistent_param(rng, M, N):
    """Random Toeplitz parameter satisfying the Hermitian-consistency tie."""
    U = rng.normal(size=(2 * M - 1, 2 * N - 1)) + 1j * rng.normal(size=(2 * M - 1, 2 * N - 1))
    return symmetrize_param(U)


def two_path_scene(rng, M, N, min_sep=1.5, amp=1.0):
    """Two unit-power paths separated by at least min_sep resolution cells."""
    while True:
        phis = rng.uniform(0, 1, 2)
        psis = rng.uniform(0, 1, 2)
        dphi = min(abs(phis[0] - phis[1]) % 1, 1 - abs(phis[0] - phis[1]) % 1)
        dpsi = min(abs(psis[0] - psis[1]) % 1, 1 - abs(psis[0] - psis[1]) % 1)
        if dphi >= min_sep / M or dpsi >= min_sep / N:
            break
    paths = tuple(Path(alpha=amp * np.exp(2j * np.pi * rng.uniform()),
                       phi=float(phis[k]), psi=float(psis[k])) for k in range(2))
    return Scene(targets=paths)
