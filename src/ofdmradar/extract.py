"""Dual-certificate frequency extraction and amplitude recovery.

The dual vector of the denoising program defines a 2-D trigonometric
polynomial ``Q(phi, psi) = <nu, atom(phi, psi)>`` whose magnitude touches the
atomic-norm weight exactly at the recovered frequencies.  Peaks are found on
an oversampled uniform grid (the DFT lattice, whose factors :func:`_dft_factors`
owns) and refined all at once by one batched Newton ascent on |Q|^2, which
evaluates Q and its derivatives at every pending point in two stacked matrix
products (``scene.steering`` owns the atom off the lattice).  Its one step rule,
the saddle-free step |H|^-1 g, ascends at indefinite Hessians too, and each
candidate stops at a gradient relative to |Q|^2, so the batch ends when its
candidates reach their maxima.  Peaks stay arrays: K (phi, psi) rows and Q there,
with |Q| as ``np.hypot`` (``abs(complex)`` bit for bit; ``np.abs`` is not).
Amplitudes come from least squares against ``scene.atoms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateDictionaryError
from .scene import Path, atoms, steering

# Oversampling of the peak scan grid over the data dimensions.
GRID_FACTOR = 16
# Peaks count when |Q| reaches (1 - REL_THRESHOLD) * lam.
REL_THRESHOLD = 0.02
# Newton refinement: step cap, gradient tolerance relative to |Q|^2 (the gradient
# scales with |Q|^2, so the test does not depend on the data scale), and the floor
# on the Hessian's eigenvalue magnitudes, relative to the larger one.
MAX_NEWTON_STEPS = 50
GRAD_TOL = 1e-6
EIG_FLOOR = 1e-3
_TINY = np.finfo(float).tiny
# A line search ends once the rise g.step predicts is at most RISE_FLOOR * |Q|^2, a
# thousandth of an ulp, where an evaluation can show a rise only as rounding noise.
# A floor of a few ulps would also end ascents that such a noise step lets rise on
# to meet GRAD_TOL.
RISE_FLOOR = 1e-3 * np.finfo(float).eps
# Error support: |e_hat| above ERROR_REL_TOL of the data scale.
ERROR_REL_TOL = 1e-6
# Largest dictionary condition number the amplitude fit accepts.
COND_MAX = 1e10


@dataclass(frozen=True)
class Estimate:
    """Recovered paths plus detected demodulation-error support.

    Paths are sorted by amplitude magnitude, descending; ``dual_peak_values``
    holds the per-path detection statistic (|Q| at the peak for the
    dual-certificate receivers, the spectrum or lasso magnitude for the
    baselines).
    """

    paths: tuple[Path, ...]
    error_support: tuple[int, ...] = ()
    dual_peak_values: tuple[float, ...] = ()


def _dual_matrix(nu: np.ndarray, M: int, N: int) -> np.ndarray:
    """Reshape the dual vector so row m, column n holds entry n*M + m."""
    return np.asarray(nu).reshape(M, N, order="F")


@lru_cache(maxsize=8)
def _dft_factors(M: int, N: int, grid_phi: int, grid_psi: int):
    """Read-only DFT factors (B, G, B^H, G^H): Q on the grid is B V G.

    Phases are reduced mod the grid size before ``exp`` to stay accurate on large
    grids.  B^H and G^H are transposed views, which BLAS takes without a copy.
    """
    if grid_phi < M or grid_psi < N:
        raise ConfigError("grid must be at least as fine as the data dimensions")
    B = np.exp(-2j * np.pi / grid_phi * (np.outer(np.arange(grid_phi), np.arange(M)) % grid_phi))
    G = np.exp(2j * np.pi / grid_psi * (np.outer(np.arange(N), np.arange(grid_psi)) % grid_psi))
    factors = (B, G, B.conj().T, G.conj().T)
    for f in factors:
        f.flags.writeable = False
    return factors


def dual_poly_grid(nu: np.ndarray, M: int, N: int, grid_phi: int,
                   grid_psi: int) -> np.ndarray:
    """Q on the grid (p/grid_phi, q/grid_psi) as B (V G); V G first is cheaper for N >= M."""
    B, G, _, _ = _dft_factors(M, N, grid_phi, grid_psi)
    return B @ (_dual_matrix(nu, M, N) @ G)


def _poly_derivs(V: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative tables of Q = b(phi)^H V g(psi) at the P points x (P x 2).

    T[k, i, j] = d^(i+j) Q / dphi^i dpsi^j at x[k], i, j <= 2: one product of the
    stacked phi-derivative rows with V, then one stacked product with the psi columns.
    """
    M, N = V.shape
    P, L = len(x), max(M, N)
    slope = 2j * np.pi * np.arange(L)
    b_g = steering(x.ravel(), L).T.reshape(P, 2, 1, L)
    # D[k, 0, i] is the i-th derivative of b at phi_k, D[k, 1, i] that of g at psi_k.
    D = np.concatenate([b_g, slope * b_g, slope * (slope * b_g)], axis=2)
    rows = (D[:, 0, :, :M].conj().reshape(3 * P, M) @ V).reshape(P, 3, N)
    return rows @ D[:, 1, :, :N].transpose(0, 2, 1)


def _value_grad_hess(V: np.ndarray, x: np.ndarray):
    """Q, |Q|^2 and the gradient (P x 2) and Hessian (P x 3: H00, H01, H11) of |Q|^2 at x.

    |Q|^2 has gradient 2 Re(conj(Q) J) and Hessian 2 Re(conj(J) J^T + conj(Q) Hess Q)
    for the gradient J and Hessian Hess Q of Q.
    """
    T = _poly_derivs(V, x).reshape(-1, 9)
    # Flat index 3i + j holds d^(i+j) Q / dphi^i dpsi^j: J is (3, 1), Hess Q is (6, 4, 2).
    Q, J = T[:, 0], T[:, 3:0:-2]
    conj_Q = Q.conj()[:, None]
    H = conj_Q * T[:, 6:1:-2]
    H[:, :2] += J[:, :1].conj() * J
    H[:, 2] += J[:, 1].conj() * J[:, 1]
    return Q, np.abs(Q) ** 2, 2.0 * (conj_Q * J).real, 2.0 * H.real


def _ascent_steps(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Saddle-free steps |H|^-1 g of P 2x2 systems in closed form.

    |H| = V |Lambda| V^T has the eigenvectors of H and the magnitudes of its
    eigenvalues, each floored at EIG_FLOOR times the larger one, so every step
    ascends where g != 0, and where H is negative definite it is the Newton step
    -H^-1 g (Dauphin et al., *Identifying and attacking the saddle point problem in
    high-dimensional non-convex optimization*, NeurIPS 2014).  With H = m I + r R for
    the mean eigenvalue m, half the eigenvalue gap r and a reflection R, whose +1
    eigenvector is that of m + r, |H|^-1 = (1/|m+r| + 1/|m-r|) I / 2
    + (1/|m+r| - 1/|m-r|) R / 2.
    """
    mean = 0.5 * (H[:, 0] + H[:, 2])
    d = 0.5 * (H[:, 0] - H[:, 2])
    radius = np.hypot(d, H[:, 1])
    mags = np.abs([mean + radius, mean - radius])
    # The absolute floor keeps H = 0 from dividing by zero.
    inv = 1.0 / np.maximum(mags, np.maximum(EIG_FLOOR * mags.max(axis=0), _TINY))
    radius[radius == 0.0] = 1.0  # H = m I: R g is then 0, and so is its weight
    # R = [[d, H01], [H01, -d]] / r.
    Rg = np.stack([d * g[:, 0] + H[:, 1] * g[:, 1],
                   H[:, 1] * g[:, 0] - d * g[:, 1]], axis=1) / radius[:, None]
    return 0.5 * ((inv[0] + inv[1])[:, None] * g + (inv[0] - inv[1])[:, None] * Rg)


def _newton_ascent(V: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Saddle-free Newton ascent on |Q|^2 from P start points at once; returns the
    points and Q there.

    Each candidate runs its own ascent: up to MAX_NEWTON_STEPS steps of
    :func:`_ascent_steps`, each halved up to 25 times until |Q|^2 rises, with
    coordinates wrapped into [0, 1).  A candidate stops once its gradient norm is at
    most GRAD_TOL * |Q|^2, or when no halving rises; the halvings end early once the
    rise g.step that the step predicts is at most RISE_FLOOR * |Q|^2.  A step is taken
    only when |Q|^2 rises, so the point kept is the best one seen.  Each evaluation
    covers only the candidates still moving, and in the line search only those still
    pending.
    """
    x = np.array(starts, dtype=float)
    Q, F, g, H = _value_grad_hess(V, x)
    moving = np.arange(len(x))
    stalled = np.zeros(len(x), dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        moving = moving[np.linalg.norm(g[moving], axis=1) > GRAD_TOL * F[moving]]
        if not moving.size:
            break
        pending, step = moving, _ascent_steps(g[moving], H[moving])
        rise = np.einsum("ij,ij->i", g[moving], step)
        for _ in range(25):
            live = rise > RISE_FLOOR * F[pending]
            stalled[pending[~live]] = True
            pending, step, rise = pending[live], step[live], rise[live]
            if not pending.size:
                break
            cand = (x[pending] + step) % 1.0
            cand[cand == 1.0] = 0.0  # a tiny negative x + step wraps to 1.0
            Qc, Fc, gc, Hc = _value_grad_hess(V, cand)
            up = Fc > F[pending]
            k = pending[up]
            x[k], Q[k], F[k], g[k], H[k] = cand[up], Qc[up], Fc[up], gc[up], Hc[up]
            pending, step, rise = pending[~up], step[~up] * 0.5, rise[~up] * 0.5
        stalled[pending] = True
        moving = moving[~stalled[moving]]
    return x, Q


def refine_peak(nu: np.ndarray, phi: float, psi: float, M: int, N: int):
    """(phi, psi, Q) after Newton ascent from one start; for the benchmark's trace and tests."""
    x, Q = _newton_ascent(_dual_matrix(nu, M, N), np.array([[phi, psi]]))
    return float(x[0, 0]), float(x[0, 1]), complex(Q[0])


def _same_cell_mask(freqs, M: int, N: int) -> np.ndarray:
    """P x P mask of the (phi, psi) pairs within half a resolution cell on both wrapped axes."""
    f = np.asarray(freqs, dtype=float).reshape(-1, 2)
    d = np.abs(f[:, None, :] - f[None, :, :]) % 1.0
    d = np.minimum(d, 1.0 - d)
    return (d[..., 0] < 0.5 / M) & (d[..., 1] < 0.5 / N)


def _merge_cells(freqs: np.ndarray, M: int, N: int) -> np.ndarray:
    """Greedy half-cell merge: in the given order, keep each (phi, psi) row that shares no
    cell with one already kept (:func:`_same_cell_mask`); returns the kept row indices."""
    same = _same_cell_mask(freqs, M, N)
    taken = np.zeros(len(freqs), dtype=bool)
    kept = []
    for i in range(len(freqs)):
        if not taken[i]:
            kept.append(i)
            taken |= same[i]
    return np.array(kept, dtype=int)


def wrapped_local_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the strict local maxima of a 2-D grid, neighbours wrapping around: each
    entry against the 8 shifted views of the grid padded by one wrapped row and column."""
    rows, cols = values.shape
    padded = np.pad(values, 1, mode="wrap")
    is_max = np.ones(values.shape, dtype=bool)
    for dp in range(3):
        for dq in range(3):
            if dp != 1 or dq != 1:
                is_max &= values > padded[dp:dp + rows, dq:dq + cols]
    return is_max


def locate_peaks(nu: np.ndarray, lam: float, M: int, N: int, *,
                 grid_factor: int = GRID_FACTOR) -> tuple[np.ndarray, np.ndarray]:
    """K x 2 frequencies (phi, psi) where |Q| reaches the certificate level, and Q there.

    Strict local maxima of |Q| on a ``grid_factor``-oversampled wrapped grid
    with |Q| >= (1 - REL_THRESHOLD) * lam are refined together by one batched
    Newton ascent (:func:`_newton_ascent`).  Those still at that level, ordered by
    |Q| descending, then phi, then psi, merge within half a resolution cell in
    both coordinates (the first in that order wins).
    """
    if not 0 < lam < np.inf:
        raise ConfigError(f"lam must be positive and finite, got {lam}")
    grid_phi, grid_psi = grid_factor * M, grid_factor * N
    grid = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
    level = (1.0 - REL_THRESHOLD) * lam
    cand = np.argwhere(wrapped_local_maxima(grid) & (grid >= level))

    x, Q = _newton_ascent(_dual_matrix(nu, M, N), cand / (grid_phi, grid_psi))
    mag = np.hypot(Q.real, Q.imag)
    at_level = mag >= level
    x, Q, mag = x[at_level], Q[at_level], mag[at_level]
    order = np.lexsort((x[:, 1], x[:, 0], -mag))
    kept = order[_merge_cells(x[order], M, N)]
    return x[kept], Q[kept]


def dual_atomic_norm(nu: np.ndarray, M: int, N: int) -> float:
    """max |Q| over frequencies: grid scan plus one Newton refinement."""
    grid_phi, grid_psi = GRID_FACTOR * M, GRID_FACTOR * N
    mag = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
    p, q = np.unravel_index(int(np.argmax(mag)), mag.shape)
    _, Q = _newton_ascent(_dual_matrix(nu, M, N), np.array([[p / grid_phi, q / grid_psi]]))
    return max(float(mag[p, q]), abs(complex(Q[0])))


def detect_error_support(e_hat: np.ndarray, mu: float, scale: float) -> tuple[int, ...]:
    """Indices where |e_hat| exceeds ``ERROR_REL_TOL * scale``; none when ``mu == 0``."""
    if mu == 0:
        return ()
    return tuple(int(i) for i in np.flatnonzero(np.abs(e_hat) > ERROR_REL_TOL * scale))


def ls_amplitudes(r_bar: np.ndarray, s_tilde: np.ndarray, e_hat,
                  freqs, M: int, N: int) -> np.ndarray:
    """Least-squares path amplitudes for fixed frequencies.

    Solves min_alpha ||r - e - S C(freqs) alpha||_2 through an orthogonal
    factorization; a dictionary condition number beyond ``COND_MAX`` raises
    with the near-duplicate frequency pairs listed.
    """
    freqs = list(freqs)
    if not freqs:
        raise ConfigError("freqs must be nonempty")
    if len(freqs) > M * N:
        raise ConfigError(f"cannot fit {len(freqs)} paths with {M * N} samples")
    A = s_tilde[:, None] * atoms(freqs, M, N)
    target = r_bar - (0 if e_hat is None else e_hat)
    alpha, _, _, svals = np.linalg.lstsq(A, target, rcond=None)
    cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
    if cond > COND_MAX:
        close = np.argwhere(np.triu(_same_cell_mask(freqs, M, N), 1))
        raise DegenerateDictionaryError(
            f"dictionary condition number {cond:.3e} exceeds {COND_MAX:.1e}",
            pairs=[(freqs[i], freqs[j]) for i, j in close] or list(freqs))
    return alpha


def ranked_estimate(freqs, alphas, stats, error_support=()) -> Estimate:
    """Paths at ``freqs`` ranked by |alpha|, descending, each keeping its statistic."""
    order = np.argsort(-np.abs(alphas))
    return Estimate(paths=tuple(Path(alpha=complex(alphas[i]), phi=freqs[i][0], psi=freqs[i][1])
                                for i in order),
                    error_support=error_support,
                    dual_peak_values=tuple(float(stats[i]) for i in order))


def estimate_from_solution(solution, measurement, lam: float, mu: float, *,
                           grid_factor: int = GRID_FACTOR) -> Estimate:
    """Peaks of the solver's dual certificate, error support and amplitudes; each path
    keeps |Q| at its peak as its ``dual_peak_values`` entry."""
    M, N = measurement.M, measurement.N
    freqs, values = locate_peaks(solution.nu_hat, lam, M, N, grid_factor=grid_factor)
    support = detect_error_support(solution.e_hat, mu, float(np.max(np.abs(measurement.r_bar))))
    alphas = (ls_amplitudes(measurement.r_bar, measurement.s_tilde, solution.e_hat, freqs, M, N)
              if len(freqs) else [])
    return ranked_estimate(freqs.tolist(), alphas, np.hypot(values.real, values.imag), support)
