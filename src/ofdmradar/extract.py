"""Dual-certificate frequency extraction and amplitude recovery.

The dual vector of the denoising program defines a 2-D trigonometric
polynomial ``Q(phi, psi) = <nu, atom(phi, psi)>`` whose magnitude touches the
atomic-norm weight exactly at the recovered frequencies.  Peaks are found on
an oversampled uniform grid (the DFT lattice, whose factors :func:`_dft_factors`
owns) and refined by Newton ascent on |Q|^2 (``scene.steering`` owns the atom
off the lattice); amplitudes come from least squares against ``scene.atoms``.
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
# Newton refinement: step cap and gradient tolerance relative to max(1, |Q|^2).
MAX_NEWTON_STEPS = 50
GRAD_TOL = 1e-8
# Error support: |e_hat| above ERROR_REL_TOL of the data scale.
ERROR_REL_TOL = 1e-6
# Largest dictionary condition number the amplitude fit accepts.
COND_MAX = 1e10


@dataclass(frozen=True)
class Peak:
    phi: float
    psi: float
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


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


def _poly_derivs(V: np.ndarray, phi: float, psi: float) -> np.ndarray:
    """Derivatives of Q = b(phi)^H V g(psi): T[i, j] = d^(i+j) Q / dphi^i dpsi^j, i, j <= 2."""
    M, N = V.shape
    b_g = steering([phi, psi], max(M, N))
    slope = 2j * np.pi * np.arange(max(M, N))[:, None]
    # D[i, :, 0] is the i-th derivative of b in phi, D[i, :, 1] that of g in psi.
    D = np.stack([b_g, slope * b_g, slope * (slope * b_g)])
    return D[:, :M, 0].conj() @ V @ D[:, :N, 1].T


def refine_peak(nu: np.ndarray, phi: float, psi: float, M: int, N: int) -> Peak:
    """Newton ascent on |Q|^2 from a grid-local maximum.

    Falls back to damped steps when the full Newton step does not increase
    |Q|^2.  A step is taken only when |Q|^2 rises, so the point returned when
    the gradient tolerance is not reached is the best one seen.
    """
    V = _dual_matrix(nu, M, N)

    def value_grad_hess(p, s):
        # Q, its gradient J and Hessian; |Q|^2 has gradient 2 Re(conj(Q) J) and
        # Hessian 2 Re(conj(J) J^T + conj(Q) Hess Q).
        T = _poly_derivs(V, p, s)
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
            cand[cand == 1.0] = 0.0  # a tiny negative x + step wraps to 1.0
            Qc, Fc, gc, Hc = value_grad_hess(*cand)
            if Fc > F:
                x, Q, F, g, H = cand, Qc, Fc, gc, Hc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return Peak(phi=float(x[0]), psi=float(x[1]), value=complex(Q))


def _same_cell(f, g, M: int, N: int) -> bool:
    """Whether (phi, psi) pairs f and g lie within half a resolution cell on both wrapped axes."""
    dphi, dpsi = abs(f[0] - g[0]) % 1.0, abs(f[1] - g[1]) % 1.0
    return min(dphi, 1.0 - dphi) < 0.5 / M and min(dpsi, 1.0 - dpsi) < 0.5 / N


def wrapped_local_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the strict local maxima of a 2-D grid, neighbours wrapping around."""
    is_max = np.ones_like(values, dtype=bool)
    for dp in (-1, 0, 1):
        for dq in (-1, 0, 1):
            if dp == 0 and dq == 0:
                continue
            is_max &= values > np.roll(np.roll(values, dp, axis=0), dq, axis=1)
    return is_max


def locate_peaks(nu: np.ndarray, lam: float, M: int, N: int, *,
                 grid_factor: int = GRID_FACTOR) -> list[Peak]:
    """Frequencies where |Q| reaches the certificate level.

    Strict local maxima of |Q| on a ``grid_factor``-oversampled wrapped grid
    with |Q| >= (1 - REL_THRESHOLD) * lam are Newton-refined, then peaks
    closer than half a resolution cell in both coordinates are merged
    (largest magnitude wins).
    """
    if lam <= 0:
        raise ConfigError(f"lam must be positive, got {lam}")
    grid_phi, grid_psi = grid_factor * M, grid_factor * N
    mag = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
    level = (1.0 - REL_THRESHOLD) * lam
    cand = np.argwhere(wrapped_local_maxima(mag) & (mag >= level))

    refined = [refine_peak(nu, p / grid_phi, q / grid_psi, M, N) for p, q in cand]
    refined = [pk for pk in refined if pk.magnitude >= level]
    refined.sort(key=lambda pk: (-pk.magnitude, pk.phi, pk.psi))

    kept: list[Peak] = []
    for pk in refined:
        if not any(_same_cell((pk.phi, pk.psi), (other.phi, other.psi), M, N)
                   for other in kept):
            kept.append(pk)
    return kept


def dual_atomic_norm(nu: np.ndarray, M: int, N: int) -> float:
    """max |Q| over frequencies: grid scan plus one Newton refinement."""
    grid_phi, grid_psi = GRID_FACTOR * M, GRID_FACTOR * N
    mag = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
    p, q = np.unravel_index(int(np.argmax(mag)), mag.shape)
    peak = refine_peak(nu, p / grid_phi, q / grid_psi, M, N)
    return max(float(mag[p, q]), peak.magnitude)


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
        close = [(i, j) for i in range(len(freqs)) for j in range(i + 1, len(freqs))
                 if _same_cell(freqs[i], freqs[j], M, N)]
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
    """Peaks of the solver's dual certificate, error support and amplitudes."""
    M, N = measurement.M, measurement.N
    peaks = locate_peaks(solution.nu_hat, lam, M, N, grid_factor=grid_factor)
    support = detect_error_support(solution.e_hat, mu, float(np.max(np.abs(measurement.r_bar))))
    freqs = [(pk.phi, pk.psi) for pk in peaks]
    alphas = (ls_amplitudes(measurement.r_bar, measurement.s_tilde, solution.e_hat, freqs, M, N)
              if freqs else [])
    return ranked_estimate(freqs, alphas, [pk.magnitude for pk in peaks], support)
