"""Dual-certificate frequency extraction and amplitude recovery.

The dual vector of the denoising program defines a 2-D trigonometric
polynomial ``Q(phi, psi) = <nu, atom(phi, psi)>`` whose magnitude touches the
atomic-norm weight exactly at the recovered frequencies.  Peaks are found on
an oversampled uniform grid (evaluated with zero-padded FFTs) and refined by
Newton ascent on |Q|^2; amplitudes then come from least squares against the
detected atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDictionaryError
from .scene import Path, atom

TWO_PI = 2.0 * np.pi
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


def dual_polynomial(nu: np.ndarray, phi: float, psi: float, M: int, N: int) -> complex:
    """Evaluate Q(phi, psi) = sum_j nu_j * conj(atom_j(phi, psi))."""
    return complex(np.vdot(atom(phi, psi, M, N), nu))


def dual_poly_grid(nu: np.ndarray, M: int, N: int, grid_phi: int,
                   grid_psi: int) -> np.ndarray:
    """Q on the uniform grid (p/grid_phi, q/grid_psi) via zero-padded FFTs."""
    if grid_phi < M or grid_psi < N:
        raise ConfigError("grid must be at least as fine as the data dimensions")
    V = _dual_matrix(nu, M, N)
    inner = np.fft.ifft(V, n=grid_psi, axis=1) * grid_psi
    return np.fft.fft(inner, n=grid_phi, axis=0)


def _poly_derivs(V: np.ndarray, phi: float, psi: float):
    """Q and its first/second partial derivatives at one point."""
    M, N = V.shape
    m = np.arange(M)
    n = np.arange(N)
    W = V * np.exp(-1j * TWO_PI * phi * m)[:, None] * np.exp(1j * TWO_PI * psi * n)[None, :]
    cm = -1j * TWO_PI * m
    cn = 1j * TWO_PI * n
    Q = W.sum()
    Qp = (cm[:, None] * W).sum()
    Qs = (cn[None, :] * W).sum()
    Qpp = ((cm ** 2)[:, None] * W).sum()
    Qss = ((cn ** 2)[None, :] * W).sum()
    Qps = (cm[:, None] * cn[None, :] * W).sum()
    return Q, Qp, Qs, Qpp, Qss, Qps


def refine_peak(nu: np.ndarray, phi: float, psi: float, M: int, N: int) -> Peak:
    """Newton ascent on |Q|^2 from a grid-local maximum.

    Falls back to damped steps when the full Newton step does not increase
    |Q|^2.  A step is taken only when |Q|^2 rises, so the point returned when
    the gradient tolerance is not reached is the best one seen.
    """
    V = _dual_matrix(nu, M, N)

    def value_grad_hess(p, s):
        Q, Qp, Qs, Qpp, Qss, Qps = _poly_derivs(V, p, s)
        F = abs(Q) ** 2
        g = np.array([2.0 * (np.conj(Q) * Qp).real, 2.0 * (np.conj(Q) * Qs).real])
        H = np.array([
            [2.0 * (abs(Qp) ** 2 + (np.conj(Q) * Qpp).real),
             2.0 * ((np.conj(Qp) * Qs).real + (np.conj(Q) * Qps).real)],
            [2.0 * ((np.conj(Qp) * Qs).real + (np.conj(Q) * Qps).real),
             2.0 * (abs(Qs) ** 2 + (np.conj(Q) * Qss).real)],
        ])
        return Q, F, g, H

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
            Qc, Fc, gc, Hc = value_grad_hess(*cand)
            if Fc > F:
                x, Q, F, g, H = cand, Qc, Fc, gc, Hc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return Peak(phi=float(x[0]), psi=float(x[1]), value=complex(Q))


def _wrapped_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


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
        dup = any(_wrapped_dist(pk.phi, other.phi) < 0.5 / M
                  and _wrapped_dist(pk.psi, other.psi) < 0.5 / N
                  for other in kept)
        if not dup:
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
    A = np.stack([s_tilde * atom(phi, psi, M, N) for phi, psi in freqs], axis=1)
    target = r_bar - (0 if e_hat is None else e_hat)
    alpha, _, _, svals = np.linalg.lstsq(A, target, rcond=None)
    cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
    if cond > COND_MAX:
        close = [(i, j) for i in range(len(freqs)) for j in range(i + 1, len(freqs))
                 if _wrapped_dist(freqs[i][0], freqs[j][0]) < 0.5 / M
                 and _wrapped_dist(freqs[i][1], freqs[j][1]) < 0.5 / N]
        raise DegenerateDictionaryError(
            f"dictionary condition number {cond:.3e} exceeds {COND_MAX:.1e}",
            pairs=[(freqs[i], freqs[j]) for i, j in close] or list(freqs))
    return alpha


def estimate_from_solution(solution, measurement, lam: float, mu: float, *,
                           grid_factor: int = GRID_FACTOR) -> Estimate:
    """Peaks of the solver's dual certificate, error support and amplitudes."""
    M, N = measurement.M, measurement.N
    nu_hat, e_hat = solution.nu_hat, solution.e_hat
    peaks = locate_peaks(nu_hat, lam, M, N, grid_factor=grid_factor)
    support = detect_error_support(e_hat, mu, float(np.max(np.abs(measurement.r_bar))))
    if not peaks:
        return Estimate(paths=(), error_support=support, dual_peak_values=())
    freqs = [(pk.phi, pk.psi) for pk in peaks]
    alphas = ls_amplitudes(measurement.r_bar, measurement.s_tilde, e_hat, freqs, M, N)
    order = np.argsort(-np.abs(alphas))
    paths = tuple(Path(alpha=complex(alphas[i]), phi=peaks[i].phi, psi=peaks[i].psi)
                  for i in order)
    mags = tuple(peaks[i].magnitude for i in order)
    return Estimate(paths=paths, error_support=support, dual_peak_values=mags)
