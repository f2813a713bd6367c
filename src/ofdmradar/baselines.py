"""Comparison receivers: 2D-MUSIC with spatial smoothing and grid-based CS-L1.

Both emit the same :class:`~ofdmradar.extract.Estimate` as the
dual-certificate receiver, so all algorithms share one evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .extract import (Estimate, _dft_factors, dual_poly_grid, ls_amplitudes, ranked_estimate,
                      wrapped_local_maxima)
from .operators import _shrink
from .scene import Measurement

# Per-axis oversampling of the default CS-L1 dictionary grid.
CSL1_GRID_FACTOR = 4


@dataclass(frozen=True)
class MusicConfig:
    """Subarray sizes, signal-subspace dimension, and spectrum grid."""

    M_sub: int
    N_sub: int
    K_signal: int | str = "auto"
    grid_phi: int = 256
    grid_psi: int = 256


@dataclass(frozen=True)
class CsL1Config:
    """Dictionary grid sizes and l1 weight for the on-grid sparse fit."""

    M_grid: int
    N_grid: int
    gamma: float
    max_iters: int = 4000
    tol: float = 1e-10

    def __post_init__(self):
        if self.M_grid < 1 or self.N_grid < 1:
            raise ConfigError(f"need M_grid, N_grid >= 1, got ({self.M_grid}, {self.N_grid})")
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")


def default_music_config(M: int, N: int, K_signal="auto", grid_factor: int = 16) -> MusicConfig:
    return MusicConfig(M_sub=M // 2, N_sub=N // 2, K_signal=K_signal,
                       grid_phi=grid_factor * M, grid_psi=grid_factor * N)


def default_csl1_config(M: int, N: int, sigma: float) -> CsL1Config:
    """Paper-style defaults: 4x oversampled grid, gamma = 2 sigma sqrt(2 log L)."""
    M_grid, N_grid = CSL1_GRID_FACTOR * M, CSL1_GRID_FACTOR * N
    return CsL1Config(M_grid=M_grid, N_grid=N_grid,
                      gamma=2.0 * sigma * math.sqrt(2.0 * math.log(M_grid * N_grid)))


def spatial_smooth(measurement: Measurement, config: MusicConfig) -> np.ndarray:
    """Overlapping-subarray observation matrix of the symbol-normalized data.

    Snapshot (m, n) is the column-major vec of the M_sub x N_sub submatrix of
    R = r/s anchored at block m, subcarrier n; columns are ordered with the
    subcarrier anchor varying fastest.
    """
    M, N = measurement.M, measurement.N
    Ms, Ns = config.M_sub, config.N_sub
    if not (1 <= Ms < M and 1 <= Ns < N):
        raise ConfigError(f"need 1 <= M_sub < M and 1 <= N_sub < N, got ({Ms}, {Ns})")
    Rn = measurement.r_bar.reshape(M, N, order="F") / measurement.S_hat
    windows = np.lib.stride_tricks.sliding_window_view(Rn, (Ms, Ns))
    # axes (m, n, p, q) -> (q, p, m, n); C-reshape then gives row q*Ms+p,
    # column m*(N-Ns+1)+n.
    return windows.transpose(3, 2, 0, 1).reshape(Ms * Ns, -1).copy()


def _signal_dimension(svals: np.ndarray, config: MusicConfig) -> int:
    limit = config.M_sub * config.N_sub
    if config.K_signal == "auto":
        upper = max(1, min(limit // 2, len(svals) - 1))
        ratios = svals[:upper] / np.maximum(svals[1:upper + 1], 1e-300)
        k = int(np.argmax(ratios)) + 1
    else:
        k = int(config.K_signal)
    if not (1 <= k < limit):
        raise ConfigError(f"signal dimension must be in [1, {limit}), got {k}")
    return k


def _music(observation: np.ndarray, config: MusicConfig) -> tuple[np.ndarray, int]:
    """Spectrum and signal dimension from one SVD of the observation."""
    Ms, Ns = config.M_sub, config.N_sub
    if observation.shape[0] != Ms * Ns:
        raise ConfigError(f"observation must have {Ms * Ns} rows, got {observation.shape[0]}")
    try:
        F, svals, _ = np.linalg.svd(observation, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed on observation matrix: {exc}") from exc
    k = _signal_dimension(svals, config)
    denom = np.zeros((config.grid_phi, config.grid_psi))
    for j in range(k, F.shape[1]):
        denom += np.abs(dual_poly_grid(F[:, j], Ms, Ns, config.grid_phi, config.grid_psi)) ** 2
    return 1.0 / np.maximum(denom, 1e-300), k


def music_spectrum(observation: np.ndarray, config: MusicConfig) -> np.ndarray:
    """Noise-subspace spectrum 1/||F_n^H a'(phi, psi)||^2 on the config grid.

    The left singular vectors beyond the signal dimension form the noise
    subspace F_n; each |f^H a'| on the grid is ``|dual_poly_grid(f)|``, a DFT-factor product.
    """
    return _music(observation, config)[0]


def music_estimate(measurement: Measurement, config: MusicConfig) -> Estimate:
    """Pick the strongest spectrum peaks and fit amplitudes by least squares."""
    M, N = measurement.M, measurement.N
    spectrum, k = _music(spatial_smooth(measurement, config), config)

    cells = np.argwhere(wrapped_local_maxima(spectrum))
    vals = spectrum[cells[:, 0], cells[:, 1]]
    order = np.argsort(-vals)[:k]
    freqs = [(cells[i, 0] / config.grid_phi, cells[i, 1] / config.grid_psi)
             for i in order]
    alphas = (ls_amplitudes(measurement.r_bar, measurement.s_tilde, None, freqs, M, N)
              if freqs else [])
    return ranked_estimate(freqs, alphas, vals[order])


def csl1_dictionary(M: int, N: int, M_grid: int, N_grid: int) -> np.ndarray:
    """Dense reference dictionary: atoms on the (p/M_grid, q/N_grid) lattice.

    Column q*M_grid+p is the atom at that lattice point.  :func:`csl1_estimate`
    applies this matrix and its adjoint as DFT-factor products without building it.
    """
    if M_grid < M or N_grid < N:
        raise ConfigError("dictionary grid must be at least as fine as the data")
    B = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M_grid) / M_grid))
    Gc = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N_grid) / N_grid))
    return np.kron(Gc, B)


def _synthesize(X: np.ndarray, M: int, N: int, M_grid: int, N_grid: int) -> np.ndarray:
    """C x for :func:`csl1_dictionary` as B^H X G^H: the exact adjoint of ``dual_poly_grid``.

    ``X`` is x on its (M_grid, N_grid) lattice or flattened column-major.
    """
    _, _, BH, GH = _dft_factors(M, N, M_grid, N_grid)
    return (BH @ X.reshape(M_grid, N_grid, order="F") @ GH).ravel(order="F")


def csl1_estimate(measurement: Measurement, config: CsL1Config) -> Estimate:
    """Accelerated proximal-gradient solve of the on-grid l1 program.

    Minimizes 0.5*||r - S C alpha||^2 + gamma*||alpha||_1 for the dictionary
    C of :func:`csl1_dictionary`, applied by cached DFT factors: C x is
    :func:`_synthesize` and C^H y is ``dual_poly_grid`` of y, on the (M_grid,
    N_grid) lattice that holds the iterate.  The rows of C are orthogonal, so
    L = M_grid * N_grid * max|s|^2 is exactly the largest eigenvalue of the
    Gram matrix; the step is 1/(1.01 L).

    Each iteration runs one synthesis, of x, and one adjoint.  The
    extrapolated point is y = x + beta (x - x_prev), so C y is the same
    combination of C x and C x_prev; C x itself is always synthesized, so
    rounding does not accumulate.  Each step works in place in the adjoint's
    output, and the l1 term sums the shrunk magnitudes max(|v| - gamma/L, 0)
    that the threshold formed instead of taking |x| again.  Stops on relative
    objective change below ``tol``.  Entries above 1e-3 of the largest
    magnitude become paths at their grid frequencies.
    """
    M, N = measurement.M, measurement.N
    Mg, Ng = config.M_grid, config.N_grid
    s = measurement.s_tilde
    r = measurement.r_bar
    gamma = config.gamma

    L = 1.01 * Mg * Ng * float(np.max(np.abs(s))) ** 2
    # The step 1/L scales the M*N residual rather than the lattice-sized gradient.
    s_conj_step = np.conj(s) / L
    mag, shrunk = np.empty((Mg, Ng)), np.empty((Mg, Ng))
    x = np.zeros((Mg, Ng), dtype=complex)
    Cx = np.zeros(M * N, dtype=complex)
    y, Cy = x, Cx
    tau = 1.0
    obj_prev = 0.5 * float(np.vdot(r, r).real)
    increases = 0
    with np.errstate(invalid="ignore"):
        for _ in range(config.max_iters):
            x_new = dual_poly_grid(s_conj_step * (s * Cy - r), M, N, Mg, Ng)
            np.subtract(y, x_new, out=x_new)
            _shrink(x_new, gamma / L, mag, shrunk)
            Cx_new = _synthesize(x_new, M, N, Mg, Ng)
            tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
            beta = (tau - 1.0) / tau_new
            y = x_new - x
            y *= beta
            y += x_new
            Cy = Cx_new + beta * (Cx_new - Cx)
            x, Cx, tau = x_new, Cx_new, tau_new

            fit = s * Cx - r
            obj = 0.5 * float(np.vdot(fit, fit).real) + gamma * float(shrunk.sum())
            if not math.isfinite(obj):
                raise NumericError("non-finite objective in proximal gradient")
            if obj > obj_prev:
                # Momentum overshoot: restart acceleration.  A restarted step is
                # plain proximal descent, so repeated increases mean a bad step.
                y, Cy, tau = x, Cx, 1.0
                increases += 1
                if increases > 10:
                    raise NumericError("proximal gradient diverged (objective rose 10 steps in a row)")
            else:
                increases = 0
                if abs(obj_prev - obj) <= config.tol * max(1.0, abs(obj)):
                    break
            obj_prev = obj

    # Column-major flat index l = q*Mg + p, the dictionary's column order.
    x = x.ravel(order="F")
    mags = np.abs(x)
    sel = np.flatnonzero(mags > 1e-3 * float(mags.max(initial=0.0)))
    freqs = [(int(l % Mg) / Mg, int(l // Mg) / Ng) for l in sel]
    return ranked_estimate(freqs, x[sel], mags[sel])
