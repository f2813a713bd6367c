"""Comparison receivers: 2D-MUSIC with spatial smoothing and grid-based CS-L1.

Both emit the same :class:`~ofdmradar.extract.Estimate` as the
dual-certificate receiver, so all algorithms share one evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .extract import Estimate, ls_amplitudes, wrapped_local_maxima
from .operators import soft_threshold
from .scene import Measurement, Path


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


def default_music_config(M: int, N: int, K_signal="auto", grid_factor: int = 16) -> MusicConfig:
    return MusicConfig(M_sub=M // 2, N_sub=N // 2, K_signal=K_signal,
                       grid_phi=grid_factor * M, grid_psi=grid_factor * N)


def default_csl1_config(M: int, N: int, sigma: float, grid_factor: int = 4,
                        max_iters: int = 4000, tol: float = 1e-10) -> CsL1Config:
    """Paper-style defaults: 4x oversampled grid, gamma = 2 sigma sqrt(2 log L)."""
    L = (grid_factor * M) * (grid_factor * N)
    return CsL1Config(M_grid=grid_factor * M, N_grid=grid_factor * N,
                      gamma=2.0 * sigma * math.sqrt(2.0 * math.log(L)),
                      max_iters=max_iters, tol=tol)


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


def music_spectrum(observation: np.ndarray, config: MusicConfig) -> np.ndarray:
    """Noise-subspace spectrum 1/||F_n^H a'(phi, psi)||^2 on the config grid.

    The left singular vectors beyond the signal dimension form the noise
    subspace; the projection onto each grid steering vector is evaluated with
    zero-padded FFTs.
    """
    Ms, Ns = config.M_sub, config.N_sub
    if observation.shape[0] != Ms * Ns:
        raise ConfigError(f"observation must have {Ms * Ns} rows, got {observation.shape[0]}")
    try:
        F, svals, _ = np.linalg.svd(observation, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed on observation matrix: {exc}") from exc
    k = _signal_dimension(svals, config)
    noise = F[:, k:]
    # Column q*Ms+p of a noise vector corresponds to subarray cell (p, q).
    mats = np.conj(noise).reshape(Ms, Ns, -1, order="F")
    X = np.fft.ifft(mats, n=config.grid_phi, axis=0) * config.grid_phi
    X = np.fft.fft(X, n=config.grid_psi, axis=1)
    denom = np.sum(np.abs(X) ** 2, axis=2)
    return 1.0 / np.maximum(denom, 1e-300)


def music_estimate(measurement: Measurement, config: MusicConfig) -> Estimate:
    """Pick the strongest spectrum peaks and fit amplitudes by least squares."""
    M, N = measurement.M, measurement.N
    observation = spatial_smooth(measurement, config)
    svals = np.linalg.svd(observation, compute_uv=False)
    k = _signal_dimension(svals, config)
    spectrum = music_spectrum(observation, config)

    cells = np.argwhere(wrapped_local_maxima(spectrum))
    if cells.size == 0:
        return Estimate(paths=(), error_support=(), dual_peak_values=())
    vals = spectrum[cells[:, 0], cells[:, 1]]
    order = np.argsort(-vals)[:k]
    freqs = [(cells[i, 0] / config.grid_phi, cells[i, 1] / config.grid_psi)
             for i in order]
    peak_vals = [float(vals[i]) for i in order]

    alphas = ls_amplitudes(measurement.r_bar, measurement.s_tilde, None, freqs, M, N)
    rank = np.argsort(-np.abs(alphas))
    paths = tuple(Path(alpha=complex(alphas[i]), phi=freqs[i][0], psi=freqs[i][1])
                  for i in rank)
    return Estimate(paths=paths, error_support=(),
                    dual_peak_values=tuple(peak_vals[i] for i in rank))


def csl1_dictionary(M: int, N: int, M_grid: int, N_grid: int) -> np.ndarray:
    """Atoms on the uniform (p/M_grid, q/N_grid) lattice; column index q*M_grid+p."""
    if M_grid < M or N_grid < N:
        raise ConfigError("dictionary grid must be at least as fine as the data")
    B = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M_grid) / M_grid))
    Gc = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N_grid) / N_grid))
    return np.kron(Gc, B)


def _lipschitz(A: np.ndarray, iters: int = 60) -> float:
    """Largest eigenvalue of A^H A by power iteration (deterministic start)."""
    v = np.sum(A, axis=0).conj()
    if not np.any(v):
        v = np.ones(A.shape[1], dtype=complex)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = A.conj().T @ (A @ v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 1.0
        v = w / est
    return est


def csl1_estimate(measurement: Measurement, config: CsL1Config) -> Estimate:
    """Accelerated proximal-gradient solve of the on-grid l1 program.

    Minimizes 0.5*||r - S C alpha||^2 + gamma*||alpha||_1 with fixed step
    1/L, L the largest eigenvalue of the Gram matrix; stops on relative
    objective change below ``tol``.  Entries above 1e-3 of the largest
    magnitude become paths at their grid frequencies.
    """
    M, N = measurement.M, measurement.N
    C = csl1_dictionary(M, N, config.M_grid, config.N_grid)
    A = measurement.s_tilde[:, None] * C
    r = measurement.r_bar
    gamma = config.gamma

    L = 1.01 * _lipschitz(A)
    x = np.zeros(A.shape[1], dtype=complex)
    y = x
    tau = 1.0
    obj_prev = 0.5 * float(np.vdot(r, r).real)
    increases = 0
    for _ in range(config.max_iters):
        grad = A.conj().T @ (A @ y - r)
        x_new = soft_threshold(y - grad / L, gamma / L)
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        y = x_new + ((tau - 1.0) / tau_new) * (x_new - x)
        x, tau = x_new, tau_new

        fit = A @ x - r
        obj = 0.5 * float(np.vdot(fit, fit).real) + gamma * float(np.sum(np.abs(x)))
        if not math.isfinite(obj):
            raise NumericError("non-finite objective in proximal gradient")
        if obj > obj_prev:
            # Momentum overshoot: restart acceleration.  A restarted step is
            # plain proximal descent, so repeated increases mean a bad step.
            y, tau = x, 1.0
            increases += 1
            if increases > 10:
                raise NumericError("proximal gradient diverged (objective rose 10 steps in a row)")
        else:
            increases = 0
            if abs(obj_prev - obj) <= config.tol * max(1.0, abs(obj)):
                obj_prev = obj
                break
        obj_prev = obj

    mags = np.abs(x)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return Estimate(paths=(), error_support=(), dual_peak_values=())
    sel = np.flatnonzero(mags > 1e-3 * top)
    order = sel[np.argsort(-mags[sel])]
    paths = []
    for l in order:
        p = int(l % config.M_grid)
        q = int(l // config.M_grid)
        paths.append(Path(alpha=complex(x[l]), phi=p / config.M_grid, psi=q / config.N_grid))
    return Estimate(paths=tuple(paths), error_support=(),
                    dual_peak_values=tuple(float(mags[l]) for l in order))
