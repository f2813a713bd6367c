"""Structured operators for the atomic-norm semidefinite program.

A two-level Toeplitz parameter is a complex (2M-1) x (2N-1) array ``U`` whose
entry ``U[k + M - 1, l + N - 1]`` (written u_l(k)) fills every position of the
lifted MN x MN matrix with block offset l and within-block offset k: entry
(n1*M + m1, n2*M + m2) of the lift is u_{n1-n2}(m1-m2).  One index map holds
that layout as the flat (row-major) position in ``U`` of each lift entry;
:func:`block_toeplitz` gathers through it and :func:`adjoint_normalized`
averages back through it.  The lift is Hermitian exactly when
u_{-l}(-k) == conj(u_l(k)).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


@lru_cache(maxsize=8)
def _lift_index(M: int, N: int) -> np.ndarray:
    """Flat position in ``U`` of each entry of the MN x MN lift (read-only)."""
    m = np.tile(np.arange(M), N)
    n = np.repeat(np.arange(N), M)
    rows = m[:, None] - m[None, :] + (M - 1)
    cols = n[:, None] - n[None, :] + (N - 1)
    index = rows * (2 * N - 1) + cols
    index.flags.writeable = False
    return index


@lru_cache(maxsize=8)
def _adjoint_tables(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin in ``U``'s (real, imag) float view of each float of the lift, and
    each bin's count (both read-only)."""
    index = 2 * _lift_index(M, N).ravel()
    bins = np.stack([index, index + 1], axis=1).ravel()
    counts = np.bincount(bins).astype(float)
    bins.flags.writeable = False
    counts.flags.writeable = False
    return bins, counts


def block_toeplitz(U: np.ndarray, M: int, N: int) -> np.ndarray:
    """Two-level Toeplitz lift of ``U``.

    Block (j1, j2) of the result (each M x M) is the Toeplitz matrix of column
    u_{j1-j2}, whose (a, b) entry is u_{j1-j2}(a-b).
    """
    if U.shape != (2 * M - 1, 2 * N - 1):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)}, got {U.shape}")
    return U.ravel()[_lift_index(M, N)]


def adjoint_normalized(P: np.ndarray, M: int, N: int) -> np.ndarray:
    """Average ``P`` over each (block offset, within-block offset) index set.

    Left inverse of :func:`block_toeplitz`: offsets (l, k) average the
    (N-|l|)(M-|k|) entries of ``P`` that the lift fills from u_l(k).
    """
    if P.shape != (M * N, M * N):
        raise ConfigError(f"P must be {(M * N, M * N)}, got {P.shape}")
    bins, counts = _adjoint_tables(M, N)
    floats = np.ascontiguousarray(P, dtype=complex).view(float).ravel()
    sums = np.bincount(bins, weights=floats)
    return (sums / counts).view(complex).reshape(2 * M - 1, 2 * N - 1)


def symmetrize_param(U: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-consistent parameters: u_l(k) <- (u_l(k) + conj(u_{-l}(-k)))/2."""
    return 0.5 * (U + np.conj(U[::-1, ::-1]))


def psd_project(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clamped).

    ``H`` must be exactly Hermitian, H == H^H entry for entry: ``eigh`` reads only
    its lower triangle.  Eigendecomposition failures surface as :class:`NumericError`.
    The result is rebuilt from whichever side of the spectrum has fewer eigenpairs:
    V+ w+ V+^H from the positive ones, or H - V- w- V-^H from the rest, so H itself
    when every eigenvalue is positive and zero when none is.  It is exactly Hermitian.
    """
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed on {H.shape} matrix: {exc}") from exc
    k = int(np.searchsorted(w, 0.0, side="right"))  # eigenvalues are ascending
    if 2 * k > w.size:
        X = (V[:, k:] * w[k:]) @ V[:, k:].conj().T
    else:
        X = H - (V[:, :k] * w[:k]) @ V[:, :k].conj().T
    return 0.5 * (X + X.conj().T)


def soft_threshold(v: np.ndarray, mu: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by ``mu``, keeping phases.

    Entries with |v_i| <= mu map to zero; otherwise to (|v_i| - mu) * v_i/|v_i|.
    """
    if mu < 0:
        raise ConfigError(f"threshold must be nonnegative, got {mu}")
    with np.errstate(invalid="ignore"):
        return _shrink(np.asarray(v), mu)[0]


def _shrink(v: np.ndarray, mu: float, mag=None, shrunk=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`soft_threshold` of ``v`` and max(|v_i| - mu, 0).  Given real buffers
    ``mag`` and ``shrunk`` of v's shape, it overwrites them and ``v``; without, it
    mutates nothing.  The caller ignores ``invalid`` floating-point errors."""
    magnitude = np.abs(v, out=mag)
    shrunk = np.maximum(np.subtract(magnitude, mu, out=shrunk), 0.0, out=shrunk)
    # The floor only replaces |v_i| == 0, so every nonzero magnitude, subnormal
    # ones included, divides by itself; inf/inf (infinite input) gives NaN.
    ratio = np.divide(shrunk, np.maximum(magnitude, _SMALLEST_SUBNORMAL, out=mag), out=mag)
    return np.multiply(v, ratio, out=None if mag is None else v), shrunk
