"""Structured operators for the atomic-norm semidefinite program.

A two-level Toeplitz parameter is a complex (2M-1) x (2N-1) array ``U`` whose
entry ``U[k + M - 1, l + N - 1]`` (written u_l(k)) fills every position of the
lifted MN x MN matrix T(U) with block offset l and within-block offset k: entry
(n1*M + m1, n2*M + m2) of the lift is u_{n1-n2}(m1-m2), so offset (l, k) fills
(N-|l|)(M-|k|) entries.  T(U) is Hermitian exactly when U is Hermitian-consistent,
u_{-l}(-k) == conj(u_l(k)), and is then also centro-Hermitian, J T J == conj(T) for
the exchange matrix J: reversing both flat indices negates both offsets.

The solver never forms T(U): it works in one real frame.  With n = MN and h = n // 2,
the fixed unitary Q = [[I_h, 0, i J_h], [0, sqrt(2), 0], [J_h, 0, -i I_h]] / sqrt(2)
(the middle row and column only for odd n) makes Q^H T Q real symmetric for every
centro-Hermitian T (Lee, *Centrohermitian and skew-centrohermitian matrices*, LAA 1980;
the unitary transform of Haardt & Nossek, *Unitary ESPRIT*, IEEE TSP 1995).  Each row of
Q pairs index i with n-1-i, so each entry of the real block Re(Q^H T(U) Q) is a signed
sum of two floats of U, scaled by sqrt(1/2) on odd n's middle row and column.  The
cached table of :func:`_lift_tables` lists those two floats and signs;
:func:`block_toeplitz` gathers the block through it, and :func:`adjoint_normalized`
bins a real block back through it.  That table and the two vector maps
:func:`real_frame_vector` (Q^H) and :func:`complex_frame_vector` (Q) are Q's only
owners.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
_SQRT_HALF = math.sqrt(0.5)


@lru_cache(maxsize=8)
def _lift_tables(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The real block's signed index pairs and each float's offset count (both read-only).

    For f the 2d floats of ``U``'s (real, imag) view, d = (2M-1)(2N-1), ``table[:, p, q]``
    holds the two indices into [f, -f] whose sum is entry (p, q) of Re(Q^H T(U) Q) before
    the middle scaling.  With A + iB = T(U), t the first n - h indices and b the last h,
    that sum is A[p, q] + A[p, n-1-q] on the t x t block, A[p, q] - A[p, n-1-q] on the
    b x b block and B[p, q] - B[p, n-1-q] on the t x b block, whose transpose is the b x t
    block.  Entries (p, n-1-q) and (q, n-1-p) share an offset, and the diagonal blocks
    read A[p, q] from whichever of u(o), u(-o) lies later in ``U``, so the table is
    symmetric in (p, q).  ``counts`` is (N-|l|)(M-|k|) for both floats of u_l(k).
    """
    n, h, d = M * N, M * N // 2, (2 * M - 1) * (2 * N - 1)
    # j: the flat position in U of each lift entry, whose floats are 2j and 2j + 1.
    blocks, within = np.divmod(np.arange(n), M)
    j = ((np.subtract.outer(within, within) + M - 1) * (2 * N - 1)
         + np.subtract.outer(blocks, blocks) + N - 1)
    direct, rev = 2 * np.maximum(j, j.T), 2 * j[:, ::-1]
    t, b = slice(None, n - h), slice(n - h, None)
    table = np.empty((2, n, n), dtype=np.intp)
    table[:, t, t] = direct[t, t], rev[t, t]
    table[:, b, b] = direct[b, b], rev[b, b] + 2 * d
    table[:, t, b] = 2 * j[t, b] + 1, rev[t, b] + 1 + 2 * d
    table[:, b, t] = table[:, t, b].transpose(0, 2, 1)
    counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
    counts = np.repeat(counts.ravel(), 2).astype(float)
    table.flags.writeable = False
    counts.flags.writeable = False
    return table, counts


def _scale_middle(X: np.ndarray) -> None:
    """Scale the middle row and column of X's last two axes by sqrt(1/2) in place
    (the centre twice): Q's weights on odd n's middle index."""
    h = X.shape[-1] // 2
    X[..., h, :] *= _SQRT_HALF
    X[..., h] *= _SQRT_HALF


def block_toeplitz(U: np.ndarray, M: int, N: int, out: np.ndarray) -> np.ndarray:
    """Re(Q^H T(U) Q), written over all of the real MN x MN ``out``, which is returned.

    One gather through :func:`_lift_tables` from [f, -f], f the floats of ``U``, and for
    odd MN the middle row and column scaled by sqrt(1/2).  The table is symmetric, so the
    result is exactly symmetric for any ``U``; it is the real congruence of T(U) when
    ``U`` is Hermitian-consistent, as every U of the sweep is.
    """
    n = M * N
    if U.shape != (2 * M - 1, 2 * N - 1) or out.shape != (n, n):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)} and out {(n, n)}, "
                          f"got {U.shape} and {out.shape}")
    table, _ = _lift_tables(M, N)
    floats = np.ascontiguousarray(U, dtype=complex).view(float).ravel()
    first, second = np.concatenate([floats, -floats])[table]
    np.add(first, second, out=out)
    if n % 2:
        _scale_middle(out)
    return out


def adjoint_normalized(P: np.ndarray, M: int, N: int) -> np.ndarray:
    """The Hermitian-consistent U whose :func:`block_toeplitz` is nearest the real
    MN x MN ``P`` in Frobenius norm, so the gather's left inverse on such parameters.

    ``P`` is binned through :func:`_lift_tables` (after the middle scaling, for odd MN)
    into sums S over [f, -f], read as f = S[:2d] - S[2d:]: the adjoint of the gather.
    Divided by the offset counts and folded, u_l(k) <- (u_l(k) + conj(u_{-l}(-k))) / 2, it
    is the normalized adjoint of the complex lift at Q P Q^H, since both gathers agree on
    Hermitian-consistent parameters.  ``P`` is not written.
    """
    n = M * N
    if P.shape != (n, n) or np.iscomplexobj(P):
        raise ConfigError(f"P must be a real {n} x {n} array, got {P.dtype} {P.shape}")
    table, counts = _lift_tables(M, N)
    weights = np.array(P, dtype=float)
    if n % 2:
        _scale_middle(weights)
    weights = weights.ravel()
    sums = np.bincount(table[0].ravel(), weights, 2 * counts.size)
    sums += np.bincount(table[1].ravel(), weights, 2 * counts.size)
    A = ((sums[:counts.size] - sums[counts.size:]) / counts).view(complex)
    A = A.reshape(2 * M - 1, 2 * N - 1)
    return 0.5 * (A + np.conj(A[::-1, ::-1]))


def real_frame_vector(z: np.ndarray) -> np.ndarray:
    """Q^H z: (z[p] + z[n-1-p]) / sqrt(2) on the first h entries, i (z[p] - z[n-1-p])
    / sqrt(2) on the last h, and z's middle entry for odd n."""
    n = z.shape[0]
    h = n // 2
    w = np.array(z, dtype=complex)
    w[:h] = (z[:h] + z[::-1][:h]) * _SQRT_HALF
    w[n - h:] = (z[n - h:] - z[::-1][n - h:]) * (1j * _SQRT_HALF)
    return w


def complex_frame_vector(w: np.ndarray) -> np.ndarray:
    """Q w, the inverse of :func:`real_frame_vector`: (w[p] + i w[n-1-p]) / sqrt(2)
    on the first h entries, (w[n-1-p] - i w[p]) / sqrt(2) on the last h, and w's
    middle entry for odd n."""
    n = w.shape[0]
    h = n // 2
    z = np.array(w, dtype=complex)
    z[:h] = (w[:h] + 1j * w[::-1][:h]) * _SQRT_HALF
    z[n - h:] = (w[::-1][n - h:] - 1j * w[n - h:]) * _SQRT_HALF
    return z


def psd_project(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clamped).

    ``H`` is real symmetric, as the ADMM sweep's real lift is, and must be so exactly,
    H == H^T entry for entry: ``eigh`` reads only its lower triangle.  Complex input
    raises :class:`ConfigError`, and eigendecomposition failures surface as
    :class:`NumericError`.  The result is a Gram product rebuilt from whichever side of
    the spectrum has fewer eigenpairs: F F^T for F = V+ sqrt(w+) from the positive ones,
    or H + F F^T for F = V- sqrt(-w-) from the rest, so H itself when every eigenvalue is
    positive and zero when none is.  It is a new float64 array and exactly symmetric:
    numpy forms F F^T as one ``syrk`` and mirrors its triangle.
    """
    if np.iscomplexobj(H):
        raise ConfigError(f"H must be real symmetric, got {H.dtype}")
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed on {H.shape} matrix: {exc}") from exc
    k = int(np.searchsorted(w, 0.0, side="right"))  # eigenvalues are ascending
    if 2 * k > w.size:
        F = V[:, k:] * np.sqrt(w[k:])
        return F @ F.T
    F = V[:, :k] * np.sqrt(-w[:k])
    return H + F @ F.T


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
