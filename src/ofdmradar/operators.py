"""Structured operators for the atomic-norm semidefinite program.

A two-level Toeplitz parameter is a complex (2M-1) x (2N-1) array ``U`` whose
entry ``U[k + M - 1, l + N - 1]`` (written u_l(k)) fills every position of the
lifted MN x MN matrix with block offset l and within-block offset k: entry
(n1*M + m1, n2*M + m2) of the lift is u_{n1-n2}(m1-m2).  That layout is one
strided view of ``U``, which :func:`block_toeplitz` copies out, and
:func:`adjoint_normalized` averages back through the same view taken of each
entry's flat position in ``U``.  The lift is Hermitian exactly when
u_{-l}(-k) == conj(u_l(k)), and is then also centro-Hermitian, J T J == conj(T)
for the exchange matrix J: reversing both flat indices negates both offsets.

With n = MN and h = n // 2, the fixed unitary
Q = [[I_h, 0, i J_h], [0, sqrt(2), 0], [J_h, 0, -i I_h]] / sqrt(2) (the middle row
and column only for odd n) makes Q^H T Q real symmetric for every centro-Hermitian
T (Lee, *Centrohermitian and skew-centrohermitian matrices*, LAA 1980; the unitary
transform of Haardt & Nossek, *Unitary ESPRIT*, IEEE TSP 1995).  Each row of Q pairs
index i with n-1-i, so :func:`real_frame` applies the congruence and
:func:`real_frame_vector` and :func:`complex_frame_vector` Q^H and Q, with reversed
views in O(n^2) and O(n).  The inverse congruence Q P Q^H is never formed: the
adjoint reads only its offset sums, which :func:`folded_frame` carries in the leading
n - h rows of a cheaper complex matrix, zero below them, and only those rows are binned.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
_SQRT_HALF = math.sqrt(0.5)


@lru_cache(maxsize=8)
def _adjoint_tables(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin in ``U``'s (real, imag) float view of each float of the lift, and
    each bin's count (both read-only)."""
    flat = np.arange((2 * M - 1) * (2 * N - 1)).reshape(2 * M - 1, 2 * N - 1)
    index = 2 * block_toeplitz(flat, M, N).ravel()
    bins = np.stack([index, index + 1], axis=1).ravel()
    counts = np.bincount(bins).astype(float)
    bins.flags.writeable = False
    counts.flags.writeable = False
    return bins, counts


def block_toeplitz(U: np.ndarray, M: int, N: int) -> np.ndarray:
    """Two-level Toeplitz lift of ``U``, a new C-contiguous array of ``U``'s dtype.

    Block (j1, j2) of the result (each M x M) is the Toeplitz matrix of column
    u_{j1-j2}, whose (a, b) entry is u_{j1-j2}(a-b).  It is a copy of one view of
    ``U`` over (n1, m1, n2, m2), based at u_0(0) with strides (s1, s0, -s1, -s0)
    for ``U``'s strides (s0, s1).
    """
    if U.shape != (2 * M - 1, 2 * N - 1):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)}, got {U.shape}")
    U = np.ascontiguousarray(U)
    s0, s1 = U.strides
    view = np.ndarray((N, M, N, M), U.dtype, U, (M - 1) * s0 + (N - 1) * s1,
                      (s1, s0, -s1, -s0))
    return view.copy().reshape(M * N, M * N)


def adjoint_normalized(P: np.ndarray, M: int, N: int) -> np.ndarray:
    """Average ``P`` over each (block offset, within-block offset) index set.

    Left inverse of :func:`block_toeplitz`: offsets (l, k) average the
    (N-|l|)(M-|k|) entries of ``P`` that the lift fills from u_l(k).  ``P`` is the
    MN x MN matrix or its leading r > 0 rows, the rest taken as zero and not binned.
    """
    if P.ndim != 2 or P.shape[1] != M * N or not 0 < P.shape[0] <= M * N:
        raise ConfigError(f"P must be r x {M * N} for 0 < r <= {M * N}, got {P.shape}")
    bins, counts = _adjoint_tables(M, N)
    floats = np.ascontiguousarray(P, dtype=complex).view(float).ravel()
    sums = np.bincount(bins[:floats.size], weights=floats, minlength=counts.size)
    return (sums / counts).view(complex).reshape(2 * M - 1, 2 * N - 1)


def real_frame(T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re(Q^H T Q) of a centro-Hermitian T, exactly symmetric, written over all of ``out``.

    T must be Hermitian and centro-Hermitian entry for entry, as :func:`block_toeplitz`
    of a Hermitian-consistent parameter is.  Then, with A + iB = T and p, q both in the
    first n - h indices (top) or both in the last h (bottom), entry (p, q) is
    A[p, q] + A[p, n-1-q] (top) or A[p, q] - A[p, n-1-q] (bottom), and entry (p, q)
    with p top and q bottom is B[p, q] - B[p, n-1-q]; the middle row and column of
    odd n take a further 1/sqrt(2).  Each entry is one sum of two entries of T that
    its mirror entry sums alike, and the bottom-left block is the top-right one
    transposed, so the result is exactly symmetric.
    """
    n = T.shape[0]
    h = n // 2
    top, bottom = slice(None, n - h), slice(n - h, None)
    A, B = T.real, T.imag
    A_rev, B_rev = A[:, ::-1], B[:, ::-1]
    np.add(A[top, top], A_rev[top, top], out=out[top, top])
    np.subtract(A[bottom, bottom], A_rev[bottom, bottom], out=out[bottom, bottom])
    np.subtract(B[top, bottom], B_rev[top, bottom], out=out[top, bottom])
    if n % 2:
        out[h] *= _SQRT_HALF
        out[top, h] *= _SQRT_HALF
    out[bottom, top] = out[top, bottom].T
    return out


def folded_frame(P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Leading n - h rows of a Y whose folded normalized adjoint is Q P Q^H's, P real symmetric.

    For A = :func:`adjoint_normalized` (Y), the fold (A + conj(A[::-1, ::-1])) / 2 is
    the normalized adjoint of Q P Q^H up to rounding, and exactly Hermitian-consistent.
    The adjoint reads only offset sums.  The conjugate transpose and the conjugated
    reversal of both indices each map offset (l, k) to (-l, -k), so either one's
    adjoint is the fold's second term; their product, the anti-transpose, keeps (l, k).
    Q P Q^H is fixed by all three, so any Y whose four images sum to 4 Q P Q^H will do.
    This one is zero below row n - h.  With t the first h indices, b the last h and
    D = P[::-1] - P[:, ::-1]: Y[t, t] = (P + P[::-1, ::-1] + iD)[t, t],
    Y[t, b] = (2iP - D)[t, b], and for odd n, Y[h, q] = 2 sqrt(2) (P[h, q] -
    i P[h, n-1-q]) for q < h, Y[h, h] = P[h, h] and zero in the rest of row and column h,
    all written over the (n - h) x n complex ``out``, which is returned.
    """
    n = P.shape[0]
    h = n // 2
    t, b = slice(None, h), slice(n - h, None)
    rows_rev, cols_rev = P[::-1], P[:, ::-1]
    re, im = out.real, out.imag
    np.add(P[t, t], rows_rev[:, ::-1][t, t], out=re[t, t])
    np.subtract(rows_rev[t, t], cols_rev[t, t], out=im[t, t])
    np.subtract(cols_rev[t, b], rows_rev[t, b], out=re[t, b])
    np.multiply(P[t, b], 2.0, out=im[t, b])
    if n % 2:
        np.multiply(P[h, :h], 2.0 / _SQRT_HALF, out=re[h, :h])
        np.multiply(cols_rev[h, :h], -2.0 / _SQRT_HALF, out=im[h, :h])
        out[:h, h] = out[h, h:] = 0.0
        re[h, h] = P[h, h]
    return out


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

    ``H`` is real symmetric (as the ADMM sweep's real lift is) or complex Hermitian,
    and must be so exactly, H == H^H entry for entry: ``eigh`` reads only its lower
    triangle.  Eigendecomposition failures surface as :class:`NumericError`.  The
    result is a Gram product rebuilt from whichever side of the spectrum has fewer
    eigenpairs: F F^H for F = V+ sqrt(w+) from the positive ones, or H + F F^H for
    F = V- sqrt(-w-) from the rest, so H itself when every eigenvalue is positive and
    zero when none is.  It is a new array of H's dtype and exactly symmetric
    (Hermitian): numpy forms a real F F^T as one ``syrk`` and mirrors its triangle.
    A complex Gram product is not exactly Hermitian, so complex input, which only the
    tests' complex lift oracle passes, is symmetrized as (X + X^H) / 2.
    """
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed on {H.shape} matrix: {exc}") from exc
    k = int(np.searchsorted(w, 0.0, side="right"))  # eigenvalues are ascending
    if 2 * k > w.size:
        F = V[:, k:] * np.sqrt(w[k:])
        X = F @ F.conj().T
    else:
        F = V[:, :k] * np.sqrt(-w[:k])
        X = H + F @ F.conj().T
    if np.iscomplexobj(X):
        X = 0.5 * (X + X.conj().T)
    return X


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
