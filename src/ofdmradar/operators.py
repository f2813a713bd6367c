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
Q pairs index i with n-1-i, so every entry of the real lift of order n + 2,
[[Re(Q^H T(U) Q), B], [B^T, S]] with B = [Re w, Im w] for w = Q^H z, is a sum of at
most two signed floats of (U, z, S), weighted by sqrt(1/2) on the border and on odd
n's middle row and column, where Q's middle weight 1 leaves the centre A[h, h] and
the border's z_h unweighted.  The one cached table of :func:`_lift_tables` lists those
floats for every entry, signs and weights included, so it is Q's only owner:
:func:`block_toeplitz` gathers the whole lift through it, and
:func:`adjoint_normalized` bins a whole lift back through it into U, 2 Q p for the
border column p and the corner.
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
    """The real lift's signed index pairs and each float of U's offset count (both
    read-only).

    With f the 2d floats of ``U``'s (real, imag) view, d = (2M-1)(2N-1), and g the 2n
    floats of ``z``'s, ``table[:, p, q]`` holds the two indices into the source
    [f, -f, sqrt(1/2) f, -sqrt(1/2) f, sqrt(1/2) g, -sqrt(1/2) g, g, S, 0] whose sum is
    entry (p, q) of the lift; index 8d + 6n + 4 is the zero slot.  With A + iB = T(U), t
    the first n - h indices and b the last h, block entry (p, q) is A[p, q] + A[p, n-1-q]
    on the t x t block, A[p, q] - A[p, n-1-q] on the b x b block and B[p, q] - B[p, n-1-q]
    on the t x b block, whose transpose is the b x t block; odd n's middle row and column
    read the sqrt(1/2) copies, and its centre reads A[h, h] once.  Entries (p, n-1-q) and
    (q, n-1-p) share an offset, and the diagonal blocks read A[p, q] from whichever of
    u(o), u(-o) lies later in ``U``, so the table is symmetric in (p, q) outside the
    corner, which reads S as it is laid out.  Border entry (p, n + c) is float c of w_p:
    sqrt(1/2) (z_p + z_{n-1-p}) on t, i sqrt(1/2) (z_p - z_{n-1-p}) on b, and z_h on odd
    n's middle row.  ``counts`` is (N-|l|)(M-|k|) for both floats of u_l(k).
    """
    n, h, d = M * N, M * N // 2, (2 * M - 1) * (2 * N - 1)
    zero = 8 * d + 6 * n + 4
    # j: the flat position in U of each block entry, whose floats are 2j and 2j + 1.
    blocks, within = np.divmod(np.arange(n), M)
    j = ((np.subtract.outer(within, within) + M - 1) * (2 * N - 1)
         + np.subtract.outer(blocks, blocks) + N - 1)
    direct, rev = 2 * np.maximum(j, j.T), 2 * j[:, ::-1]
    t, b = slice(None, n - h), slice(n - h, n)
    table = np.empty((2, n + 2, n + 2), dtype=np.intp)
    block = table[:, :n, :n]
    block[:, t, t] = direct[t, t], rev[t, t]
    block[:, b, b] = direct[b, b], rev[b, b] + 2 * d
    block[:, t, b] = 2 * j[t, b] + 1, rev[t, b] + 1 + 2 * d
    block[:, b, t] = block[:, t, b].transpose(0, 2, 1)
    # The border's floats of z, from the sqrt(1/2) g copy at 8d (-sqrt(1/2) g 2n later).
    # Rows t read (Re, Im) of z_p and of z_{n-1-p}, rows b (-Im, Re) and (Im, -Re).
    p, k = 2 * np.arange(n), 2 * np.arange(n)[::-1]
    top = (p < 2 * (n - h))[:, None]
    rows_t = np.stack([np.column_stack([p, p + 1]), np.column_stack([k, k + 1])])
    rows_b = np.stack([np.column_stack([p + 1 + 2 * n, p]), np.column_stack([k + 1, k + 2 * n])])
    border = 8 * d + np.where(top, rows_t, rows_b)
    # Odd n's middle index, its own reverse: row and column read the sqrt(1/2) copy of
    # f, the border the unscaled g, and the centre A[h, h] once.
    mid = np.arange(n) == np.arange(n)[::-1]
    block[:, mid[:, None] ^ mid] += 4 * d
    block[1, mid[:, None] & mid] = zero
    border[0, mid] += 4 * n
    border[1, mid] = zero
    table[:, :n, n:] = border
    table[:, n:, :n] = border.transpose(0, 2, 1)
    table[0, n:, n:] = zero - 4 + np.arange(4).reshape(2, 2)
    table[1, n:, n:] = zero
    counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
    counts = np.repeat(counts.ravel(), 2).astype(float)
    table.flags.writeable = False
    counts.flags.writeable = False
    return table, counts


def _check_lift(name: str, X: np.ndarray, M: int, N: int) -> None:
    if X.shape != (M * N + 2, M * N + 2) or np.iscomplexobj(X):
        raise ConfigError(f"{name} must be a real {M * N + 2} x {M * N + 2} lift, "
                          f"got {X.dtype} {X.shape}")


def block_toeplitz(U: np.ndarray, z: np.ndarray, S: np.ndarray, M: int, N: int,
                   out: np.ndarray) -> np.ndarray:
    """The real lift [[Re(Q^H T(U) Q), B], [B^T, S]] of order MN + 2, B = [Re w, Im w]
    for w = Q^H z, written over every entry of ``out``, which is returned.

    One gather through :func:`_lift_tables` from [f, -f, sqrt(1/2) f, -sqrt(1/2) f,
    sqrt(1/2) g, -sqrt(1/2) g, g, S, 0], f and g the floats of ``U`` and ``z``.  The table
    is symmetric outside the corner, so the result is exactly symmetric for any ``U``
    and ``z`` and a symmetric ``S``; its block is the real congruence of T(U) when ``U``
    is Hermitian-consistent, as every U of the sweep is.
    """
    n = M * N
    if U.shape != (2 * M - 1, 2 * N - 1):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)}, got {U.shape}")
    if z.shape != (n,):
        raise ConfigError(f"z must be {(n,)}, got {z.shape}")
    if S.shape != (2, 2) or np.iscomplexobj(S):
        raise ConfigError(f"S must be a real 2 x 2 matrix, got {S.dtype} {S.shape}")
    _check_lift("out", out, M, N)
    table, _ = _lift_tables(M, N)
    f = np.ascontiguousarray(U, dtype=complex).view(float).ravel()
    g = np.ascontiguousarray(z, dtype=complex).view(float)
    half_f, half_g = _SQRT_HALF * f, _SQRT_HALF * g
    source = np.concatenate([f, -f, half_f, -half_f, half_g, -half_g, g, S.ravel(), [0.0]])
    first, second = source[table]
    return np.add(first, second, out=out)


def adjoint_normalized(P: np.ndarray, M: int, N: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, q, C) from the real lift ``P`` of order MN + 2, which is not written: U is the
    Hermitian-consistent parameter whose :func:`block_toeplitz` block is nearest P's
    MN x MN block in Frobenius norm (so the gather's left inverse on such parameters),
    q = 2 Q p for p = P[:MN, MN] + i P[:MN, MN + 1], and C is P's 2 x 2 corner.

    ``P`` is binned through :func:`_lift_tables` straight from its storage into sums
    over the gather's source, read back with the source's signs and weights: the
    adjoint of the gather, which for a symmetric ``P`` counts each border entry twice.
    U's floats are then divided by the offset counts and folded,
    u_l(k) <- (u_l(k) + conj(u_{-l}(-k))) / 2: the normalized adjoint of the complex
    lift at Q P[:MN, :MN] Q^H, since both gathers agree on Hermitian-consistent
    parameters.
    """
    _check_lift("P", P, M, N)
    n, d = M * N, (2 * M - 1) * (2 * N - 1)
    table, counts = _lift_tables(M, N)
    weights, size = P.ravel(), 8 * d + 6 * n + 5
    sums = np.bincount(table[0].ravel(), weights, size)
    sums += np.bincount(table[1].ravel(), weights, size)
    f = sums[:8 * d].reshape(4, 2 * d)
    g = sums[8 * d:8 * d + 6 * n].reshape(3, 2 * n)
    A = ((f[0] - f[1] + _SQRT_HALF * (f[2] - f[3])) / counts).view(complex)
    A = A.reshape(2 * M - 1, 2 * N - 1)
    q = (_SQRT_HALF * (g[0] - g[1]) + g[2]).view(complex)
    return 0.5 * (A + np.conj(A[::-1, ::-1])), q, sums[-5:-1].reshape(2, 2)


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
    mutates nothing.  Input whose magnitudes are finite raises no floating-point error.
    An infinite entry makes inf / inf, an ``invalid`` operation: under
    ``errstate(invalid="raise")``, as in the ADMM sweep, it raises
    :class:`FloatingPointError` (which :func:`.admm.solve` turns into
    :class:`NumericError`), and where ``invalid`` is ignored, as in
    :func:`soft_threshold` and CS-L1's loop, that entry comes back NaN."""
    magnitude = np.abs(v, out=mag)
    shrunk = np.maximum(np.subtract(magnitude, mu, out=shrunk), 0.0, out=shrunk)
    # The floor only replaces |v_i| == 0, so every nonzero magnitude, subnormal
    # ones included, divides by itself; inf/inf (infinite input) gives NaN.
    ratio = np.divide(shrunk, np.maximum(magnitude, _SMALLEST_SUBNORMAL, out=mag), out=mag)
    return np.multiply(v, ratio, out=None if mag is None else v), shrunk
