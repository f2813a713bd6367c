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
sum of two floats of U, scaled by sqrt(1/2) on odd n's middle row and column.  The one
cached table of :func:`_lift_tables` lists those two floats and signs for every entry
of the real lift of order n + 2 that the ADMM sweep projects, with the lift's last two
rows and columns pointing at a zero slot: :func:`block_toeplitz` gathers the whole lift
through it (the block, and zeros beside it), and :func:`adjoint_normalized` bins a whole
lift back through it, its last two rows and columns falling into a discarded bin.  Q's
two vector maps are the cached coefficient pairs of :func:`frame_pairs`: each entry of
Q x and Q^H z is a weighted sum of the vector's entries i and n-1-i.  The table and the
pairs are Q's only owners.
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
    """The real lift's signed index pairs and each float's offset count (both read-only).

    For f the 2d floats of ``U``'s (real, imag) view, d = (2M-1)(2N-1), ``table[:, p, q]``
    holds the two indices into [f, -f, 0] whose sum is entry (p, q) of Re(Q^H T(U) Q)
    before the middle scaling, for p, q < n; on the lift's last two rows and columns
    (p or q >= n) both indices are 4d, the zero slot, which the adjoint's bincount
    discards.  With A + iB = T(U), t the first n - h indices and b the last h, the sum is
    A[p, q] + A[p, n-1-q] on the t x t block, A[p, q] - A[p, n-1-q] on the b x b block
    and B[p, q] - B[p, n-1-q] on the t x b block, whose transpose is the b x t block.
    Entries (p, n-1-q) and (q, n-1-p) share an offset, and the diagonal blocks read
    A[p, q] from whichever of u(o), u(-o) lies later in ``U``, so the table is symmetric
    in (p, q).  ``counts`` is (N-|l|)(M-|k|) for both floats of u_l(k).
    """
    n, h, d = M * N, M * N // 2, (2 * M - 1) * (2 * N - 1)
    # j: the flat position in U of each block entry, whose floats are 2j and 2j + 1.
    blocks, within = np.divmod(np.arange(n), M)
    j = ((np.subtract.outer(within, within) + M - 1) * (2 * N - 1)
         + np.subtract.outer(blocks, blocks) + N - 1)
    direct, rev = 2 * np.maximum(j, j.T), 2 * j[:, ::-1]
    t, b = slice(None, n - h), slice(n - h, n)
    table = np.full((2, n + 2, n + 2), 4 * d, dtype=np.intp)
    table[:, t, t] = direct[t, t], rev[t, t]
    table[:, b, b] = direct[b, b], rev[b, b] + 2 * d
    table[:, t, b] = 2 * j[t, b] + 1, rev[t, b] + 1 + 2 * d
    table[:, b, t] = table[:, t, b].transpose(0, 2, 1)
    counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
    counts = np.repeat(counts.ravel(), 2).astype(float)
    table.flags.writeable = False
    counts.flags.writeable = False
    return table, counts


def _scale_middle(X: np.ndarray, h: int) -> None:
    """Scale row and column ``h`` of X by sqrt(1/2) in place (entry (h, h) twice): Q's
    weights on odd n's middle index h = n // 2."""
    X[h] *= _SQRT_HALF
    X[:, h] *= _SQRT_HALF


def _check_lift(name: str, X: np.ndarray, M: int, N: int) -> None:
    if X.shape != (M * N + 2, M * N + 2) or np.iscomplexobj(X):
        raise ConfigError(f"{name} must be a real {M * N + 2} x {M * N + 2} lift, "
                          f"got {X.dtype} {X.shape}")


def block_toeplitz(U: np.ndarray, M: int, N: int, out: np.ndarray) -> np.ndarray:
    """Re(Q^H T(U) Q) on the MN x MN block of the real lift ``out`` of order MN + 2, and
    zero on its last two rows and columns: every entry of ``out`` is written, and
    ``out`` is returned.

    One gather through :func:`_lift_tables` from [f, -f, 0], f the floats of ``U``, and
    for odd MN the block's middle row and column scaled by sqrt(1/2).  The table is
    symmetric, so the result is exactly symmetric for any ``U``; its block is the real
    congruence of T(U) when ``U`` is Hermitian-consistent, as every U of the sweep is.
    """
    n = M * N
    if U.shape != (2 * M - 1, 2 * N - 1):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)}, got {U.shape}")
    _check_lift("out", out, M, N)
    table, _ = _lift_tables(M, N)
    floats = np.ascontiguousarray(U, dtype=complex).view(float).ravel()
    first, second = np.concatenate([floats, -floats, [0.0]])[table]
    np.add(first, second, out=out)
    if n % 2:
        _scale_middle(out, n // 2)
    return out


def adjoint_normalized(P: np.ndarray, M: int, N: int) -> np.ndarray:
    """The Hermitian-consistent U whose :func:`block_toeplitz` block is nearest the
    MN x MN block of the real lift ``P`` (order MN + 2) in Frobenius norm, so the
    gather's left inverse on such parameters.  ``P``'s last two rows and columns are not
    read, and ``P`` is not written.

    ``P`` is binned through :func:`_lift_tables` straight from its storage (from a copy
    whose block's middle row and column are scaled by sqrt(1/2), for odd MN) into sums S
    over [f, -f], read as f = S[:2d] - S[2d:4d], S[4d] being the discarded bin: the
    adjoint of the gather.  Divided by the offset counts and folded,
    u_l(k) <- (u_l(k) + conj(u_{-l}(-k))) / 2, it is the normalized adjoint of the
    complex lift at Q P[:MN, :MN] Q^H, since both gathers agree on Hermitian-consistent
    parameters.
    """
    _check_lift("P", P, M, N)
    n = M * N
    table, counts = _lift_tables(M, N)
    weights = P
    if n % 2:
        weights = np.array(P, dtype=float)
        _scale_middle(weights, n // 2)
    weights, size = weights.ravel(), 2 * counts.size
    sums = np.bincount(table[0].ravel(), weights, size + 1)
    sums += np.bincount(table[1].ravel(), weights, size + 1)
    A = ((sums[:counts.size] - sums[counts.size:size]) / counts).view(complex)
    A = A.reshape(2 * M - 1, 2 * N - 1)
    return 0.5 * (A + np.conj(A[::-1, ::-1]))


@lru_cache(maxsize=8)
def frame_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Q's two vector maps of order n as coefficient pairs (all four read-only):
    Q x = c1 x + c2 x[::-1] and Q^H z = d1 z + d2 z[::-1], elementwise.

    With h = n // 2, (c1, c2) is (1, i) / sqrt(2) on the first h entries, (-i, 1) /
    sqrt(2) on the last h and (1, 0) on odd n's middle entry; Q = diag(c1) + diag(c2) J
    for the exchange matrix J, so Q^H's pair is d1 = conj(c1), d2 = conj(c2)[::-1].
    """
    h = n // 2
    c1, c2 = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    c1[:h], c2[:h] = _SQRT_HALF, 1j * _SQRT_HALF
    c1[n - h:], c2[n - h:] = -1j * _SQRT_HALF, _SQRT_HALF
    pairs = c1, c2, np.conj(c1), np.conj(c2)[::-1].copy()
    for c in pairs:
        c.flags.writeable = False
    return pairs


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
