import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from ofdmradar import (ConfigError, NumericError, RadarConfig, admm, atoms, dual_poly_grid,
                       extract, steering)
from ofdmradar.baselines import _synthesize
from ofdmradar.extract import (EIG_FLOOR, GRAD_TOL, GRID_FACTOR, MAX_NEWTON_STEPS,
                               REL_THRESHOLD, _dual_matrix, _same_cell_mask,
                               wrapped_local_maxima)
from ofdmradar.operators import soft_threshold


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_config(M=8, N=8, noise_power_db=-20.0):
    return RadarConfig(M=M, N=N, delta_f=5e3, T_cp=1e-4, f_c=2e9,
                       noise_power_db=noise_power_db)


def atom(phi, psi, M, N):
    """The one atom at (phi, psi): column 0 of ``atoms``."""
    return atoms([(phi, psi)], M, N)[:, 0]


def symmetrize_param(U):
    """Project onto Hermitian-consistent parameters: u_l(k) <- (u_l(k) + conj(u_{-l}(-k)))/2."""
    return 0.5 * (U + np.conj(U[::-1, ::-1]))


def lift_index(M, N):
    """Oracle: the flat (row-major) position in ``U`` of each entry of the MN x MN lift,
    entry (n1*M + m1, n2*M + m2) holding U[m1 - m2 + M - 1, n1 - n2 + N - 1]."""
    m = np.tile(np.arange(M), N)
    n = np.repeat(np.arange(N), M)
    rows = m[:, None] - m[None, :] + (M - 1)
    cols = n[:, None] - n[None, :] + (N - 1)
    return rows * (2 * N - 1) + cols


def gathered_lift(U, M, N):
    """Oracle: :func:`complex_block_toeplitz` as a gather of ``U`` through :func:`lift_index`."""
    return U.ravel()[lift_index(M, N)]


def complex_block_toeplitz(U, M, N):
    """Oracle: the complex two-level Toeplitz lift T(U), a new C-contiguous array of ``U``'s
    dtype, copied from one view of ``U`` over (n1, m1, n2, m2), based at u_0(0) with strides
    (s1, s0, -s1, -s0) for ``U``'s strides (s0, s1).  ``operators.block_toeplitz`` gathers
    its real frame Re(Q^H T(U) Q) without forming it."""
    if U.shape != (2 * M - 1, 2 * N - 1):
        raise ConfigError(f"U must be {(2 * M - 1, 2 * N - 1)}, got {U.shape}")
    U = np.ascontiguousarray(U)
    s0, s1 = U.strides
    view = np.ndarray((N, M, N, M), U.dtype, U, (M - 1) * s0 + (N - 1) * s1,
                      (s1, s0, -s1, -s0))
    return view.copy().reshape(M * N, M * N)


@lru_cache(maxsize=8)
def complex_adjoint_tables(M, N):
    """Bin in ``U``'s (real, imag) float view of each float of the complex lift, and each
    bin's count."""
    flat = np.arange((2 * M - 1) * (2 * N - 1)).reshape(2 * M - 1, 2 * N - 1)
    index = 2 * complex_block_toeplitz(flat, M, N).ravel()
    bins = np.stack([index, index + 1], axis=1).ravel()
    return bins, np.bincount(bins).astype(float)


def complex_adjoint_normalized(P, M, N):
    """Oracle: the mean of complex ``P`` over each (block offset, within-block offset) index
    set, the left inverse of :func:`complex_block_toeplitz`.  ``P`` is the MN x MN matrix or
    its leading r > 0 rows, the rest taken as zero and not binned."""
    if P.ndim != 2 or P.shape[1] != M * N or not 0 < P.shape[0] <= M * N:
        raise ConfigError(f"P must be r x {M * N} for 0 < r <= {M * N}, got {P.shape}")
    bins, counts = complex_adjoint_tables(M, N)
    floats = np.ascontiguousarray(P, dtype=complex).view(float).ravel()
    sums = np.bincount(bins[:floats.size], weights=floats, minlength=counts.size)
    return (sums / counts).view(complex).reshape(2 * M - 1, 2 * N - 1)


def real_frame(T, out):
    """Oracle: Re(Q^H T Q) of a Hermitian, centro-Hermitian T, written over all of ``out``.

    With A + iB = T and p, q both in the first n - h indices (top) or both in the last h
    (bottom), entry (p, q) is A[p, q] + A[p, n-1-q] (top) or A[p, q] - A[p, n-1-q]
    (bottom), and entry (p, q) with p top and q bottom is B[p, q] - B[p, n-1-q]; the
    bottom-left block is the top-right one transposed, and the middle row and column of
    odd n take a further 1/sqrt(2).
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
        out[h] *= math.sqrt(0.5)
        out[top, h] *= math.sqrt(0.5)
    out[bottom, top] = out[top, bottom].T
    return out


def folded_frame(P, out):
    """Oracle: the leading n - h rows of a Y whose folded normalized adjoint,
    ``symmetrize_param(complex_adjoint_normalized(Y))``, is Q P Q^H's, P real symmetric.

    With t the first h indices, b the last h and D = P[::-1] - P[:, ::-1]:
    Y[t, t] = (P + P[::-1, ::-1] + iD)[t, t], Y[t, b] = (2iP - D)[t, b], and for odd n,
    Y[h, q] = 2 sqrt(2) (P[h, q] - i P[h, n-1-q]) for q < h, Y[h, h] = P[h, h] and zero in
    the rest of row and column h, all written over the (n - h) x n complex ``out``.
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
        np.multiply(P[h, :h], 2.0 / math.sqrt(0.5), out=re[h, :h])
        np.multiply(cols_rev[h, :h], -2.0 / math.sqrt(0.5), out=im[h, :h])
        out[:h, h] = out[h, h:] = 0.0
        re[h, h] = P[h, h]
    return out


def complex_psd_project(H):
    """Oracle: the Frobenius-nearest PSD matrix of an exactly Hermitian ``H``, real or
    complex, rebuilt as a Gram product from the smaller side of the spectrum as
    ``operators.psd_project`` does, with complex results symmetrized as (X + X^H) / 2."""
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed on {H.shape} matrix: {exc}") from exc
    k = int(np.searchsorted(w, 0.0, side="right"))
    if 2 * k > w.size:
        F = V[:, k:] * np.sqrt(w[k:])
        X = F @ F.conj().T
    else:
        F = V[:, :k] * np.sqrt(-w[:k])
        X = H + F @ F.conj().T
    if np.iscomplexobj(X):
        X = 0.5 * (X + X.conj().T)
    return X


def real_frame_vector(z):
    """Oracle: Q^H z as two slice updates: (z[p] + z[n-1-p]) / sqrt(2) on the first h
    entries, i (z[p] - z[n-1-p]) / sqrt(2) on the last h, and z's middle entry for odd n."""
    n = z.shape[0]
    h = n // 2
    w = np.array(z, dtype=complex)
    w[:h] = (z[:h] + z[::-1][:h]) * math.sqrt(0.5)
    w[n - h:] = (z[n - h:] - z[::-1][n - h:]) * (1j * math.sqrt(0.5))
    return w


def complex_frame_vector(w):
    """Oracle: Q w, the inverse of :func:`real_frame_vector`: (w[p] + i w[n-1-p]) / sqrt(2)
    on the first h entries, (w[n-1-p] - i w[p]) / sqrt(2) on the last h, and w's middle
    entry for odd n."""
    n = w.shape[0]
    h = n // 2
    z = np.array(w, dtype=complex)
    z[:h] = (w[:h] + 1j * w[::-1][:h]) * math.sqrt(0.5)
    z[n - h:] = (w[::-1][n - h:] - 1j * w[n - h:]) * math.sqrt(0.5)
    return z


@lru_cache(maxsize=8)
def block_only_tables(M, N):
    """Oracle: the gather table of the real lift's block alone (read-only), with the
    last two rows and columns and odd MN's sqrt(1/2) weights left out.

    ``table[:, p, q]`` holds the two indices into [f, -f, 0], f the 2d floats of ``U``,
    d = (2M-1)(2N-1), whose sum is entry (p, q) of Re(Q^H T(U) Q) before odd MN's
    middle scaling, for p, q < MN; the last two rows and columns point at the zero slot
    4d in both terms.  ``counts`` is (N-|l|)(M-|k|) for both floats of u_l(k).
    """
    n, h, d = M * N, M * N // 2, (2 * M - 1) * (2 * N - 1)
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


def scale_middle(X, h):
    """Scale row and column ``h`` of X by sqrt(1/2) in place (entry (h, h) twice)."""
    X[h] *= math.sqrt(0.5)
    X[:, h] *= math.sqrt(0.5)


def block_only_toeplitz(U, M, N, out):
    """Oracle: Re(Q^H T(U) Q) on the block of the real lift ``out`` of order MN + 2 and
    zero on its last two rows and columns, gathered through :func:`block_only_tables`
    from [f, -f, 0], with odd MN's middle row and column then scaled by sqrt(1/2)."""
    n = M * N
    table, _ = block_only_tables(M, N)
    floats = np.ascontiguousarray(U, dtype=complex).view(float).ravel()
    first, second = np.concatenate([floats, -floats, [0.0]])[table]
    np.add(first, second, out=out)
    if n % 2:
        scale_middle(out, n // 2)
    return out


def block_only_adjoint(P, M, N):
    """Oracle: the folded normalized adjoint of :func:`block_only_toeplitz` on the block
    of the real lift ``P``: P (a copy with odd MN's middle row and column scaled by
    sqrt(1/2)) binned through :func:`block_only_tables`, read as f = S[:2d] - S[2d:4d],
    divided by the offset counts and folded.  The last two rows and columns are not
    read."""
    n = M * N
    table, counts = block_only_tables(M, N)
    weights = P
    if n % 2:
        weights = np.array(P, dtype=float)
        scale_middle(weights, n // 2)
    weights, size = weights.ravel(), 2 * counts.size
    sums = np.bincount(table[0].ravel(), weights, size + 1)
    sums += np.bincount(table[1].ravel(), weights, size + 1)
    A = ((sums[:counts.size] - sums[counts.size:size]) / counts).view(complex)
    return symmetrize_param(A.reshape(2 * M - 1, 2 * N - 1))


@lru_cache(maxsize=8)
def frame_pairs(n):
    """Oracle: Q's two vector maps of order n as coefficient pairs (all four read-only):
    Q x = c1 x + c2 x[::-1] and Q^H z = d1 z + d2 z[::-1], elementwise.

    With h = n // 2, (c1, c2) is (1, i) / sqrt(2) on the first h entries, (-i, 1) /
    sqrt(2) on the last h and (1, 0) on odd n's middle entry; Q = diag(c1) + diag(c2) J
    for the exchange matrix J, so Q^H's pair is d1 = conj(c1), d2 = conj(c2)[::-1].
    """
    h, root_half = n // 2, math.sqrt(0.5)
    c1, c2 = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    c1[:h], c2[:h] = root_half, 1j * root_half
    c1[n - h:], c2[n - h:] = -1j * root_half, root_half
    pairs = c1, c2, np.conj(c1), np.conj(c2)[::-1].copy()
    for c in pairs:
        c.flags.writeable = False
    return pairs


def coefficient_pair_solve(measurement, config):
    """Oracle: ``admm.solve`` with the real lift's block gathered and binned by
    :func:`block_only_toeplitz` and :func:`block_only_adjoint`, and its border, the
    border's mirror and the corner written by hand: z-update and border through Q's
    coefficient pairs (:func:`frame_pairs`), combined once per solve with the z-update's
    and the border's scalars, and nu read back through the pairs.  Returns an
    ``admm.Solution``.
    """
    M, N = measurement.M, measurement.N
    mn = M * N
    s = measurement.s_tilde
    r = measurement.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    a2, ab = admm.TOEPLITZ_SCALE ** 2, admm.TOEPLITZ_SCALE * admm.CORNER_SCALE
    b2 = admm.CORNER_SCALE ** 2

    c1, c2, d1, d2 = frame_pairs(mn)
    denom = np.abs(s) ** 2 + 2.0 * rho * ab * ab
    s_weight = np.conj(s) / denom
    data = s_weight * r
    q1, q2 = (2.0 * rho * ab / denom) * c1, (2.0 * rho * ab / denom) * c2
    h1, h2 = ab * d1, ab * d2
    corner_shift = 0.5 * lam / (rho * b2 * b2) * np.eye(2)

    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    Theta = np.zeros((mn + 2, mn + 2))
    G = np.zeros_like(Theta)
    L = np.empty_like(Theta)
    diag = admm.Diagnostics()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for it in range(1, config.max_iters + 1):
            P = np.subtract(Theta, G, out=L)
            P += Theta
            p = P[:mn, mn] + 1j * P[:mn, mn + 1]
            z = data - s_weight * e + q1 * p + q2 * p[::-1]
            S = P[mn:, mn:] / b2 - corner_shift
            U = block_only_adjoint(P, M, N) / a2
            U[M - 1, N - 1] -= lam / (2.0 * mn * rho * a2 * a2)
            if mu > 0:
                e = soft_threshold(r - s * z, mu)
            block_only_toeplitz(a2 * U, M, N, out=L)
            w = h1 * z + h2 * z[::-1]
            L[:mn, mn] = w.real
            L[:mn, mn + 1] = w.imag
            L[mn:, :mn] = L[:mn, mn:].T
            L[mn:, mn:] = b2 * S
            L -= Theta
            L *= admm.RELAXATION
            L += G
            Theta_new = admm.psd_project(L)
            np.subtract(Theta_new, Theta, out=Theta)
            dual = rho * math.sqrt(np.dot(Theta.ravel(), Theta.ravel()))
            np.subtract(G, L, out=G)
            G += Theta
            primal = math.sqrt(np.dot(G.ravel(), G.ravel()))
            Theta, G, L = Theta_new, L, Theta
            diag.primal_residuals.append(primal)
            diag.dual_residuals.append(dual)
            if primal < config.tol * (mn + 1) and dual < config.tol * (mn + 1):
                diag.converged = True
                break
    diag.iterations = it
    border = Theta[:mn, mn:] - G[:mn, mn:]
    v = border[:, 0] + 1j * border[:, 1]
    nu_hat = -2.0 * rho * ab * (c1 * v + c2 * v[::-1])
    return admm.Solution(z_hat=z, e_hat=e, nu_hat=nu_hat, U=U, t=float(S[0, 0] + S[1, 1]),
                         diagnostics=diag)


def theta_w_solve(measurement, config):
    """Oracle: ``admm.solve`` carrying (Theta, W) instead of (Theta, G).

    The same over-relaxed, scaled sweep on the congruent real lift, with the block
    gathered and binned by :func:`block_only_toeplitz` and :func:`block_only_adjoint`,
    but each sweep forms P = Theta + W,
    the relaxed input G = alpha D L D + (1 - alpha) Theta - W in four passes and
    W = Theta_new - G, maps the border through :func:`complex_frame_vector` and
    :func:`real_frame_vector`, and takes ``np.linalg.norm`` of W - W_prev and
    Theta - Theta_prev.  Returns an ``admm.Solution``.
    """
    M, N = measurement.M, measurement.N
    mn = M * N
    s = measurement.s_tilde
    r = measurement.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    a2, ab = admm.TOEPLITZ_SCALE ** 2, admm.TOEPLITZ_SCALE * admm.CORNER_SCALE
    b2 = admm.CORNER_SCALE ** 2

    s_conj = np.conj(s)
    denom = np.abs(s) ** 2 + 2.0 * rho * ab * ab
    sh_r = s_conj * r
    corner_shift = 0.5 * lam / (rho * b2 * b2) * np.eye(2)

    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    Theta = np.zeros((mn + 2, mn + 2))
    W = np.zeros((mn + 2, mn + 2))
    G = np.empty_like(W)
    diag = admm.Diagnostics()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for it in range(1, config.max_iters + 1):
            P = np.add(Theta, W, out=G)
            p = complex_frame_vector(P[:mn, mn] + 1j * P[:mn, mn + 1])
            z = (sh_r - s_conj * e + 2.0 * rho * ab * p) / denom
            S = P[mn:, mn:] / b2 - corner_shift
            U = block_only_adjoint(P, M, N) / a2
            U[M - 1, N - 1] -= lam / (2.0 * mn * rho * a2 * a2)
            if mu > 0:
                e = soft_threshold(r - s * z, mu)
            block_only_toeplitz(a2 * U, M, N, out=G)
            w = real_frame_vector(z)
            G[:mn, mn] = ab * w.real
            G[:mn, mn + 1] = ab * w.imag
            G[mn:, :mn] = G[:mn, mn:].T
            G[mn:, mn:] = b2 * S
            G -= Theta
            G *= admm.RELAXATION
            G += Theta
            G -= W
            Theta_new = admm.psd_project(G)
            W_new = np.subtract(Theta_new, G, out=G)
            primal = float(np.linalg.norm(np.subtract(W_new, W, out=W)))
            dual = rho * float(np.linalg.norm(np.subtract(Theta_new, Theta, out=Theta)))
            Theta, W, G = Theta_new, W_new, W
            diag.primal_residuals.append(primal)
            diag.dual_residuals.append(dual)
            if primal < config.tol * (mn + 1) and dual < config.tol * (mn + 1):
                diag.converged = True
                break
    diag.iterations = it
    nu_hat = -2.0 * rho * ab * complex_frame_vector(W[:mn, mn] + 1j * W[:mn, mn + 1])
    return admm.Solution(z_hat=z, e_hat=e, nu_hat=nu_hat, U=U, t=float(S[0, 0] + S[1, 1]),
                         diagnostics=diag)


def rolled_local_maxima(values):
    """Oracle: ``extract.wrapped_local_maxima`` as a comparison with the 8 rolled copies."""
    is_max = np.ones_like(values, dtype=bool)
    for dp in (-1, 0, 1):
        for dq in (-1, 0, 1):
            if dp == 0 and dq == 0:
                continue
            is_max &= values > np.roll(np.roll(values, dp, axis=0), dq, axis=1)
    return is_max


def dense_q(n):
    """The unitary Q of ``ofdmradar.operators`` for order n, built densely from its blocks
    [[I_h, 0, i J_h], [0, sqrt(2), 0], [J_h, 0, -i I_h]] / sqrt(2), h = n // 2."""
    h = n // 2
    I, J = np.eye(h), np.eye(h)[::-1]
    Q = np.zeros((n, n), dtype=complex)
    Q[:h, :h], Q[:h, n - h:] = I, 1j * J
    Q[n - h:, :h], Q[n - h:, n - h:] = J, -1j * I
    Q /= math.sqrt(2.0)
    if n % 2:
        Q[h, h] = 1.0
    return Q


def complex_frame(P):
    """Oracle: Q P Q^H of a real symmetric P, exactly Hermitian and centro-Hermitian.

    With S = (P + P[::-1, ::-1]) / 2 and D = (P[::-1] - P[:, ::-1]) / 2, the result is
    S + iD on the top-top and bottom-bottom blocks and -D + iS on the top-bottom one
    (the first n - h and the last h indices, h = n // 2), and the bottom-top block is
    its conjugate transpose.  For odd n the middle row is (P[h, q] - i P[h, n-1-q]) /
    sqrt(2) for q < h and (P[h, n-1-q] + i P[h, q]) / sqrt(2) for q > h, with P[h, h]
    at the centre, and the middle column is its conjugate.  P must be exactly symmetric.
    """
    n = P.shape[0]
    h = n // 2
    top, bottom = slice(None, n - h), slice(n - h, None)
    half = 0.5 * P
    flipped, rows_rev, cols_rev = half[::-1, ::-1], half[::-1], half[:, ::-1]
    X = np.empty((n, n), dtype=complex)
    re, im = X.real, X.imag
    for block in (top, bottom):
        np.add(half[block, block], flipped[block, block], out=re[block, block])
        np.subtract(rows_rev[block, block], cols_rev[block, block], out=im[block, block])
    np.subtract(cols_rev[top, bottom], rows_rev[top, bottom], out=re[top, bottom])
    np.add(half[top, bottom], flipped[top, bottom], out=im[top, bottom])
    X[bottom, top] = X[top, bottom].conj().T
    if n % 2:
        root_half = math.sqrt(0.5)
        row, row_rev = P[h] * root_half, P[h, ::-1] * root_half
        re[h, :h], im[h, :h] = row[:h], -row_rev[:h]
        re[h, h + 1:], im[h, h + 1:] = row_rev[h + 1:], row[h + 1:]
        X[:, h] = X[h].conj()
    return X


def padded_folded_frame(P):
    """Oracle: :func:`folded_frame` of a real symmetric P as a full-height n x n complex
    matrix, zero below row n - h (h = n // 2), the construction the sweep once fed the
    complex adjoint before that took the leading rows alone."""
    n = P.shape[0]
    h = n // 2
    t, b = slice(None, h), slice(n - h, None)
    rows_rev, cols_rev = P[::-1], P[:, ::-1]
    Y = np.zeros((n, n), dtype=complex)
    re, im = Y.real, Y.imag
    np.add(P[t, t], rows_rev[:, ::-1][t, t], out=re[t, t])
    np.subtract(rows_rev[t, t], cols_rev[t, t], out=im[t, t])
    np.subtract(cols_rev[t, b], rows_rev[t, b], out=re[t, b])
    np.multiply(P[t, b], 2.0, out=im[t, b])
    if n % 2:
        np.multiply(P[h, :h], 2.0 / math.sqrt(0.5), out=re[h, :h])
        np.multiply(cols_rev[h, :h], -2.0 / math.sqrt(0.5), out=im[h, :h])
        re[h, h] = P[h, h]
    return Y


def scalar_refine_peak(nu, phi, psi, M, N):
    """Oracle: saddle-free Newton ascent on |Q|^2 from one start, one point per evaluation.

    Same steps, floor, line search, stop rules and wrap rule as ``extract.refine_peak``,
    with |H| built from ``np.linalg.eigh`` of the 2x2 Hessian and its system solved by
    ``np.linalg.solve``.  Returns (phi, psi, Q) as ``extract.refine_peak`` does.
    """
    V = _dual_matrix(nu, M, N)

    def value_grad_hess(p, s):
        b_g = steering([p, s], max(M, N))
        slope = 2j * np.pi * np.arange(max(M, N))[:, None]
        D = np.stack([b_g, slope * b_g, slope * (slope * b_g)])
        T = D[:, :M, 0].conj() @ V @ D[:, :N, 1].T
        Q = T[0, 0]
        J = np.array([T[1, 0], T[0, 1]])
        hess_Q = np.array([[T[2, 0], T[1, 1]], [T[1, 1], T[0, 2]]])
        g = 2.0 * (np.conj(Q) * J).real
        H = 2.0 * (np.outer(J.conj(), J) + np.conj(Q) * hess_Q).real
        return Q, abs(Q) ** 2, g, H

    x = np.array([phi, psi], dtype=float)
    Q, F, g, H = value_grad_hess(*x)
    for _ in range(MAX_NEWTON_STEPS):
        if np.linalg.norm(g) <= GRAD_TOL * F:
            break
        vals, vecs = np.linalg.eigh(H)
        mags = np.abs(vals)
        mags = np.maximum(mags, max(EIG_FLOOR * mags.max(), np.finfo(float).tiny))
        step = np.linalg.solve((vecs * mags) @ vecs.T, g)
        improved = False
        for _ in range(25):
            cand = (x + step) % 1.0
            cand[cand == 1.0] = 0.0
            Qc, Fc, gc, Hc = value_grad_hess(*cand)
            if Fc > F:
                x, Q, F, g, H = cand, Qc, Fc, gc, Hc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return float(x[0]), float(x[1]), complex(Q)


@dataclass(frozen=True)
class Peak:
    """One refined peak of the dual polynomial: the unit of the object-per-peak oracles."""

    phi: float
    psi: float
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def refine_peak_object(nu, phi, psi, M, N):
    """Oracle: ``extract.refine_peak`` returning a :class:`Peak`."""
    x, Q = extract._newton_ascent(_dual_matrix(nu, M, N), np.array([[phi, psi]]))
    return Peak(phi=float(x[0, 0]), psi=float(x[0, 1]), value=complex(Q[0]))


def merge_peak_objects(peaks, M, N):
    """Oracle: ``extract._merge_cells`` on a list of :class:`Peak`, returning the kept ones."""
    same = _same_cell_mask([(pk.phi, pk.psi) for pk in peaks], M, N)
    taken = np.zeros(len(peaks), dtype=bool)
    kept = []
    for i, pk in enumerate(peaks):
        if not taken[i]:
            kept.append(pk)
            taken |= same[i]
    return kept


def locate_peak_objects(nu, lam, M, N, grid_factor=GRID_FACTOR):
    """Oracle: ``extract.locate_peaks`` as one :class:`Peak` per candidate, kept when
    ``abs(complex)`` reaches the level, sorted by the key (-|Q|, phi, psi) and merged by
    :func:`merge_peak_objects`.  It reads ``extract._newton_ascent`` at call time, so a
    patched ascent feeds both readouts."""
    grid_phi, grid_psi = grid_factor * M, grid_factor * N
    mag = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
    level = (1.0 - REL_THRESHOLD) * lam
    cand = np.argwhere(wrapped_local_maxima(mag) & (mag >= level))
    x, Q = extract._newton_ascent(_dual_matrix(nu, M, N), cand / (grid_phi, grid_psi))
    refined = [Peak(phi=float(f[0]), psi=float(f[1]), value=complex(v)) for f, v in zip(x, Q)
               if abs(v) >= level]
    refined.sort(key=lambda pk: (-pk.magnitude, pk.phi, pk.psi))
    return merge_peak_objects(refined, M, N)


def residual_at_w_gap(w, l1, nu_x, corr_x, measurement, config):
    """Oracle: CS-L1's relative duality gap with the residual r - A w as its only dual point.

    It takes the x-step's point ``nu_x`` and its correlations ``corr_x`` as
    ``baselines._csl1_gap`` does and ignores them, so patched in for that function it
    gives the solve the earlier, residual-at-w stop.
    """
    M, N = measurement.M, measurement.N
    s, r, gamma = measurement.s_tilde, measurement.r_bar, config.gamma
    nu = r - s * _synthesize(w, M, N, config.M_grid, config.N_grid)
    corr_max = float(np.abs(dual_poly_grid(np.conj(s) * nu, M, N, config.M_grid,
                                           config.N_grid)).max())
    theta = gamma / max(corr_max, gamma)
    sq = float(np.vdot(nu, nu).real)
    primal = 0.5 * sq + gamma * l1
    return (primal - (theta * float(np.vdot(r, nu).real) - 0.5 * theta * theta * sq)) / primal


def random_consistent_param(rng, M, N):
    """Random Toeplitz parameter satisfying the Hermitian-consistency tie."""
    U = rng.normal(size=(2 * M - 1, 2 * N - 1)) + 1j * rng.normal(size=(2 * M - 1, 2 * N - 1))
    return symmetrize_param(U)


def complex_lift_solve(measurement, config, scale=(0.8, 1.75)):
    """Oracle: ``admm.solve``'s sweep on the complex lift [[T(U), z], [z^H, t]] of order MN+1.

    The same scaled-form, over-relaxed ADMM (alpha = ``admm.RELAXATION``) on the congruent
    lift D A D, D = diag(a I_MN, b) for (a, b) = ``scale``, with the same stop test, each
    sweep projecting one complex Hermitian matrix with :func:`complex_psd_project`.
    Returns an ``admm.Solution``.
    """
    M, N = measurement.M, measurement.N
    mn = M * N
    s = measurement.s_tilde
    r = measurement.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    a2, ab, b2 = scale[0] ** 2, scale[0] * scale[1], scale[1] ** 2
    alpha = admm.RELAXATION

    s_conj = np.conj(s)
    denom = np.abs(s) ** 2 + 2.0 * rho * ab * ab
    sh_r = s_conj * r
    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    t = 0.0
    Theta = np.zeros((mn + 1, mn + 1), dtype=complex)
    W = np.zeros((mn + 1, mn + 1), dtype=complex)
    G = np.empty_like(W)
    diag = admm.Diagnostics()
    for it in range(1, config.max_iters + 1):
        z = (sh_r - s_conj * e + 2.0 * rho * ab * (Theta[:mn, mn] + W[:mn, mn])) / denom
        t = (Theta[mn, mn].real + W[mn, mn].real) / b2 - 0.5 * lam / (rho * b2 * b2)
        U = complex_adjoint_normalized(Theta[:mn, :mn] + W[:mn, :mn], M, N) / a2
        U[M - 1, N - 1] -= lam / (2.0 * mn * rho * a2 * a2)
        if mu > 0:
            e = soft_threshold(r - s * z, mu)
        G[:mn, :mn] = complex_block_toeplitz(a2 * U, M, N)
        G[:mn, mn] = ab * z
        G[mn, :mn] = ab * np.conj(z)
        G[mn, mn] = b2 * t
        G -= Theta
        G *= alpha
        G += Theta
        G -= W
        Theta_new = complex_psd_project(G)
        W_new = np.subtract(Theta_new, G, out=G)
        primal = float(np.linalg.norm(W_new - W))
        dual = rho * float(np.linalg.norm(Theta_new - Theta))
        Theta, W, G = Theta_new, W_new, W
        diag.primal_residuals.append(primal)
        diag.dual_residuals.append(dual)
        if not (math.isfinite(primal) and math.isfinite(dual)):
            raise AssertionError(f"non-finite iterate at iteration {it}")
        if primal < config.tol * (mn + 1) and dual < config.tol * (mn + 1):
            diag.converged = True
            break
    diag.iterations = it
    return admm.Solution(z_hat=z, e_hat=e, nu_hat=-2.0 * rho * ab * W[:mn, mn], U=U, t=t,
                         diagnostics=diag)
