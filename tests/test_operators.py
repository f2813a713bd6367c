import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmradar import (ConfigError, NumericError, adjoint_normalized, block_toeplitz,
                       psd_project, soft_threshold)
from ofdmradar.operators import _lift_tables, _shrink
from conftest import (block_only_toeplitz, complex_adjoint_normalized,
                      complex_block_toeplitz, complex_frame, complex_frame_vector,
                      complex_psd_project, dense_q, folded_frame, frame_pairs, gathered_lift,
                      lift_index, padded_folded_frame, random_consistent_param, real_frame,
                      real_frame_vector, symmetrize_param)

# (M, N) pairs for the index-layout oracles: square, and both non-square
# orientations, which a layout with M and N swapped fails.
SIZES = [(2, 2), (2, 3), (3, 2)]
# (M, N) pairs for the strided lift against the gather oracle: a single row, square,
# odd by odd, the tests' and the rmse presets' sizes, and the scenario presets' 16x64.
LIFT_SIZES = pytest.mark.parametrize("M, N", [(1, 3), (2, 2), (3, 5), (8, 8), (16, 16), (16, 64)],
                                     ids=["1x3", "2x2", "3x5", "8x8", "16x16", "16x64"])
# Even and odd MN for the unitary transform Q: odd MN adds Q's middle row and column.
FRAME_SIZES = pytest.mark.parametrize("M, N", [(4, 4), (3, 5)], ids=["4x4", "3x5"])
# (M, N) pairs for the real lift's gather and bincount against the complex oracles:
# square, odd MN (3x5), and the tests' and the rmse presets' sizes.
REAL_SIZES = pytest.mark.parametrize("M, N", [(2, 2), (3, 5), (4, 4), (8, 8), (16, 16)],
                                     ids=["2x2", "3x5", "4x4", "8x8", "16x16"])
# (M, N) pairs for the whole lift's contracts: the strided lift's sizes, and 5x7, a
# second odd MN.
CONTRACT_SIZES = pytest.mark.parametrize(
    "M, N", [(1, 3), (2, 2), (3, 5), (5, 7), (8, 8), (16, 16), (16, 64)],
    ids=["1x3", "2x2", "3x5", "5x7", "8x8", "16x16", "16x64"])


def hermitian_with_spectrum(rng, w):
    """Exactly Hermitian matrix whose eigenvalues are ``w`` up to rounding."""
    n = len(w)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A = (Q * np.asarray(w, dtype=float)) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


def symmetric_with_spectrum(rng, w):
    """Exactly symmetric real matrix whose eigenvalues are ``w`` up to rounding."""
    V, _ = np.linalg.qr(rng.normal(size=(len(w), len(w))))
    A = (V * np.asarray(w, dtype=float)) @ V.T
    return 0.5 * (A + A.T)


def real_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return A + A.T


def real_lift(U, M, N, z=None, S=None):
    """:func:`block_toeplitz` of U, z and S (zero unless given) into a new real lift of
    order MN + 2."""
    n = M * N
    z = np.zeros(n, dtype=complex) if z is None else z
    S = np.zeros((2, 2)) if S is None else S
    return block_toeplitz(U, z, S, M, N, np.empty((n + 2, n + 2)))


def random_lift_inputs(rng, M, N):
    """A random Hermitian-consistent U, a random complex z and a random symmetric S."""
    n = M * N
    S = rng.normal(size=(2, 2))
    return (random_consistent_param(rng, M, N), rng.normal(size=n) + 1j * rng.normal(size=n),
            S + S.T)


def dense_lift(U, z, S, M, N):
    """Oracle: [[Re(Q^H T(U) Q), B], [B^T, S]] with B = [Re w, Im w] for w = Q^H z, built
    with the dense Q of :func:`dense_q`."""
    n = M * N
    Q = dense_q(n)
    w = Q.conj().T @ z
    lift = np.empty((n + 2, n + 2))
    lift[:n, :n] = (Q.conj().T @ complex_block_toeplitz(U, M, N) @ Q).real
    lift[:n, n], lift[:n, n + 1] = w.real, w.imag
    lift[n:, :n] = lift[:n, n:].T
    lift[n:, n:] = S
    return lift


def real_block(U, M, N):
    """The MN x MN block of :func:`real_lift`."""
    return real_lift(U, M, N)[:M * N, :M * N]


def bordered(P):
    """The real lift of order MN + 2 with the MN x MN ``P`` as its block and zeros on its
    last two rows and columns."""
    n = P.shape[0]
    lift = np.zeros((n + 2, n + 2))
    lift[:n, :n] = P
    return lift


def mean_over_index_sets(P, M, N):
    """Brute-force adjoint: the mean of P over each (block, within-block) offset pair."""
    U = np.empty((2 * M - 1, 2 * N - 1), dtype=complex)
    for l in range(-(N - 1), N):
        for k in range(-(M - 1), M):
            vals = []
            for n1 in range(N):
                for n2 in range(N):
                    for m1 in range(M):
                        for m2 in range(M):
                            if n1 - n2 == l and m1 - m2 == k:
                                vals.append(P[n1 * M + m1, n2 * M + m2])
            U[k + M - 1, l + N - 1] = np.mean(vals)
    return U


class TestBlockToeplitz:
    def test_zero(self):
        got = block_toeplitz(np.zeros((3, 3), complex), np.zeros(4, complex), np.zeros((2, 2)),
                             2, 2, np.full((6, 6), np.nan))
        assert np.array_equal(got, np.zeros((6, 6)))

    def test_identity_from_center_column(self):
        U = np.zeros((3, 3), complex)
        U[1, 1] = 1.0  # u_0(0): T(U) = I, and so is its real frame
        assert np.allclose(real_block(U, 2, 2), np.eye(4))

    def test_matches_index_assembly(self, rng):
        for M, N in SIZES:
            U = (rng.normal(size=(2 * M - 1, 2 * N - 1))
                 + 1j * rng.normal(size=(2 * M - 1, 2 * N - 1)))
            T = complex_block_toeplitz(U, M, N)
            # hand-rolled: entry ((n1,m1),(n2,m2)) = u_{n1-n2}(m1-m2)
            for n1 in range(N):
                for n2 in range(N):
                    for m1 in range(M):
                        for m2 in range(M):
                            want = U[(m1 - m2) + M - 1, (n1 - n2) + N - 1]
                            assert T[n1 * M + m1, n2 * M + m2] == want

    @LIFT_SIZES
    def test_equals_the_gather_and_shares_no_memory(self, rng, M, N):
        shape = (2 * M - 1, 2 * N - 1)
        U = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ints = rng.integers(-50, 50, size=shape)
        spread = np.zeros((shape[0], 2 * shape[1]), dtype=complex)
        spread[:, ::2] = U
        for V in (U, ints, spread[:, ::2], U[::-1, ::-1], np.asfortranarray(U), ints[:, ::-1]):
            T = complex_block_toeplitz(V, M, N)
            want = gathered_lift(V, M, N)
            assert T.dtype == want.dtype and np.array_equal(T, want)
            assert T.flags.c_contiguous and not np.shares_memory(T, V)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            block_toeplitz(np.zeros((3, 5), complex), np.zeros(4), np.zeros((2, 2)), 2, 2,
                           np.empty((6, 6)))

    @given(seed=st.integers(0, 2 ** 30), M=st.integers(2, 4), N=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_preservation(self, seed, M, N):
        rng = np.random.default_rng(seed)
        U = random_consistent_param(rng, M, N)
        T = complex_block_toeplitz(U, M, N)
        assert np.abs(T - T.conj().T).max() < 1e-14


class TestRealBlock:
    @REAL_SIZES
    def test_gather_equals_the_real_frame_of_the_complex_lift(self, rng, M, N):
        # Every entry of the lift is written: its block as the complex lift's real frame
        # (bit for bit at even MN, where no sqrt(1/2) weight enters), its border as the
        # real and imaginary parts of Q^H z, and its corner as S, bit for bit.
        n = M * N
        out = np.full((n + 2, n + 2), np.nan)
        for _ in range(5):
            U, z, S = random_lift_inputs(rng, M, N)
            got = block_toeplitz(U, z, S, M, N, out)
            assert got is out and got.dtype == np.float64
            want = real_frame(complex_block_toeplitz(U, M, N), np.empty((n, n)))
            if n % 2 == 0:
                assert np.array_equal(got[:n, :n], want)
            assert np.abs(got[:n, :n] - want).max() <= 1e-15 * np.abs(want).max()
            w = real_frame_vector(z)
            assert np.abs(got[:n, n] + 1j * got[:n, n + 1] - w).max() <= 1e-15 * np.abs(w).max()
            assert np.array_equal(got[n:, n:], S) and np.array_equal(got, got.T)

    @REAL_SIZES
    def test_gather_is_exactly_symmetric_for_any_parameter(self, rng, M, N):
        n, shape = M * N, (2 * M - 1, 2 * N - 1)
        S = rng.normal(size=(2, 2))
        R = real_lift(rng.normal(size=shape) + 1j * rng.normal(size=shape), M, N,
                      rng.normal(size=n) + 1j * rng.normal(size=n), S + S.T)
        assert np.array_equal(R, R.T)

    @REAL_SIZES
    def test_adjoint_inverts_the_gather(self, rng, M, N):
        # Bincount sums run sequentially, so their rounding grows as the square root
        # of the largest offset count, MN: 1e-15 up to 8x8, twice that at 16x16.
        tol = 1e-15 * max(1.0, math.sqrt(M * N / 64))
        for _ in range(5):
            U, z, S = random_lift_inputs(rng, M, N)
            got = adjoint_normalized(real_lift(U, M, N, z, S), M, N)[0]
            assert np.array_equal(got, np.conj(got[::-1, ::-1]))
            assert np.abs(got - U).max() <= tol * np.abs(U).max()

    @REAL_SIZES
    def test_adjoint_matches_the_folded_complex_oracle(self, rng, M, N):
        # The sweep passes its whole (MN + 2) x (MN + 2) lift, which the adjoint must
        # not write: U as the fold of the complex adjoint of folded_frame's input, q as
        # 2 Q p through the slice-update oracle, and C as P's corner, bit for bit.
        mn = M * N
        for _ in range(5):
            P = real_symmetric(rng, mn + 2)
            before = P.copy()
            want = symmetrize_param(complex_adjoint_normalized(
                folded_frame(P[:mn, :mn], np.empty((mn - mn // 2, mn), complex)), M, N))
            U, q, C = adjoint_normalized(P, M, N)
            assert np.abs(U - want).max() <= 1e-15 * np.abs(P).max()
            q_want = 2.0 * complex_frame_vector(P[:mn, mn] + 1j * P[:mn, mn + 1])
            assert np.abs(q - q_want).max() <= 1e-15 * np.abs(q_want).max()
            assert np.array_equal(C, P[mn:, mn:])
            assert np.array_equal(P, before)

    @REAL_SIZES
    def test_adjoint_ignores_the_lift_border(self, rng, M, N):
        # The border and the corner bin apart from U's floats: overwriting them with
        # random values leaves U unchanged, bit for bit.
        mn = M * N
        for _ in range(5):
            P = real_symmetric(rng, mn + 2)
            want = adjoint_normalized(P, M, N)[0]
            P[mn:], P[:, mn:] = rng.normal(size=(2, mn + 2)), rng.normal(size=(mn + 2, 2))
            assert np.array_equal(adjoint_normalized(P, M, N)[0], want)

    @REAL_SIZES
    def test_gather_and_bincount_are_adjoint(self, rng, M, N):
        # <block_toeplitz(U, z, S), P> = sum over offsets of the count times
        # Re(conj(u) a) for a = U of adjoint_normalized(P), plus Re<z, q> and <S, C>,
        # on Hermitian-consistent U and symmetric P.
        counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
        for _ in range(5):
            U, z, S = random_lift_inputs(rng, M, N)
            P = real_symmetric(rng, M * N + 2)
            A, q, C = adjoint_normalized(P, M, N)
            lhs = np.sum(real_lift(U, M, N, z, S) * P)
            rhs = (np.sum(counts * (np.conj(U) * A).real) + np.vdot(z, q).real
                   + np.sum(S * C))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_wrong_shapes_raise(self):
        # 2x2: U is 3 x 3, z has 4 entries, S is real 2 x 2 and the lift 6 x 6; the bare
        # 4 x 4 block is a wrong shape, and so is a complex lift.
        U, z, S, out = np.zeros((3, 3), complex), np.zeros(4, complex), np.zeros((2, 2)), \
            np.empty((6, 6))
        for bad_u in (np.zeros((3, 4), complex), np.zeros(9, complex)):
            with pytest.raises(ConfigError, match="U must be"):
                block_toeplitz(bad_u, z, S, 2, 2, out)
        for bad_z in (np.zeros(5, complex), np.zeros((4, 1), complex), np.zeros((2, 2))):
            with pytest.raises(ConfigError, match="z must be"):
                block_toeplitz(U, bad_z, S, 2, 2, out)
        for bad_s in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2), complex)):
            with pytest.raises(ConfigError, match="S must be"):
                block_toeplitz(U, z, bad_s, 2, 2, out)
        for bad_out in (np.empty((4, 4)), np.empty((6, 7)), np.empty(36), np.empty((5, 5)),
                        np.empty((6, 6), complex)):
            with pytest.raises(ConfigError, match="out must be"):
                block_toeplitz(U, z, S, 2, 2, bad_out)
        for P in (np.zeros((4, 4)), np.zeros((6, 7)), np.zeros(36), np.zeros((5, 5)),
                  np.zeros((6, 6), complex)):
            with pytest.raises(ConfigError, match="P must be"):
                adjoint_normalized(P, 2, 2)


class TestWholeLift:
    @CONTRACT_SIZES
    def test_gather_writes_every_entry_of_the_dense_lift(self, rng, M, N):
        # A NaN-filled out comes back finite, equal to the dense lift built with Q and
        # exactly symmetric.
        n = M * N
        U, z, S = random_lift_inputs(rng, M, N)
        got = block_toeplitz(U, z, S, M, N, np.full((n + 2, n + 2), np.nan))
        assert np.isfinite(got).all() and np.array_equal(got, got.T)
        want = dense_lift(U, z, S, M, N)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @CONTRACT_SIZES
    def test_even_block_is_bit_identical_to_the_block_only_gather(self, rng, M, N):
        # Even MN reads no sqrt(1/2) copy of U, so its block is the block-only gather's
        # bit for bit; odd MN's middle row and column agree to rounding.
        n = M * N
        U, z, S = random_lift_inputs(rng, M, N)
        got = real_lift(U, M, N, z, S)[:n, :n]
        want = block_only_toeplitz(U, M, N, np.empty((n + 2, n + 2)))[:n, :n]
        if n % 2 == 0:
            assert np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @CONTRACT_SIZES
    def test_adjoint_is_the_gathers_adjoint(self, rng, M, N):
        # <block_toeplitz(U, z, S), P> = <(U, z, S), adjoint(P)> with U weighted by its
        # offset counts, q = 2 Q p for P's border column p, and C is P's corner.
        n = M * N
        counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
        U, z, S = random_lift_inputs(rng, M, N)
        P = real_symmetric(rng, n + 2)
        A, q, C = adjoint_normalized(P, M, N)
        lhs = np.sum(real_lift(U, M, N, z, S) * P)
        rhs = np.sum(counts * (np.conj(U) * A).real) + np.vdot(z, q).real + np.sum(S * C)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        q_want = 2.0 * dense_q(n) @ (P[:n, n] + 1j * P[:n, n + 1])
        assert np.abs(q - q_want).max() <= 1e-14 * np.abs(q_want).max()
        assert np.array_equal(C, P[n:, n:])

    @CONTRACT_SIZES
    def test_wrong_inputs_raise(self, M, N):
        n = M * N
        U, z, S = np.zeros((2 * M - 1, 2 * N - 1)), np.zeros(n), np.zeros((2, 2))
        out = np.empty((n + 2, n + 2))
        for args, match in [((U[:-1], z, S, out), "U must be"), ((U, z[:-1], S, out), "z must be"),
                            ((U, z, S[:1], out), "S must be"), ((U, z, S, out[:-1]), "out must be"),
                            ((U, z, S, out.astype(complex)), "out must be")]:
            with pytest.raises(ConfigError, match=match):
                block_toeplitz(*args[:3], M, N, args[3])
        for P in (out[:-1, :-1], out[:n, :n], out.astype(complex)):
            with pytest.raises(ConfigError, match="P must be"):
                adjoint_normalized(P, M, N)


class TestAdjoint:
    def test_identity_input(self):
        U, q, C = adjoint_normalized(np.eye(8), 2, 3)
        want = np.zeros((3, 5), complex)
        want[1, 2] = 1.0
        assert np.allclose(U, want)
        assert np.array_equal(q, np.zeros(6)) and np.array_equal(C, np.eye(2))

    def test_left_inverse(self, rng):
        for M, N in [(2, 2), (3, 3), (2, 4), (4, 3)]:
            U = random_consistent_param(rng, M, N)
            U2 = adjoint_normalized(real_lift(U, M, N), M, N)[0]
            assert np.abs(U2 - U).max() < 1e-12

    def test_arbitrary_matrix_against_enumeration(self, rng):
        for M, N in SIZES:
            P = rng.normal(size=(M * N, M * N)) + 1j * rng.normal(size=(M * N, M * N))
            assert complex_adjoint_normalized(P, M, N) == pytest.approx(
                mean_over_index_sets(P, M, N))

    def test_strided_view_and_real_input_against_enumeration(self, rng):
        # The complex lift oracle passes the MN x MN corner of an (MN+1) x (MN+1) array.
        for M, N in SIZES:
            mn = M * N
            Theta = rng.normal(size=(mn + 1, mn + 1)) + 1j * rng.normal(size=(mn + 1, mn + 1))
            view = Theta[:mn, :mn]
            assert not view.flags.c_contiguous
            real = rng.normal(size=(mn, mn))
            for P in (view, real):
                U = complex_adjoint_normalized(P, M, N)
                assert U.shape == (2 * M - 1, 2 * N - 1) and U.dtype == complex
                want = mean_over_index_sets(P, M, N)
                assert np.abs(U - want).max() <= 1e-15 * np.abs(P).max() * 4

    @LIFT_SIZES
    def test_tables_bin_the_floats_of_the_gathered_lift(self, M, N):
        # Block entry (p, q) sums a float of lift entry (p, q) or of its conjugate partner
        # (q, p), and one of lift entry (p, n-1-q); real parts on the diagonal blocks and
        # imaginary ones off them, the second negated outside the top-left block, and
        # each float's count is its offset's in the lift.  Odd n's middle row and column
        # read the sqrt(1/2) copies 4d further, and its centre reads one float.  The
        # border reads the copies of z's floats from 8d on, and the corner S's four
        # floats, each once; the zero slot is 8d + 6n + 4.
        n, h, d = M * N, M * N // 2, (2 * M - 1) * (2 * N - 1)
        zero = 8 * d + 6 * n + 4
        j = lift_index(M, N)
        whole, counts = _lift_tables(M, N)
        assert whole.shape == (2, n + 2, n + 2)
        outside_corner = whole.copy()
        outside_corner[:, n:, n:] = 0
        assert np.array_equal(outside_corner, outside_corner.transpose(0, 2, 1))
        mid = np.arange(n) == np.arange(n)[::-1]
        table = whole[:, :n, :n] - 4 * d * (mid[:, None] ^ mid)
        table[1, mid[:, None] & mid] = table[0, mid[:, None] & mid]
        assert table.min() >= 0 and table.max() < 4 * d
        first, second = table % (2 * d) // 2
        assert np.all((first == j) | (first == j.T))
        assert np.array_equal(second, j[:, ::-1])
        top = np.arange(n) < n - h
        same_side = top[:, None] == top[None, :]
        assert np.array_equal(table % 2, np.stack([~same_side, ~same_side]))
        assert not (table[0] >= 2 * d).any()
        assert np.array_equal(table[1] >= 2 * d, ~(top[:, None] & top[None, :]))
        border = whole[:, :n, n:]
        assert (border[0] >= 8 * d).all() and (border[0] < 8 * d + 6 * n).all()
        assert np.array_equal(border[1] == zero, np.stack([mid, mid], axis=1))
        assert np.array_equal(whole[0, n:, n:], zero - 4 + np.arange(4).reshape(2, 2))
        assert (whole[1, n:, n:] == zero).all()
        assert np.array_equal(counts, np.repeat(np.bincount(j.ravel(), minlength=d), 2))

    def test_cached_tables_are_read_only(self):
        for M, N in SIZES:
            adjoint_normalized(np.eye(M * N + 2), M, N)
            for table in _lift_tables(M, N):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table.flat[0] = 0

    def test_dimension_mismatch(self):
        # P is the real lift of order MN + 2 and nothing else: the bare MN x MN block,
        # too few or too many rows, too narrow, too wide, 1-D or complex.
        for shape, M, N in [((6, 6), 2, 3), ((4, 5), 2, 2), ((0, 8), 2, 3), ((9, 8), 2, 3),
                            ((8, 7), 2, 3), ((8, 9), 2, 3), ((64,), 2, 3)]:
            with pytest.raises(ConfigError, match="P must be"):
                adjoint_normalized(np.zeros(shape), M, N)
        with pytest.raises(ConfigError, match="P must be"):
            adjoint_normalized(np.zeros((8, 8), complex), 2, 3)

    @pytest.mark.parametrize("M, N", [(2, 2), (3, 5), (8, 8), (16, 16)],
                             ids=["2x2", "3x5", "8x8", "16x16"])
    def test_leading_rows_equal_the_zero_padded_square(self, rng, M, N):
        mn = M * N
        for r in sorted({1, mn // 2, mn - mn // 2, mn - 1}):
            rows = rng.normal(size=(r, mn)) + 1j * rng.normal(size=(r, mn))
            padded = np.zeros((mn, mn), dtype=complex)
            padded[:r] = rows
            assert np.array_equal(complex_adjoint_normalized(rows, M, N),
                                  complex_adjoint_normalized(padded, M, N))


class TestUnitaryFrame:
    @FRAME_SIZES
    def test_q_is_unitary_and_makes_the_lift_real(self, rng, M, N):
        Q = dense_q(M * N)
        assert np.abs(Q.conj().T @ Q - np.eye(M * N)).max() < 1e-15
        for _ in range(5):
            T = complex_block_toeplitz(random_consistent_param(rng, M, N), M, N)
            C = Q.conj().T @ T @ Q
            assert np.abs(C.imag).max() <= 1e-14 * np.abs(C).max()

    @FRAME_SIZES
    def test_matrix_transforms_match_dense_q(self, rng, M, N):
        n = M * N
        Q = dense_q(n)
        U = random_consistent_param(rng, M, N)
        T = complex_block_toeplitz(U, M, N)
        # The sweep's whole lift at z = 0 and S = 0: the block, and zeros beside it.
        out = np.full((n + 2, n + 2), np.nan)
        got = block_toeplitz(U, np.zeros(n), np.zeros((2, 2)), M, N, out)
        assert got is out
        assert np.abs(got[:n, :n] - (Q.conj().T @ T @ Q).real).max() <= 1e-14 * np.abs(T).max()
        assert not got[n:].any() and not got[:, n:].any()
        P = real_symmetric(rng, n)
        X = complex_frame(P)
        assert np.abs(X - Q @ P @ Q.conj().T).max() <= 1e-14 * np.abs(P).max()

    @FRAME_SIZES
    def test_vector_transforms_match_dense_q(self, rng, M, N):
        # The oracles' coefficient pairs are Q and Q^H, diag(c1) + diag(c2) J for the
        # exchange J, and apply them as the slice-update oracles and the whole lift's
        # border and adjoint do.
        n = M * N
        Q = dense_q(n)
        c1, c2, d1, d2 = frame_pairs(n)
        J = np.eye(n)[::-1]
        assert np.abs(np.diag(c1) + np.diag(c2) @ J - Q).max() <= 2e-16
        assert np.abs(np.diag(d1) + np.diag(d2) @ J - Q.conj().T).max() <= 2e-16
        assert all(not c.flags.writeable for c in frame_pairs(n))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        to_real, to_complex = d1 * z + d2 * z[::-1], c1 * z + c2 * z[::-1]
        assert np.abs(to_real - Q.conj().T @ z).max() <= 4e-15
        assert np.abs(to_complex - Q @ z).max() <= 4e-15
        assert np.abs(to_real - real_frame_vector(z)).max() <= 4e-15
        assert np.abs(to_complex - complex_frame_vector(z)).max() <= 4e-15
        w = d1 * to_complex + d2 * to_complex[::-1]
        assert np.abs(w - z).max() <= 8e-15
        lift = real_lift(np.zeros((2 * M - 1, 2 * N - 1)), M, N, z)
        assert np.abs(lift[:n, n] + 1j * lift[:n, n + 1] - to_real).max() <= 4e-15
        assert np.abs(adjoint_normalized(lift, M, N)[1] - 2.0 * (c1 * to_real + c2 * to_real[::-1])
                      ).max() <= 8e-15

    @FRAME_SIZES
    def test_outputs_are_exactly_symmetric(self, rng, M, N):
        # The oracle chain complex_adjoint_normalized(complex_frame(P)) that the sweep's
        # adjoint replaces keeps exact symmetry entry for entry as well.
        X = complex_frame(real_symmetric(rng, M * N))
        assert np.array_equal(X, X.conj().T)
        U = complex_adjoint_normalized(X, M, N)
        assert np.array_equal(U, np.conj(U[::-1, ::-1]))
        R = real_block(U, M, N)
        assert R.dtype == np.float64 and np.array_equal(R, R.T)

    @FRAME_SIZES
    def test_real_frame_pairs_with_the_adjoint_path(self, rng, M, N):
        # <Re(Q^H T(U) Q), P> = Re <T(U), Q P Q^H>, and the adjoint of U -> T(U) is
        # the normalized adjoint times each offset's count (N - |l|)(M - |k|).
        counts = np.outer(M - np.abs(np.arange(1 - M, M)), N - np.abs(np.arange(1 - N, N)))
        for _ in range(5):
            U = random_consistent_param(rng, M, N)
            P = real_symmetric(rng, M * N)
            lhs = np.sum(real_block(U, M, N) * P)
            rhs = np.sum(counts * np.conj(U)
                         * complex_adjoint_normalized(complex_frame(P), M, N)).real
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def fold(A):
    return 0.5 * (A + np.conj(A[::-1, ::-1]))


def folded_adjoint(P, M, N):
    """The oracle sweep's U before its scaling: the fold of the complex normalized adjoint
    of folded_frame(P), written into a NaN-filled buffer of the sweep's height."""
    n = M * N
    out = np.full((n - n // 2, n), complex(np.nan, np.nan))
    return fold(complex_adjoint_normalized(folded_frame(P, out), M, N))


class TestFoldedFrame:
    SIZES = pytest.mark.parametrize("M, N", [(3, 5), (4, 4), (8, 8)],
                                    ids=["3x5", "4x4", "8x8"])

    @SIZES
    def test_matches_the_adjoint_of_the_complex_frame(self, rng, M, N):
        # The sweep passes the MN x MN corner of its (MN + 2) x (MN + 2) lift.
        mn = M * N
        for _ in range(10):
            P = real_symmetric(rng, mn + 2)[:mn, :mn]
            want = complex_adjoint_normalized(complex_frame(P), M, N)
            assert np.abs(folded_adjoint(P, M, N) - want).max() <= 1e-15 * np.abs(P).max()

    @SIZES
    def test_fold_is_exactly_hermitian_consistent(self, rng, M, N):
        for _ in range(10):
            U = folded_adjoint(real_symmetric(rng, M * N), M, N)
            assert np.array_equal(U, np.conj(U[::-1, ::-1]))
            R = real_block(U, M, N)
            assert R.dtype == np.float64 and np.array_equal(R, R.T)

    @SIZES
    def test_reused_buffer_gives_the_same_result(self, rng, M, N):
        # Every entry is written, so one NaN-filled buffer serves every call: each
        # result is the top n - h rows of the zero-padded construction, odd MN's
        # middle row and column (3x5) included.
        n = M * N
        out = np.full((n - n // 2, n), complex(np.nan, np.nan))
        for _ in range(3):
            P = real_symmetric(rng, n)
            padded = padded_folded_frame(P)
            assert folded_frame(P, out) is out
            assert np.array_equal(out, padded[:n - n // 2]) and not padded[n - n // 2:].any()

    @SIZES
    def test_sweep_u_equals_the_padded_construction(self, rng, M, N):
        # The sweep passes the MN x MN corner of its (MN + 2) x (MN + 2) lift.
        mn = M * N
        for _ in range(5):
            P = real_symmetric(rng, mn + 2)[:mn, :mn]
            want = fold(complex_adjoint_normalized(padded_folded_frame(P), M, N))
            assert np.array_equal(folded_adjoint(P, M, N), want)


class TestPsdProject:
    def test_eigendecomposition_failure_is_a_numeric_error(self, monkeypatch):
        def failing_eigh(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            psd_project(np.eye(3))

    def test_complex_input_is_rejected(self):
        # A complex Gram product F F^T is not F F^H: complex input would come back wrong.
        with pytest.raises(ConfigError, match="real symmetric"):
            psd_project(np.eye(3, dtype=complex))

    def test_identity_fixed(self):
        assert np.allclose(psd_project(np.eye(3)), np.eye(3))

    def test_clamps_negative_eigenvalue(self):
        got = psd_project(np.diag([1.0, -1.0]))
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_variational_inequality(self, rng):
        # X = proj(A) minimizes ||A - X||_F over the cone iff <A - X, Y - X> <= 0
        # for every PSD Y.
        A = real_symmetric(rng, 4)
        X = psd_project(A)
        for _ in range(50):
            B = rng.normal(size=(4, 4))
            Y = B @ B.T
            inner = np.trace((A - X).T @ (Y - X))
            assert inner <= 1e-10 * max(1.0, np.linalg.norm(Y))

    def test_idempotent(self, rng):
        A = real_symmetric(rng, 5)
        X = psd_project(A)
        assert np.abs(psd_project(X) - X).max() < 1e-10

    @pytest.mark.parametrize("positive", [1, 2, 7, 8])
    def test_both_rebuild_sides_match_full_oracle(self, rng, positive):
        # The complex lift oracle's projection: 1-2 positive eigenvalues of 9 rebuild
        # from the positive pairs, 7-8 from the nonpositive ones.
        w = np.concatenate([rng.uniform(0.5, 2.0, positive),
                            -rng.uniform(0.5, 2.0, 9 - positive)])
        H = hermitian_with_spectrum(rng, w)
        vals, V = np.linalg.eigh(H)
        assert np.sum(vals > 0) == positive
        oracle = (V * np.maximum(vals, 0.0)) @ V.conj().T
        X = complex_psd_project(H)
        assert np.abs(X - oracle).max() <= 1e-12 * np.linalg.norm(H)
        assert np.array_equal(X, X.conj().T)

    def test_all_positive_returns_input(self, rng):
        H = symmetric_with_spectrum(rng, rng.uniform(0.5, 2.0, 9))
        assert np.linalg.eigvalsh(H).min() > 0
        X = psd_project(H)
        assert np.array_equal(X, H)
        assert np.array_equal(X, X.T)

    def test_none_positive_returns_zero(self, rng):
        H = symmetric_with_spectrum(rng, -rng.uniform(0.5, 2.0, 9))
        assert np.linalg.eigvalsh(H).max() < 0
        X = psd_project(H)
        assert np.array_equal(X, np.zeros_like(H))

    def test_min_eigenvalue_floor(self, rng):
        for _ in range(20):
            X = psd_project(real_symmetric(rng, 6))
            assert np.linalg.eigvalsh(X).min() >= -1e-10

    @pytest.mark.parametrize("positive", [1, 8])
    def test_real_symmetric_input_stays_real(self, rng, positive):
        # The ADMM sweep projects real symmetric matrices; both rebuild sides
        # must return an exactly symmetric float64 result.
        w = np.concatenate([rng.uniform(0.5, 2.0, positive),
                            -rng.uniform(0.5, 2.0, 9 - positive)])
        V, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        H = (V * w) @ V.T
        H = 0.5 * (H + H.T)
        vals, V = np.linalg.eigh(H)
        oracle = (V * np.maximum(vals, 0.0)) @ V.T
        X = psd_project(H)
        assert X.dtype == np.float64
        assert np.abs(X - oracle).max() <= 1e-12 * np.linalg.norm(H)
        assert np.array_equal(X, X.T)


    @pytest.mark.parametrize("order", [15, 66, 258])
    @pytest.mark.parametrize("positive", [0.2, 0.8], ids=["positive-side", "negative-side"])
    def test_gram_rebuild_is_exactly_symmetric_and_psd(self, rng, order, positive):
        # A fifth of the eigenvalues positive rebuilds F F^T from the positive
        # pairs, four fifths H + F F^T from the others.
        k = int(positive * order)
        w = np.concatenate([rng.uniform(0.5, 2.0, k), -rng.uniform(0.5, 2.0, order - k)])
        V, _ = np.linalg.qr(rng.normal(size=(order, order)))
        H = (V * w) @ V.T
        H = 0.5 * (H + H.T)
        vals, V = np.linalg.eigh(H)
        oracle = (V * np.maximum(vals, 0.0)) @ V.T
        X = psd_project(H)
        assert X.dtype == np.float64 and np.array_equal(X, X.T)
        scale = np.linalg.norm(H)
        assert np.linalg.eigvalsh(X).min() >= -1e-12 * scale
        assert np.abs(X - oracle).max() <= 1e-12 * scale


class TestSoftThreshold:
    def test_below_threshold(self):
        assert soft_threshold(np.array([0.01]), 0.02)[0] == 0

    def test_above_threshold(self):
        assert soft_threshold(np.array([0.05]), 0.02)[0] == pytest.approx(0.03)

    def test_complex_phase_preserved(self):
        got = soft_threshold(np.array([3j]), 1.0)[0]
        assert got == pytest.approx(2j)

    def test_matches_grid_search_prox(self, rng):
        # independent oracle: coarse-to-fine 2-D grid search of the prox
        # objective mu*|e| + 0.5*|v - e|^2
        def prox_oracle(v, mu):
            best = 0j
            center = v
            width = 2.0 * max(abs(v), mu)
            for step in (width / 200, width / 20000):
                re = np.arange(-200, 201) * step + center.real
                im = np.arange(-200, 201) * step + center.imag
                E = re[None, :] + 1j * im[:, None]
                obj = mu * np.abs(E) + 0.5 * np.abs(v - E) ** 2
                i, j = np.unravel_index(np.argmin(obj), obj.shape)
                best = E[i, j]
                center = best
            return best

        for _ in range(10):
            v = rng.normal() + 1j * rng.normal()
            mu = rng.uniform(0.0, 1.5)
            got = soft_threshold(np.array([v]), mu)[0]
            assert abs(got - prox_oracle(v, mu)) < 1e-3

    @given(seed=st.integers(0, 2 ** 30), mu=st.floats(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_nonexpansive(self, seed, mu):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        lhs = np.linalg.norm(soft_threshold(a, mu) - soft_threshold(b, mu))
        assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_matches_masked_formula(self):
        # Reference: the masked form, scale = (|v| - mu)/|v| where |v| > mu, else 0.
        def masked(v, mu):
            mag = np.abs(v)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                scale = np.where(mag > mu, (mag - mu) / np.where(mag > 0, mag, 1.0), 0.0)
            return v * scale

        v = np.array([0, 0.5, -0.5j, 0.3 + 0.4j, 1.0, -2.0 + 1e-3j, 3j, 5e-324, 1e-310j])
        for mu in (0.0, 0.5, 1.0, 1e-320):
            # |v| < mu, |v| == mu (0.5 and 1.0) and |v| > mu, with v == 0 and
            # subnormal |v| in each case
            with np.errstate(all="raise", under="ignore"):
                got = soft_threshold(v, mu)
            want = masked(v, mu)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    def test_non_finite_input_is_warning_free(self):
        v = np.array([np.inf, np.nan, 1 + 1j * np.inf, 2.0])
        with np.errstate(all="raise"):
            got = soft_threshold(v, 0.5)
        assert np.isnan(got[:3]).all() and got[3] == 1.5

    def test_buffered_shrink_raises_only_on_infinite_input(self, rng):
        # The ADMM sweep's e-update: finite input raises nothing under the sweep's
        # errstate, and an infinite entry (inf / inf) raises FloatingPointError.
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v[0] = 0.0
        mag, shrunk = np.empty(8), np.empty(8)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            want = soft_threshold(v, 0.5)
            assert np.array_equal(_shrink(v.copy(), 0.5, mag, shrunk)[0], want)
            for bad in (np.inf, complex(1.0, -np.inf)):
                v[3] = bad
                with pytest.raises(FloatingPointError):
                    _shrink(v.copy(), 0.5, mag, shrunk)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            soft_threshold(np.array([1.0]), -0.1)


class TestSymmetrize:
    def test_consistency_after_projection(self, rng):
        U = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        S = symmetrize_param(U)
        assert np.allclose(S, np.conj(S[::-1, ::-1]))

    def test_fixed_point_on_consistent(self, rng):
        U = random_consistent_param(rng, 3, 4)
        assert np.allclose(symmetrize_param(U), U)
