import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ofdmradar import (ConfigError, DegenerateDictionaryError, Path, Scene,
                       SolverConfig, atoms, detect_error_support,
                       dual_poly_grid, estimate_from_solution, generate_symbols,
                       locate_peaks, ls_amplitudes, measure, qpsk, refine_peak,
                       simulate, solve)
from ofdmradar import bench, extract
from ofdmradar.extract import (GRAD_TOL, GRID_FACTOR, MAX_NEWTON_STEPS, REL_THRESHOLD,
                               Estimate, _ascent_steps,
                               _dft_factors, _dual_matrix, _merge_cells, _newton_ascent,
                               _poly_derivs, _same_cell_mask, _value_grad_hess,
                               ranked_estimate, wrapped_local_maxima)
from conftest import (Peak, atom, locate_peak_objects, merge_peak_objects, refine_peak_object,
                      rolled_local_maxima, scalar_refine_peak, small_config)


def dual_polynomial(nu, phi, psi, M, N):
    """Pointwise oracle: Q(phi, psi) = sum_j nu_j * conj(atom_j(phi, psi))."""
    return complex(np.vdot(atom(phi, psi, M, N), nu))


class TestDualPolynomial:
    def test_self_inner_product(self):
        M, N = 4, 5
        nu = atom(0.3, 0.6, M, N)
        assert dual_polynomial(nu, 0.3, 0.6, M, N) == pytest.approx(M * N)

    def test_zero_vector(self):
        assert dual_polynomial(np.zeros(12), 0.1, 0.9, 3, 4) == 0

    def test_matches_double_loop(self, rng):
        M, N = 3, 4
        nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        for phi, psi in [(0.12, 0.77), (0.5, 0.25), (0.9, 0.01)]:
            want = 0j
            for n in range(N):
                for m in range(M):
                    a = np.exp(1j * (2 * np.pi * m * phi - 2 * np.pi * n * psi))
                    want += nu[n * M + m] * np.conj(a)
            assert dual_polynomial(nu, phi, psi, M, N) == pytest.approx(want)

    def test_grid_matches_pointwise(self, rng):
        M, N = 3, 3
        nu = rng.normal(size=9) + 1j * rng.normal(size=9)
        G = dual_poly_grid(nu, M, N, 12, 15)
        for p in (0, 5, 11):
            for q in (0, 7, 14):
                assert G[p, q] == pytest.approx(
                    dual_polynomial(nu, p / 12, q / 15, M, N))

    def test_large_grid_matches_pointwise(self, rng):
        # The scenario presets' size at the peak scan's 16x oversampling.
        M, N, gp, gq = 16, 64, 256, 1024
        nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        G = dual_poly_grid(nu, M, N, gp, gq)
        assert G.shape == (gp, gq)
        tol = 1e-12 * np.sum(np.abs(nu))
        for p in (0, 1, 97, 128, gp - 1):
            for q in (0, 1, 333, 512, gq - 1):
                assert abs(G[p, q] - dual_polynomial(nu, p / gp, q / gq, M, N)) <= tol

    def test_factor_phases_reduced_mod_grid(self):
        # Entry (p, m) of B must be computed from (p*m) mod grid_phi, so it equals
        # the m = 1 column's entry at that index bit for bit; likewise for G.
        M, N, gp, gq = 16, 64, 256, 1024
        B, G, _, _ = _dft_factors(M, N, gp, gq)
        p, m = np.meshgrid(np.arange(gp), np.arange(M), indexing="ij")
        assert np.array_equal(B, B[(p * m) % gp, 1])
        n, q = np.meshgrid(np.arange(N), np.arange(gq), indexing="ij")
        assert np.array_equal(G, G[1, (n * q) % gq])

    @pytest.mark.parametrize("M, N, gp, gq", [(3, 5, 6, 10), (16, 16, 64, 48)])
    def test_grid_is_the_lattice_atoms_adjoint(self, rng, M, N, gp, gq):
        # The two owners of the atom's phases agree: the DFT factors of
        # dual_poly_grid and atoms() at the lattice points, column q*gp + p.
        nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        lattice = [(p / gp, q / gq) for q in range(gq) for p in range(gp)]
        want = (atoms(lattice, M, N).conj().T @ nu).reshape(gp, gq, order="F")
        got = dual_poly_grid(nu, M, N, gp, gq)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLocatePeaks:
    def test_rank_one_certificate(self):
        M = N = 8
        lam = 2.5
        nu = (lam / (M * N)) * atom(0.3, 0.7, M, N)
        freqs, values = locate_peaks(nu, lam, M, N)
        assert freqs.shape == (1, 2) and values.shape == (1,)
        assert freqs[0, 0] == pytest.approx(0.3, abs=1e-6)
        assert freqs[0, 1] == pytest.approx(0.7, abs=1e-6)
        assert abs(values[0]) == pytest.approx(lam, rel=1e-9)

    def test_small_dual_vector_gives_nothing(self, rng):
        M = N = 8
        nu = rng.normal(size=64) + 1j * rng.normal(size=64)
        nu *= 0.5 / (np.abs(nu).max() * M * N)  # way below threshold
        freqs, values = locate_peaks(nu, 10.0, M, N)
        assert freqs.shape == (0, 2) and values.shape == (0,)

    def test_grid_independence_of_refinement(self):
        M = N = 8
        lam = 1.0
        nu = (lam / (M * N)) * (atom(0.21, 0.43, M, N) + atom(0.7, 0.9, M, N))
        a, _ = locate_peaks(nu, 0.5 * lam, M, N, grid_factor=16)
        b, _ = locate_peaks(nu, 0.5 * lam, M, N, grid_factor=32)
        assert len(a) == len(b)
        a, b = a[np.argsort(a[:, 0])], b[np.argsort(b[:, 0])]
        assert np.abs(a - b).max() < 1e-6

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            locate_peaks(np.zeros(16), 0.0, 4, 4)

    @pytest.mark.parametrize("lam", [np.nan, np.inf], ids=["nan", "inf"])
    def test_lambda_must_be_finite(self, lam):
        # A NaN or infinite level would otherwise pass no candidate and return no peaks.
        with pytest.raises(ConfigError, match="finite"):
            locate_peaks(np.zeros(16), lam, 4, 4)
        measurement = SimpleNamespace(M=4, N=4, r_bar=np.ones(16), s_tilde=np.ones(16))
        with pytest.raises(ConfigError, match="finite"):
            estimate_from_solution(SimpleNamespace(nu_hat=np.zeros(16), e_hat=None),
                                   measurement, lam, 0.0)

    @pytest.mark.parametrize("M, N", [(8, 8), (4, 16), (16, 16)])
    def test_merge_keeps_what_the_pairwise_loop_keeps(self, rng, M, N):
        # Clusters straddle phi = 0, psi = 0 and both, so wrapped pairs are merged or kept
        # by the half-cell rule, and a kept peak can block a later one it wraps onto.
        def same_cell(f, g):
            dphi, dpsi = abs(f[0] - g[0]) % 1.0, abs(f[1] - g[1]) % 1.0
            return min(dphi, 1.0 - dphi) < 0.5 / M and min(dpsi, 1.0 - dpsi) < 0.5 / N

        centres = np.array([[0.0, 0.5], [0.5, 0.0], [0.0, 0.0], [0.3, 0.7]])
        spread = 0.6 * np.array([1.0 / M, 1.0 / N])
        x = (centres.repeat(40, axis=0) + rng.uniform(-spread, spread, (160, 2))) % 1.0
        x = x[np.argsort(-rng.uniform(1.0, 2.0, 160))]
        want = []
        for i, f in enumerate(x):
            if not any(same_cell(f, x[k]) for k in want):
                want.append(i)
        wrapped = [(a, b) for a in want for b in range(len(x))
                   if b not in want and same_cell(x[a], x[b])
                   and (abs(x[a] - x[b]) > 0.5).any()]
        assert len(want) > 4 and wrapped
        kept = _merge_cells(x, M, N)
        assert kept.dtype.kind == "i" and kept.tolist() == want
        peaks = [Peak(phi=float(f[0]), psi=float(f[1]), value=1.0) for f in x]
        assert merge_peak_objects(peaks, M, N) == [peaks[i] for i in want]


def elementwise_poly_derivs(V, phi, psi):
    """Oracle: Q and its first and second partial derivatives, term by term.

    Returns (Q, Q_phi, Q_psi, Q_phiphi, Q_psipsi, Q_phipsi) and, for each, the
    sum of its terms' magnitudes, the scale its rounding error is relative to.
    """
    M, N = V.shape
    m = np.arange(M)
    n = np.arange(N)
    W = V * np.exp(-1j * 2 * np.pi * phi * m)[:, None] * np.exp(1j * 2 * np.pi * psi * n)[None, :]
    cm = (-1j * 2 * np.pi * m)[:, None]
    cn = (1j * 2 * np.pi * n)[None, :]
    terms = [W, cm * W, cn * W, cm ** 2 * W, cn ** 2 * W, cm * cn * W]
    return [t.sum() for t in terms], [np.abs(t).sum() for t in terms]


class TestPolyDerivs:
    # Entries of the derivative table in the oracle's order.
    TABLE = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]

    @pytest.mark.parametrize("M, N", [(3, 5), (8, 8), (16, 16), (16, 64)])
    def test_matches_elementwise_oracle(self, rng, M, N):
        V = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
        points = np.vstack([[(0.0, 0.0), (0.123, 0.987), (0.5, 0.25)], rng.uniform(size=(3, 2))])
        for (phi, psi), T in zip(points, _poly_derivs(V, points)):
            want, scale = elementwise_poly_derivs(V, phi, psi)
            for (i, j), w, s in zip(self.TABLE, want, scale):
                assert abs(T[i, j] - w) <= 1e-12 * s

    def test_value_is_the_grid_polynomial_on_the_lattice(self, rng):
        M, N, gp, gq = 6, 10, 24, 40
        nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
        grid = dual_poly_grid(nu, M, N, gp, gq)
        V = _dual_matrix(nu, M, N)
        tol = 1e-12 * np.sum(np.abs(nu))
        cells = [(p, q) for p in (0, 1, 13, gp - 1) for q in (0, 7, 20, gq - 1)]
        values = _poly_derivs(V, np.array(cells) / (gp, gq))[:, 0, 0]
        for (p, q), value in zip(cells, values):
            assert abs(value - grid[p, q]) <= tol


class TestRefinePeak:
    def test_converges_to_true_maximum(self):
        M = N = 6
        nu = atom(0.377, 0.612, M, N)
        # start one grid cell off
        phi, psi, value = refine_peak(nu, 0.377 + 1 / (16 * M), 0.612 - 1 / (16 * N), M, N)
        assert phi == pytest.approx(0.377, abs=1e-8)
        assert psi == pytest.approx(0.612, abs=1e-8)
        assert abs(value) == pytest.approx(M * N, rel=1e-12)

    def test_equals_the_object_oracle(self, rng):
        M, N = 8, 6
        nu = atom(0.377, 0.612, M, N) + 0.3 * atom(0.1, 0.9, M, N)
        for start in [(0.38, 0.61), (0.11, 0.88), tuple(rng.uniform(size=2))]:
            got = refine_peak(nu, *start, M, N)
            want = refine_peak_object(nu, *start, M, N)
            assert got == (want.phi, want.psi, want.value)
            assert [type(v) for v in got] == [float, float, complex]

    @pytest.mark.parametrize("psi", [0.25, 0.75, 0.95])
    def test_peak_at_zero_frequency_stays_in_range(self, psi):
        # At phi = 0 the phi-gradient is rounding noise, so Newton steps of
        # about -1e-20 occur; wrapped by % 1.0 alone they land on 1.0.
        M = N = 8
        nu = atom(0.0, psi, M, N)
        for offset in (-0.9, -0.5, 0.5, 0.9):
            phi_hat, psi_hat, _ = refine_peak(nu, 0.0, psi + offset / (16 * N), M, N)
            assert 0.0 <= phi_hat < 1.0 and 0.0 <= psi_hat < 1.0
            assert min(phi_hat, 1.0 - phi_hat) < 1e-12
            assert psi_hat == pytest.approx(psi, abs=1e-8)


class TestDualAtomicNorm:
    @pytest.mark.parametrize("M, N", [(8, 8), (5, 7)])
    def test_is_the_grid_maximum_refined_once(self, rng, M, N):
        # The grid's largest |Q| and the |Q| that refine_peak reaches from its cell, to the bit.
        gp, gq = GRID_FACTOR * M, GRID_FACTOR * N
        for _ in range(4):
            nu = rng.normal(size=M * N) + 1j * rng.normal(size=M * N)
            mag = np.abs(dual_poly_grid(nu, M, N, gp, gq))
            p, q = np.unravel_index(int(np.argmax(mag)), mag.shape)
            want = max(float(mag[p, q]), abs(refine_peak(nu, p / gp, q / gq, M, N)[2]))
            assert extract.dual_atomic_norm(nu, M, N) == want >= mag.max()


def wrapped_gap(a, b):
    """Largest distance between two (phi, psi) points on the wrapped axes."""
    d = np.abs(np.subtract(a, b)) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


def assert_matches_scalar_oracle(nu, starts, M, N):
    """Every start of one batched ascent ends where the scalar oracle ends from it."""
    x, Q = _newton_ascent(_dual_matrix(nu, M, N), starts)
    for start, point, value in zip(starts, x, Q):
        *want, want_value = scalar_refine_peak(nu, *start, M, N)
        assert 0.0 <= point[0] < 1.0 and 0.0 <= point[1] < 1.0
        assert wrapped_gap(point, want) <= 1e-8
        assert abs(abs(value) - abs(want_value)) <= 1e-12 * abs(want_value)
    return x, Q


class TestNewtonAscent:
    @pytest.fixture(scope="class")
    def certificates(self):
        """Dual vectors and weights of seeded 8x8 CS-ANL1 and CS-AN solves of an rmse1 scene."""
        base = bench.preset("rmse1")
        spec = dataclasses.replace(base, config=dataclasses.replace(base.config, M=8, N=8))
        _, meas = bench.simulate_trial(spec, 1e-2, 0)
        out = {}
        for name in ("CS-ANL1", "CS-AN"):
            settings, _, solution, _ = bench.run_receiver(name, meas, spec.config, max_iters=600)
            out[name] = (solution.nu_hat, settings.lam)
        return out

    @staticmethod
    def grid_starts(nu, lam, M, N):
        grid_phi, grid_psi = GRID_FACTOR * M, GRID_FACTOR * N
        mag = np.abs(dual_poly_grid(nu, M, N, grid_phi, grid_psi))
        cand = np.argwhere(wrapped_local_maxima(mag) & (mag >= (1.0 - REL_THRESHOLD) * lam))
        return cand / (grid_phi, grid_psi)

    @pytest.mark.parametrize("name", ["CS-ANL1", "CS-AN"])
    def test_grid_candidates_match_the_scalar_oracle(self, certificates, name):
        nu, lam = certificates[name]
        starts = self.grid_starts(nu, lam, 8, 8)
        assert len(starts) >= 5
        assert_matches_scalar_oracle(nu, starts, 8, 8)

    @pytest.mark.parametrize("name", ["CS-ANL1", "CS-AN"])
    def test_grid_candidates_stop_at_maxima_well_before_the_cap(self, monkeypatch,
                                                                 certificates, name):
        # The batch runs until its slowest candidate stops, so one candidate
        # crawling from an indefinite Hessian would set the cost of the readout.
        # Every candidate here ends at a strict local maximum that meets the
        # gradient test, with the whole batch in at most 30 evaluations (5 and 26
        # measured); plain Newton steps with an ascent fallback took 74, as one
        # CS-AN candidate crawled to the step cap.
        nu, lam = certificates[name]
        V = _dual_matrix(nu, 8, 8)
        counts = {"evaluations": 0, "steps": 0}
        evaluate, steps = extract._value_grad_hess, extract._ascent_steps

        def counted_evaluate(*args):
            counts["evaluations"] += 1
            return evaluate(*args)

        def counted_steps(*args):
            counts["steps"] += 1
            return steps(*args)

        monkeypatch.setattr(extract, "_value_grad_hess", counted_evaluate)
        monkeypatch.setattr(extract, "_ascent_steps", counted_steps)
        x, _ = _newton_ascent(V, self.grid_starts(nu, lam, 8, 8))
        monkeypatch.undo()
        # One step per pass over the batch: fewer passes than the cap means no
        # candidate reached it.
        assert counts["steps"] < MAX_NEWTON_STEPS
        assert counts["evaluations"] <= 30
        _, F, g, H = _value_grad_hess(V, x)
        assert (np.linalg.norm(g, axis=1) <= GRAD_TOL * F).all()
        assert (H[:, 0] < 0).all() and (H[:, 0] * H[:, 2] - H[:, 1] ** 2 > 0).all()

    @pytest.mark.parametrize("seed", [2, 4])
    def test_halvings_end_at_the_rounding_floor(self, monkeypatch, seed):
        # On a 16x16 noise certificate a few candidates stall at |g| of a few 1e-6 |Q|^2,
        # where a full step predicts a rise of a few ulps of |Q|^2, inside its rounding.
        # Ending their halvings at RISE_FLOOR, instead of after 25, ends the same ascents
        # within 1e-9 of the same points (63 and 54 evaluations fall to 28 and 33).
        M = N = 16
        rng = np.random.default_rng(seed)
        nu = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        mag = np.abs(dual_poly_grid(nu, M, N, GRID_FACTOR * M, GRID_FACTOR * N))
        starts = np.argwhere(wrapped_local_maxima(mag)) / (GRID_FACTOR * M, GRID_FACTOR * N)
        V = _dual_matrix(nu, M, N)
        evaluate = extract._value_grad_hess

        def ascend():
            count = [0]

            def counted_evaluate(*args):
                count[0] += 1
                return evaluate(*args)

            monkeypatch.setattr(extract, "_value_grad_hess", counted_evaluate)
            x, Q = _newton_ascent(V, starts)
            monkeypatch.setattr(extract, "_value_grad_hess", evaluate)
            return x, Q, count[0]

        x, Q, evaluations = ascend()
        monkeypatch.setattr(extract, "RISE_FLOOR", 0.0)
        x_all, Q_all, evaluations_all = ascend()
        assert evaluations < 0.75 * evaluations_all
        assert max(wrapped_gap(a, b) for a, b in zip(x, x_all)) <= 1e-9
        np.testing.assert_allclose(np.abs(Q), np.abs(Q_all), rtol=1e-14, atol=0)
        _, F, g, _ = evaluate(V, x)
        _, F_all, g_all, _ = evaluate(V, x_all)
        stalled = np.linalg.norm(g, axis=1) > GRAD_TOL * F
        assert stalled.any()
        assert np.array_equal(stalled, np.linalg.norm(g_all, axis=1) > GRAD_TOL * F_all)

    def test_indefinite_start_ascends_to_a_maximum(self):
        # Two equal atoms 1.5 cells apart in phi leave a saddle of |Q|^2 midway
        # between them, where plain Newton steps are drawn towards the saddle.  A
        # start just off it has an indefinite Hessian and a nonzero gradient; the
        # saddle-free step leaves along the direction of positive curvature.
        M = N = 8
        nu = atom(0.3, 0.5, M, N) + atom(0.3 + 1.5 / M, 0.5, M, N)
        V = _dual_matrix(nu, M, N)
        start = np.array([[0.3 + 0.75 / M + 1e-3, 0.5 + 1e-3]])
        _, F0, g0, H0 = _value_grad_hess(V, start)
        assert H0[0, 0] * H0[0, 2] - H0[0, 1] ** 2 < 0
        assert np.linalg.norm(g0) > GRAD_TOL * F0[0]
        x, _ = assert_matches_scalar_oracle(nu, start, M, N)
        _, F, g, H = _value_grad_hess(V, x)
        assert np.linalg.norm(g) <= GRAD_TOL * F[0] and F[0] > F0[0]
        assert H[0, 0] < 0 and H[0, 0] * H[0, 2] - H[0, 1] ** 2 > 0
        atoms_at = [(0.3, 0.5), (0.3 + 1.5 / M, 0.5)]
        assert min(wrapped_gap(x[0], f) for f in atoms_at) < 0.5 / M

    def test_special_starts_in_one_batch(self):
        # Q(phi, psi) = A(phi) + C(psi) with A'(0) = 0 exactly and Q(0, 0) purely
        # imaginary, so at (0, 0) the Hessian of |Q|^2 is exactly singular while
        # the psi-gradient is not zero.  At (1/3, 0) the psi-gradient and the
        # mixed derivative vanish up to rounding, so the first Newton step moves
        # psi = 0 by about 1e-17, which the wrap rule keeps in [0, 1).
        M = N = 8
        V = np.zeros((M, N), complex)
        V[1, 0], V[2, 0], V[0, 1], V[0, 3] = -2.0, 1.0, 1.0, 0.5
        V[0, 0] = -0.5 + 1j * np.nextafter(-1.5 * np.sqrt(3.0), -np.inf)
        nu = V.reshape(-1, order="F")
        singular, wrapping = (0.0, 0.0), (1.0 / 3.0, 0.0)
        _, _, g, H = _value_grad_hess(V, np.array([singular, wrapping]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H[0, [[0, 1], [1, 2]]], -g[0])
        assert g[0, 1] != 0.0
        assert abs(_ascent_steps(g, H)[1, 1]) < 1e-15

        mag = np.abs(dual_poly_grid(nu, M, N, 128, 128))
        is_max = wrapped_local_maxima(mag)
        ordinary = np.argwhere(is_max) / 128
        on_max = scalar_refine_peak(nu, *ordinary[np.argmax(mag[is_max])], M, N)[:2]
        starts = np.vstack([ordinary[:2], [on_max, wrapping], ordinary[2:], [singular]])
        x, _ = assert_matches_scalar_oracle(nu, starts, M, N)
        assert tuple(x[2]) == on_max


def rmse1_solves(M, N):
    """Measurement, settings and solution of seeded CS-ANL1 and CS-AN solves of an M x N
    rmse1 scene, by receiver."""
    base = bench.preset("rmse1")
    spec = dataclasses.replace(base, config=dataclasses.replace(base.config, M=M, N=N))
    _, meas = bench.simulate_trial(spec, 1e-2, 0)
    out = {}
    for name in ("CS-ANL1", "CS-AN"):
        settings, _, solution, _ = bench.run_receiver(name, meas, spec.config, max_iters=600)
        out[name] = (meas, settings, solution)
    return out


def assert_equals_object_readout(got, want):
    """The array readout ``got`` holds the oracle's peaks exactly, in the oracle's order."""
    freqs, values = got
    assert freqs.dtype == float and freqs.shape == (len(want), 2)
    assert freqs.tolist() == [[pk.phi, pk.psi] for pk in want]
    assert values.tolist() == [pk.value for pk in want]


class TestArrayReadout:
    """``locate_peaks`` against the object-per-peak oracle ``locate_peak_objects``."""

    SOLVES = [(8, "CS-ANL1"), (8, "CS-AN"), (16, "CS-ANL1"), (16, "CS-AN")]

    @pytest.fixture(scope="class")
    def solves(self):
        return {size: rmse1_solves(size, size) for size in (8, 16)}

    @pytest.mark.parametrize("size, name", SOLVES, ids=[f"{s}x{s}-{n}" for s, n in SOLVES])
    def test_equals_the_object_oracle_on_solved_duals(self, solves, size, name):
        _, settings, sol = solves[size][name]
        want = locate_peak_objects(sol.nu_hat, settings.lam, size, size)
        assert len(want) >= 5
        assert_equals_object_readout(locate_peaks(sol.nu_hat, settings.lam, size, size), want)

    def test_merges_drop_peaks_on_solved_duals(self, solves):
        # The merge must be exercised: on some solve, peaks at the level share a cell.
        dropped = []
        for size, name in self.SOLVES:
            _, settings, sol = solves[size][name]
            level = (1.0 - REL_THRESHOLD) * settings.lam
            starts = TestNewtonAscent.grid_starts(sol.nu_hat, settings.lam, size, size)
            _, Q = _newton_ascent(_dual_matrix(sol.nu_hat, size, size), starts)
            kept, _ = locate_peaks(sol.nu_hat, settings.lam, size, size)
            dropped.append(int(np.sum(np.abs(Q) >= level)) - len(kept))
        assert min(dropped) >= 0 and max(dropped) > 0

    def test_equal_magnitude_ties_order_by_phi_then_psi(self, monkeypatch, solves):
        # Plant two exact ties with the largest peak i: j half a phi cell below i with Q
        # rotated by 1j, and k at j's phi two psi cells up with Q negated.  |Q| ties, so
        # phi puts j before i, which then merges into j, and psi puts j before k.
        M = N = 8
        _, settings, sol = solves[M]["CS-ANL1"]
        ascend, planted = extract._newton_ascent, {}

        def tied_ascent(V, starts):
            x, Q = ascend(V, starts)
            i, j, k = np.argsort(-np.abs(Q))[:3]
            x[j] = x[i] - (0.25 / M, 0.0)
            x[k] = x[j] + (0.0, 2.0 / N)
            Q[j], Q[k] = 1j * Q[i], -Q[i]
            assert (x[[j, k]] >= 0.0).all() and (x[[j, k]] < 1.0).all()
            assert abs(complex(Q[i])) == abs(complex(Q[j])) == abs(complex(Q[k]))
            planted.update(i=(x[i].tolist(), Q[i]), j=(x[j].tolist(), Q[j]),
                           k=(x[k].tolist(), Q[k]))
            return x, Q

        monkeypatch.setattr(extract, "_newton_ascent", tied_ascent)
        want = locate_peak_objects(sol.nu_hat, settings.lam, M, N)
        freqs, values = locate_peaks(sol.nu_hat, settings.lam, M, N)
        assert_equals_object_readout((freqs, values), want)
        rows = freqs.tolist()
        assert rows[:2] == [planted["j"][0], planted["k"][0]]
        assert values[:2].tolist() == [planted["j"][1], planted["k"][1]]
        assert planted["i"][0] not in rows

    @pytest.mark.parametrize("size, name", SOLVES, ids=[f"{s}x{s}-{n}" for s, n in SOLVES])
    def test_estimate_keeps_abs_of_q_at_each_path(self, solves, size, name):
        meas, settings, sol = solves[size][name]
        est = estimate_from_solution(sol, meas, settings.lam, settings.mu)
        freqs, values = locate_peaks(sol.nu_hat, settings.lam, size, size)
        rows = freqs.tolist()
        assert len(est.paths) == len(rows) == len(est.dual_peak_values)
        for path, stat in zip(est.paths, est.dual_peak_values):
            assert type(path.phi) is float and type(path.psi) is float
            assert type(stat) is float
            assert stat == abs(complex(values[rows.index([path.phi, path.psi])]))


class TestErrorSupport:
    def test_mu_zero_not_applicable(self):
        assert detect_error_support(np.ones(4), 0.0, 1.0) == ()

    def test_thresholding(self):
        e = np.array([0.0, 1e-3, 0.5, 0.0])
        assert detect_error_support(e, 0.1, 1.0) == (1, 2)


class TestLsAmplitudes:
    def test_exact_single_path(self):
        cfg = small_config(4, 4, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(2 + 1j, 0.3, 0.8),))
        meas = simulate(scene, cfg, qpsk(), 0.0, 0)
        alpha = ls_amplitudes(meas.r_bar, meas.s_tilde, None, [(0.3, 0.8)], 4, 4)
        assert alpha[0] == pytest.approx(2 + 1j, abs=1e-10)

    def test_two_paths_match_normal_equations(self, rng):
        M = N = 6
        cfg = small_config(M, N, noise_power_db=-np.inf)
        paths = (Path(1.5, 0.2, 0.3), Path(0.5j, 0.7, 0.8))
        meas = simulate(Scene(targets=paths), cfg, qpsk(), 0.0, 1)
        freqs = [(0.2, 0.3), (0.7, 0.8)]
        got = ls_amplitudes(meas.r_bar, meas.s_tilde, None, freqs, M, N)
        # independent oracle: explicit normal equations
        A = np.stack([meas.s_tilde * atom(p, s, M, N) for p, s in freqs], axis=1)
        want = np.linalg.solve(A.conj().T @ A, A.conj().T @ meas.r_bar)
        assert np.allclose(got, want, atol=1e-8)
        assert np.allclose(got, [1.5, 0.5j], atol=1e-8)

    def test_duplicate_frequencies_degenerate(self):
        cfg = small_config(4, 4)
        meas = simulate(Scene(targets=(Path(1.0, 0.3, 0.8),)), cfg, qpsk(), 0.0, 2)
        with pytest.raises(DegenerateDictionaryError) as err:
            ls_amplitudes(meas.r_bar, meas.s_tilde, None,
                          [(0.3, 0.8), (0.3, 0.8)], 4, 4)
        assert err.value.pairs

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ls_amplitudes(np.zeros(4), np.ones(4), None, [], 2, 2)

    def test_more_paths_than_samples_rejected(self):
        freqs = [(0.1 * k, 0.2) for k in range(5)]
        with pytest.raises(ConfigError, match="cannot fit 5 paths with 4 samples"):
            ls_amplitudes(np.zeros(4), np.ones(4), None, freqs, 2, 2)


class TestRankedEstimate:
    def test_ranks_by_amplitude_and_keeps_each_statistic_with_its_path(self):
        freqs = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        est = ranked_estimate(freqs, np.array([1.0, -3.0j, 2.0]), np.array([7.0, 5.0, 9.0]),
                              (4,))
        assert [p.alpha for p in est.paths] == [-3.0j, 2.0, 1.0]
        assert [(p.phi, p.psi) for p in est.paths] == [freqs[1], freqs[2], freqs[0]]
        assert est.dual_peak_values == (5.0, 9.0, 7.0)
        assert all(type(v) is float for v in est.dual_peak_values)
        assert est.error_support == (4,)

    def test_empty_input_gives_an_empty_estimate(self):
        assert ranked_estimate([], [], []) == Estimate(paths=())


class TestWrappedLocalMaxima:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (64, 64), (256, 256)],
                             ids=["2x2", "3x5", "64x64", "256x256"])
    def test_equals_the_rolled_scan_on_grids_with_ties(self, rng, shape):
        # Three levels tie neighbours everywhere (in a wrapped 2x2 grid every cell
        # neighbours every other); a |Q| grid rounded to 0.1 has plateaus on the
        # larger grids.
        levels = rng.integers(0, 3, size=shape).astype(float)
        assert np.unique(levels).size < levels.size
        rounded = np.round(np.abs(dual_poly_grid(rng.normal(size=4) + 0j, 2, 2, *shape)), 1)
        for values in (levels, rounded, rng.normal(size=shape)):
            mask = wrapped_local_maxima(values)
            assert mask.dtype == bool and np.array_equal(mask, rolled_local_maxima(values))


class TestSameCell:
    @pytest.mark.parametrize("f, g, same", [
        ((0.99, 0.5), (0.01, 0.5), True),     # wraps around phi = 0
        ((0.5, 0.02), (0.5, 0.97), True),     # wraps around psi = 0
        ((0.1, 0.5), (0.1, 0.6), False),      # a psi cell is 1/8 wide here
        ((0.1, 0.5), (0.2, 0.5), False)])
    def test_half_a_cell_on_both_axes(self, f, g, same):
        mask = _same_cell_mask([f, g], 8, 8)
        assert mask[0, 1] == mask[1, 0] == same
        assert mask[0, 0] and mask[1, 1]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def solve_noiseless(self):
        # One 8000-iteration solve, shared by the tests that only read it.
        M = N = 8
        cfg = small_config(M, N, noise_power_db=-120.0)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.8 * np.exp(0.7j), 0.62, 0.75)))
        meas = simulate(scene, cfg, qpsk(), 0.0, 0)
        lam = 0.05
        sol = solve(meas, SolverConfig(lam=lam, mu=0.0, max_iters=8000, tol=1e-7))
        return cfg, scene, meas, lam, sol

    def test_peaks_at_planted_frequencies(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        freqs, _ = locate_peaks(sol.nu_hat, lam, 8, 8)
        assert len(freqs) >= 2
        for p in scene.targets:
            best = freqs[np.argmin(np.abs(freqs - (p.phi, p.psi)).sum(axis=1))]
            assert abs(best[0] - p.phi) < 1e-3
            assert abs(best[1] - p.psi) < 1e-3

    def test_certificate_phase_matches_amplitude_phase(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        est = estimate_from_solution(sol, meas, lam, 0.0)
        freqs, values = locate_peaks(sol.nu_hat, lam, 8, 8)
        for path in est.paths[:2]:
            phase_q = np.angle(values[np.argmin(np.abs(freqs - (path.phi, path.psi)).sum(axis=1))])
            phase_a = np.angle(path.alpha)
            dphase = np.angle(np.exp(1j * (phase_q - phase_a)))
            assert abs(dphase) < np.deg2rad(5)

    def test_noiseless_single_error_support(self):
        M = N = 8
        cfg = small_config(M, N, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.8, 0.62, 0.75)))
        from ofdmradar import bpsk
        S = generate_symbols(cfg, bpsk(), 3)
        S_hat = S.copy()
        S_hat[3, 4] = -S_hat[3, 4]
        meas = measure(scene, S, S_hat, cfg, 4)
        sol = solve(meas, SolverConfig(lam=0.16, mu=0.02, max_iters=6000, tol=1e-6))
        est = estimate_from_solution(sol, meas, 0.16, 0.02)
        assert est.error_support == (4 * M + 3,)

    def test_paths_sorted_by_magnitude(self, solve_noiseless):
        cfg, scene, meas, lam, sol = solve_noiseless
        est = estimate_from_solution(sol, meas, lam, 0.0)
        mags = [abs(p.alpha) for p in est.paths]
        assert mags == sorted(mags, reverse=True)

