"""Comparison receivers: 2D-MUSIC with spatial smoothing and grid-based CS-L1.

Both emit the same :class:`~ofdmradar.extract.Estimate` as the
dual-certificate receiver, so all algorithms share one evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import extract
from .errors import ConfigError, NumericError, check_whole_number
from .extract import Estimate, _dft_factors, ls_amplitudes, ranked_estimate, wrapped_local_maxima
from .operators import _shrink
from .scene import Measurement, steering

# Per-axis oversampling of the default CS-L1 dictionary grid.
CSL1_GRID_FACTOR = 4
# CS-L1's ADMM: over-relaxation, penalty scale and iterations between gap checks
# (chosen by cost on held-out baselines-16 scenes; see CsL1Config).
CSL1_RELAXATION = 1.8
CSL1_PENALTY = 1.5
CSL1_GAP_EVERY = 30
# CS-L1's polished dual point: tried when the two-point gap is above tol but at most
# CSL1_POLISH_WINDOW * tol, correcting at most CSL1_POLISH_ATOMS violators per round
# for at most CSL1_POLISH_ROUNDS rounds (chosen on held-out baselines-16 scenes).
CSL1_POLISH_WINDOW = 5.0
CSL1_POLISH_ATOMS = 32
CSL1_POLISH_ROUNDS = 5
# Relative excess over gamma below which a lattice point is not a violator to polish.
CSL1_POLISH_MARGIN = 1e-9


@dataclass(frozen=True)
class MusicConfig:
    """Subarray sizes, signal-subspace dimension, and spectrum grid.

    Sizes are whole numbers of at least 1; ``K_signal`` is ``"auto"`` or a whole
    number, which :func:`music_spectrum` checks against M_sub N_sub.
    """

    M_sub: int
    N_sub: int
    K_signal: int | str = "auto"
    grid_phi: int = 256
    grid_psi: int = 256

    def __post_init__(self):
        for name in ("M_sub", "N_sub", "grid_phi", "grid_psi"):
            check_whole_number(name, getattr(self, name))
        if self.K_signal != "auto":
            check_whole_number("K_signal", self.K_signal, least=None)


@dataclass(frozen=True)
class CsL1Config:
    """Dictionary grid, l1 weight and stopping rule of the on-grid sparse fit.

    :func:`csl1_estimate` stops once the relative duality gap at its iterate
    is at most ``tol`` (a certificate that the objective is within ``tol`` of
    the optimum, relatively), or after ``max_iters`` ADMM iterations.  The gap
    takes the best of up to three dual points: the residual r - A w at the
    iterate w; the residual r - A x at the x-step's iterate, which is rho D
    times the x-step's residual r - A z for D = 1/(rho + M_grid N_grid |s|^2),
    exact because C C^H = M_grid N_grid I; and, when those two leave the gap
    above ``tol`` but within ``CSL1_POLISH_WINDOW * tol``, r - A x polished by
    minimum-norm corrections that put its largest violators of |A^H nu| <= gamma
    back on the constraint.  Every point is scaled into the feasible set over
    the whole lattice before it is scored, so each gives a lower bound on the
    optimum and the certificate is the same whichever one gives the bound.

    The gap is checked every ``CSL1_GAP_EVERY`` (30) iterations and at
    ``max_iters``, so a solve stops at most 29 iterations after the first
    iterate that would certify.  At 16x16 a check costs about one iteration and
    a polish call about 13, so a check every 10 iterations spent about a fifth
    of a solve on checks.  From 30 to 60 the modelled solve time varies by under
    2%, while a longer cadence lets each stop come later.
    """

    M_grid: int
    N_grid: int
    gamma: float
    max_iters: int = 4000
    tol: float = 1e-4

    def __post_init__(self):
        check_whole_number("M_grid", self.M_grid)
        check_whole_number("N_grid", self.N_grid)
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be nonnegative and finite, got {self.gamma}")
        check_whole_number("max_iters", self.max_iters)
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")


def default_music_config(M: int, N: int) -> MusicConfig:
    return MusicConfig(M_sub=M // 2, N_sub=N // 2, grid_phi=extract.GRID_FACTOR * M,
                       grid_psi=extract.GRID_FACTOR * N)


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


def music_spectrum(observation: np.ndarray, config: MusicConfig) -> tuple[np.ndarray, int]:
    """Noise-subspace spectrum 1/||F_n^H a'(phi, psi)||^2 on the config grid, and its order k.

    One SVD of the observation gives k and the noise subspace F_n, its left singular
    vectors beyond k; each |f^H a'| on the grid is ``|dual_poly_grid(f)|``.
    """
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
        denom += np.abs(extract.dual_poly_grid(F[:, j], Ms, Ns, config.grid_phi,
                                               config.grid_psi)) ** 2
    return 1.0 / np.maximum(denom, 1e-300), k


def music_estimate(measurement: Measurement, config: MusicConfig) -> Estimate:
    """Pick the strongest spectrum peaks and fit amplitudes by least squares."""
    M, N = measurement.M, measurement.N
    spectrum, k = music_spectrum(spatial_smooth(measurement, config), config)

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

    Column q*M_grid+p is the atom at that lattice point: ``scene.atoms`` of the lattice, built
    as the Kronecker product of the axis steering matrices.  :func:`csl1_estimate`
    applies this matrix and its adjoint as DFT-factor products without building it.
    """
    if M_grid < M or N_grid < N:
        raise ConfigError("dictionary grid must be at least as fine as the data")
    return np.kron(steering(np.arange(N_grid) / N_grid, N).conj(),
                   steering(np.arange(M_grid) / M_grid, M))


def _synthesize(X: np.ndarray, M: int, N: int, M_grid: int, N_grid: int) -> np.ndarray:
    """C x for :func:`csl1_dictionary` as B^H X G^H: the exact adjoint of ``dual_poly_grid``.

    ``X`` is x on its (M_grid, N_grid) lattice or flattened column-major.
    """
    _, _, BH, GH = _dft_factors(M, N, M_grid, N_grid)
    return (BH @ X.reshape(M_grid, N_grid, order="F") @ GH).ravel(order="F")


def _csl1_solve(measurement: Measurement, config: CsL1Config) -> tuple[np.ndarray, int, float]:
    """Over-relaxed scaled ADMM on the split x = w of the on-grid l1 program.

    Returns w on its (M_grid, N_grid) lattice, the iterations run and the
    relative duality gap at w.  See :func:`csl1_estimate` for the iteration.
    """
    M, N = measurement.M, measurement.N
    Mg, Ng = config.M_grid, config.N_grid
    s, r, gamma = measurement.s_tilde, measurement.r_bar, config.gamma
    s_conj = np.conj(s)
    w = np.zeros((Mg, Ng), dtype=complex)
    corr_max = float(np.abs(extract.dual_poly_grid(s_conj * r, M, N, Mg, Ng)).max())
    if corr_max <= gamma:
        return w, 0, 0.0
    if gamma == 0:
        raise ConfigError("csl1_estimate needs gamma > 0")
    rho = CSL1_PENALTY * Mg * Ng * gamma / corr_max
    a = CSL1_RELAXATION
    # alpha conj(s) D and rho D, for the x-step's Woodbury weights
    # D = 1/(rho + M_grid N_grid |s|^2); rho D resid is r - A x.
    s_conj_weight = a * s_conj / (rho + Mg * Ng * np.abs(s) ** 2)
    x_weight = rho / (rho + Mg * Ng * np.abs(s) ** 2)
    u, z = np.zeros((Mg, Ng), dtype=complex), np.empty((Mg, Ng), dtype=complex)
    mag, shrunk = np.empty((Mg, Ng)), np.empty((Mg, Ng))
    with np.errstate(invalid="ignore"):
        for it in range(1, config.max_iters + 1):
            # The x-step at z = w - u is x = z + A^H D resid with resid = r - A z;
            # step is alpha (x - z).
            np.subtract(w, u, out=z)
            resid = r - s * _synthesize(z, M, N, Mg, Ng)
            step = extract.dual_poly_grid(s_conj_weight * resid, M, N, Mg, Ng)
            # u + alpha x + (1 - alpha) w, which is w + (1 - alpha) u + step, into u;
            # w = shrink(u) and u - w is the new u.
            u *= 1.0 - a
            u += w
            u += step
            np.copyto(w, u)
            _shrink(w, gamma / rho, mag, shrunk)
            u -= w
            if it % CSL1_GAP_EVERY == 0 or it == config.max_iters:
                # A^H (rho D resid) = (rho / alpha) step: the x-point's correlations.
                gap = _csl1_gap(w, float(shrunk.sum()), x_weight * resid, (rho / a) * step,
                                measurement, config)
                if gap <= config.tol:
                    break
    return w, it, gap


def _csl1_gap(w: np.ndarray, l1: float, nu_x: np.ndarray, corr_x: np.ndarray,
              measurement: Measurement, config: CsL1Config) -> float:
    """Relative duality gap (P(w) - D(nu)) / P(w) at w, whose l1 norm is ``l1``.

    D(nu) = Re<r, nu> - ||nu||^2 / 2 is the lasso dual, taken at the best of
    up to three points, each scaled into the dual's feasible set
    |C^H(conj(s) nu)| <= gamma: the residual r - A w, ``nu_x`` = r - A x at
    the last x-step's iterate x (see :func:`csl1_estimate`), whose
    correlations A^H nu_x are ``corr_x``, and, when those two leave the gap
    above ``tol`` but within ``CSL1_POLISH_WINDOW * tol``, the polished
    x-point of :func:`_csl1_polished_dual`.
    """
    M, N = measurement.M, measurement.N
    s, gamma = measurement.s_tilde, config.gamma
    nu_w = measurement.r_bar - s * _synthesize(w, M, N, config.M_grid, config.N_grid)
    sq = float(np.vdot(nu_w, nu_w).real)
    primal = 0.5 * sq + gamma * l1
    corr_w = _csl1_correlations(nu_w, measurement, config)
    mag_x = np.abs(corr_x)
    dual = max(_csl1_dual(nu_w, float(np.abs(corr_w).max()), measurement, config),
               _csl1_dual(nu_x, float(mag_x.max()), measurement, config))
    if config.tol < (primal - dual) / primal <= CSL1_POLISH_WINDOW * config.tol:
        dual = max(dual, _csl1_polished_dual(nu_x, corr_x, mag_x, primal, measurement, config))
    gap = (primal - dual) / primal
    if not math.isfinite(gap):
        raise NumericError("non-finite duality gap in CS-L1")
    return gap


def _csl1_correlations(nu: np.ndarray, measurement: Measurement,
                       config: CsL1Config) -> np.ndarray:
    """A^H nu = C^H(conj(s) nu) on the (M_grid, N_grid) lattice."""
    return extract.dual_poly_grid(np.conj(measurement.s_tilde) * nu, measurement.M,
                                  measurement.N, config.M_grid, config.N_grid)


def _csl1_dual(nu: np.ndarray, corr_max: float, measurement: Measurement,
               config: CsL1Config) -> float:
    """D(theta nu) for theta = gamma / max(``corr_max``, gamma), ``corr_max`` = ||A^H nu||_inf."""
    theta = config.gamma / max(corr_max, config.gamma)
    sq = float(np.vdot(nu, nu).real)
    return theta * float(np.vdot(measurement.r_bar, nu).real) - 0.5 * theta * theta * sq


def _csl1_polished_dual(nu: np.ndarray, corr: np.ndarray, mag: np.ndarray, primal: float,
                        measurement: Measurement, config: CsL1Config) -> float:
    """Best D over up to ``CSL1_POLISH_ROUNDS`` polished copies of nu, whose A^H nu is
    ``corr`` with magnitudes ``mag``, ending once D certifies the gap at ``primal`` = P(w).

    Each round takes the violators V, the at most ``CSL1_POLISH_ATOMS`` lattice
    points with the largest |A^H nu| above gamma (by more than
    ``CSL1_POLISH_MARGIN`` relative), and applies the minimum-norm correction
    nu - R^H (R R^H)^-1 (c - gamma c/|c|) that puts each of their correlations
    c = R nu on the circle |c| = gamma; the rows of R are those of A^H at V, the
    conj(s)-weighted products of the DFT factors' rows, and R R^H is one matrix
    product.  The correction can push other lattice points over gamma, so each
    polished nu is scored as D(theta nu) with theta from its correlations over
    the whole lattice, which the next round reuses: theta nu is feasible, and
    its D a lower bound on P*, whatever the correction did.  A D that leaves
    (P(w) - D) / P(w) at most ``tol`` ends the rounds, since it ends the check
    whatever a later round would add.  A singular or non-finite system ends
    them too; with no round scored the result is -inf.
    """
    M, N, Ng = measurement.M, measurement.N, config.N_grid
    B, G, _, _ = _dft_factors(M, N, config.M_grid, Ng)
    s_conj, gamma = np.conj(measurement.s_tilde).reshape(N, M), config.gamma
    best = -math.inf
    corr, mag = corr.ravel(), mag.ravel()
    for _ in range(CSL1_POLISH_ROUNDS):
        # A point the last round put on the circle is within rounding of gamma, not a violator.
        V = np.flatnonzero(mag > (1.0 + CSL1_POLISH_MARGIN) * gamma)
        if not V.size:
            break
        if V.size > CSL1_POLISH_ATOMS:
            V = V[np.argpartition(mag[V], -CSL1_POLISH_ATOMS)[-CSL1_POLISH_ATOMS:]]
        p, q = np.divmod(V, Ng)
        # Row v of R is B[p_v, m] G[n, q_v] conj(s)[n M + m], flat column-major like nu.
        R = G.T[q][:, :, None] * B[p][:, None, :]
        R *= s_conj
        R = R.reshape(V.size, M * N)
        R_conj = R.conj()
        c = corr[V]
        try:
            coef = np.linalg.solve(R @ R_conj.T, c - gamma * c / mag[V])
        except np.linalg.LinAlgError:
            break
        nu = nu - coef @ R_conj
        if not np.isfinite(nu).all():
            break
        corr = _csl1_correlations(nu, measurement, config).ravel()
        mag = np.abs(corr)
        best = max(best, _csl1_dual(nu, float(mag.max()), measurement, config))
        if (primal - best) / primal <= config.tol:
            break
    return best


def csl1_estimate(measurement: Measurement, config: CsL1Config) -> Estimate:
    """ADMM solve of the on-grid l1 program, stopped on a duality-gap certificate.

    Minimizes P(x) = 0.5*||r - A x||^2 + gamma*||x||_1 with A = diag(s) C for the
    dictionary C of :func:`csl1_dictionary`, applied by cached DFT factors: C x
    is :func:`_synthesize` and C^H y is ``dual_poly_grid`` of y, on the
    (M_grid, N_grid) lattice that holds the iterate.

    Scaled ADMM on the split x = w (Boyd et al. 2011, sections 6.4 and 3.4.3).
    The rows of C are orthogonal, C C^H = M_grid N_grid I, so the x-step's
    inverse has the exact Woodbury form (A^H A + rho I)^-1 v =
    (v - A^H diag(1/(rho + M_grid N_grid |s|^2)) A v) / rho: each iteration runs
    one synthesis and one adjoint.  The x-iterate is over-relaxed by
    ``CSL1_RELAXATION`` (1.8), and w is its soft threshold at gamma/rho.  The
    penalty rho = ``CSL1_PENALTY`` * M_grid N_grid gamma / ||C^H(conj(s) r)||_inf
    makes the iteration homogeneous in the data scale: scaling r and gamma by
    k scales every iterate by k.  If ||C^H(conj(s) r)||_inf <= gamma, x = 0 is
    optimal and no iteration runs.

    Every ``CSL1_GAP_EVERY`` (30) iterations and at ``max_iters`` the relative
    duality gap (P(w) - D(nu)) / P(w) is taken at w, with D at the better of
    two dual points, each scaled into |A^H nu| <= gamma: the residual r - A w,
    and the residual r - A x at the x-step's iterate x before relaxation.  The
    x-step already forms resid = r - A z, and since A A^H = M_grid N_grid
    diag(|s|^2) (from C C^H = M_grid N_grid I), r - A x = (I - A A^H D) resid
    = rho D resid exactly, with no extra synthesis; its correlations
    A^H (rho D resid) are rho / alpha times the x-step's alpha A^H D resid, with
    no extra adjoint.  When those two points leave the gap above ``tol`` but
    within ``CSL1_POLISH_WINDOW * tol``, a third is tried: r - A x polished by
    :func:`_csl1_polished_dual`, which moves it by the least amount that puts
    its largest violators of |A^H nu| <= gamma on the constraint, then scales it
    into the feasible set like the others, and ends its rounds at the first D
    that certifies.  The solve stops once the gap is at most ``config.tol``: any
    feasible nu gives D(nu) <= P*, so then P(w) is within ``tol * P(w)`` of the
    optimum, whichever point gave D.  The stop test only reads the iterates, so
    the second and third points leave them unchanged and can only make the stop
    come sooner.  A check runs one synthesis and one adjoint, about an
    iteration's work, and a polish call about 13 iterations' work at 16x16; the
    cadence of 30 keeps checks and polish together near a tenth of a solve, and
    a stop at most 29 iterations after the first iterate that would certify.
    ``gamma`` must be positive unless r = 0.
    Entries of w above 1e-3 of the largest magnitude become paths at
    their grid frequencies.
    """
    w = _csl1_solve(measurement, config)[0]
    Mg, Ng = config.M_grid, config.N_grid
    # Column-major flat index l = q*Mg + p, the dictionary's column order.
    x = w.ravel(order="F")
    mags = np.abs(x)
    sel = np.flatnonzero(mags > 1e-3 * float(mags.max(initial=0.0)))
    freqs = [(int(l % Mg) / Mg, int(l // Mg) / Ng) for l in sel]
    return ranked_estimate(freqs, x[sel], mags[sel])
