"""ADMM solver for the joint atomic-norm + l1 denoising program.

The program splits the measurement ``r = s*z + e + v`` into a 2-D sinusoid
part ``z`` (penalized through the Toeplitz-lifted semidefinite surrogate of
the atomic norm, weight ``lam``) and a sparse demodulation-error part ``e``
(penalized by ``mu * ||e||_1``; ``mu = 0`` pins ``e`` to zero).  Each
iteration performs closed-form block updates followed by one projection of
the lifted variable onto the positive semidefinite cone.  The iteration runs
in scaled form (Boyd et al., *Distributed Optimization and Statistical
Learning via ADMM*, 2011, section 3.1.1): it carries W = Upsilon / rho, so
the projection's Moreau split yields both the PSD block and the multiplier's
ascent step, and the dual vector is read as nu = -2 rho W[:MN, MN].  A solve
records its residual histories, ``converged`` and ``iterations``; the
objective is computed on demand by :func:`objective_primal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .extract import dual_atomic_norm
from .operators import adjoint_normalized, block_toeplitz, psd_project, soft_threshold, symmetrize_param
from .scene import Measurement


@dataclass(frozen=True)
class SolverConfig:
    """Weights and stopping rules for the ADMM iteration.

    ``lam`` weights the atomic-norm surrogate, ``mu`` the l1 error penalty
    (zero selects the error-free mode), ``rho`` is the augmented-Lagrangian
    penalty.  Iterations stop when both residuals drop below
    ``tol * (MN + 1)`` or at ``max_iters``.
    """

    lam: float
    mu: float
    rho: float = 0.05
    max_iters: int = 2000
    tol: float = 1e-4

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.mu < math.inf:
            raise ConfigError(f"mu must be nonnegative and finite, got {self.mu}")
        if not 0 < self.rho < math.inf:
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
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
    ``nu_hat`` is the dual vector read from the multiplier.  ``U`` (the
    (2M-1) x (2N-1) Toeplitz parameter) and the scalar ``t`` are the lift's
    values at the last sweep.
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

    All variables start at zero.  Each sweep updates, in order and always
    with the latest values: the signal ``z`` (regularized elementwise divide,
    the symbol lift being diagonal), the scalar ``t``, the Toeplitz parameter
    ``U`` (normalized adjoint with center-shifted penalty, then Hermitian
    symmetrization), the error ``e`` (soft threshold of the data residual,
    skipped when ``mu == 0``), then the PSD block ``Theta`` and the scaled
    multiplier ``W = Upsilon / rho`` together.  With A the lift
    [[T(U), z], [z^H, t]] and G = A - W, the Moreau split G = P+(G) - P-(G)
    of one cone projection gives Theta = P+(G) and the ascent step
    W + Theta - A = Theta - G.  The primal residual is ||Theta - A||, the
    change in W; the dual residual is rho ||Theta - Theta_prev||.  The
    record is both residual histories, ``converged`` and ``iterations``.
    """
    M, N = measurement.M, measurement.N
    mn = M * N
    s = measurement.s_tilde
    r = measurement.r_bar
    lam, mu, rho = config.lam, config.mu, config.rho

    s_conj = np.conj(s)
    denom = np.abs(s) ** 2 + 2.0 * rho
    sh_r = s_conj * r

    z = np.zeros(mn, dtype=complex)
    e = np.zeros(mn, dtype=complex)
    t = 0.0
    Theta = np.zeros((mn + 1, mn + 1), dtype=complex)
    W = np.zeros((mn + 1, mn + 1), dtype=complex)
    A, G = np.empty_like(W), np.empty_like(W)

    diag = Diagnostics()
    scale = mn + 1
    it = 0
    # Numpy raises at the first overflowing or invalid operation, so a bad
    # weight stops the sweep before the cone projection sees non-finite input.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, config.max_iters + 1):
                z = (sh_r - s_conj * e + 2.0 * rho * (Theta[:mn, mn] + W[:mn, mn])) / denom
                t = Theta[mn, mn].real + W[mn, mn].real - 0.5 * lam / rho

                U = adjoint_normalized(Theta[:mn, :mn] + W[:mn, :mn], M, N)
                U[M - 1, N - 1] -= lam / (2.0 * mn * rho)
                U = symmetrize_param(U)

                if mu > 0:
                    e = soft_threshold(r - s * z, mu)

                A[:mn, :mn] = block_toeplitz(U, M, N)
                A[:mn, mn] = z
                A[mn, :mn] = np.conj(z)
                A[mn, mn] = t
                Theta_new = psd_project(np.subtract(A, W, out=G))
                W_new = np.subtract(Theta_new, G, out=G)

                primal = float(np.linalg.norm(W_new - W))
                dual = rho * float(np.linalg.norm(Theta_new - Theta))
                # The old multiplier's storage is the next sweep's G.
                Theta, W, G = Theta_new, W_new, W

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

    # The stationarity condition for z ties the multiplier's border block
    # (rho W) to the data residual mapped through the conjugate symbols, off
    # by a factor of -2; undoing it recovers the dual vector of the program.
    nu_hat = -2.0 * rho * W[:mn, mn]

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
