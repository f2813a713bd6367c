"""Radar scene model and per-subcarrier measurement synthesis.

The data domain is the M x N grid of OFDM blocks (index m, Doppler axis) by
subcarriers (index n, delay axis).  A propagation path with complex amplitude
``alpha``, normalized Doppler ``phi`` and normalized delay ``psi`` contributes
``alpha * exp(i*(2*pi*m*phi - 2*pi*n*psi))`` to the clean signal ``z_m(n)``.
Matrices are vectorized column-major, so vector index ``n*M + m`` holds entry
(m, n).  :func:`steering` and :func:`atoms` own the atom at continuous
frequencies; ``extract._dft_factors`` owns it on DFT lattices.

A constellation is an array of unit-magnitude points whose index carries the
bit label: point k has the Gray label k ^ (k >> 1), the bits that
:func:`inject_demod_errors` flips to make demodulation errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_whole_number

C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class RadarConfig:
    """OFDM and radar physical parameters; the fields are the free ones.

    M, N          number of blocks / subcarriers (whole numbers, both >= 2)
    delta_f       subcarrier spacing in Hz, positive
    T_cp          cyclic-prefix duration in seconds, nonnegative
    f_c           carrier frequency in Hz, positive
    noise_power_db  per-sample noise power in dB; -inf is noiseless

    Derived: symbol duration ``T = 1/delta_f``, block duration
    ``T_bar = T + T_cp``, noise power ``sigma2 = 10^(dB/10)`` and ``sigma``.
    """

    M: int
    N: int
    delta_f: float
    T_cp: float
    f_c: float
    noise_power_db: float

    def __post_init__(self):
        check_whole_number("M", self.M, least=2)
        check_whole_number("N", self.N, least=2)
        if not 0 < self.delta_f < np.inf:
            raise ConfigError(f"delta_f must be positive and finite, got {self.delta_f}")
        if not 0 <= self.T_cp < np.inf:
            raise ConfigError(f"T_cp must be nonnegative and finite, got {self.T_cp}")
        if not 0 < self.f_c < np.inf:
            raise ConfigError(f"f_c must be positive and finite, got {self.f_c}")
        if not self.noise_power_db < np.inf:
            raise ConfigError(f"noise_power_db must be finite or -inf, got {self.noise_power_db}")

    @property
    def T(self) -> float:
        return 1.0 / self.delta_f

    @property
    def T_bar(self) -> float:
        return self.T + self.T_cp

    @property
    def sigma2(self) -> float:
        return 10.0 ** (self.noise_power_db / 10.0)

    @property
    def sigma(self) -> float:
        return 10.0 ** (self.noise_power_db / 20.0)


@dataclass(frozen=True, slots=True)
class Path:
    """One scatterer: complex amplitude and normalized (Doppler, delay) pair."""

    alpha: complex
    phi: float
    psi: float

    def __post_init__(self):
        if not (0.0 <= self.phi < 1.0):
            raise ConfigError(f"phi must be in [0, 1), got {self.phi}")
        if not (0.0 <= self.psi < 1.0):
            raise ConfigError(f"psi must be in [0, 1), got {self.psi}")


@dataclass(frozen=True)
class Scene:
    """Targets plus clutter (the direct path is modelled as a clutter entry)."""

    targets: tuple[Path, ...]
    clutter: tuple[Path, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "clutter", tuple(self.clutter))
        if len(self.targets) + len(self.clutter) < 1:
            raise ConfigError("scene must contain at least one path")

    @property
    def paths(self) -> tuple[Path, ...]:
        return self.targets + self.clutter

    @property
    def K(self) -> int:
        return len(self.targets) + len(self.clutter)


def bpsk() -> np.ndarray:
    """BPSK points 1, -1; point k has the Gray label k ^ (k >> 1), here 0, 1."""
    return np.array([1.0 + 0j, -1.0 + 0j])


def qpsk() -> np.ndarray:
    """QPSK points exp(i*pi*(2k+1)/4); point k has the Gray label k ^ (k >> 1): 00, 01, 11, 10."""
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


@dataclass(frozen=True)
class Measurement:
    """Demodulated-symbol matrix and vectorized received data.

    ``r_bar = s_tilde * z_bar + e_bar + v_bar`` holds to machine precision for
    simulated data, with ``s_tilde = vec(S_hat)`` applied elementwise.  The
    ground-truth error and noise vectors are present only when simulated.
    """

    S_hat: np.ndarray
    r_bar: np.ndarray
    e_bar_true: np.ndarray | None = None
    v_bar_true: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.S_hat == 0):
            raise ConfigError("S_hat must be entrywise nonzero")
        M, N = self.S_hat.shape
        if self.r_bar.shape != (M * N,):
            raise ConfigError(f"r_bar must have length M*N={M * N}")
        if not (np.isfinite(self.S_hat).all() and np.isfinite(self.r_bar).all()):
            raise ConfigError("S_hat and r_bar must be finite")
        for name in ("e_bar_true", "v_bar_true"):
            x = getattr(self, name)
            if x is not None and not (x.shape == (M * N,) and np.isfinite(x).all()):
                raise ConfigError(f"{name} must hold M*N={M * N} finite entries")

    @property
    def M(self) -> int:
        return self.S_hat.shape[0]

    @property
    def N(self) -> int:
        return self.S_hat.shape[1]

    @property
    def s_tilde(self) -> np.ndarray:
        """Diagonal of the symbol matrix lift, as a length-MN vector."""
        return self.S_hat.flatten(order="F")


def steering(freqs, n: int) -> np.ndarray:
    """n x K steering matrix of K frequencies in [0, 1): entry (j, k) is exp(i*2*pi*j*f_k)."""
    f = np.asarray(freqs, dtype=float)
    if not ((0.0 <= f) & (f < 1.0)).all():
        raise ConfigError(f"frequencies must be in [0, 1), got {f}")
    return np.exp(np.arange(n)[:, None] * (2j * np.pi * f))


def atoms(freqs, M: int, N: int) -> np.ndarray:
    """MN x K atoms of (phi, psi) pairs: column k is conj(steering(psi_k)) kron steering(phi_k)."""
    phi, psi = np.asarray(freqs, dtype=float).reshape(-1, 2).T
    return (steering(psi, N).conj()[:, None, :] * steering(phi, M)).reshape(M * N, -1)


def synthesize_clean(scene: Scene, config: RadarConfig) -> np.ndarray:
    """Clean vectorized signal: sum of paths' atoms scaled by their amplitudes."""
    paths = scene.paths
    B = steering([p.phi for p in paths], config.M) * np.array([p.alpha for p in paths])
    Z = B @ steering([p.psi for p in paths], config.N).conj().T
    return Z.flatten(order="F")


def generate_symbols(config: RadarConfig, constellation: np.ndarray, seed) -> np.ndarray:
    """Draw an M x N matrix of i.i.d. uniform constellation symbols."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(constellation), size=(config.M, config.N))
    return np.asarray(constellation)[idx]


def inject_demod_errors(S: np.ndarray, ber: float, constellation: np.ndarray,
                        seed) -> tuple[np.ndarray, np.ndarray]:
    """Flip each bit of every symbol's Gray label independently with probability ``ber``.

    ``constellation`` is 2 or 4 unit-magnitude points, as from :func:`bpsk` or :func:`qpsk`.
    Returns the corrupted symbols and the boolean mask of symbols that changed.
    """
    if not (0.0 <= ber <= 0.5):
        raise ConfigError(f"ber must be in [0, 0.5], got {ber}")
    points = np.asarray(constellation, dtype=complex)
    if len(points) not in (2, 4) or not np.allclose(np.abs(points), 1.0, atol=1e-12):
        raise ConfigError("a constellation is 2 or 4 unit-magnitude points")
    bits = len(points).bit_length() - 1
    idx = np.argmin(np.abs(S[..., None] - points), axis=-1)
    if not np.allclose(points[idx], S, atol=1e-9):
        raise ConfigError("symbols do not belong to the constellation")
    # Flip bits packed MSB first; label ^ (label >> 1) inverts a Gray code of up to two bits.
    flips = np.random.default_rng(seed).random(idx.shape + (bits,)) < ber
    label = idx ^ (idx >> 1) ^ flips @ (1 << np.arange(bits)[::-1])
    new_idx = label ^ (label >> 1)
    return points[new_idx], new_idx != idx


def measure(scene: Scene, S: np.ndarray, S_hat: np.ndarray, config: RadarConfig,
            seed) -> Measurement:
    """Simulate one noisy measurement of the scene.

    The received samples are ``r = s * z + v`` with the *true* symbols; the
    stored demodulation-error vector is ``(s - s_hat) * z``, nonzero exactly
    where symbol decisions were wrong (and the signal is nonzero).
    """
    if S.shape != S_hat.shape:
        raise ConfigError("S and S_hat must have the same shape")
    rng = np.random.default_rng(seed)
    M, N = config.M, config.N
    z_bar = synthesize_clean(scene, config)
    sig = np.sqrt(config.sigma2 / 2.0)
    v_bar = rng.normal(0.0, 1.0, M * N) * sig + 1j * rng.normal(0.0, 1.0, M * N) * sig
    s_bar = S.flatten(order="F")
    s_hat_bar = S_hat.flatten(order="F")
    r_bar = s_bar * z_bar + v_bar
    e_bar = (s_bar - s_hat_bar) * z_bar
    return Measurement(S_hat=S_hat, r_bar=r_bar, e_bar_true=e_bar, v_bar_true=v_bar)


def simulate(scene: Scene, config: RadarConfig, constellation: np.ndarray,
             ber: float, seed) -> Measurement:
    """Symbols, demodulation errors, and noise from one seeded generator."""
    rng = np.random.default_rng(seed)
    S = generate_symbols(config, constellation, rng)
    S_hat, _ = inject_demod_errors(S, ber, constellation, rng)
    return measure(scene, S, S_hat, config, rng)


def physical_to_normalized(range_m: float, velocity_mps: float,
                           config: RadarConfig) -> tuple[float, float]:
    """Map (range, radial velocity) to the normalized (phi, psi) pair.

    Negative velocities wrap to phi > 0.5; delays must stay inside one
    unambiguous interval (psi < 1).
    """
    if range_m < 0:
        raise ConfigError(f"range must be nonnegative, got {range_m}")
    psi = config.delta_f * range_m / C_LIGHT
    if psi >= 1.0:
        raise ConfigError(f"range {range_m} m exceeds the unambiguous delay interval")
    phi = (velocity_mps * config.f_c / C_LIGHT * config.T_bar) % 1.0
    if phi >= 1.0:  # tiny negative inputs can round the wrap up to exactly 1.0
        phi = 0.0
    return phi, psi


def normalized_to_physical(phi: float, psi: float,
                           config: RadarConfig) -> tuple[float, float]:
    """Inverse of :func:`physical_to_normalized`; phi > 0.5 means negative Doppler."""
    if not (0.0 <= phi < 1.0 and 0.0 <= psi < 1.0):
        raise ConfigError(f"(phi, psi) must be in [0, 1), got ({phi}, {psi})")
    range_m = psi * C_LIGHT / config.delta_f
    doppler = phi if phi <= 0.5 else phi - 1.0
    velocity = doppler / config.T_bar * C_LIGHT / config.f_c
    return range_m, velocity
