"""Super-resolution joint delay-Doppler estimation for OFDM passive radar.

Receivers: a dual-certificate super-resolution estimator built on an ADMM
semidefinite solver (with and without the sparse demodulation-error term),
plus 2D-MUSIC and on-grid l1 baselines, all sharing one scene simulator and
benchmark harness.
"""

from .admm import (Diagnostics, Solution, SolverConfig, default_weights,
                   objective_primal, optimality_residuals, solve)
from .baselines import (CsL1Config, MusicConfig, csl1_estimate, default_csl1_config,
                        default_music_config, music_estimate, music_spectrum,
                        spatial_smooth)
from .bench import (ALGORITHMS, Match, RmseReport, RmseRow, ScenarioSpec,
                    gate_identification, gates, preset, run_algorithm,
                    run_benchmark, simulate_trial)
from .errors import ConfigError, DegenerateDictionaryError, NumericError
from .extract import (Estimate, detect_error_support, dual_atomic_norm, dual_poly_grid,
                      estimate_from_solution, locate_peaks, ls_amplitudes, refine_peak)
from .operators import adjoint_normalized, block_toeplitz, psd_project, soft_threshold
from .scene import (C_LIGHT, Measurement, Path, RadarConfig, Scene, atoms, bpsk,
                    generate_symbols, inject_demod_errors, measure, normalized_to_physical,
                    physical_to_normalized, qpsk, simulate, steering, synthesize_clean)

__version__ = "0.1.0"
