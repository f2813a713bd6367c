"""The receiver table and dispatch, scenario builders, gating, and the RMSE benchmark.

``run_receiver`` is the one dispatch of the CLI's ``solve`` and of the benchmark: it
builds a receiver's default settings, applies the overrides that ``OVERRIDES`` allows
it, and runs it.  The benchmark's trials simulate a random scene, estimate paths, match
them to the true targets inside per-axis gates, and sum errors over matched pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import admm, baselines, extract
from .errors import ConfigError, NumericError, check_whole_number
from .scene import (C_LIGHT, Measurement, Path, RadarConfig, Scene,
                    normalized_to_physical, physical_to_normalized, qpsk, simulate)

# Short receiver names of ``solve --algo`` and ``bench --algos``, in benchmark order.
ALGO_KEYS = {"anl1": "CS-ANL1", "an": "CS-AN", "csl1": "CS-L1", "music": "2D-MUSIC"}
ALGORITHMS = tuple(ALGO_KEYS.values())
# The settings fields a caller of run_receiver may override, by receiver.  The dual
# receivers, CS-ANL1 and CS-AN, are the ADMM solves: the ones that read a sweep cap.
OVERRIDES = {"CS-ANL1": ("lam", "mu", "rho", "max_iters"), "CS-AN": ("lam", "rho", "max_iters"),
             "CS-L1": (), "2D-MUSIC": ("K_signal",)}
# Estimated paths at or below this speed are taken as clutter, not targets.
CLUTTER_EXCLUSION_MPS = 3.0
# Grid oversampling of the gridded baselines: MUSIC scans at the CS-L1
# dictionary's density, from which the identification gates are derived.
BASELINE_GRID_FACTOR = baselines.CSL1_GRID_FACTOR


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """Random-scene recipe plus benchmark bookkeeping; the fields are a scenario file's keys."""

    name: str = "custom"
    config: RadarConfig
    n_targets: int
    n_clutter: int
    target_powers_db: tuple[float, ...]
    clutter_power_db: float
    direct_path_power_db: float
    direct_path_range_m: float = 5e3
    range_bounds_m: tuple[float, float]
    clutter_velocity_bounds_mps: tuple[float, float]
    target_velocity_bounds_mps: tuple[float, float]
    ber: float = 0.0
    seed: int = 1
    trials: int = 20

    def __post_init__(self):
        for name, least in (("n_targets", 0), ("n_clutter", 0), ("trials", 1), ("seed", 0)):
            check_whole_number(name, getattr(self, name), least=least)
        if len(self.target_powers_db) != self.n_targets:
            raise ConfigError("target_powers_db must list one power per target")
        for lo, hi in (self.range_bounds_m, self.clutter_velocity_bounds_mps,
                       self.target_velocity_bounds_mps):
            if lo > hi:
                raise ConfigError(f"bounds must be ordered, got ({lo}, {hi})")


# Preset name -> (N, clutter paths, target powers in dB, direct-path power
# in dB, trials).  All share M = 16 and the rest of the recipe in preset().
PRESETS = {
    "scenario1": (64, 5, (-40.0, -50.0, -50.0), 0.0, 100),
    "scenario2": (64, 80, (-40.0, -50.0, -50.0), 0.0, 100),
    "rmse1": (16, 5, (-40.0,) * 3, -10.0, 20),
    "rmse2": (16, 80, (-40.0,) * 3, -10.0, 20),
}


def preset(name: str) -> ScenarioSpec:
    """Named scenario presets.

    ``scenario1``/``scenario2``: N = 64 with low/high clutter density, one
    -40 dB and two -50 dB targets, 0 dB direct path, -10 dB clutter.
    ``rmse1``/``rmse2``: the accuracy-sweep setup, N reduced to 16, all three
    targets at -40 dB, direct path and clutter at -10 dB.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(PRESETS)})")
    N, n_clutter, target_powers_db, direct_path_power_db, trials = PRESETS[name]
    config = RadarConfig(M=16, N=N, delta_f=5e3, T_cp=1e-4, f_c=2e9, noise_power_db=-40.0)
    return ScenarioSpec(name=name, config=config,
                        n_targets=len(target_powers_db), n_clutter=n_clutter,
                        target_powers_db=target_powers_db, clutter_power_db=-10.0,
                        direct_path_power_db=direct_path_power_db, range_bounds_m=(1e3, 30e3),
                        clutter_velocity_bounds_mps=(-3.0, 3.0),
                        target_velocity_bounds_mps=(-156.0, 156.0), trials=trials)


def draw_scene(spec: ScenarioSpec, rng: np.random.Generator) -> Scene:
    """Draw targets, clutter, and the direct path from the given generator.

    Targets have deterministic magnitude 10^(P/20) with uniform random phase;
    clutter amplitudes are circular complex Gaussian with variance 10^(P/10);
    the direct path sits at zero Doppler at the configured baseline range.
    """
    cfg = spec.config
    targets = []
    for power in spec.target_powers_db:
        range_m = rng.uniform(*spec.range_bounds_m)
        velocity = rng.uniform(*spec.target_velocity_bounds_mps)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        phi, psi = physical_to_normalized(range_m, velocity, cfg)
        targets.append(Path(alpha=10.0 ** (power / 20.0) * np.exp(1j * phase),
                            phi=phi, psi=psi))
    clutter = []
    std = math.sqrt(10.0 ** (spec.clutter_power_db / 10.0) / 2.0)
    for _ in range(spec.n_clutter):
        range_m = rng.uniform(*spec.range_bounds_m)
        velocity = rng.uniform(*spec.clutter_velocity_bounds_mps)
        alpha = rng.normal(0.0, std) + 1j * rng.normal(0.0, std)
        phi, psi = physical_to_normalized(range_m, velocity, cfg)
        clutter.append(Path(alpha=alpha, phi=phi, psi=psi))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    phi, psi = physical_to_normalized(spec.direct_path_range_m, 0.0, cfg)
    clutter.append(Path(alpha=10.0 ** (spec.direct_path_power_db / 20.0) * np.exp(1j * phase),
                        phi=phi, psi=psi))
    return Scene(targets=tuple(targets), clutter=tuple(clutter))


def simulate_trial(spec: ScenarioSpec, ber: float, trial: int) -> tuple[Scene, Measurement]:
    """Scene plus measurement from one generator seeded by (seed, trial)."""
    check_whole_number("trial", trial, least=0)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, trial)))
    scene = draw_scene(spec, rng)
    measurement = simulate(scene, spec.config, qpsk(), ber, rng)
    return scene, measurement


def gates(config: RadarConfig) -> tuple[float, float]:
    """Identification gates: range c/(4 N df), velocity c/(4 M T_bar f_c)."""
    range_gate = C_LIGHT / (4.0 * config.N * config.delta_f)
    velocity_gate = C_LIGHT / (4.0 * config.M * config.T_bar * config.f_c)
    return range_gate, velocity_gate


@dataclass(frozen=True)
class Match:
    target_index: int
    estimate_index: int
    range_error_m: float
    velocity_error_mps: float


def gate_identification(estimate: extract.Estimate, truth: list[Path],
                        config: RadarConfig) -> list[Match]:
    """Greedy nearest matching of estimated paths to true targets.

    Estimated paths inside the zero-velocity clutter region are discarded;
    remaining candidates must pass both gates and each consumes at most one
    target (nearest normalized distance first).
    """
    range_gate, velocity_gate = gates(config)
    truth_rv = [normalized_to_physical(p.phi, p.psi, config) for p in truth]
    est_rv = [normalized_to_physical(p.phi, p.psi, config) for p in estimate.paths]
    candidates = []
    for j, (er, ev) in enumerate(est_rv):
        if abs(ev) <= CLUTTER_EXCLUSION_MPS:
            continue
        for i, (tr, tv) in enumerate(truth_rv):
            dr, dv = abs(er - tr), abs(ev - tv)
            if dr < range_gate and dv < velocity_gate:
                candidates.append((math.hypot(dr / range_gate, dv / velocity_gate), i, j, dr, dv))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    matched: list[Match] = []
    used_targets: set[int] = set()
    used_estimates: set[int] = set()
    for _, i, j, dr, dv in candidates:
        if i in used_targets or j in used_estimates:
            continue
        used_targets.add(i)
        used_estimates.add(j)
        matched.append(Match(target_index=i, estimate_index=j,
                             range_error_m=dr, velocity_error_mps=dv))
    return matched


def run_receiver(name: str, measurement: Measurement, config: RadarConfig, n_paths="auto",
                 max_iters: int = admm.MAX_ITERS, grid_factor: int = extract.GRID_FACTOR,
                 **overrides):
    """(settings, Estimate, Solution or None, seconds per stage) of receiver ``name`` at its
    default settings with ``overrides``, fields that ``OVERRIDES`` lists for it, applied.

    ``max_iters`` caps the dual receivers' ADMM sweeps, and MUSIC runs at order ``n_paths``
    (``"auto"`` estimates it) on a ``grid_factor`` oversampled grid.  The defaults are ``solve``'s.
    """
    if name not in OVERRIDES:
        raise ConfigError(f"unknown algorithm {name!r} (choose from {ALGORITHMS})")
    M, N = measurement.M, measurement.N
    # Receivers are read from their modules per call, so a rebinding (a tracer's) is seen.
    receiver = None
    if name == "CS-L1":
        settings = baselines.default_csl1_config(M, N, config.sigma)
        receiver = baselines.csl1_estimate
    elif name == "2D-MUSIC":
        settings = baselines.default_music_config(M, N, K_signal=n_paths, grid_factor=grid_factor)
        receiver = baselines.music_estimate
    else:
        lam, mu = admm.default_weights(config.sigma, M, N)
        settings = admm.SolverConfig(lam=lam, mu=mu if name == "CS-ANL1" else 0.0,
                                     max_iters=max_iters)
    settings = replace(settings, **overrides)
    t0 = time.perf_counter()
    if receiver is not None:
        estimate = receiver(measurement, settings)
        return settings, estimate, None, {"solve": time.perf_counter() - t0}
    solution = admm.solve(measurement, settings)
    t1 = time.perf_counter()
    estimate = extract.estimate_from_solution(solution, measurement, settings.lam, settings.mu)
    return settings, estimate, solution, {"solve": t1 - t0, "extract": time.perf_counter() - t1}


def run_algorithm(name: str, measurement: Measurement, config: RadarConfig,
                  n_paths: int, *, an_max_iters: int = admm.MAX_ITERS) -> extract.Estimate:
    """One receiver's estimate under the benchmark protocol: the dual receivers stop at
    ``an_max_iters`` sweeps; MUSIC scans the gates' 4x grid at the true path count,
    capped below its subarray size.
    """
    k = min(n_paths, (measurement.M // 2) * (measurement.N // 2) - 1)
    return run_receiver(name, measurement, config, k, an_max_iters, BASELINE_GRID_FACTOR)[1]


@dataclass
class TrialRecord:
    ber: float
    algorithm: str
    trial: int
    n_matched: int
    sq_range_error: float
    sq_velocity_error: float
    failed: bool = False
    failure: str = ""


@dataclass
class RmseRow:
    ber: float
    algorithm: str
    range_rmse_m: float
    velocity_rmse_mps: float
    identification_rate: float
    trials_used: int


@dataclass
class RmseReport:
    spec: ScenarioSpec
    algorithms: tuple[str, ...]
    rows: list[RmseRow] = field(default_factory=list)
    trials: list[TrialRecord] = field(default_factory=list)


def _rmse_rows(ber: float, records: list[TrialRecord], algorithms: tuple[str, ...],
               n_targets: int) -> list[RmseRow]:
    """One row per algorithm from one BER pass's records, summed in trial order."""
    rows = []
    for name in algorithms:
        used = [rec for rec in records if rec.algorithm == name and not rec.failed]
        matched = sum(rec.n_matched for rec in used)
        targets = n_targets * len(used)
        sq_r = sq_v = 0.0
        for rec in used:
            sq_r += rec.sq_range_error
            sq_v += rec.sq_velocity_error
        rows.append(RmseRow(
            ber=ber, algorithm=name,
            range_rmse_m=math.sqrt(sq_r / matched) if matched else math.nan,
            velocity_rmse_mps=math.sqrt(sq_v / matched) if matched else math.nan,
            identification_rate=matched / targets if targets else math.nan,
            trials_used=len(used)))
    return rows


def run_benchmark(spec: ScenarioSpec, algorithms, ber_list, *,
                  an_max_iters: int = admm.MAX_ITERS, progress=None) -> RmseReport:
    """Sweep (ber, algorithm, trial) and aggregate gated RMSE statistics.

    Each BER in ``ber_list`` is one pass with its own rows, repeats included.  Trials that
    raise a numerical error are excluded from the aggregates and counted out of
    ``trials_used``.  RMSE is over matched targets only; ``identification_rate`` is matched
    targets over targets in used trials, NaN when there are none.
    """
    algorithms = tuple(algorithms)
    report = RmseReport(spec=spec, algorithms=algorithms)
    for ber in ber_list:
        start = len(report.trials)
        for trial in range(spec.trials):
            scene, measurement = simulate_trial(spec, ber, trial)
            for name in algorithms:
                matches, failure = [], None
                try:
                    est = run_algorithm(name, measurement, spec.config, scene.K,
                                        an_max_iters=an_max_iters)
                    matches = gate_identification(est, list(scene.targets), spec.config)
                except NumericError as exc:
                    failure = str(exc)
                rec = TrialRecord(
                    ber=ber, algorithm=name, trial=trial, n_matched=len(matches),
                    sq_range_error=sum((m.range_error_m ** 2 for m in matches), 0.0),
                    sq_velocity_error=sum((m.velocity_error_mps ** 2 for m in matches), 0.0),
                    failed=failure is not None, failure=failure or "")
                report.trials.append(rec)
                if progress is not None:
                    progress(rec)
        report.rows.extend(_rmse_rows(ber, report.trials[start:], algorithms,
                                      spec.n_targets))
    return report
