"""JSON and CSV interchange formats.

Complex vectors are stored as plain arrays of interleaved re/im doubles.
Floats are emitted with Python's shortest round-trip repr so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .bench import RmseReport, ScenarioSpec
from .errors import ConfigError
from .extract import Estimate
from .scene import (Measurement, Path, RadarConfig, Scene,
                    normalized_to_physical, physical_to_normalized)


def interleave(x: np.ndarray) -> list[float]:
    out = np.empty(2 * len(x))
    out[0::2] = np.real(x)
    out[1::2] = np.imag(x)
    return out.tolist()


def deinterleave(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size % 2:
        raise ConfigError("interleaved array must have even length")
    return arr[0::2] + 1j * arr[1::2]


def config_to_dict(config: RadarConfig) -> dict:
    return {"M": config.M, "N": config.N, "delta_f_hz": config.delta_f,
            "T_s": config.T, "T_cp_s": config.T_cp, "T_bar_s": config.T_bar,
            "f_c_hz": config.f_c, "noise_power_db": config.noise_power_db}


def config_from_dict(obj: dict) -> RadarConfig:
    return RadarConfig(M=int(obj["M"]), N=int(obj["N"]),
                       delta_f=float(obj["delta_f_hz"]), T=float(obj["T_s"]),
                       T_cp=float(obj["T_cp_s"]),
                       T_bar=float(obj.get("T_bar_s", obj["T_s"] + obj["T_cp_s"])),
                       f_c=float(obj["f_c_hz"]),
                       noise_power_db=float(obj["noise_power_db"]))


def path_to_dict(path: Path) -> dict:
    return {"alpha_re": path.alpha.real, "alpha_im": path.alpha.imag,
            "phi": path.phi, "psi": path.psi}


def path_from_dict(obj: dict, config: RadarConfig | None = None) -> Path:
    """Accept either explicit (alpha, phi, psi) or physical (power, range, velocity)."""
    if "phi" in obj and "psi" in obj:
        alpha = complex(obj.get("alpha_re", 1.0), obj.get("alpha_im", 0.0))
        return Path(alpha=alpha, phi=float(obj["phi"]), psi=float(obj["psi"]))
    if config is None:
        raise ConfigError("physical path form requires a radar config")
    phi, psi = physical_to_normalized(float(obj["range_m"]),
                                      float(obj["velocity_mps"]), config)
    amp = 10.0 ** (float(obj.get("power_db", 0.0)) / 20.0)
    return Path(alpha=complex(amp, 0.0), phi=phi, psi=psi)


def scene_to_dict(scene: Scene) -> dict:
    return {"targets": [path_to_dict(p) for p in scene.targets],
            "clutter": [path_to_dict(p) for p in scene.clutter]}


def scene_from_dict(obj: dict, config: RadarConfig | None = None) -> Scene:
    return Scene(targets=tuple(path_from_dict(p, config) for p in obj.get("targets", [])),
                 clutter=tuple(path_from_dict(p, config) for p in obj.get("clutter", [])))


def measurement_to_dict(measurement: Measurement, config: RadarConfig,
                        metadata: dict | None = None,
                        truth: Scene | None = None) -> dict:
    out = {"kind": "measurement",
           "config": config_to_dict(config),
           "metadata": dict(metadata or {}),
           "S_hat": interleave(measurement.S_hat.flatten(order="F")),
           "r_bar": interleave(measurement.r_bar),
           "sigma2": measurement.sigma2}
    if measurement.e_bar_true is not None:
        out["e_bar_true"] = interleave(measurement.e_bar_true)
    if measurement.v_bar_true is not None:
        out["v_bar_true"] = interleave(measurement.v_bar_true)
    if truth is not None:
        out["truth"] = scene_to_dict(truth)
    return out


def measurement_from_dict(obj: dict) -> tuple[Measurement, RadarConfig, Scene | None]:
    config = config_from_dict(obj["config"])
    M, N = config.M, config.N
    S_hat = deinterleave(obj["S_hat"]).reshape(M, N, order="F")
    measurement = Measurement(
        S_hat=S_hat, r_bar=deinterleave(obj["r_bar"]),
        sigma2=float(obj.get("sigma2", config.sigma2)),
        e_bar_true=deinterleave(obj["e_bar_true"]) if "e_bar_true" in obj else None,
        v_bar_true=deinterleave(obj["v_bar_true"]) if "v_bar_true" in obj else None)
    truth = scene_from_dict(obj["truth"], config) if "truth" in obj else None
    return measurement, config, truth


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {"kind": "scenario", "name": spec.name,
            "config": config_to_dict(spec.config),
            "n_targets": spec.n_targets, "n_clutter": spec.n_clutter,
            "target_powers_db": list(spec.target_powers_db),
            "clutter_power_db": spec.clutter_power_db,
            "direct_path_power_db": spec.direct_path_power_db,
            "direct_path_range_m": spec.direct_path_range_m,
            "range_bounds_m": list(spec.range_bounds_m),
            "clutter_velocity_bounds_mps": list(spec.clutter_velocity_bounds_mps),
            "target_velocity_bounds_mps": list(spec.target_velocity_bounds_mps),
            "ber": spec.ber, "seed": spec.seed, "trials": spec.trials}


def scenario_from_dict(obj: dict) -> ScenarioSpec:
    return ScenarioSpec(
        name=obj.get("name", "custom"),
        config=config_from_dict(obj["config"]),
        n_targets=int(obj["n_targets"]), n_clutter=int(obj["n_clutter"]),
        target_powers_db=tuple(float(p) for p in obj["target_powers_db"]),
        clutter_power_db=float(obj["clutter_power_db"]),
        direct_path_power_db=float(obj["direct_path_power_db"]),
        direct_path_range_m=float(obj.get("direct_path_range_m", 5e3)),
        range_bounds_m=tuple(float(v) for v in obj["range_bounds_m"]),
        clutter_velocity_bounds_mps=tuple(float(v) for v in obj["clutter_velocity_bounds_mps"]),
        target_velocity_bounds_mps=tuple(float(v) for v in obj["target_velocity_bounds_mps"]),
        ber=float(obj.get("ber", 0.0)), seed=int(obj.get("seed", 1)),
        trials=int(obj.get("trials", 20)))


def estimate_to_dict(estimate: Estimate, config: RadarConfig | None = None) -> dict:
    paths = []
    for i, p in enumerate(estimate.paths):
        row = {"phi": p.phi, "psi": p.psi,
               "alpha_re": p.alpha.real, "alpha_im": p.alpha.imag,
               "dual_peak_mag": (estimate.dual_peak_values[i]
                                 if i < len(estimate.dual_peak_values) else None)}
        if config is not None:
            row["range_m"], row["velocity_mps"] = normalized_to_physical(p.phi, p.psi, config)
        paths.append(row)
    return {"paths": paths, "error_support": list(estimate.error_support)}


ESTIMATE_CSV_HEADER = "phi,psi,range_m,velocity_mps,amp_re,amp_im,dual_peak_mag"


def estimate_to_csv(estimate: Estimate, config: RadarConfig) -> str:
    lines = [ESTIMATE_CSV_HEADER]
    for i, p in enumerate(estimate.paths):
        range_m, velocity = normalized_to_physical(p.phi, p.psi, config)
        mag = (estimate.dual_peak_values[i]
               if i < len(estimate.dual_peak_values) else float("nan"))
        lines.append(",".join(repr(float(v)) for v in
                              (p.phi, p.psi, range_m, velocity,
                               p.alpha.real, p.alpha.imag, mag)))
    return "\n".join(lines) + "\n"


def solution_to_dict(solution, measurement: Measurement, solver_config,
                     estimate: Estimate | None = None, algo: str = "anl1",
                     config: RadarConfig | None = None,
                     timing: dict | None = None) -> dict:
    d = solution.diagnostics
    out = {"kind": "solution", "algo": algo,
           "M": measurement.M, "N": measurement.N,
           "solver": {"lam": solver_config.lam, "mu": solver_config.mu,
                      "rho": solver_config.rho, "max_iters": solver_config.max_iters,
                      "tol_primal": solver_config.tol_primal,
                      "tol_dual": solver_config.tol_dual},
           "z_hat": interleave(solution.z_hat),
           "e_hat": interleave(solution.e_hat),
           "nu_hat": interleave(solution.nu_hat),
           "residuals": {"primal": d.primal_residuals, "dual": d.dual_residuals},
           "objective": d.final_objective,
           "converged": d.converged,
           "iterations": d.iterations,
           "timing_s": dict(timing or {"solve": d.wall_clock_s})}
    if estimate is not None:
        out["estimate"] = estimate_to_dict(estimate, config)
    return out


REPORT_CSV_HEADER = "ber,algorithm,range_rmse_m,velocity_rmse_mps,identification_rate,trials_used"
TRIALS_CSV_HEADER = "ber,algorithm,trial,n_matched,sq_range_error,sq_velocity_error,failed,failure"


def report_to_csv(report: RmseReport) -> str:
    lines = [REPORT_CSV_HEADER]
    for row in report.rows:
        lines.append(",".join([repr(float(row.ber)), row.algorithm,
                               repr(float(row.range_rmse_m)),
                               repr(float(row.velocity_rmse_mps)),
                               repr(float(row.identification_rate)),
                               str(row.trials_used)]))
    return "\n".join(lines) + "\n"


def trials_to_csv(report: RmseReport) -> str:
    lines = [TRIALS_CSV_HEADER]
    for rec in report.trials:
        lines.append(",".join([repr(float(rec.ber)), rec.algorithm, str(rec.trial),
                               str(rec.n_matched), repr(float(rec.sq_range_error)),
                               repr(float(rec.sq_velocity_error)),
                               "1" if rec.failed else "0",
                               rec.failure.replace(",", ";")]))
    return "\n".join(lines) + "\n"


def report_to_dict(report: RmseReport) -> dict:
    return {"kind": "report", "scenario": scenario_to_dict(report.spec),
            "algorithms": list(report.algorithms),
            "rows": [{"ber": r.ber, "algorithm": r.algorithm,
                      "range_rmse_m": r.range_rmse_m,
                      "velocity_rmse_mps": r.velocity_rmse_mps,
                      "identification_rate": r.identification_rate,
                      "trials_used": r.trials_used} for r in report.rows]}


def grid_to_csv(grid: np.ndarray) -> str:
    buf = io.StringIO()
    for row in np.asarray(grid):
        buf.write(",".join(repr(float(v)) for v in row))
        buf.write("\n")
    return buf.getvalue()


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1)
