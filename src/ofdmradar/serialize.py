"""JSON and CSV interchange formats.

Complex vectors are stored as plain arrays of interleaved re/im doubles.
Floats are emitted with Python's shortest round-trip repr so identical runs
produce byte-identical files, apart from the wall times under ``timing_s``.

Derived keys are written for readers but not read back: a config's ``T_s``
and ``T_bar_s``, a measurement's ``sigma2`` and a path's range and velocity.
The config reader only checks ``T_s`` and ``T_bar_s``, when present, against
``delta_f_hz`` and ``T_cp_s``.  The config, scenario, measurement and truth readers
reject a key they do not know before they read any field.  ``solve_to_dict`` writes
``ofdmradar solve``'s document for every receiver, and ``solution_from_dict`` reads it.
"""

from __future__ import annotations

import cmath
import dataclasses
import json

import numpy as np

from .admm import objective_primal
from .bench import RmseReport, RmseRow, ScenarioSpec, TrialRecord
from .errors import ConfigError
from .extract import Estimate
from .scene import Measurement, Path, RadarConfig, Scene, normalized_to_physical


def interleave(x: np.ndarray) -> list[float]:
    return np.ascontiguousarray(x, dtype=complex).view(float).tolist()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def deinterleave(values) -> np.ndarray:
    if len(values) % 2 or not all(map(_is_number, values)):
        raise ConfigError("an interleaved array must be an even-length list of numbers")
    try:
        return np.asarray(values, dtype=float).view(complex)
    except OverflowError:
        raise ConfigError("an interleaved array must be a list of numbers in float range, "
                          "got an integer too large for a float") from None


def whole_number(obj: dict, key: str) -> int:
    """Integer field ``key``; a boolean, a non-number or a number that is not whole raises."""
    value = obj[key]
    if not _is_number(value) or value % 1 != 0:
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def real_number(obj: dict, key: str) -> float:
    """Float field ``key``; a boolean, a non-number, such as a numeric string, or an
    integer too large for a float raises."""
    value = obj[key]
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} must be a number in float range, "
                          "got an integer too large for a float") from None


def _reject_unknown(obj: dict, allowed, what: str):
    if unknown := set(obj) - set(allowed):
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


# A config file's keys, in file order, and the RadarConfig attribute each holds.
_CONFIG_KEYS = {"M": "M", "N": "N", "delta_f_hz": "delta_f", "T_s": "T", "T_cp_s": "T_cp",
                "T_bar_s": "T_bar", "f_c_hz": "f_c", "noise_power_db": "noise_power_db"}


def config_to_dict(config: RadarConfig) -> dict:
    return {key: getattr(config, attr) for key, attr in _CONFIG_KEYS.items()}


def config_from_dict(obj: dict) -> RadarConfig:
    _reject_unknown(obj, _CONFIG_KEYS, "config")
    floats = (real_number(obj, key) for key in ("delta_f_hz", "T_cp_s", "f_c_hz", "noise_power_db"))
    config = RadarConfig(whole_number(obj, "M"), whole_number(obj, "N"), *floats)
    for key, derived, rule in (("T_s", config.T, "1/delta_f_hz"),
                               ("T_bar_s", config.T_bar, "1/delta_f_hz + T_cp_s")):
        if key in obj and not abs(real_number(obj, key) - derived) <= 1e-12 * derived:
            raise ConfigError(f"{key} must equal {rule}, got {obj[key]}")
    return config


def path_to_dict(path: Path) -> dict:
    return {"alpha_re": path.alpha.real, "alpha_im": path.alpha.imag,
            "phi": path.phi, "psi": path.psi}


def path_from_dict(obj: dict) -> Path:
    alpha = complex(real_number(obj, "alpha_re"), real_number(obj, "alpha_im"))
    if not cmath.isfinite(alpha):
        raise ConfigError(f"a path's alpha must be finite, got {alpha}")
    return Path(alpha=alpha, phi=real_number(obj, "phi"), psi=real_number(obj, "psi"))


def scene_to_dict(scene: Scene) -> dict:
    return {"targets": [path_to_dict(p) for p in scene.targets],
            "clutter": [path_to_dict(p) for p in scene.clutter]}


def scene_from_dict(obj: dict) -> Scene:
    _reject_unknown(obj, ("targets", "clutter"), "truth")
    return Scene(targets=tuple(path_from_dict(p) for p in obj.get("targets", [])),
                 clutter=tuple(path_from_dict(p) for p in obj.get("clutter", [])))


def measurement_to_dict(measurement: Measurement, config: RadarConfig,
                        metadata: dict | None = None,
                        truth: Scene | None = None) -> dict:
    out = {"kind": "measurement",
           "config": config_to_dict(config),
           "metadata": dict(metadata or {}),
           "S_hat": interleave(measurement.S_hat.flatten(order="F")),
           "r_bar": interleave(measurement.r_bar),
           "sigma2": config.sigma2}
    if measurement.e_bar_true is not None:
        out["e_bar_true"] = interleave(measurement.e_bar_true)
    if measurement.v_bar_true is not None:
        out["v_bar_true"] = interleave(measurement.v_bar_true)
    if truth is not None:
        out["truth"] = scene_to_dict(truth)
    return out


def measurement_from_dict(obj: dict) -> tuple[Measurement, RadarConfig, Scene | None]:
    _reject_unknown(obj, ("kind", "config", "metadata", "S_hat", "r_bar", "sigma2",
                          "e_bar_true", "v_bar_true", "truth"), "measurement")
    config = config_from_dict(obj["config"])
    M, N = config.M, config.N
    S_hat = deinterleave(obj["S_hat"]).reshape(M, N, order="F")
    measurement = Measurement(
        S_hat=S_hat, r_bar=deinterleave(obj["r_bar"]),
        e_bar_true=deinterleave(obj["e_bar_true"]) if "e_bar_true" in obj else None,
        v_bar_true=deinterleave(obj["v_bar_true"]) if "v_bar_true" in obj else None)
    truth = scene_from_dict(obj["truth"]) if "truth" in obj else None
    return measurement, config, truth


# A scenario-file value by its ScenarioSpec field's declared type (the bare name
# for tuples): how it is written, where not as is, and how field ``key`` is read.
_SPEC_TO_JSON = {"RadarConfig": config_to_dict, "tuple": list}
_SPEC_FROM_JSON = {"int": whole_number, "float": real_number, "str": lambda obj, key: str(obj[key]),
                   "RadarConfig": lambda obj, key: config_from_dict(obj[key]),
                   "tuple": lambda obj, key: tuple(real_number({key: x}, key) for x in obj[key])}


def _spec_fields():
    return [(f, f.type.split("[")[0]) for f in dataclasses.fields(ScenarioSpec)]


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    out = {"kind": "scenario"}
    for f, kind in _spec_fields():
        out[f.name] = _SPEC_TO_JSON.get(kind, lambda v: v)(getattr(spec, f.name))
    return out


def scenario_from_dict(obj: dict) -> ScenarioSpec:
    """Declared fields, a missing key at its default; a key besides them and ``kind`` raises."""
    _reject_unknown(obj, ["kind", *(f.name for f, _ in _spec_fields())], "scenario")
    return ScenarioSpec(**{f.name: _SPEC_FROM_JSON[kind](obj, f.name) for f, kind in _spec_fields()
                           if f.name in obj or f.default is dataclasses.MISSING})


def _path_rows(estimate: Estimate, config: RadarConfig):
    """Per path: the Path, its range and velocity, and its statistic (None when absent)."""
    stats = estimate.dual_peak_values
    for i, p in enumerate(estimate.paths):
        range_m, velocity = normalized_to_physical(p.phi, p.psi, config)
        yield p, range_m, velocity, stats[i] if i < len(stats) else None


def estimate_to_dict(estimate: Estimate, config: RadarConfig) -> dict:
    paths = [{"phi": p.phi, "psi": p.psi, "alpha_re": p.alpha.real, "alpha_im": p.alpha.imag,
              "dual_peak_mag": stat, "range_m": range_m, "velocity_mps": velocity}
             for p, range_m, velocity, stat in _path_rows(estimate, config)]
    return {"paths": paths, "error_support": list(estimate.error_support)}


def estimate_to_csv(estimate: Estimate, config: RadarConfig) -> str:
    lines = ["phi,psi,range_m,velocity_mps,amp_re,amp_im,dual_peak_mag"]
    for p, range_m, velocity, stat in _path_rows(estimate, config):
        mag = float("nan") if stat is None else stat
        lines.append(",".join(repr(float(v)) for v in
                              (p.phi, p.psi, range_m, velocity,
                               p.alpha.real, p.alpha.imag, mag)))
    return "\n".join(lines) + "\n"


def solve_to_dict(algo: str, measurement: Measurement, config: RadarConfig, settings,
                  estimate: Estimate, timing: dict, solution=None) -> dict:
    """``solve``'s document: the receiver's settings, a dual receiver's ``solution`` (kind
    ``estimate`` without one), then the wall times and the estimate."""
    out = {"kind": "estimate" if solution is None else "solution", "algo": algo,
           "M": measurement.M, "N": measurement.N, "solver": dataclasses.asdict(settings)}
    if solution is not None:
        d = solution.diagnostics
        out.update(z_hat=interleave(solution.z_hat), e_hat=interleave(solution.e_hat),
                   nu_hat=interleave(solution.nu_hat),
                   residuals={"primal": d.primal_residuals, "dual": d.dual_residuals},
                   objective=objective_primal(solution, measurement, settings),
                   converged=d.converged, iterations=d.iterations)
    out.update(timing_s=timing, estimate=estimate_to_dict(estimate, config))
    return out


def solution_from_dict(obj: dict) -> tuple[int, int, np.ndarray]:
    """(M, N, nu) of a ``solution`` document: the dual vector ``spectrum`` evaluates."""
    M, N = whole_number(obj, "M"), whole_number(obj, "N")
    nu = deinterleave(obj["nu_hat"])
    if len(nu) != M * N:
        raise ConfigError(f"nu_hat must hold M*N={M * N} complex entries, got {len(nu)}")
    return M, N, nu


# CSV cell format by a record field's declared type, as the annotation string
# that bench's postponed annotations leave in ``dataclasses.fields``.
_CSV_CELL = {"float": lambda v: repr(float(v)), "int": str,
             "bool": lambda v: str(int(v)), "str": lambda v: v.replace(",", ";")}


def _records_to_csv(records, record_type) -> str:
    """One CSV line per dataclass record, columns in ``record_type`` field order."""
    fields = dataclasses.fields(record_type)
    lines = [",".join(f.name for f in fields)]
    for rec in records:
        lines.append(",".join(_CSV_CELL[f.type](getattr(rec, f.name)) for f in fields))
    return "\n".join(lines) + "\n"


def report_to_csv(report: RmseReport) -> str:
    return _records_to_csv(report.rows, RmseRow)


def trials_to_csv(report: RmseReport) -> str:
    return _records_to_csv(report.trials, TrialRecord)


def report_to_dict(report: RmseReport) -> dict:
    return {"kind": "report", "scenario": scenario_to_dict(report.spec),
            "algorithms": list(report.algorithms),
            "rows": [dataclasses.asdict(r) for r in report.rows]}


def grid_to_csv(grid: np.ndarray) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.asarray(grid))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1)
