"""Timing and accuracy benchmark of the ofdmradar receivers.

Run from the repository root, for example::

    python3 perfbench/run.py --workload dual-16 --seed 1 --seconds 30 --trace 0

One run draws its measurements from ``--seed``, pushes each through every
receiver of the workload and the identification gate, checks the outputs,
prints a report and ends with one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The metric names,
units and directions are those of ``BENCHMARK.json``; perfbench/README.md
defines them.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads.  The host has two cores and a
# threaded eigh jitters by 2x, so every timing comes from this pinned process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if not (SRC / "ofdmradar" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ofdmradar package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from ofdmradar import admm, baselines, bench, extract, scene  # noqa: E402
from ofdmradar.errors import ConfigError, NumericError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The dual receivers are dispatched here as bench.run_benchmark dispatches
# them, because the benchmark needs the Solution for the iteration count and
# the optimality violation.  The self-test in traced runs checks that the
# Estimates still equal bench.run_algorithm's.
MAX_ITERS = 600
GRID_FACTOR = 16
CLUTTER_MPS = 3.0      # gate_identification's clutter exclusion
SETUP_SAMPLES = 5
# The set-up probe's median time on the reference host (see setup_probe).
SETUP_PROBE_REF_S = 0.0067


@dataclass
class Outcome:
    """One receiver run on one measurement."""

    receiver: str
    started: float = 0.0
    seconds: float = 0.0
    failure: str = ""
    paths: tuple = ()
    matched: int = 0
    sq_range: float = 0.0
    sq_velocity: float = 0.0
    false_paths: int = 0
    iterations: int = 0
    converged: bool = False
    violation_rel: float | None = None
    csl1_objective: float | None = None
    valid: bool = True
    estimate: object = None


@dataclass
class Record:
    trial: int
    started: float
    seconds: float
    outcomes: list[Outcome]
    reference_s: float = math.nan  # mean host probe time around this trial

    @property
    def normalized(self) -> float:
        return self.seconds / self.reference_s

    def digest(self) -> dict:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(repr((o.receiver, o.failure, o.matched, o.iterations,
                           [(p.alpha, p.phi, p.psi) for p in o.paths])).encode())
        return {"trial": self.trial,
                "matched": [o.matched for o in self.outcomes],
                "paths": [len(o.paths) for o in self.outcomes],
                "iterations": [o.iterations for o in self.outcomes],
                "sha256": h.hexdigest()[:16]}


def dual_dispatch(name, measurement, config):
    lam, mu = admm.default_weights(config.sigma, measurement.M, measurement.N)
    if name == "CS-AN":
        mu = 0.0
    solver = admm.SolverConfig(lam=lam, mu=mu, max_iters=MAX_ITERS)
    solution = admm.solve(measurement, solver)
    estimate = extract.estimate_from_solution(solution, measurement, lam, mu,
                                              grid_factor=GRID_FACTOR)
    return estimate, solution, solver


def run_trial(workload, spec, trial, tracer) -> Record:
    """Time every receiver plus gating on one measurement, then evaluate outside the clock."""
    raw = []
    started = time.perf_counter()
    with tracer.span("trial"):
        for name in workload.receivers:
            with tracer.span(f"receiver.{name}"):
                t0 = time.perf_counter()
                estimate = solution = solver = None
                failure = ""
                try:
                    if name in workloads.DUAL:
                        estimate, solution, solver = dual_dispatch(name, trial.measurement, spec.config)
                    else:
                        estimate = bench.run_algorithm(name, trial.measurement, spec.config,
                                                       trial.scene.K)
                    seconds = time.perf_counter() - t0
                    matches = bench.gate_identification(estimate, list(trial.scene.targets),
                                                        spec.config)
                except (NumericError, ConfigError) as exc:
                    seconds = time.perf_counter() - t0
                    failure = f"{type(exc).__name__}: {exc}"
                    matches = []
            raw.append((name, t0, seconds, failure, estimate, solution, solver, matches))
    elapsed = time.perf_counter() - started
    with tracer.paused():
        outcomes = [evaluate(*item, trial, spec) for item in raw]
    return Record(trial.index, started, elapsed, outcomes)


def evaluate(name, started, seconds, failure, estimate, solution, solver, matches, trial,
             spec) -> Outcome:
    out = Outcome(name, started=started, seconds=seconds, failure=failure)
    if failure:
        return out
    out.estimate = estimate
    out.paths = estimate.paths
    # scene.Path already rejects phi, psi outside [0, 1); alpha is not checked there.
    out.valid = all(math.isfinite(p.alpha.real) and math.isfinite(p.alpha.imag)
                    for p in estimate.paths)
    out.matched = len(matches)
    out.sq_range = sum(m.range_error_m ** 2 for m in matches)
    out.sq_velocity = sum(m.velocity_error_mps ** 2 for m in matches)
    used = {m.estimate_index for m in matches}
    out.false_paths = sum(
        1 for j, p in enumerate(estimate.paths)
        if j not in used
        and abs(scene.normalized_to_physical(p.phi, p.psi, spec.config)[1]) > CLUTTER_MPS)
    if solution is not None:
        out.iterations = solution.diagnostics.iterations
        out.converged = solution.diagnostics.converged
        report = admm.optimality_residuals(solution, trial.measurement, solver)
        out.violation_rel = report.max_violation() / solver.lam
    if name == "CS-L1":
        out.csl1_objective = csl1_objective(estimate, trial.measurement, spec.config)
    return out


def csl1_objective(estimate, measurement, config) -> float:
    """CS-L1's l1 objective at its estimate, whose paths sit on the dictionary grid.

    The estimate keeps the grid entries above 1e-3 of the largest, so this is
    the solver's objective up to the dropped entries.  Stopping FISTA earlier
    raises it.
    """
    M, N = measurement.M, measurement.N
    cfg = baselines.default_csl1_config(M, N, config.sigma)
    x = np.zeros(cfg.M_grid * cfg.N_grid, dtype=complex)
    for p in estimate.paths:
        x[round(p.psi * cfg.N_grid) * cfg.M_grid + round(p.phi * cfg.M_grid)] = p.alpha
    C = baselines.csl1_dictionary(M, N, cfg.M_grid, cfg.N_grid)
    fit = measurement.s_tilde * (C @ x) - measurement.r_bar
    return 0.5 * float(np.vdot(fit, fit).real) + cfg.gamma * float(np.sum(np.abs(x)))


class HostProbe:
    """Fixed reference work run from a timer signal while trials run.

    Wall and CPU time of one unchanged input drift by +-25% over 5-15 s on a
    shared two-core host, so the gated trial time is divided by this probe's
    mean time around the trial.  The probe does the workload's dominant kind
    of work on fixed data, since the host's drift hits kinds of work
    differently: a complex eigh of the ADMM lift's order MN+1 for the dual
    receivers; for the baselines a small eigh and complex matvecs on a matrix
    larger than L2, like FISTA's dictionary products.  Both end with a Python
    loop of small numpy calls.  The timer fires every 40 probe times, so the
    probe takes about 2.5% of the run, between two bytecodes of the trial;
    probe time is taken out of the trial's and its receivers' times.  Probes
    run only between trials would be simpler, but sample the host too rarely:
    see README.md.
    """

    def __init__(self, workload, spec):
        rng = np.random.default_rng(0)
        dual = bool(set(workload.receivers) & set(workloads.DUAL))
        order = spec.config.M * spec.config.N + 1 if dual else 65
        X = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        self.H = X + X.conj().T
        self.matvecs = 0 if dual else 4
        if self.matvecs:
            self.A = rng.normal(size=(256, 1024)) + 1j * rng.normal(size=(256, 1024))
            self.x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        self.samples: list[tuple[float, float]] = []
        self.period = 40.0 * statistics.median(self._work() for _ in range(3))

    def _work(self) -> float:
        started = time.perf_counter()
        np.linalg.eigh(self.H)
        for _ in range(self.matvecs):
            self.A @ self.x
        for k in range(-64, 65):
            np.trace(self.H, offset=k)
        return time.perf_counter() - started

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.samples.append((started, started + self._work()))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _within(self, start, seconds) -> float:
        return sum(b - a for a, b in self.samples if start <= a < start + seconds)

    def attribute(self, record: Record) -> None:
        """Take probe time out of a trial and set its reference from probes within 1 s."""
        for o in record.outcomes:
            o.seconds -= self._within(o.started, o.seconds)
        start, end = record.started, record.started + record.seconds
        mid = 0.5 * (start + end)
        lo, hi = min(start, mid - 1.0), max(end, mid + 1.0)
        record.seconds -= self._within(start, record.seconds)
        near = [b - a for a, b in self.samples if lo <= a <= hi] or [b - a for a, b in self.samples]
        record.reference_s = statistics.fmean(near)


def setup_probe() -> float:
    """Interpreter-bound reference work, like set-up's imports and input generation.

    Its median time on the reference host is SETUP_PROBE_REF_S.
    """
    def once():
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - started
    return statistics.median(once() for _ in range(3))


def run_pass(workload, spec, seed, inputs, seconds, probe) -> list[Record]:
    """Run the panel, then time further trials while the next should end within ``seconds``."""
    records = []
    untraced = tracing.Tracer(active=False)
    with probe.running():
        started = time.perf_counter()
        while (len(records) < workload.panel
               or time.perf_counter() - started + records[-1].seconds <= seconds):
            index = len(records)
            trial = (inputs[index] if index < len(inputs)
                     else workloads.make_trial(workload, seed, index))
            records.append(run_trial(workload, spec, trial, untraced))
    for record in records:
        probe.attribute(record)
    return records


def run_traced(workload, spec, inputs, tracer) -> tuple[list[Record], list[Record]]:
    """Every panel trial traced; the first fifth of them also untraced right before.

    The untraced runs give trace.overhead and the digests the traced runs must
    reproduce; each pair runs back to back, so host drift hits both alike.
    """
    plain, traced = [], []
    untraced = tracing.Tracer(active=False)
    for trial in inputs:
        if trial.index < max(1, workload.panel // 5):
            plain.append(run_trial(workload, spec, trial, untraced))
        tracer.trial = trial.index
        with tracer.instrument(trace_targets()):
            traced.append(run_trial(workload, spec, trial, tracer))
    tracer.trial = -1
    return plain, traced


def time_setup(workload, seed) -> float:
    """Set-up seconds of a fresh interpreter, scaled to the reference host's speed.

    The interpreter imports the package and makes the panel's inputs, as a
    run does before its first trial.  Its wall time is multiplied by
    SETUP_PROBE_REF_S over the mean setup probe before and after it.
    """
    code = ("import sys; sys.path[:0] = {!r}; import workloads; "
            "workloads.make_inputs(workloads.WORKLOADS[{!r}], {}, {})").format(
                [str(SRC), str(BENCH_DIR)], workload.name, seed, workload.panel)
    before = setup_probe()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - started
    return seconds * SETUP_PROBE_REF_S / (0.5 * (before + setup_probe()))


def run_metrics(records, workload, spec) -> dict:
    """Accuracy over the panel; failures and receiver times over every timed trial."""
    panel = [o for r in records[:workload.panel] for o in r.outcomes]
    everything = [o for r in records for o in r.outcomes]
    matched = sum(o.matched for o in panel)
    solves = [o for o in panel if o.receiver in workloads.DUAL and not o.failure]
    violations = [o.violation_rel for o in solves]
    values = {
        "ident_rate": matched / (spec.n_targets * len(panel)),
        "range_rmse_m": math.sqrt(sum(o.sq_range for o in panel) / matched) if matched else 0.0,
        "velocity_rmse_mps": (math.sqrt(sum(o.sq_velocity for o in panel) / matched)
                              if matched else 0.0),
        "false_paths.mean": sum(o.false_paths for o in panel) / len(panel),
        "failed_frac": sum(1 for o in everything if o.failure) / len(everything),
        "violation_rel.p50": statistics.median(violations) if violations else 0.0,
        "admm.iterations.mean": statistics.fmean(o.iterations for o in solves) if solves else 0.0,
        "admm.converged_frac": (sum(o.converged for o in solves) / len(solves)) if solves else 0.0,
        "admm.capped_frac": (sum(1 for o in solves if o.iterations >= MAX_ITERS and not o.converged)
                             / len(solves)) if solves else 0.0,
        "violation_rel.max": max(violations, default=0.0),
        "baselines.csl1.objective.mean": statistics.fmean(
            [o.csl1_objective for o in panel if o.csl1_objective is not None] or [0.0]),
    }
    for name in bench.ALGORITHMS:
        mine = [o for o in panel if o.receiver == name]
        times = [o.seconds for o in everything if o.receiver == name and not o.failure]
        values[f"receiver.{name}.solve_s.p50"] = statistics.median(times) if times else 0.0
        values[f"receiver.{name}.ident_rate"] = (sum(o.matched for o in mine)
                                                 / (spec.n_targets * len(mine))) if mine else 0.0
        values[f"receiver.{name}.paths.mean"] = (sum(len(o.paths) for o in mine)
                                                 / len(mine)) if mine else 0.0
    return values


def quality_checks(records, workload, values) -> dict:
    """Checks that a run's outputs are sound and that its ADMM solves are not cut short.

    Every timed receiver run must end without NumericError or ConfigError and
    emit finite amplitudes.  On the dual workloads the panel must also meet
    the workload's floors: median and largest optimality violation over
    ``lam`` of its ADMM solves, and CS-ANL1's identification rate.
    """
    outcomes = [o for r in records for o in r.outcomes]
    checks = {"no_failures": not any(o.failure for o in outcomes),
              "outputs_valid": all(o.valid for o in outcomes)}
    if workload.violation_max:
        checks["violation_p50"] = values["violation_rel.p50"] <= workload.violation_p50_max
        checks["violation_max"] = values["violation_rel.max"] <= workload.violation_max
        checks["csanl1_ident"] = values["receiver.CS-ANL1.ident_rate"] >= workload.csanl1_ident_min
    return checks


def trace_targets():
    """(module, attribute, span name, size) for every call boundary the traced pass records."""
    order = lambda args, result: args[0].shape[0]  # noqa: E731
    kept = lambda args, result: len(result)  # noqa: E731
    return [
        (scene, "simulate", "scene.simulate", None),
        (admm, "solve", "admm.solve", None),
        (admm, "psd_project", "operators.psd_project", order),
        (admm, "adjoint_normalized", "operators.adjoint_normalized", None),
        (admm, "block_toeplitz", "operators.block_toeplitz", None),
        (extract, "estimate_from_solution", "extract.estimate_from_solution", None),
        (extract, "locate_peaks", "extract.locate_peaks", kept),
        (extract, "refine_peak", "extract.refine_peak", None),
        (extract, "dual_poly_grid", "extract.dual_poly_grid", None),
        (extract, "ls_amplitudes", "extract.ls_amplitudes", None),
        (baselines, "ls_amplitudes", "extract.ls_amplitudes", None),
        (bench, "run_algorithm", "bench.run_algorithm", None),
        (baselines, "csl1_estimate", "baselines.csl1_estimate", None),
        (baselines, "music_estimate", "baselines.music_estimate", None),
        (baselines, "music_spectrum", "baselines.music_spectrum", None),
        (baselines, "spatial_smooth", "baselines.spatial_smooth", None),
        (bench, "gate_identification", "bench.gate_identification", None),
    ]


def layer_metrics(tracer, records, workload, spec) -> dict:
    """Per-layer times (ms per trial unless named otherwise), counts and shares."""
    totals = tracer.summarize()
    get = lambda name: totals.get(name, tracing.Totals())  # noqa: E731
    n = len(records)

    def ms(name):
        return 1e3 * get(name).inclusive_s / n

    def share(name, base):
        return get(name).inclusive_s / get(base).inclusive_s if get(base).inclusive_s else 0.0

    psd, solve, sim = get("operators.psd_project"), get("admm.solve"), get("scene.simulate")
    iterations = sum(o.iterations for r in records for o in r.outcomes)
    refined = sum(1 for s in tracer.spans if s.name == "extract.refine_peak" and s.parent >= 0
                  and tracer.spans[s.parent].name == "extract.locate_peaks")
    dictionary_mb = 0.0
    if "CS-L1" in workload.receivers:
        M, N = spec.config.M, spec.config.N
        cfg = baselines.default_csl1_config(M, N, spec.config.sigma)
        dictionary_mb = M * N * cfg.M_grid * cfg.N_grid * 16 / 1e6
    values = {
        "operators.psd_project.ms": ms("operators.psd_project"),
        "operators.psd_project.calls": psd.calls / n,
        "operators.psd_project.share": share("operators.psd_project", "admm.solve"),
        "operators.psd_project.order": psd.size / psd.calls if psd.calls else 0.0,
        "admm.solve.ms": ms("admm.solve"),
        "admm.sweep.ms": 1e3 * solve.inclusive_s / iterations if iterations else 0.0,
        "admm.self_share": solve.self_s / solve.inclusive_s if solve.inclusive_s else 0.0,
        "extract.refine_peak.calls": get("extract.refine_peak").calls / n,
        "extract.kept_ratio": get("extract.locate_peaks").size / refined if refined else 0.0,
        "baselines.csl1_estimate.share": share("baselines.csl1_estimate", "trial"),
        "baselines.csl1.dictionary_mb": dictionary_mb,
        "scene.simulate.ms": 1e3 * sim.inclusive_s / sim.calls if sim.calls else 0.0,
    }
    for name in ("operators.adjoint_normalized", "operators.block_toeplitz"):
        values[f"{name}.ms"] = ms(name)
        values[f"{name}.share"] = share(name, "admm.solve")
    for name in ("extract.locate_peaks", "extract.refine_peak", "extract.dual_poly_grid",
                 "extract.ls_amplitudes", "baselines.csl1_estimate", "baselines.music_estimate",
                 "baselines.music_spectrum", "baselines.spatial_smooth",
                 "bench.gate_identification"):
        values[f"{name}.ms"] = ms(name)
    return values


def self_test(workload, spec, trial, record) -> bool:
    """The benchmark's dual dispatch must have returned bench.run_algorithm's Estimate."""
    return all(
        o.estimate == bench.run_algorithm(o.receiver, trial.measurement, spec.config,
                                          trial.scene.K, an_max_iters=MAX_ITERS)
        for o in record.outcomes if o.receiver in workloads.DUAL)


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None
    return {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    spec = workload.spec()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: (m["unit"], m["better"])
             for m in declared["end_to_end"] + declared["per_layer"]}
    setup = []

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.instrument(trace_targets()):
            inputs = workloads.make_inputs(workload, args.seed, workload.panel)
        plain, records = run_traced(workload, spec, inputs, tracer)
        values = run_metrics(records, workload, spec)
        checks = quality_checks(records, workload, values)
        checks["traced_outputs_match"] = ([r.digest() for r in plain]
                                          == [r.digest() for r in records[:len(plain)]])
        checks["dispatch_self_test"] = self_test(workload, spec, inputs[0], plain[0])
        values.update(layer_metrics(tracer, records, workload, spec))
        values["trace.overhead"] = (sum(r.seconds for r in records[:len(plain)])
                                    / sum(r.seconds for r in plain))
        reported = declared["per_layer"]
    else:
        setup = [time_setup(workload, args.seed) for _ in range(SETUP_SAMPLES)]
        inputs = workloads.make_inputs(workload, args.seed, workload.panel)
        records = run_pass(workload, spec, args.seed, inputs, args.seconds,
                           HostProbe(workload, spec))
        values = run_metrics(records, workload, spec)
        checks = quality_checks(records, workload, values)
        values["setup_s"] = statistics.median(setup)
        values["trial_ref.p50"] = statistics.median(r.normalized for r in records)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = peak_kib * 1024 / 1e6
        reported = declared["end_to_end"]
    values["trial_s.p50"] = statistics.median(r.seconds for r in records)
    correct = all(checks.values())

    why = {w["name"]: w["why"] for w in declared["workloads"]}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": {"name": workload.name, "M": spec.config.M, "N": spec.config.N,
                     "constellation": "QPSK", "ber": workloads.BER,
                     "receivers": list(workload.receivers), "seed": args.seed,
                     "panel": workload.panel, "rationale": why.get(workload.name)},
        "environment": environment(),
        "checks": checks,
        "setup_s": setup,
        "trial_s": [r.seconds for r in records],
        "reference_s": [r.reference_s for r in records],
        "digests": [r.digest() for r in records],
        "failures": [o.failure for r in records for o in r.outcomes if o.failure],
        "metrics": values,
    }, indent=1, default=str))

    print(f"workload {workload.name}: M=N={workload.size}, QPSK at BER {workloads.BER:g}, "
          f"receivers {', '.join(workload.receivers)}, seed {args.seed}, "
          f"{len(records)} trials timed, {min(workload.panel, len(records))} in the accuracy panel")
    absent = [f"receiver.{r}." for r in bench.ALGORITHMS if r not in workload.receivers]
    if not set(workload.receivers) & set(workloads.DUAL):
        absent.append("violation_rel.")
    for name, value in values.items():
        if name in units and not name.startswith(tuple(absent)):
            unit, better = units[name]
            print(f"  {name:<38} {value:>14.6g} {unit:<6} ({better} is better)")
    run_hash = hashlib.sha256(repr([r.digest() for r in records[:workload.panel]]).encode())
    print(f"  panel digest {run_hash.hexdigest()[:16]}; checks {checks}")

    outcomes = [o for r in records for o in r.outcomes]
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
