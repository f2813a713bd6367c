"""Command-line front end.

Subcommands: ``scenario`` (emit preset spec files), ``simulate`` (scene ->
measurement JSON), ``solve`` (measurement -> solution/estimate JSON),
``spectrum`` (solution or measurement -> grid CSV), ``bench`` (RMSE sweep ->
CSV/JSON report).  Exit codes: 0 success, 2 configuration error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path as FilePath

import numpy as np

from . import admm, baselines, bench, extract, serialize
from .errors import ConfigError, NumericError


def _write(text: str, out: str | None, quiet: bool):
    if out:
        FilePath(out).write_text(text)
        if not quiet:
            print(f"wrote {out}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read_input(path: str, parsers: dict):
    """Parse a JSON input file by its ``kind``, one of the keys of ``parsers``.

    Returns the kind and the parser's result.  A file that is not JSON, has
    another kind, or lacks or mistypes a field its parser reads raises
    :class:`ConfigError` naming the file.
    """
    try:
        obj = json.loads(FilePath(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not a JSON file: {exc}") from exc
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in parsers:
        raise ConfigError(f"{path} is not a {' or '.join(parsers)} file")
    try:
        return kind, parsers[kind](obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {kind} file: {type(exc).__name__}: {exc}") from exc


def _solution_dual(obj: dict):
    return int(obj["M"]), int(obj["N"]), serialize.deinterleave(obj["nu_hat"])


def _load_spec(args) -> bench.ScenarioSpec:
    if getattr(args, "spec", None):
        _, spec = _read_input(args.spec, {"scenario": serialize.scenario_from_dict})
    elif getattr(args, "preset", None):
        spec = bench.preset(args.preset)
    else:
        raise ConfigError("provide --preset or --spec")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    return dataclasses.replace(spec, **overrides)


def cmd_scenario(args) -> int:
    spec = bench.preset(args.preset)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    _write(serialize.dumps(serialize.scenario_to_dict(spec)), args.out, args.quiet)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    ber = args.ber if args.ber is not None else spec.ber
    scene, measurement = bench.simulate_trial(spec, ber, args.trial)
    meta = {"seed": spec.seed, "trial": args.trial, "ber": ber,
            "constellation": "QPSK", "scenario": spec.name}
    doc = serialize.measurement_to_dict(measurement, spec.config, metadata=meta,
                                        truth=scene)
    _write(serialize.dumps(doc), args.out, args.quiet)
    return 0


def _solve_dual(measurement, config, algo, args):
    sigma = config.sigma
    lam, mu = admm.default_weights(sigma, measurement.M, measurement.N)
    if algo == "an":
        mu = 0.0
    if args.lam is not None:
        lam = args.lam
    if args.mu is not None:
        mu = args.mu
    solver = admm.SolverConfig(lam=lam, mu=mu, rho=args.rho, max_iters=args.iters)
    t0 = time.perf_counter()
    solution = admm.solve(measurement, solver)
    t1 = time.perf_counter()
    estimate = extract.estimate_from_solution(solution, measurement, lam, mu)
    t2 = time.perf_counter()
    timing = {"solve": t1 - t0, "extract": t2 - t1}
    doc = serialize.solution_to_dict(solution, measurement, solver, estimate,
                                     algo=algo, config=config, timing=timing)
    return doc, estimate


def cmd_solve(args) -> int:
    _, (measurement, config, _) = _read_input(
        args.input, {"measurement": serialize.measurement_from_dict})
    M, N = measurement.M, measurement.N
    if args.algo in ("anl1", "an"):
        doc, estimate = _solve_dual(measurement, config, args.algo, args)
    elif args.algo == "csl1":
        cfg = baselines.default_csl1_config(M, N, config.sigma)
        t0 = time.perf_counter()
        estimate = baselines.csl1_estimate(measurement, cfg)
        doc = {"kind": "estimate", "algo": "csl1", "M": M, "N": N,
               "gamma": cfg.gamma,
               "timing_s": {"solve": time.perf_counter() - t0},
               "estimate": serialize.estimate_to_dict(estimate, config)}
    elif args.algo == "music":
        k = args.music_k if args.music_k is not None else "auto"
        cfg = baselines.default_music_config(M, N, K_signal=k)
        t0 = time.perf_counter()
        estimate = baselines.music_estimate(measurement, cfg)
        doc = {"kind": "estimate", "algo": "music", "M": M, "N": N,
               "timing_s": {"solve": time.perf_counter() - t0},
               "estimate": serialize.estimate_to_dict(estimate, config)}
    else:
        raise ConfigError(f"unknown algorithm {args.algo!r}")
    if args.format == "csv":
        _write(serialize.estimate_to_csv(estimate, config), args.out, args.quiet)
    else:
        _write(serialize.dumps(doc), args.out, args.quiet)
    return 0


def cmd_spectrum(args) -> int:
    kind, parsed = _read_input(args.input, {"solution": _solution_dual,
                                            "measurement": serialize.measurement_from_dict})
    if kind == "solution":
        M, N, nu = parsed
    else:
        measurement = parsed[0]
        M, N = measurement.M, measurement.N
    gp = args.grid_phi or extract.GRID_FACTOR * M
    gq = args.grid_psi or extract.GRID_FACTOR * N
    if kind == "solution":
        grid = np.abs(extract.dual_poly_grid(nu, M, N, gp, gq))
    else:
        k = args.music_k if args.music_k is not None else "auto"
        mcfg = dataclasses.replace(baselines.default_music_config(M, N, K_signal=k),
                                   grid_phi=gp, grid_psi=gq)
        grid = baselines.music_spectrum(baselines.spatial_smooth(measurement, mcfg), mcfg)
    _write(serialize.grid_to_csv(grid), args.out, args.quiet)
    return 0


ALGO_KEYS = {"anl1": "CS-ANL1", "an": "CS-AN", "csl1": "CS-L1", "music": "2D-MUSIC"}


def cmd_bench(args) -> int:
    spec = _load_spec(args)
    bers = [float(b) for b in args.ber.split(",")] if args.ber else [spec.ber]
    algos = [ALGO_KEYS[a.strip()] for a in args.algos.split(",")]
    progress = None
    if not args.quiet:
        def progress(rec):
            status = "FAIL" if rec.failed else f"matched={rec.n_matched}"
            print(f"ber={rec.ber} {rec.algorithm} trial={rec.trial}: {status}",
                  file=sys.stderr)
    report = bench.run_benchmark(spec, algos, bers, an_max_iters=args.iters,
                                 progress=progress)
    if args.format == "json":
        _write(serialize.dumps(serialize.report_to_dict(report)), args.out, args.quiet)
    else:
        _write(serialize.report_to_csv(report), args.out, args.quiet)
    if args.trials_out:
        FilePath(args.trials_out).write_text(serialize.trials_to_csv(report))
    elif args.out:
        FilePath(args.out + ".trials.csv").write_text(serialize.trials_to_csv(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ofdmradar",
                                     description="Super-resolution delay-Doppler estimation for OFDM passive radar")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", default=None, help="output file (stdout when omitted)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common], help="emit a preset scenario spec file")
    p.add_argument("--preset", required=True, choices=tuple(bench.PRESETS))
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("simulate", parents=[common], help="simulate one measurement")
    p.add_argument("--preset", choices=tuple(bench.PRESETS))
    p.add_argument("--spec", help="scenario spec JSON file")
    p.add_argument("--ber", type=float, default=None)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_simulate, trials=None)

    p = sub.add_parser("solve", parents=[common], help="estimate paths from a measurement file")
    p.add_argument("--input", required=True, help="measurement JSON file")
    p.add_argument("--algo", required=True, choices=("anl1", "an", "csl1", "music"))
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--rho", type=float, default=0.05)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--music-k", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", parents=[common],
                       help="dual-polynomial or MUSIC spectrum grid as CSV")
    p.add_argument("--input", required=True, help="solution or measurement JSON file")
    p.add_argument("--grid-phi", type=int, default=None)
    p.add_argument("--grid-psi", type=int, default=None)
    p.add_argument("--music-k", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", parents=[common], help="run the RMSE benchmark sweep")
    p.add_argument("--preset", choices=tuple(bench.PRESETS))
    p.add_argument("--spec", help="scenario spec JSON file")
    p.add_argument("--ber", default=None, help="comma-separated BER list")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--algos", default="anl1,an,csl1,music")
    p.add_argument("--iters", type=int, default=bench.AN_MAX_ITERS, help="ADMM iteration cap")
    p.add_argument("--trials-out", default=None, help="per-trial raw CSV path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
