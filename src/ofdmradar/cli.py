"""Command-line front end.

Subcommands: ``scenario`` (emit preset spec files), ``simulate`` (scene ->
measurement JSON), ``solve`` (measurement -> solution/estimate JSON),
``spectrum`` (solution or measurement -> grid CSV), ``bench`` (RMSE sweep ->
CSV/JSON report).  Exit codes: 0 success, 2 configuration error, 3 numerical
error.

``solve`` runs ``bench.run_receiver`` at its defaults (MUSIC on a 16x grid at an estimated
order; both it and ``bench`` cap the ADMM sweeps at ``admm.MAX_ITERS``).  Its flags each set
one settings field, and it rejects a flag whose field ``bench.OVERRIDES`` does not list for
the receiver; ``bench --iters`` likewise needs ``anl1`` or ``an`` among ``--algos``.
``serialize.solve_to_dict`` writes ``solve``'s JSON document for every receiver, and
``serialize.solution_from_dict`` reads the dual vector back for ``spectrum``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path as FilePath

import numpy as np

from . import admm, baselines, bench, extract, serialize
from .errors import ConfigError, NumericError


def _write(text: str, out: str | None, quiet: bool):
    if out:
        try:
            FilePath(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
        if not quiet:
            print(f"wrote {out}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_list(text: str, parse, flag: str) -> list:
    """Comma-separated entries through ``parse``; a bad entry raises ConfigError naming it."""
    items = []
    for entry in text.split(","):
        try:
            items.append(parse(entry.strip()))
        except (KeyError, ValueError):
            raise ConfigError(f"{flag}: bad entry {entry!r}") from None
    return items


def _read_input(path: str, parsers: dict):
    """Parse a JSON input file by its ``kind``, one of the keys of ``parsers``.

    Returns the kind and the parser's result.  A path that cannot be read
    (missing, a directory, unreadable), a file that is not JSON, has another
    kind, or lacks or mistypes a field its parser reads raises
    :class:`ConfigError` naming the file.
    """
    try:
        text = FilePath(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path} is not a JSON file: {exc}") from exc
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in parsers:
        raise ConfigError(f"{path} is not a {' or '.join(parsers)} file")
    try:
        return kind, parsers[kind](obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {kind} file: {type(exc).__name__}: {exc}") from exc


def _load_spec(args) -> bench.ScenarioSpec:
    if getattr(args, "spec", None):
        _, spec = _read_input(args.spec, {"scenario": serialize.scenario_from_dict})
    elif args.preset:
        spec = bench.preset(args.preset)
    else:
        raise ConfigError("provide --preset or --spec")
    overrides = {key: getattr(args, key) for key in ("seed", "trials")
                 if getattr(args, key, None) is not None}
    return dataclasses.replace(spec, **overrides)


def cmd_scenario(args) -> int:
    spec = _load_spec(args)
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


def cmd_solve(args) -> int:
    _, (measurement, config, _) = _read_input(
        args.input, {"measurement": serialize.measurement_from_dict})
    name = bench.ALGO_KEYS[args.algo]
    flags = (("--lambda", "lam", args.lam), ("--mu", "mu", args.mu), ("--rho", "rho", args.rho),
             ("--iters", "max_iters", args.iters), ("--music-k", "K_signal", args.music_k))
    for flag, field, value in flags:
        if value is not None and field not in bench.OVERRIDES[name]:
            raise ConfigError(f"{flag} is not read by --algo {args.algo}")
    overrides = {field: value for _, field, value in flags if value is not None}
    settings, estimate, solution, timing = bench.run_receiver(name, measurement, config,
                                                              **overrides)
    text = (serialize.estimate_to_csv(estimate, config) if args.format == "csv"
            else serialize.dumps(serialize.solve_to_dict(args.algo, measurement, config, settings,
                                                         estimate, timing, solution)))
    _write(text, args.out, args.quiet)
    return 0


def cmd_spectrum(args) -> int:
    kind, parsed = _read_input(args.input, {"solution": serialize.solution_from_dict,
                                            "measurement": serialize.measurement_from_dict})
    if kind == "solution" and args.music_k is not None:
        raise ConfigError("--music-k is not read for a solution input")
    M, N = parsed[:2] if kind == "solution" else (parsed[0].M, parsed[0].N)
    gp = extract.GRID_FACTOR * M if args.grid_phi is None else args.grid_phi
    gq = extract.GRID_FACTOR * N if args.grid_psi is None else args.grid_psi
    if kind == "solution":
        grid = np.abs(extract.dual_poly_grid(parsed[2], M, N, gp, gq))
    else:
        k = args.music_k if args.music_k is not None else "auto"
        mcfg = dataclasses.replace(baselines.default_music_config(M, N, K_signal=k),
                                   grid_phi=gp, grid_psi=gq)
        grid = baselines.music_spectrum(baselines.spatial_smooth(parsed[0], mcfg), mcfg)[0]
    _write(serialize.grid_to_csv(grid), args.out, args.quiet)
    return 0


def cmd_bench(args) -> int:
    spec = _load_spec(args)
    bers = _parse_list(args.ber, float, "--ber") if args.ber else [spec.ber]
    algos = _parse_list(args.algos, bench.ALGO_KEYS.__getitem__, "--algos")
    if args.iters is not None and not any("max_iters" in bench.OVERRIDES[a] for a in algos):
        raise ConfigError(f"--iters is not read by --algos {args.algos}")
    progress = None
    if not args.quiet:
        def progress(rec):
            status = "FAIL" if rec.failed else f"matched={rec.n_matched}"
            print(f"ber={rec.ber} {rec.algorithm} trial={rec.trial}: {status}",
                  file=sys.stderr)
    iters = admm.MAX_ITERS if args.iters is None else args.iters
    report = bench.run_benchmark(spec, algos, bers, an_max_iters=iters, progress=progress)
    text = (serialize.dumps(serialize.report_to_dict(report)) if args.format == "json"
            else serialize.report_to_csv(report))
    _write(text, args.out, args.quiet)
    if args.trials_out or args.out:
        _write(serialize.trials_to_csv(report), args.trials_out or args.out + ".trials.csv",
               quiet=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ofdmradar",
                                     description="Super-resolution delay-Doppler estimation for OFDM passive radar")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (stdout when omitted)")
    common.add_argument("--quiet", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--preset", choices=tuple(bench.PRESETS))
    source.add_argument("--spec", help="scenario spec JSON file")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common, seeded],
                       help="emit a preset scenario spec file")
    p.add_argument("--preset", required=True, choices=tuple(bench.PRESETS))
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("simulate", parents=[common, seeded, source],
                       help="simulate one measurement")
    p.add_argument("--ber", type=float, default=None)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", parents=[common, formatted],
                       help="estimate paths from a measurement file")
    p.add_argument("--input", required=True, help="measurement JSON file")
    p.add_argument("--algo", required=True, choices=tuple(bench.ALGO_KEYS))
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="anl1, an: weight")
    p.add_argument("--mu", type=float, default=None, help="anl1: l1 error weight")
    p.add_argument("--rho", type=float, default=None,
                   help="anl1, an: base ADMM penalty (0.05), weighted per block of the "
                        "congruence-scaled real lift of order MN+2 (see ofdmradar.admm)")
    p.add_argument("--iters", type=int, default=None,
                   help=f"anl1, an: ADMM sweep cap ({admm.MAX_ITERS})")
    p.add_argument("--music-k", type=int, default=None, help="music: model order (estimated)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", parents=[common],
                       help="dual-polynomial or MUSIC spectrum grid as CSV")
    p.add_argument("--input", required=True, help="solution or measurement JSON file")
    p.add_argument("--grid-phi", type=int, default=None)
    p.add_argument("--grid-psi", type=int, default=None)
    p.add_argument("--music-k", type=int, default=None, help="measurement input: MUSIC order")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", parents=[common, seeded, source, formatted],
                       help="run the RMSE benchmark sweep")
    p.add_argument("--ber", default=None, help="comma-separated BER list")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--algos", default=",".join(bench.ALGO_KEYS))
    p.add_argument("--iters", type=int, default=None,
                   help=f"anl1, an: ADMM sweep cap ({admm.MAX_ITERS})")
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


if __name__ == "__main__":
    sys.exit(main())
