import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from ofdmradar import NumericError, admm, baselines, bench, extract, serialize
from ofdmradar.bench import ALGO_KEYS
from ofdmradar.cli import SOLVE_MAX_ITERS, build_parser, main


def simulate_file(tmp_path):
    path = tmp_path / "meas.json"
    assert main(["simulate", "--preset", "rmse1", "--seed", "3", "--out", str(path),
                 "--quiet"]) == 0
    return path


def spec_8x8_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    assert main(["scenario", "--preset", "rmse1", "--out", str(spec_path), "--quiet"]) == 0
    spec = json.loads(spec_path.read_text())
    spec["config"]["M"] = spec["config"]["N"] = 8
    spec_path.write_text(json.dumps(spec))
    return spec_path


def simulate_8x8_file(tmp_path):
    spec_path = spec_8x8_file(tmp_path)
    path = tmp_path / "meas.json"
    assert main(["simulate", "--spec", str(spec_path), "--seed", "3", "--ber", "0.01",
                 "--out", str(path), "--quiet"]) == 0
    return path


class TestSolve:
    def test_csl1_csv_is_reproducible_and_the_receivers_estimate(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        outs = [tmp_path / "est1.csv", tmp_path / "est2.csv"]
        for out in outs:
            assert main(["solve", "--input", str(meas_path), "--algo", "csl1",
                         "--format", "csv", "--out", str(out), "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        measurement, config, _ = serialize.measurement_from_dict(
            json.loads(meas_path.read_text()))
        assert (measurement.M, measurement.N) == (8, 8)
        cfg = baselines.default_csl1_config(8, 8, config.sigma)
        want = serialize.estimate_to_csv(baselines.csl1_estimate(measurement, cfg), config)
        assert outs[0].read_text() == want

    def test_music_csv_is_the_receivers_estimate(self, tmp_path):
        meas_path = simulate_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["solve", "--input", str(meas_path), "--algo", "music",
                     "--format", "csv", "--out", str(out), "--quiet"]) == 0
        measurement, config, _ = serialize.measurement_from_dict(
            json.loads(meas_path.read_text()))
        cfg = baselines.default_music_config(measurement.M, measurement.N)
        want = serialize.estimate_to_csv(baselines.music_estimate(measurement, cfg), config)
        assert out.read_text() == want

    def test_non_measurement_input_is_a_config_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        assert main(["scenario", "--preset", "rmse1", "--out", str(spec_path),
                     "--quiet"]) == 0
        assert main(["solve", "--input", str(spec_path), "--algo", "music"]) == 2

    def test_music_json_is_reproducible_apart_from_timing(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        docs = []
        for out in (tmp_path / "est1.json", tmp_path / "est2.json"):
            assert main(["solve", "--input", str(meas_path), "--algo", "music",
                         "--out", str(out), "--quiet"]) == 0
            doc = json.loads(out.read_text())
            assert set(doc.pop("timing_s")) == {"solve"}
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_error_exits_3(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        assert main(["solve", "--input", str(meas_path), "--algo", "anl1",
                     "--lambda", "1e308", "--quiet"]) == 3

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lambda", "inf"),
                                             ("--mu", "nan"), ("--rho", "inf")])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, flag, value):
        meas_path = simulate_8x8_file(tmp_path)
        assert main(["solve", "--input", str(meas_path), "--algo", "anl1", flag, value,
                     "--quiet"]) == 2
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize("algo", ["csl1", "anl1"])
    def test_nan_noise_power_exits_2(self, tmp_path, capsys, algo):
        meas_path = simulate_8x8_file(tmp_path)
        doc = json.loads(meas_path.read_text())
        doc["config"]["noise_power_db"] = math.nan
        meas_path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(meas_path), "--algo", algo, "--quiet"]) == 2
        assert "noise_power_db" in capsys.readouterr().err


    @pytest.mark.parametrize("algo", ["anl1", "an"])
    def test_dual_json_is_the_receivers_solution(self, tmp_path, algo):
        meas_path = simulate_8x8_file(tmp_path)
        out = tmp_path / "sol.json"
        assert main(["solve", "--input", str(meas_path), "--algo", algo, "--iters", "50",
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        measurement, config, _ = serialize.measurement_from_dict(
            json.loads(meas_path.read_text()))
        lam, mu = admm.default_weights(config.sigma, 8, 8)
        solver = admm.SolverConfig(lam=lam, mu=mu if algo == "anl1" else 0.0, rho=0.05,
                                   max_iters=50)
        solution = admm.solve(measurement, solver)
        estimate = extract.estimate_from_solution(solution, measurement, solver.lam, solver.mu)
        assert doc["solver"] == dataclasses.asdict(solver)
        assert np.array_equal(serialize.deinterleave(doc["nu_hat"]), solution.nu_hat)
        assert doc["estimate"] == json.loads(serialize.dumps(
            serialize.estimate_to_dict(estimate, config)))

    @pytest.mark.parametrize("algo, flag, value", [
        ("an", "--mu", "0.05"), ("csl1", "--rho", "3"), ("csl1", "--lambda", "0.5"),
        ("music", "--mu", "0.05"), ("music", "--rho", "3"), ("anl1", "--music-k", "3"),
        ("an", "--music-k", "3"), ("csl1", "--music-k", "3"), ("csl1", "--iters", "5"),
        ("music", "--iters", "5")])
    def test_flag_the_receiver_does_not_read_exits_2(self, tmp_path, capsys, algo, flag,
                                                     value):
        meas_path = simulate_8x8_file(tmp_path)
        out = tmp_path / "est.json"
        assert main(["solve", "--input", str(meas_path), "--algo", algo, flag, value,
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0] and algo in err[0]
        assert not out.exists()

    def test_dual_solve_without_iters_runs_at_the_named_cap(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        out = tmp_path / "sol.json"
        assert main(["solve", "--input", str(meas_path), "--algo", "an",
                     "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["solver"]["max_iters"] == SOLVE_MAX_ITERS


class TestMalformedInput:
    def test_spec_missing_a_key_exits_2(self, tmp_path, capsys):
        spec_path = spec_8x8_file(tmp_path)
        spec = json.loads(spec_path.read_text())
        del spec["n_targets"]
        spec_path.write_text(json.dumps(spec))
        assert main(["simulate", "--spec", str(spec_path), "--quiet"]) == 2
        assert "n_targets" in capsys.readouterr().err

    def test_spec_that_is_not_json_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("n_targets = 3\n")
        assert main(["bench", "--spec", str(spec_path), "--quiet"]) == 2
        assert str(spec_path) in capsys.readouterr().err

    def test_measurement_as_spec_exits_2(self, tmp_path):
        meas_path = simulate_8x8_file(tmp_path)
        assert main(["simulate", "--spec", str(meas_path), "--quiet"]) == 2

    @pytest.mark.parametrize("argv", [["solve", "--algo", "music", "--input"],
                                      ["simulate", "--spec"]])
    def test_directory_input_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]

    @pytest.mark.parametrize("kind, field, value", [
        ("scenario", "M", 8.9), ("scenario", "trials", 2.7), ("scenario", "trials", True),
        ("scenario", "n_targets", "3"), ("measurement", "N", 8.5),
        ("measurement", "M", float("inf")), ("solution", "M", True)])
    def test_integer_field_that_is_not_whole_exits_2(self, tmp_path, capsys, kind, field,
                                                     value):
        # Scenario and measurement files keep M and N under "config", solutions at the top.
        if kind == "scenario":
            path, argv = spec_8x8_file(tmp_path), ["simulate", "--spec"]
        elif kind == "measurement":
            path, argv = simulate_8x8_file(tmp_path), ["solve", "--algo", "music", "--input"]
        else:
            path, argv = tmp_path / "sol.json", ["spectrum", "--input"]
            assert main(["solve", "--input", str(simulate_8x8_file(tmp_path)), "--algo", "an",
                         "--iters", "5", "--out", str(path), "--quiet"]) == 0
        doc = json.loads(path.read_text())
        (doc if kind == "solution" or field not in ("M", "N") else doc["config"])[field] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert main([*argv, str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{field} must be a whole number" in err[0]
        assert not out.exists()

    def test_whole_float_is_read_as_an_integer(self, tmp_path):
        spec_path = spec_8x8_file(tmp_path)
        spec = json.loads(spec_path.read_text())
        spec["config"]["M"], spec["trials"] = 8.0, 2.0
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "meas.json"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["config"]["M"] == 8
        assert type(serialize.scenario_from_dict(spec).trials) is int

    # One case per kind of float field: config, the derived-timing check, a
    # truth path, an interleaved sample, a scenario float and a tuple entry.
    @pytest.mark.parametrize("kind, keys, value", [
        ("measurement", ("config", "f_c_hz"), True), ("measurement", ("config", "f_c_hz"), "2e9"),
        ("measurement", ("config", "T_bar_s"), "3e-4"),
        ("measurement", ("truth", "targets", 0, "phi"), "0.5"),
        ("measurement", ("r_bar", 0), True), ("scenario", ("clutter_power_db",), "-10"),
        ("scenario", ("range_bounds_m", 1), True), ("scenario", ("config", "delta_f_hz"), "5e3")])
    def test_float_field_that_is_not_a_number_exits_2(self, tmp_path, capsys, kind, keys,
                                                      value):
        if kind == "scenario":
            path, argv = spec_8x8_file(tmp_path), ["simulate", "--spec"]
        else:
            path, argv = simulate_8x8_file(tmp_path), ["solve", "--algo", "music", "--input"]
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert main([*argv, str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and "must be" in err[0]
        assert "number" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["solve", "--algo", "anl1"], ["solve", "--algo", "an"],
                                      ["solve", "--algo", "csl1"], ["solve", "--algo", "music"],
                                      ["spectrum"]])
    @pytest.mark.parametrize("field, value", [("r_bar", math.inf), ("r_bar", math.nan),
                                              ("S_hat", -math.inf), ("e_bar_true", math.nan),
                                              ("v_bar_true", math.inf)])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, argv, field, value):
        path = simulate_8x8_file(tmp_path)
        doc = json.loads(path.read_text())
        doc[field][5] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert main([*argv, "--input", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and "finite" in err[0]
        assert not out.exists()

    # Ground truth is checked where it is read, so a file with a bad one fails
    # before any receiver runs, whichever receiver it names.
    @pytest.mark.parametrize("keys, value", [
        (("truth", "targets", 0, "alpha_re"), math.nan),
        (("truth", "clutter", 1, "alpha_im"), -math.inf),
        (("v_bar_true",), []), (("e_bar_true",), [0.0, 0.0])])
    def test_bad_ground_truth_exits_2(self, tmp_path, capsys, keys, value):
        path = simulate_8x8_file(tmp_path)
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "est.json"
        capsys.readouterr()
        assert main(["solve", "--algo", "music", "--input", str(path), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and "finite" in err[0]
        assert ("alpha" if keys[0] == "truth" else keys[0]) in err[0]
        assert not out.exists()


class TestSpectrum:
    @pytest.mark.parametrize("kind", ["solution", "measurement"])
    @pytest.mark.parametrize("flags, shape", [([], (128, 128)),
                                              (["--grid-psi", "40"], (128, 40)),
                                              (["--grid-phi", "24"], (24, 128))])
    def test_grid_flags_set_the_csv_shape(self, tmp_path, kind, flags, shape):
        path = simulate_8x8_file(tmp_path)
        if kind == "solution":
            sol_path = tmp_path / "sol.json"
            assert main(["solve", "--input", str(path), "--algo", "an", "--iters", "5",
                         "--out", str(sol_path), "--quiet"]) == 0
            path = sol_path
        out = tmp_path / "grid.csv"
        assert main(["spectrum", "--input", str(path), *flags, "--out", str(out),
                     "--quiet"]) == 0
        rows = out.read_text().splitlines()
        assert (len(rows), len(rows[0].split(","))) == shape

    def test_music_k_with_a_solution_input_exits_2(self, tmp_path, capsys):
        path = simulate_8x8_file(tmp_path)
        sol_path, out = tmp_path / "sol.json", tmp_path / "grid.csv"
        assert main(["solve", "--input", str(path), "--algo", "an", "--iters", "5",
                     "--out", str(sol_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--input", str(sol_path), "--music-k", "3",
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--music-k" in err[0]
        assert not out.exists()
        assert main(["spectrum", "--input", str(path), "--music-k", "3",
                     "--out", str(out), "--quiet"]) == 0

    def test_short_nu_hat_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        assert main(["solve", "--input", str(simulate_8x8_file(tmp_path)), "--algo", "an",
                     "--iters", "5", "--out", str(path), "--quiet"]) == 0
        doc = json.loads(path.read_text())
        doc["nu_hat"] = doc["nu_hat"][:-2]
        path.write_text(json.dumps(doc))
        out = tmp_path / "grid.csv"
        assert main(["spectrum", "--input", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and "nu_hat" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--grid-phi", "--grid-psi"])
    def test_zero_grid_exits_2(self, tmp_path, flag):
        path = simulate_8x8_file(tmp_path)
        assert main(["spectrum", "--input", str(path), flag, "0",
                     "--out", str(tmp_path / "grid.csv"), "--quiet"]) == 2


def read_csv(path):
    return list(csv.DictReader(path.read_text().splitlines()))


class TestBench:
    def test_rows_derive_from_trials_per_pass(self, tmp_path):
        # Seed 7 is one where MUSIC matches targets at 8x8, so the RMSE
        # columns hold numbers rather than NaN.
        out = tmp_path / "report.csv"
        assert main(["bench", "--spec", str(spec_8x8_file(tmp_path)), "--seed", "7",
                     "--trials", "2", "--ber", "0.01,0.01", "--algos", "music",
                     "--format", "csv", "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        trials = read_csv(tmp_path / "report.csv.trials.csv")
        assert len(rows) == 2 and len(trials) == 4
        for row, group in zip(rows, (trials[:2], trials[2:])):
            used = [t for t in group if t["failed"] == "0"]
            matched = sum(int(t["n_matched"]) for t in used)
            assert matched > 0
            sq_r = sq_v = 0.0
            for t in used:
                sq_r += float(t["sq_range_error"])
                sq_v += float(t["sq_velocity_error"])
            assert {t["ber"] for t in group} == {row["ber"]} == {"0.01"}
            assert int(row["trials_used"]) == len(used)
            assert float(row["range_rmse_m"]) == math.sqrt(sq_r / matched)
            assert float(row["velocity_rmse_mps"]) == math.sqrt(sq_v / matched)
            assert float(row["identification_rate"]) == matched / (3 * len(used))
        assert rows[0] == rows[1]


class TestBenchIters:
    @pytest.mark.parametrize("algos", ["music", "csl1,music"])
    def test_iters_without_a_dual_receiver_exits_2(self, tmp_path, capsys, algos):
        out = tmp_path / "report.csv"
        assert main(["bench", "--spec", str(spec_8x8_file(tmp_path)), "--algos", algos,
                     "--iters", "5", "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--iters" in err[0] and algos in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags, cap", [([], bench.AN_MAX_ITERS), (["--iters", "7"], 7)])
    def test_iters_sets_the_dual_receivers_cap(self, tmp_path, monkeypatch, flags, cap):
        seen = []

        def run_benchmark(spec, algorithms, ber_list, *, an_max_iters, progress):
            seen.append(an_max_iters)
            return bench.RmseReport(spec=spec, algorithms=tuple(algorithms))

        monkeypatch.setattr(bench, "run_benchmark", run_benchmark)
        assert main(["bench", "--preset", "rmse1", "--algos", "an,music", *flags,
                     "--out", str(tmp_path / "report.csv"), "--quiet"]) == 0
        assert seen == [cap]


class TestConfigRanges:
    # Each file's timing keys agree with its delta_f_hz and T_cp_s.
    @pytest.mark.parametrize("algo, changes, field", [
        ("csl1", {"delta_f_hz": -5000.0, "T_s": -2e-4, "T_bar_s": -1e-4}, "delta_f"),
        ("music", {"f_c_hz": 0.0}, "f_c")])
    def test_out_of_range_config_exits_2(self, tmp_path, capsys, algo, changes, field):
        meas_path = simulate_8x8_file(tmp_path)
        doc = json.loads(meas_path.read_text())
        doc["config"].update(changes)
        meas_path.write_text(json.dumps(doc))
        out = tmp_path / "est.json"
        assert main(["solve", "--input", str(meas_path), "--algo", algo, "--out", str(out),
                     "--quiet"]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestArguments:
    @pytest.mark.parametrize("flag, value, entry", [("--algos", "csl1,foo", "'foo'"),
                                                    ("--ber", "0.01,abc", "'abc'")])
    def test_bad_list_entry_exits_2(self, capsys, flag, value, entry):
        assert main(["bench", "--preset", "rmse1", flag, value, "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0] and entry in err[0]

    @pytest.mark.parametrize("argv, field", [
        (["simulate", "--preset", "rmse1", "--trial", "-1"], "trial"),
        (["simulate", "--preset", "rmse1", "--seed", "-2"], "seed"),
        (["scenario", "--preset", "rmse1", "--seed", "-2"], "seed")])
    def test_negative_seed_or_trial_exits_2(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not out.exists()

    def test_algo_names_are_the_short_keys(self):
        args = build_parser().parse_args(["bench", "--preset", "rmse1"])
        assert args.algos.split(",") == list(ALGO_KEYS) == ["anl1", "an", "csl1", "music"]

    @pytest.mark.parametrize("argv", [
        ["scenario", "--preset", "rmse1", "--format", "csv"],
        ["simulate", "--preset", "rmse1", "--format", "csv"],
        ["spectrum", "--input", "meas.json", "--format", "json"],
        ["solve", "--input", "meas.json", "--algo", "music", "--seed", "9"],
        ["spectrum", "--input", "meas.json", "--seed", "9"]])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUnwritableOutput:
    def test_scenario_out_directory_exits_2(self, tmp_path, capsys):
        assert main(["scenario", "--preset", "rmse1", "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]

    def test_trials_out_directory_exits_2(self, tmp_path, capsys):
        spec_path = spec_8x8_file(tmp_path)
        assert main(["bench", "--spec", str(spec_path), "--trials", "1", "--algos", "music",
                     "--out", str(tmp_path / "report.csv"), "--trials-out", str(tmp_path),
                     "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]


class TestOutput:
    def test_without_out_the_document_goes_to_stdout(self, capsys):
        assert main(["scenario", "--preset", "rmse1"]) == 0
        captured = capsys.readouterr()
        want = serialize.dumps(serialize.scenario_to_dict(bench.preset("rmse1")))
        assert (captured.out, captured.err) == (want + "\n", "")

    def test_out_without_quiet_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["scenario", "--preset", "rmse1", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_text() == serialize.dumps(serialize.scenario_to_dict(bench.preset("rmse1")))

    def test_bench_reports_each_trial_on_stderr(self, tmp_path, monkeypatch, capsys):
        run_algorithm, calls = bench.run_algorithm, []

        def failing_on_the_second_call(name, *args, **kwargs):
            calls.append(name)
            if len(calls) == 2:
                raise NumericError("non-finite iterate at iteration 4", iteration=4)
            return run_algorithm(name, *args, **kwargs)

        monkeypatch.setattr(bench, "run_algorithm", failing_on_the_second_call)
        spec_path, out = spec_8x8_file(tmp_path), tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["bench", "--spec", str(spec_path), "--seed", "7", "--trials", "2",
                     "--ber", "0.01", "--algos", "music", "--format", "csv",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}\n"
        trials = read_csv(tmp_path / "report.csv.trials.csv")
        assert [t["failed"] for t in trials] == ["0", "1"]
        assert captured.err.splitlines() == [
            f"ber=0.01 2D-MUSIC trial=0: matched={trials[0]['n_matched']}",
            "ber=0.01 2D-MUSIC trial=1: FAIL"]

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_no_scenario_source_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        assert main([command, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == "configuration error: provide --preset or --spec\n"
        assert not out.exists()
