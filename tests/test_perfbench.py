"""The benchmark harness's hold on the package: trace targets, trial runs and the
baselines-16 CS-L1 certificate."""

import importlib.util
import math
import os
import pathlib
import sys

import pytest

from conftest import residual_at_w_gap

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    # run.py pins BLAS threads through the environment and imports its
    # sibling modules by name; both are undone after the module's tests.
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


def test_trace_targets_resolve(run):
    for module, attr, _, _ in run.trace_targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_dual_8_trial_runs_and_matches_the_dispatch(run):
    workload = run.workloads.WORKLOADS["dual-8"]
    spec = workload.spec()
    trial = run.workloads.make_trial(workload, 1, 0)
    record = run.run_trial(workload, spec, trial, run.tracing.Tracer(active=False))
    assert [o.failure for o in record.outcomes] == ["", ""]
    assert run.self_test(workload, spec, trial, record)


def test_baselines_16_trial_runs_and_csl1_objective_is_finite(run):
    workload = run.workloads.WORKLOADS["baselines-16"]
    spec = workload.spec()
    trial = run.workloads.make_trial(workload, 1, 0)
    record = run.run_trial(workload, spec, trial, run.tracing.Tracer(active=False))
    assert [o.failure for o in record.outcomes] == ["", ""]
    (csl1,) = [o for o in record.outcomes if o.receiver == "CS-L1"]
    assert math.isfinite(run.csl1_objective(csl1.estimate, trial.measurement, spec.config))


def baselines_16_csl1_solve(run, seed, index):
    """CS-L1's solve of trial ``index`` of a baselines-16 run with ``seed``, as bench sets it."""
    workload = run.workloads.WORKLOADS["baselines-16"]
    spec = workload.spec()
    trial = run.workloads.make_trial(workload, seed, index)
    settings = run.bench.run_receiver("CS-L1", trial.measurement, spec.config)[0]
    return settings, run.baselines._csl1_solve(trial.measurement, settings)


def test_baselines_16_csl1_solve_certifies_before_its_cap(run):
    settings, (_, iterations, gap) = baselines_16_csl1_solve(run, 1, 0)
    assert iterations < settings.max_iters
    assert 0 < gap <= settings.tol


@pytest.mark.parametrize("seed", [1, 2])
def test_baselines_16_panel_csl1_solves_certify_before_their_caps(run, seed):
    for index in range(run.workloads.WORKLOADS["baselines-16"].panel):
        settings, (_, iterations, gap) = baselines_16_csl1_solve(run, seed, index)
        assert iterations < settings.max_iters, index
        assert 0 < gap <= settings.tol, index


def test_baselines_16_seed_103_trial_3_csl1_certifies_before_its_cap(run):
    # The two-point certificate ends this solve at its 4000-iteration cap with a gap of
    # 1.6e-4; the polished point certifies it.
    settings, (_, iterations, gap) = baselines_16_csl1_solve(run, 103, 3)
    assert iterations < settings.max_iters
    assert 0 < gap <= settings.tol


def test_baselines_16_csl1_certifies_sooner_than_the_residual_at_w_rule(run, monkeypatch):
    _, (_, iterations, _) = baselines_16_csl1_solve(run, 1, 0)
    monkeypatch.setattr(run.baselines, "_csl1_gap", residual_at_w_gap)
    settings, (_, w_only, _) = baselines_16_csl1_solve(run, 1, 0)
    assert iterations < w_only < settings.max_iters


def test_dual_8_trial_traces_one_operator_span_per_sweep(run):
    workload = run.workloads.WORKLOADS["dual-8"]
    spec = workload.spec()
    trial = run.workloads.make_trial(workload, 1, 0)
    tracer = run.tracing.Tracer()
    with tracer.instrument(run.trace_targets()):
        record = run.run_trial(workload, spec, trial, tracer)
    sweeps = sum(o.iterations for o in record.outcomes)
    assert sweeps > 0
    totals = tracer.summarize()
    assert totals["admm.solve"].calls == len(workload.receivers)
    for name in ("operators.psd_project", "operators.adjoint_normalized",
                 "operators.block_toeplitz"):
        assert totals[name].calls == sweeps, name


def test_baselines_16_traced_trial_sees_each_baseline_once(run):
    # bench dispatches the baselines, and the baselines call music_spectrum and
    # dual_poly_grid, through module attributes at call time, so the tracer's
    # rebinding of them is what runs.
    workload = run.workloads.WORKLOADS["baselines-16"]
    spec = workload.spec()
    trial = run.workloads.make_trial(workload, 1, 0)
    tracer = run.tracing.Tracer()
    with tracer.instrument(run.trace_targets()):
        run.run_trial(workload, spec, trial, tracer)
    totals = tracer.summarize()
    assert totals["baselines.csl1_estimate"].calls == 1
    assert totals["baselines.music_estimate"].calls == 1
    assert totals["bench.run_algorithm"].calls == 2
    assert totals["baselines.music_spectrum"].calls == 1
    assert totals["extract.dual_poly_grid"].calls > 0
