"""The benchmark harness's hold on the package: trace targets and one dual-8 trial."""

import importlib.util
import os
import pathlib
import sys

import pytest

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
