"""The committed perfbench records, ``BENCH_<n>.json`` at the repository root.

Each holds, for every workload of ``BENCHMARK.json``, one seed-1 ``--trace 0`` run's
end-to-end metrics and one ``--trace 1`` run's per-layer metrics, each metric as
``{"value", "unit"}``, with both runs' checks, their ``correct``, the panel digest,
the environment and the measured commit.
"""

import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_every_workload_in_its_declared_units(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert set(workloads) == {w["name"] for w in DECLARED["workloads"]}
    for entry in workloads.values():
        assert entry["correct"] is True
        assert entry["checks"] and all(all(c.values()) for c in entry["checks"].values())
        assert entry["environment"]["OPENBLAS_NUM_THREADS"] == "1"
        assert re.fullmatch(r"[0-9a-f]{40}", entry["commit"])
        assert re.fullmatch(r"[0-9a-f]{16}", entry["panel_digest"])
        assert set(entry["end_to_end"]) == {m["name"] for m in DECLARED["end_to_end"]}
        assert entry["per_layer"]
        for metrics in (entry["end_to_end"], entry["per_layer"]):
            for name, metric in metrics.items():
                assert metric["unit"] == UNITS[name], name
                assert math.isfinite(metric["value"]), name
