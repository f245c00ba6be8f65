"""Smoke test: a minimal traced pass of every workload, writing no results.

Run with ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_pass(workload):
    before = sorted(run.RESULTS.rglob("*")) if run.RESULTS.exists() else None
    report = run.run_workload(workload, seed=0, seconds=0, trace=True, results=None, small=True)
    assert report["problems"] == {}
    assert report["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} <= set(report["metrics"])
    after = sorted(run.RESULTS.rglob("*")) if run.RESULTS.exists() else None
    assert after == before
