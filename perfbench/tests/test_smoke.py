"""Every workload runs at tiny sizes, emits every declared metric with its
unit, fails no operation and passes its output checks."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import federation, paper_study, run, soak
from perfbench.spans import PER_LAYER

ROOT = run.ROOT
SMALL = {"soak": soak.SMALL, "federation": federation.SMALL, "paper_study": paper_study.SMALL}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_at_tiny_size(workload, trace):
    spec = _spec()
    outcome = run.measure(workload, 7, 0.3, trace, sizes=SMALL[workload], setup_samples=1)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(outcome["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = outcome["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert outcome["problems"] == []
    assert outcome["correct"] is True
    assert outcome["attempted"] > 0
    assert outcome["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soak", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
