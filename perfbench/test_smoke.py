"""Smoke tests of the benchmark itself: one cycle per workload and trace mode.

Run from the root of the checkout with ``python3 -m pytest perfbench``
(about two minutes on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            details = next(line.split(" ", 1)[1] for line in lines
                           if line.startswith("details: "))
            cache[workload, trace] = (json.loads(lines[-1]),
                                      json.loads(Path(ROOT, details).read_text()))
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, workload, trace, section):
    result, _ = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_trace_counts_match_the_call_structure(results):
    _, details = results("cli", 1)
    by_label = details["calls_per_job_by_label"]
    # spectrum solves the pole once itself and once inside from_exact
    assert by_label["spectrum"]["friedrichs.find_pole"] == 2
    _, details = results("kernel", 1)
    assert details["calls_per_job_by_label"]["kernel-n44"]["model.eval_V2"] > 5e4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
