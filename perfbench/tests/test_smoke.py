"""Smoke size of every workload: each prints every metric with its unit
and passes its correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, per_layer_names  # noqa: E402
from perfbench.spans import self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_json(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


def test_benchmark_json_matches_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_names()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    proc = run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr[-4000:]
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {n: u for n, u, _ in END_TO_END}
    for name, m in out["metrics"].items():
        assert m["value"] > 0, name


def test_traced_smoke_reports_every_layer():
    proc = run("replay_mor", trace=1)
    assert proc.returncode == 0, proc.stderr[-4000:]
    out = last_json(proc)
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {n: u for n, u, _ in per_layer_names()}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["runner.cycle_s.count"] > 0 and m["merge.precombine_hash_s.count"] > 0
    assert m["runner.transform_s.count"] > 0 and m["fs.encode_fsync_s.count"] > 0
    # a cycle's driver self time is what its children leave of it
    assert 0 < m["runner.driver_self_s"] < m["runner.cycle_s"]


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 6.0},  # overlaps b
        {"id": "d", "parent": "a", "start": 9.0, "end": 12.0},  # clipped at a's end
    ]
    st = self_times(spans)
    assert st["a"] == pytest.approx(10 - 5 - 1)
    assert st["b"] == pytest.approx(3.0)


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("replay_mor", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
