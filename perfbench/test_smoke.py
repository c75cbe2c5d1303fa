"""Toy-size smoke run of every workload, checked against BENCHMARK.json.

    python3 -m pytest -q perfbench

Asserts metric names, units and the result schema; makes no timing assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = ("graph", "diffusion", "trees", "stats", "branching", "harness", "cli", "remainder")
        accounted = sum(values[f"{layer}.self_s"] for layer in layers)
        assert accounted == pytest.approx(values["traced_wall_s"], rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_reports_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
