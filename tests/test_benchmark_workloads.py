"""Each workload of perfbench/workloads.py runs once at toy scale, in this process, and passes its own check.

The workloads call cascadekit by the names and keywords the benchmark uses
(SweepConfig fields, run_batch, NewsItem, tree_height, analyze, cli.main),
so a change to one of them fails here rather than only in a benchmark run.
The module is loaded without writing bytecode, so nothing is written under
perfbench/.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cascadekit import branching, cli, diffusion, graph, harness, stats, trees

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        del sys.modules[spec.name]
    return module


WORKLOADS = load_workloads().WORKLOADS
CK = {"graph": graph, "diffusion": diffusion, "trees": trees, "stats": stats,
      "branching": branching, "harness": harness, "cli": cli}


def no_span(name):
    return contextlib.nullcontext()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_toy_scale_and_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name](CK, 3, toy=True, workdir=str(tmp_path))
    outcome = workload.check(workload.run(no_span), 0)
    assert outcome.failures == [] and outcome.failed_ops == 0
    assert outcome.ops >= 1 and outcome.cascades >= 1
