"""scripts/bench_pairs.py: alternating pairs of benchmark runs on two checkouts, and its summary.

One test replaces the benchmark run with a stub to check the order of the
runs and the counts; one runs a toy pair of the real benchmark in two
copies of this checkout, so nothing is written under perfbench/ here.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


def test_pairs_alternate_the_side_that_runs_first_and_count_the_pairs_the_change_wins(monkeypatch, capsys):
    module = load_script()
    runs = []

    def run(checkout, workload, seed, seconds, scale):
        runs.append((checkout, seed))
        wall = 2.0 if (checkout, seed) == ("change", 13) else seed / 10 - (checkout == "change") * 0.1
        return {"correct": True, "attempted": 6, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 80.0, "unit": "MB"}}}

    monkeypatch.setattr(module, "run", run)
    assert module.main(["parent", "change", "--workload", "cli_files", "--seeds", "11-13"]) == 0
    assert runs == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12), ("parent", 13), ("change", 13)]
    summary = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "1.2 [1.1-1.3]" in summary["wall_s"] and "1.1 [1-2]" in summary["wall_s"]
    assert summary["wall_s"].endswith("2 of 3")
    assert summary["peak_rss_mb"].endswith("0 of 3")  # ties count for neither side


def test_each_metric_gets_a_verdict_from_its_pairs_and_its_bound(monkeypatch, capsys):
    module = load_script()
    sides = {  # each metric's value at a seed, on each side; bounds from BENCHMARK.json
        "parent": {
            "wall_s": lambda s: 1 + s / 100,
            "setup_s": lambda s: 1 + s / 100,
            "peak_rss_mb": lambda s: 100.0,
            "cascades_per_s": lambda s: 400 + s,
            "sharers_per_s": lambda s: 100 * s,
            "tree_nodes_per_s": lambda s: 100 if s <= 5 else 500,
        },
        "change": {
            "wall_s": lambda s: 1 + s / 100 + (0.1 if s == 10 else -0.2),  # 9 of 10 pairs and the medians far apart
            "setup_s": lambda s: 1 + s / 100 + (0.01 if s >= 9 else -0.2),  # 8 of 10 pairs: no gain
            "peak_rss_mb": lambda s: 115.0,  # 15% worse, bound 10%
            "cascades_per_s": lambda s: 400 + s,
            "sharers_per_s": lambda s: 100 * (11 - s),  # the parent's quartiles lie a whole median apart
            "tree_nodes_per_s": lambda s: 501,  # the same spread, but every run reads better than the parent's
        },
    }

    def run(checkout, workload, seed, seconds, scale):
        metrics = {name: {"value": value(seed)} for name, value in sides[checkout].items()}
        return {"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(module, "run", run)
    assert module.main(["parent", "change", "--workload", "cli_files", "--seeds", "1-10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = dict(line.removeprefix("verdict ").split(": ") for line in lines if line.startswith("verdict "))
    assert verdicts == {"wall_s": "gain", "setup_s": "within bound", "peak_rss_mb": "worse",
                        "cascades_per_s": "within bound", "sharers_per_s": "unresolved",
                        "tree_nodes_per_s": "within bound"}


def test_a_gain_needs_ten_pairs_and_fewer_name_the_shortfall(monkeypatch, capsys):
    module = load_script()

    def run(checkout, workload, seed, seconds, scale):
        wall = 1 + seed / 100 - (checkout == "change") * 0.5  # every pair won, the medians far apart
        return {"correct": True, "attempted": 6, "failed": 0, "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(module, "run", run)
    verdicts = []
    for seeds in ("1-5", "1-10"):
        assert module.main(["parent", "change", "--workload", "cli_files", "--seeds", seeds]) == 0
        verdicts += [line for line in capsys.readouterr().out.splitlines() if line.startswith("verdict ")]
    assert verdicts == ["verdict wall_s: too few pairs for a gain (5 of 10)", "verdict wall_s: gain"]


def test_a_run_without_a_correct_result_fails_the_script(monkeypatch):
    module = load_script()
    monkeypatch.setattr(module, "run", lambda checkout, *args: None)
    assert module.main(["parent", "change", "--workload", "cli_files", "--seeds", "1"]) == 1


def test_a_toy_pair_runs_the_benchmark_unchanged_in_both_checkouts(tmp_path):
    sides = [tmp_path / "parent", tmp_path / "change"]
    for side in sides:
        shutil.copytree(ROOT / "src", side / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "perfbench", side / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "-B", str(SCRIPT), *map(str, sides), "--workload", "sweep_grid",
                           "--seeds", "1", "--seconds", "0.05", "--scale", "toy"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 1 parent", "seed 1 change"]
    assert any(line.startswith("wall_s ") and line.endswith(" of 1") for line in lines)
