"""Importing the package and its CLI stays free of modules it does not need at import time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cascadekit


def loaded_by_import(*packages: str, then: str = "pass") -> list[str]:
    """The modules of the given top-level packages that `import cascadekit, cascadekit.cli` loads, in a fresh
    process, with the statement `then` run after the import."""
    src = str(Path(cascadekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import json, sys, cascadekit, cascadekit.cli; {then}; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return json.loads(result.stdout)


def test_import_does_not_load_scipy():
    # scipy takes most of a second to import; stats imports it on first use.
    assert loaded_by_import("scipy") == []


def test_import_does_not_load_the_pool_modules():
    # They take about 20 ms to import; harness._task_map imports them when a sweep starts.
    assert loaded_by_import("multiprocessing", "concurrent") == []


def test_a_sweep_does_not_load_numpy_ma():
    # numpy.ma takes about 16 ms and 1.2 MB to import; no sweep task reads it, so nothing imports it before the fork.
    sweep = ("cascadekit.run_sweep(cascadekit.SweepConfig(n=30, m=4, z=4, master_seed=1, deltas=(0.1,), phis=(0.6,), "
             "rs=(0.1, 0.5), iterations=1, first_sharers=cascadekit.FittedDistribution.poisson(2.0)))")
    assert "numpy.ma" not in loaded_by_import("numpy", then=sweep)


PUBLIC = {  # every name `from cascadekit import *` gives, submodules included
    "AnalysisResult", "BatchStats", "CascadeOutcome", "CascadekitError", "DegenerateSampleError", "FirstSharerFit",
    "FittedDistribution", "Forest", "KSTestResult", "NewsItem", "OrphanParentError", "ParameterError", "PowerLawFit",
    "SharingTree", "SigmaRangeError", "SignedGraph", "SummaryStats", "SupercriticalError", "SweepConfig",
    "SweepResult", "TimestampOrderError", "TreeCycleError", "TreeSchemaError", "TreeValidationError",
    "UndefinedMetricError", "WaldTestResult", "analyze", "branching", "branching_ratio", "diffuse", "diffusion",
    "empirical_ccdf", "empirical_cdf", "empirical_pdf", "errors", "expected_cascade_size", "files",
    "first_sharer_table", "fit_first_sharers", "fit_power_law", "generate_small_world", "graph", "graph_from_dict",
    "graph_to_dict", "harness", "heterogeneous_branching", "kolmogorov_critical", "ks_two_sample", "label_edges",
    "lifetime", "load_config", "load_graph", "load_trees", "mean_edge_homogeneity", "mean_share_probability",
    "metrics_rows", "run_batch", "run_sweep", "sample_inverse_gaussian", "sample_news", "save_config", "save_graph",
    "save_trees", "stats", "summary_stats", "tree_from_dict", "tree_height", "tree_size", "tree_to_dict", "trees",
    "troll_fit_config", "wald_test", "write_analysis", "write_sweep_csv",
}


def test_the_public_surface_is_exactly_the_listed_names():
    # An export is added or removed only by editing this set as well.
    assert set(cascadekit.__all__) == PUBLIC and len(cascadekit.__all__) == len(PUBLIC)
