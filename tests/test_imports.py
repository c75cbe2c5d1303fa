"""Importing the package and its CLI stays free of modules it does not need at import time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cascadekit


def loaded_by_import(*packages: str) -> list[str]:
    """The modules of the given top-level packages that `import cascadekit, cascadekit.cli` loads, in a fresh process."""
    src = str(Path(cascadekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys, cascadekit, cascadekit.cli; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return json.loads(result.stdout)


def test_import_does_not_load_scipy():
    # scipy takes most of a second to import; stats imports it on first use.
    assert loaded_by_import("scipy") == []


def test_import_does_not_load_the_pool_modules():
    # They take about 20 ms to import; harness._task_map imports them when a sweep starts.
    assert loaded_by_import("multiprocessing", "concurrent") == []
