"""Importing the package and its CLI stays free of modules it does not need at import time."""

import os
import subprocess
import sys
from pathlib import Path

import cascadekit


def test_import_does_not_load_scipy_integrate():
    src = str(Path(cascadekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cascadekit, cascadekit.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "False"
