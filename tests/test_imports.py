"""Importing the package and its CLI stays free of modules it does not need at import time."""

import os
import subprocess
import sys
from pathlib import Path

import cascadekit


def test_import_does_not_load_scipy():
    # scipy takes most of a second to import; stats imports it on first use.
    src = str(Path(cascadekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cascadekit, cascadekit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"
