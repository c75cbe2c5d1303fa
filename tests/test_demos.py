"""Every script under demos/ and every Python example in README.md runs to completion against the current API."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
PROGRAMS = [pytest.param(path.read_text(encoding="utf-8"), str(path), id=path.stem) for path in DEMOS] + [
    pytest.param(code, "README.md", id=f"README-{i}") for i, code in enumerate(README_EXAMPLES, 1)]


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert README_EXAMPLES


@pytest.mark.parametrize("source, filename", PROGRAMS)
def test_demo_runs(source, filename, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write their outputs to the working directory
    exec(compile(source, filename, "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
