"""Smoke test: every demo script, and every ``python`` block of README.md,
runs to completion against the package.

Each demo is executed in-process with ``runpy.run_path``; its standard
output is captured, and files it writes go to a per-test temporary
directory, which must be empty again once the demo returns.  The README
blocks run in order in one namespace, as a reader would paste them.
"""

import contextlib
import io
import pathlib
import re
import runpy
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    assert list(tmp_path.iterdir()) == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__main__"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().strip()
    assert list(tmp_path.iterdir()) == []
