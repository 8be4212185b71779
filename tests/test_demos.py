"""Smoke test: every demo script runs to completion against the package.

Each demo is executed in-process with ``runpy.run_path``; its standard
output is captured, and files it writes go to a per-test temporary
directory, which must be empty again once the demo returns.
"""

import contextlib
import io
import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
