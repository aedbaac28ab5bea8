"""Smoke test: every script under demos/ runs to the end and prints."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.stem for p in DEMOS] == ["chaining_and_entropy", "complexity_basics",
                                       "composition_ratio", "function_class_oracles",
                                       "tail_bounds"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # Run from an empty directory that is also the temporary-file root: a
    # demo prints, and leaves no file behind, temporary ones included.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert list(tmp_path.iterdir()) == []
