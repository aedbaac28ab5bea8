"""Smoke test: every script under demos/ runs to the end and prints."""

import runpy
from pathlib import Path

import pytest

import berncomp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.stem for p in DEMOS] == ["chaining_and_entropy", "complexity_basics",
                                       "composition_ratio", "function_class_oracles",
                                       "tail_bounds"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # Run from an empty directory, and send the one file a demo writes
    # (the chaining demo's serialized sequence) there as well.
    monkeypatch.chdir(tmp_path)
    write_sequence = berncomp.sequence_to_text
    monkeypatch.setattr(berncomp, "sequence_to_text",
                        lambda seq, path: write_sequence(seq, tmp_path / Path(path).name))
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["sequence_demo.txt"] if demo.stem == "chaining_and_entropy" else [])
