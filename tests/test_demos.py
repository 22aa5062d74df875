"""Smoke test: every narrative demo runs to the end.

The demos run in-process (an interpreter start per demo would dominate the
time). Demo 08 is the full case study, which ``test_end_to_end_case_study``
already runs.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-7]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 07 writes reports/ under the cwd
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
