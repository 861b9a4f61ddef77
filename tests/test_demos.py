"""Every demo script runs to completion against the current package."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    # run a copy so the demo's output/ directory lands under tmp_path
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out
