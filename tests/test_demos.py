"""Every demo script runs to completion and prints its recorded output.

Each demo's stdout is pinned in tests/data/demos/<demo>.txt, with the
directory the demo ran from written as <demo dir>. To re-record a demo whose
output changes on purpose, run this test's steps and write that text to the
file.
"""

import runpy
import shutil
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in (HERE / "data/demos").glob("*.txt")) == [d.stem for d in DEMOS]


def demo_output(demo: Path, where: Path, capsys) -> str:
    """stdout of a copy of demo run in where, so its output/ directory lands there."""
    copy = where / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    return capsys.readouterr().out.replace(str(where), "<demo dir>")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    assert demo_output(demo, tmp_path, capsys) == (HERE / "data/demos" / f"{demo.stem}.txt").read_text()
