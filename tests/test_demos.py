"""Every demo script runs as a script and prints its recorded output.

Each demo's stdout is pinned in tests/data/demos/<demo>.txt, with the
directory the demo ran from written as <demo dir>, and
test_fingerprint.py::test_pin runs each demo in process and compares its stdout
with that file. test_demo_runs runs each one as a user does, `python <demo>.py`
in a process of its own with warnings as errors, and checks what the in-process
run cannot: the exit code, an empty stderr, and that every file the demo writes
lands in its output/ directory. The transcripts are pins: when a demo's output
changes on purpose, re-record them, with every other pin, by running
python tests/fingerprint.py pins.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import helistar
from fingerprint import DATA, DEMOS


def test_all_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in (DATA / "demos").glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    package_root = str(Path(helistar.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as where:
        copy = Path(where) / demo.name
        shutil.copy(demo, copy)
        run = subprocess.run(
            [sys.executable, "-W", "error", str(copy)], cwd=where, env=env, capture_output=True, text=True, timeout=120
        )
        written = [p.relative_to(where) for p in Path(where).rglob("*") if p.is_file() and p != copy]
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.replace(where, "<demo dir>") == (DATA / "demos" / f"{demo.stem}.txt").read_text()
    assert all(p.parts[0] == "output" for p in written), written
