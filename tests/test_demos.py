"""Every demo script runs to completion and prints its recorded output.

Each demo's stdout is pinned in tests/data/demos/<demo>.txt, with the
directory the demo ran from written as <demo dir>. The transcripts are pins:
when a demo's output changes on purpose, re-record them, with every other pin,
by running python tests/fingerprint.py pins.
"""

import pytest

from fingerprint import DATA, DEMOS, demo_transcript


def test_all_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in (DATA / "demos").glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    assert demo_transcript(demo) == (DATA / "demos" / f"{demo.stem}.txt").read_text()
