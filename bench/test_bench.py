"""Tests of the benchmark itself, on the reduced (smoke) inputs.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads as wl
from speed import REFERENCE_PROBE_S, WINDOW_S, Speed

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def helistar():
    return wl.load_program()


def run_smoke(helistar, name: str, seed: int = 1) -> wl.Tally:
    workload = wl.WORKLOADS[name](helistar, wl.SMOKE, seed)
    tally = wl.Tally()
    try:
        for _ in range(workload.fixed_units):
            workload.run_unit(tally)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    return tally


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_program_matches_reference(helistar, name):
    tally = run_smoke(helistar, name)
    assert tally.attempted > 0
    assert tally.failed == 0


@pytest.mark.parametrize("shift, failed", [(1e-14, 0), (1e-9, 1)])
def test_census_counts_an_entry_off_by_more_than_the_tolerance(
        helistar, monkeypatch, shift, failed):
    original = helistar.catalog.enumerate_catalog

    def nudged(*args, **kwargs):
        entries = original(*args, **kwargs)
        entries[3].theta += shift
        return entries

    monkeypatch.setattr(helistar.catalog, "enumerate_catalog", nudged)
    assert run_smoke(helistar, "census").failed == failed


def test_census_counts_a_flipped_verdict(helistar, monkeypatch):
    original = helistar.catalog.enumerate_catalog

    def flipped(*args, **kwargs):
        entries = original(*args, **kwargs)
        entries[3].intersecting = not entries[3].intersecting
        return entries

    monkeypatch.setattr(helistar.catalog, "enumerate_catalog", flipped)
    tally = run_smoke(helistar, "census")
    # the flip also changes the report's tallies, which every branch shares
    assert tally.failed == tally.attempted > 0


def test_fabricate_counts_one_altered_export_byte(helistar, monkeypatch):
    original = helistar.export.export_obj
    calls = []

    def altered(segment, sink, *args, **kwargs):
        calls.append(segment)
        if len(calls) != 3:
            return original(segment, sink, *args, **kwargs)
        buf = io.StringIO()
        original(segment, buf, *args, **kwargs)
        text = buf.getvalue()
        sink.write(text[:5] + ("7" if text[5] != "7" else "8") + text[6:])

    monkeypatch.setattr(helistar.export, "export_obj", altered)
    tally = run_smoke(helistar, "fabricate")
    assert tally.failed == 1
    assert tally.attempted == len(wl.load_reference("fabricate")["smoke"]["objects"])


def test_cli_session_counts_a_nonzero_exit(helistar, monkeypatch):
    original = helistar.cli.main
    calls = []

    def second_fails(argv):
        calls.append(argv)
        return 1 if len(calls) == 2 else original(argv)

    monkeypatch.setattr(helistar.cli, "main", second_fails)
    tally = run_smoke(helistar, "cli_session")
    assert tally.failed == 1
    assert tally.attempted == wl.SMOKE.fixed_commands


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 6] > grandchild [2, 3]; second child [7, 9]
    recorded = [["a.root", -1, 0.0, 10.0], ["b.child", 0, 1.0, 6.0],
                ["c.grand", 1, 2.0, 3.0], ["b.child", 0, 7.0, 9.0]]
    assert spans.self_times(recorded, spans.durations(recorded)) == [3.0, 4.0, 1.0, 2.0]


def test_speed_takes_out_inner_probes_and_scales_by_nearby_ones():
    speed = Speed()
    # probes at t = 0, 5, 6 and 50 s; the ones at 5 and 6 s are near [5, 7]
    speed.starts = [0.0, 5.0, 6.0, 50.0]
    speed.times = [1.0, 2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 9.0]
    assert WINDOW_S < 5.0
    assert speed.own(5.0, 2.0) == 2.0 - 4 * REFERENCE_PROBE_S
    assert speed.scale(5.0, 2.0) == (2.0 - 4 * REFERENCE_PROBE_S) / 2
    assert speed.factor(20.0, 1.0) == 0.5  # none near: the nearest, at 6 s
    assert speed.factor(40.0, 1.0) == REFERENCE_PROBE_S / 9.0  # the nearest, at 50 s


def test_tracer_restores_the_program(helistar):
    before = {(m, a): getattr(getattr(helistar, m), a) for m, a, _n, _c in spans.PATCHES}
    tracer = spans.Tracer()
    with tracer.installed(helistar):
        helistar.closure_solver.solve_band(helistar.BandSpec(5, 2))
        assert helistar.cli.main is not before[("cli", "main")]
    assert {k: getattr(getattr(helistar, k[0]), k[1]) for k in before} == before
    assert [s[0] for s in tracer.spans] == ["closure_solver.solve_band"]
    assert tracer.counters["branches"] == 2


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_metric(trace, section):
    done = run_bench(["--workload", "cli_session", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke"], wl.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[section]
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(
        ["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
