"""Run one helistar benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from src/ beside
this directory, never from an installed copy.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no tracing:
set-up time in fresh interpreters, then the workload in a closed loop for
--seconds seconds (census and fabricate finish their last pass or round).
Times are scaled to reference machine speed by a probe timed every 0.2 s
(speed.py); the human-readable lines give the raw figures beside them.
--trace 1 runs a fixed amount of work four times, untraced, traced, traced
and untraced, and prints the per-layer metrics of the traced phases, the
tracing overhead (traced minus untraced wall time) and the share of wall time
named spans cover; the spans go to .bench_work/spans-<workload>-seed<seed>.json.
--smoke shrinks every input for the benchmark's own tests.

The workload runs in this one process with no worker threads (only the set-up
measurement starts interpreters, one at a time); BLAS/OpenMP pools are capped
at the CPUs this process may use. Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# fresh interpreter to ready: import helistar and solve a first band; prints
# its clock (CLOCK_MONOTONIC, shared with the parent) when ready
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import helistar\n"
    "helistar.solve_band(helistar.BandSpec(5, 2))\n"
    "print(repr(time.perf_counter()))\n"
)


def cap_threads() -> int:
    """Cap native thread pools at the usable CPU count; returns the cap."""
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)
    return cap


THREAD_CAP = cap_threads()  # before anything below loads numpy

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import BURST, REFERENCE_PROBE_S  # noqa: E402


def measure_setup(src, repeats: int, speed) -> list[tuple[float, float]]:
    """(start, seconds) from spawning a fresh interpreter to its being ready."""
    samples = []
    for _ in range(repeats):
        speed.sample(BURST)
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append((t0, float(done.stdout.split()[-1]) - t0))
    speed.sample(BURST)
    return samples


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def plural(word: str) -> str:
    return word + ("es" if word.endswith(("s", "ch")) else "s")


def run_units(workload, tally, count: int) -> None:
    for _ in range(count):
        workload.run_unit(tally)


def timed_run(workload, seconds: float, smoke: bool, size):
    """End-to-end metrics: {name: (value, unit, note)} and the tally.

    Times are scaled to reference machine speed (speed.py); the notes give
    the raw figures beside them.
    """
    tally = wl.Tally()
    setup = measure_setup(wl.SRC, size.setup_repeats, tally.speed)
    workload.warm()
    workload.reset()
    tally.speed.sample(BURST)
    start = time.perf_counter()
    with tally.speed.sampling():
        if smoke:
            run_units(workload, tally, workload.fixed_units)
        else:
            while time.perf_counter() - start < seconds:
                workload.run_unit(tally)
    wall = time.perf_counter() - start
    tally.speed.sample(BURST)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    scale = tally.speed.scale
    busy = sum(scale(t0, s) for t0, s, _sample in tally.sections)
    busy_raw = sum(tally.speed.own(t0, s) for t0, s, _sample in tally.sections)
    lat = [scale(t0, s) * 1e3 for t0, s, sample in tally.sections if sample]
    lat_raw = [tally.speed.own(t0, s) * 1e3 for t0, s, sample in tally.sections if sample]
    setup_ref = [scale(t0, s) for t0, s in setup]
    setup_raw = [s for _t0, s in setup]
    n = f"n={len(lat)} {plural(workload.latency_of)}"
    metrics = {
        "items_per_s": (
            tally.passed / busy if busy > 0 else 0.0, "1/s",
            f"{tally.passed} passed {plural(workload.item)} over {busy:.3f} s at reference speed "
            f"(raw {busy_raw:.3f} s, {tally.passed / busy_raw if busy_raw else 0:.4g}/s; "
            f"{wall:.3f} s wall)"),
        "latency_p50_ms": (statistics.median(lat), "ms",
                           f"{n}; raw {statistics.median(lat_raw):.4g} ms"),
        "latency_p90_ms": (percentile(lat, 90), "ms", f"{n}; raw {percentile(lat_raw, 90):.4g} ms"),
        "peak_rss_mb": (rss_mb, "MB", "peak RSS of this process"),
        "setup_s": (statistics.median(setup_ref), "s",
                    f"median of n={len(setup)} fresh interpreters; raw "
                    + " ".join(f"{s:.4f}" for s in setup_raw)),
    }
    return metrics, tally


def traced_run(helistar, workload, seed: int):
    """Per-layer metrics from traced phases, each paired with an untraced one.

    Phases run untraced, traced, traced, untraced on identical work, so a
    linear drift in machine speed cancels out of the overhead estimate, which
    compares phase times scaled to reference speed. Busy times are raw.
    """
    workload.warm()
    tally = wl.Tally()
    walls: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    phases = []
    tally.speed.sample(BURST)
    for traced in (False, True, True, False):
        workload.reset()
        tracer = spans.Tracer() if traced else None
        t0 = time.perf_counter()
        with tally.speed.sampling():
            if traced:
                with tracer.installed(helistar):
                    run_units(workload, tally, workload.fixed_units)
            else:
                run_units(workload, tally, workload.fixed_units)
        wall = time.perf_counter() - t0
        walls[traced].append((t0, wall))
        if traced:
            phases.append((tracer, t0, tally.speed.own(t0, wall)))
    tally.speed.sample(BURST)
    scaled = {k: [tally.speed.scale(t0, s) for t0, s in v] for k, v in walls.items()}
    overhead = (sum(scaled[True]) - sum(scaled[False])) / len(scaled[True])

    wl.WORK_DIR.mkdir(exist_ok=True)
    span_file = wl.WORK_DIR / f"spans-{workload.name}-seed{seed}.json"
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "untraced_wall_s": [w for _t0, w in walls[False]],
                   "traced_wall_s": [w for _t0, w in walls[True]],
                   "phases": [tracer.as_dict(t0) for tracer, t0, _wall in phases]}, fh)

    per_phase = [spans.layer_metrics(tracer, wall, overhead, tally.speed.own)
                 for tracer, _t0, wall in phases]
    units = workload.unit if workload.fixed_units == 1 else plural(workload.unit)
    work = f"{workload.fixed_units} {units}"
    metrics = {}
    for name, (value, unit) in per_phase[0].items():
        values = [m[name][0] for m in per_phase]
        mean = value if len(set(values)) == 1 else sum(values) / len(values)
        metrics[name] = (mean, unit, f"mean of {len(values)} traced phases of {work}")
    return metrics, tally, span_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, one unit of work")
    args = parser.parse_args(argv)

    try:
        helistar = wl.load_program()
    except wl.ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    size = wl.SMOKE if args.smoke else wl.FULL
    workload = wl.WORKLOADS[args.workload](helistar, size, args.seed)
    span_file = None
    try:
        if args.trace:
            metrics, tally, span_file = traced_run(helistar, workload, args.seed)
        else:
            metrics, tally = timed_run(workload, args.seconds, args.smoke, size)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    print(f"# helistar benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={size.key} "
          f"thread_cap={THREAD_CAP} python={platform.python_version()}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name:34s} {value:>14.6g} {unit:11s} {note}")
    print(f"# speed probe: median {tally.speed.median_probe_s() * 1e3:.4f} ms over "
          f"{len(tally.speed.times)} probes (reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# failed_ratio {tally.failed}/{tally.attempted} {plural(workload.item)} = {ratio:.6g}")
    if span_file is not None:
        print(f"# spans written to {span_file.relative_to(wl.ROOT)}")
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _note) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
