"""The benchmark's three workloads, their inputs and their output checks.

census      the paper's headline product: every band of 5..24 strips with
            compounds solved and classified once, then written as catalog
            JSON and CSV and summarized in the breakdown report. Drives
            closure_solver, analysis and catalog; realization and export idle.
fabricate   the maker's path: every branch of 5..12 (with compounds) solved
            once per round, then in seed-shuffled order realized at a long
            window, checked with verify_uniform and exported as OBJ faces,
            OBJ frame, net SVG and module sheet. Drives realization and
            export; analysis idles.
cli_session one client in a closed loop of in-process `helistar.cli.main`
            calls, in seeded shuffles of every command over the (band,
            branch) pairs of 5..12, so with repeats. Each command solves its band again, so this is the
            only workload that re-solves the same small bands; a solve cache
            would show here and not in census.

Every output is compared with the reference recorded from the seed program
(bench/reference/, regenerated by record_reference.py): discrete fields
exactly, reals within REAL_TOL, export bytes by SHA-256. An item whose check
fails counts as failed and is left out of items_per_s.

The program is called through module attributes (helistar.catalog.X, not
names bound at import) so that the traced run can wrap them in spans.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_work"

REAL_TOL = 1e-12

# catalog entry fields, in the program's serialized order, by kind
ENTRY_FIELDS = [
    "name", "n_strips", "shift", "branch_index", "winding_m",
    "theta", "r", "h", "residual", "intersecting", "vertex_figure",
    "components", "chirality_note",
]
REAL_FIELDS = {"theta", "r", "h", "residual"}
INT_FIELDS = {"n_strips", "shift", "branch_index", "winding_m", "components"}
BOOL_FIELDS = {"intersecting"}

VERDICT_KEYS = ["vertex_count", "interior_count", "face_count", "bad_interior_edges", "passed"]
OBJECT_OUTPUTS = ["obj", "frame", "net", "modules"]
CLI_KINDS = ["solve", "generate", "verify", "net", "modules"]
CLI_FILES = {"generate": "mesh.obj", "net": "net.svg", "modules": "modules.svg"}


class ProgramMissing(RuntimeError):
    """src/helistar is not beside the benchmark."""


def load_program():
    """Import helistar from this checkout's src/ and nowhere else."""
    init = SRC / "helistar" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import helistar
    import helistar.cli  # not imported by the package itself

    if Path(helistar.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"helistar was imported from {helistar.__file__}, not {init}")
    return helistar


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, SMOKE the benchmark's own tests."""

    key: str
    census_range: tuple[int, int]
    max_n: int            # fabricate and cli_session bands have 5..max_n strips
    periods: int          # fabricate window length
    fixed_commands: int   # cli_session commands per traced or smoke phase
    setup_repeats: int


FULL = Size("full", (5, 24), 12, 24, 300, 5)
SMOKE = Size("smoke", (5, 8), 6, 3, 12, 1)


@dataclass
class Tally:
    """Items attempted and failed, timed program sections, speed probes.

    A section is (start, seconds, is a latency sample); speed holds the
    machine-speed probes taken while the sections ran (speed.py).
    """

    attempted: int = 0
    failed: int = 0
    sections: list[tuple[float, float, bool]] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)

    def timed(self, start: float, seconds: float, sample: bool = True) -> None:
        self.sections.append((start, seconds, sample))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def item(self, start: float, seconds: float, ok: bool) -> None:
        self.timed(start, seconds)
        self.count(1, not ok)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def same_value(a, b) -> bool:
    """Reals within REAL_TOL, containers element-wise, everything else exact."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        try:
            return abs(float(a) - float(b)) <= REAL_TOL
        except (TypeError, ValueError):
            return False
    return a == b


def _report_error(what: str) -> None:
    print(f"benchmark: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --------------------------------------------------------------------- census

def census_outputs(helistar, lo: int, hi: int):
    """One catalog pass; returns (entries, catalog JSON, CSV, report, text)."""
    cat = helistar.catalog
    json_sink, csv_sink = io.StringIO(), io.StringIO()
    entries = cat.enumerate_catalog(lo, hi, include_compounds=True)
    cat.write_catalog(entries, json_sink, {"n_min": lo, "n_max": hi, "include_compounds": True})
    cat.write_catalog_csv(entries, csv_sink)
    report = cat.build_report(entries)
    text = cat.format_report(report)
    return entries, json_sink.getvalue(), csv_sink.getvalue(), report, text


def _csv_value(name: str, raw: str):
    if name in REAL_FIELDS:
        return float(raw)
    if name in INT_FIELDS:
        return int(raw)
    if name in BOOL_FIELDS:
        return {"true": True, "false": False}[raw]
    return raw


def catalog_views(entries, json_text: str, csv_text: str):
    """The entries as value rows three ways: in memory, from JSON, from CSV."""
    yield "entries", lambda: [[getattr(e, f) for f in ENTRY_FIELDS] for e in entries]
    yield "json", lambda: [[d[f] for f in ENTRY_FIELDS] for d in json.loads(json_text)["entries"]]

    def from_csv():
        rows = list(csv.reader(io.StringIO(csv_text)))
        if rows[0] != ENTRY_FIELDS:
            raise ValueError(f"CSV header {rows[0]}")
        return [[_csv_value(f, v) for f, v in zip(ENTRY_FIELDS, r, strict=True)] for r in rows[1:]]

    yield "csv", from_csv


def _entry_key(row) -> tuple:
    return (row[1], row[2], row[3])  # n_strips, shift, branch_index


def census_failures(reference: dict, entries, json_text, csv_text, report: dict, text: str):
    """(attempted, failed) branches of one pass against the reference.

    A branch fails when its entry differs in memory, in the JSON or in the
    CSV, when it is missing or listed twice, or when its report row differs;
    a branch that the reference lacks is extra and fails too. A report total
    or report text that differs fails every branch of the pass.
    """
    ref = {_entry_key(row): row for row in reference["entries"]}
    bad: set = set()
    extra: set = set()
    for view, rows in catalog_views(entries, json_text, csv_text):
        try:
            got_rows = rows()
        except Exception:
            _report_error(f"reading the catalog {view}")
            bad.update(ref)
            continue
        got: dict = {}
        for row in got_rows:
            key = _entry_key(row)
            if key not in ref:
                extra.add(key)
            elif key in got:  # listed twice
                bad.add(key)
            got[key] = row
        for key, want in ref.items():
            row = got.get(key)
            if row is None or not all(same_value(x, y) for x, y in zip(row, want, strict=True)):
                bad.add(key)

    want_report = reference["report"]
    report = json.loads(json.dumps(report))
    want_rows = {(r["n"], r["s"]): r for r in want_report["rows"]}
    got_rows = {(r["n"], r["s"]): r for r in report.get("rows", [])}
    for key in ref:
        if got_rows.get(key[:2]) != want_rows[key[:2]]:
            bad.add(key)
    others_differ = any(report.get(k) != v for k, v in want_report.items() if k != "rows")
    if others_differ or report.keys() != want_report.keys() or text != reference["report_text"]:
        bad.update(ref)
    return len(ref) + len(extra), len(bad) + len(extra)


class Census:
    name = "census"
    item = "branch"
    unit = "pass"
    latency_of = "pass"  # the census is one product: its latency is the pass

    def __init__(self, helistar, size: Size, seed: int) -> None:
        # the paper range is fixed by definition; the seed has nothing to vary
        self.helistar = helistar
        self.range = size.census_range
        self.reference = load_reference("census")[size.key]
        self.fixed_units = 1

    def reset(self) -> None:
        pass

    def warm(self) -> None:
        self.helistar.catalog.enumerate_catalog(5, 6, include_compounds=True)

    def run_unit(self, tally: Tally) -> None:
        """One pass; its latency is the whole pass, its items its branches."""
        t0 = time.perf_counter()
        try:
            outputs = census_outputs(self.helistar, *self.range)
        except Exception:
            _report_error("the census pass")
            outputs = None
        tally.timed(t0, time.perf_counter() - t0)
        if outputs is None:
            n = len(self.reference["entries"])
            tally.count(n, n)
        else:
            entries, json_text, csv_text, report, text = outputs
            tally.count(*census_failures(
                self.reference, entries, json_text, csv_text, report.as_dict(), text))


# ------------------------------------------------------------------ fabricate

def bands(max_n: int) -> list[tuple[int, int]]:
    """Mirror-half bands with 5..max_n strips, compounds included."""
    return [(n, s) for n in range(5, max_n + 1) for s in range(1, n // 2 + 1)]


def branch_key(solution) -> str:
    return f"{solution.band.n_strips},{solution.band.shift},{solution.branch_index}"


def make_object(helistar, solution, periods: int):
    """Realize, verify and export one branch; returns the raw outputs."""
    real, exp = helistar.realization, helistar.export
    segment = real.realize(solution, periods)
    report = real.verify_uniform(segment, solution.offsets)
    sinks = [io.StringIO() for _ in OBJECT_OUTPUTS]
    exp.export_obj(segment, sinks[0])
    exp.export_obj(segment, sinks[1], frame=True)
    exp.export_net_svg(exp.unfold_net(solution), sinks[2])
    exp.export_modules_svg(solution, exp.ModuleOptions(), sinks[3])
    return report, sinks


def object_record(report, sinks) -> dict:
    """What the reference keeps of one object: verify verdict, export digests."""
    d = report.as_dict()
    record = {"verdict": {k: d[k] for k in VERDICT_KEYS}}
    record.update({name: sha256(s.getvalue()) for name, s in zip(OBJECT_OUTPUTS, sinks)})
    return record


class Fabricate:
    name = "fabricate"
    item = "object"
    unit = "round"
    latency_of = "object"

    def __init__(self, helistar, size: Size, seed: int) -> None:
        self.helistar = helistar
        self.seed = seed
        self.bands = bands(size.max_n)
        self.periods = size.periods
        self.reference = load_reference("fabricate")[size.key]["objects"]
        self.fixed_units = 1
        self.reset()

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def warm(self) -> None:
        sol = self.helistar.closure_solver.solve_band(self.helistar.BandSpec(5, 2))[0]
        make_object(self.helistar, sol, self.periods)

    def solve_all(self) -> list:
        solve_band, band_spec = self.helistar.closure_solver.solve_band, self.helistar.BandSpec
        out = []
        for n, s in self.bands:
            out.extend(solve_band(band_spec(n, s)))
        return out

    def run_unit(self, tally: Tally) -> None:
        """One round: solve every band, then make every branch's object."""
        t0 = time.perf_counter()
        try:
            solutions = self.solve_all()
        except Exception:
            _report_error("solving the fabricate bands")
            solutions = []
        tally.timed(t0, time.perf_counter() - t0, sample=False)

        by_key: dict = {}
        for sol in solutions:
            key = branch_key(sol)
            if key in by_key or key not in self.reference:
                tally.count(1, 1)  # an extra branch
            else:
                by_key[key] = sol
        missing = len(self.reference) - len(by_key)
        tally.count(missing, missing)

        order = sorted(by_key)
        self.rng.shuffle(order)
        for key in order:
            t0 = time.perf_counter()
            try:
                report, sinks = make_object(self.helistar, by_key[key], self.periods)
            except Exception:
                _report_error(f"making object {key}")
                report = None
            elapsed = time.perf_counter() - t0
            ok = report is not None and object_record(report, sinks) == self.reference[key]
            tally.item(t0, elapsed, ok)


# ---------------------------------------------------------------- cli_session

def cli_argv(kind: str, n: int, s: int, b: int, out_dir: Path) -> list[str]:
    argv = [kind, "--strips", str(n), "--shift", str(s)]
    if kind != "solve":
        argv += ["--branch", str(b)]
    if kind in CLI_FILES:
        argv += ["--out", str(out_dir / CLI_FILES[kind])]
    else:
        argv.append("--json")
    return argv


def cli_key(kind: str, n: int, s: int, b: int) -> str:
    return f"solve {n} {s}" if kind == "solve" else f"{kind} {n} {s} {b}"


def run_command(helistar, kind: str, n: int, s: int, b: int, out_dir: Path):
    """One in-process CLI call; returns (start, seconds, observed record)."""
    target = out_dir / CLI_FILES[kind] if kind in CLI_FILES else None
    if target is not None and target.exists():
        target.unlink()  # a command that writes nothing must not pass on a stale file
    argv = cli_argv(kind, n, s, b, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = helistar.cli.main(argv)
    except Exception:
        _report_error(f"helistar {' '.join(argv)}")
        code = None
    elapsed = time.perf_counter() - t0

    observed: dict = {"exit": code}
    if target is not None:
        observed["file"] = sha256(target.read_bytes()) if target.exists() else None
    else:
        try:
            observed["stdout"] = json.loads(stdout.getvalue())
        except json.JSONDecodeError:
            observed["stdout"] = None
    return t0, elapsed, observed


class CliSession:
    name = "cli_session"
    item = "command"
    unit = "command"
    latency_of = "command"

    def __init__(self, helistar, size: Size, seed: int) -> None:
        self.helistar = helistar
        self.seed = seed
        reference = load_reference("cli_session")
        self.pairs = [tuple(p) for p in reference["pairs"] if p[0] <= size.max_n]
        self.reference = reference["commands"]
        self.fixed_units = size.fixed_commands
        WORK_DIR.mkdir(exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
        self.reset()

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def reset(self) -> None:
        self.rng = random.Random(self.seed)
        self.queue: list = []

    def warm(self) -> None:
        n, s, b = self.pairs[0]
        for kind in CLI_KINDS:
            run_command(self.helistar, kind, n, s, b, self.out_dir)

    def run_unit(self, tally: Tally) -> None:
        """The next command of the seeded stream.

        The stream is a sequence of seeded shuffles of every (command, pair),
        so a run repeats commands (and re-solves bands) but holds the same mix
        whatever the seed, up to its last, partial shuffle.
        """
        if not self.queue:
            self.queue = [(kind, pair) for pair in self.pairs for kind in CLI_KINDS]
            self.rng.shuffle(self.queue)
        kind, (n, s, b) = self.queue.pop()
        t0, elapsed, observed = run_command(self.helistar, kind, n, s, b, self.out_dir)
        tally.item(t0, elapsed, same_value(observed, self.reference[cli_key(kind, n, s, b)]))


WORKLOADS = {w.name: w for w in (Census, Fabricate, CliSession)}
