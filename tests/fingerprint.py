"""Every bit pin of the package's output, and the branch fingerprint they start from.

    PYTHONPATH=src python tests/fingerprint.py record --min 3 --max 64 > new.txt
    PYTHONPATH=src python tests/fingerprint.py digest new.txt
    PYTHONPATH=src python tests/fingerprint.py diff old.txt new.txt
    PYTHONPATH=src python tests/fingerprint.py pins

A record has one line per branch of every band (n, s), n in [min, max] and
1 <= s <= n/2, compounds included, all solved in one solve_band call and
classified in one classify call. Each line is key=value fields: the discrete
ones (n, s, branch, m, intersecting, witness, figure) as text, the real ones
(theta, r, h, residual, the three dihedrals and the 18 coordinates of the
vertex-figure polygon) by float.hex, so equal records mean equal bits. Only
the package's public API is used, so a fault in the package cannot hide in
its own record.

pins recomputes every pin (pin_values) and writes it to tests/data: digests
to pins.json, golden texts (demo and CLI stdout) to their own files. It prints
unchanged or old -> new for each, a golden text by its sha256. A change that
moves only reals leaves the digest of the record's discrete fields unchanged.
catalog_5_24 pins the census product: the catalog JSON, the CSV and the
report text of 5..24 strips with compounds (census_texts).
bench/reference/ has its own recorder, bench/record_reference.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import runpy
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import helistar as hs
from helistar import cli

DISCRETE = ("n", "s", "branch", "m", "intersecting", "witness", "figure")
REAL = ("theta", "r", "h", "residual", "dihedrals", "polygon")

DATA = Path(__file__).resolve().parent / "data"
DEMOS = sorted((DATA.parent.parent / "demos").glob("*.py"))
# net (rows, edge_mm) and module-sheet options of the sheet pin
NET_CASES = [(2, 40.0), (1, 0.3), (3, 12.5), (5, 1e6)]
MODULE_CASES = [hs.ModuleOptions(), hs.ModuleOptions(12.5, 3, 2, 0.4), hs.ModuleOptions(0.3, 4, 7, 0.43)]
# golden texts by their path under tests/data: each demo's stdout, then the CLI's
CLI_GOLDENS = {"solve_5_2.txt": "solve --strips 5 --shift 2", "solve_5_2.json": "solve --strips 5 --shift 2 --json"}
GOLDENS = [f"demos/{demo.stem}.txt" for demo in DEMOS] + list(CLI_GOLDENS)


def _witness(witness) -> str:
    """A witness pair as U0,D-3; none for a non-intersecting branch."""
    return "none" if witness is None else ",".join(f"{kind}{k}" for kind, k in witness)


def record(lo: int, hi: int) -> list[str]:
    """One line per branch of the bands with lo..hi strips, in band then branch order."""
    bands = [hs.BandSpec(n, s) for n in range(lo, hi + 1) for s in range(1, n // 2 + 1)]
    branches = [sol for sols in hs.solve_band(bands) for sol in sols]
    lines = []
    for sol, cls in zip(branches, hs.classify(branches), strict=True):
        p = sol.params
        x = list(map(float.hex, [p.theta, p.r, p.h, sol.residual, *sol.dihedrals, *cls.figure_polygon.ravel().tolist()]))
        lines.append(
            f"n={sol.band.n_strips} s={sol.band.shift} branch={sol.branch_index} m={sol.winding_m} "
            f"intersecting={cls.intersecting} witness={_witness(cls.witness)} figure={cls.vertex_figure} "
            f"theta={x[0]} r={x[1]} h={x[2]} residual={x[3]} dihedrals={','.join(x[4:7])} polygon={','.join(x[7:])}"
        )
    return lines


def digest(lines: list[str]) -> str:
    """sha256 of the record's lines joined by newlines."""
    return _sha256(["\n".join(lines)])


def discrete(lines: list[str]) -> list[str]:
    """Each record line cut to its discrete fields, which come first."""
    return [" ".join(line.split()[: len(DISCRETE)]) for line in lines]


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps: adjacent floats differ by 1, across zero too."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def diff(old: list[str], new: list[str]) -> list[str]:
    """What changed from record old to record new, as lines of text.

    Branches are paired by (n, s, branch). Lists every branch added or lost
    and every changed discrete field by name, then for each real field the
    largest change over the paired branches in ulps and relative to the old
    value, and the branch where the ulps are largest (the vector fields take
    their largest component).
    """
    parse = lambda lines: {
        (f["n"], f["s"], f["branch"]): f
        for f in (dict(item.split("=", 1) for item in line.split()) for line in lines)
    }
    a, b = parse(old), parse(new)
    name = lambda key: "n={} s={} branch={}".format(*key)
    out = [f"added {name(key)}" for key in b if key not in a]
    out += [f"lost {name(key)}" for key in a if key not in b]
    paired = [key for key in a if key in b]
    for key in paired:
        out += [
            f"changed {field} at {name(key)}: {a[key][field]} -> {b[key][field]}"
            for field in DISCRETE
            if a[key][field] != b[key][field]
        ]
    for field in REAL:
        ulps, rel, where = 0, 0.0, None
        for key in paired:
            for x, y in zip(*(map(float.fromhex, r[key][field].split(",")) for r in (a, b))):
                d = abs(_ordered(x) - _ordered(y))
                if d > ulps:
                    ulps, where = d, key
                if d:
                    rel = max(rel, abs(y - x) / abs(x) if x else math.inf)
        out.append(f"{field}: unchanged" if where is None else f"{field}: {ulps} ulps, {rel:.3g} relative, most at {name(where)}")
    return out


def pinned_meshes():
    """Every mesh behind the OBJ and report pins: each branch of n 3..12 (all
    shifts) at periods 1, 2 and 24, then a tower of gon 3..12 at rings 2, 3 and 6."""
    bands = [hs.BandSpec(n, s) for n in range(3, 13) for s in range(1, n)]
    for sols in hs.solve_band(bands):
        for sol in sols:
            for periods in (1, 2, 24):
                yield hs.realize(sol, periods)
    for gon in range(3, 13):
        for rings in (2, 3, 6):
            yield hs.antiprism_tower(gon, rings)


def _written(export, *args, **options) -> str:
    sink = io.StringIO()
    export(*args, sink, **options)
    return sink.getvalue()


def sheets():
    """Every sheet behind the sheet pin: for each branch of 3..12 (mirror-half
    shifts), its net at each of NET_CASES, then its module sheet at each of MODULE_CASES."""
    bands = [hs.BandSpec(n, s) for n in range(3, 13) for s in range(1, n // 2 + 1)]
    for sols in hs.solve_band(bands):
        for sol in sols:
            for rows, edge_mm in NET_CASES:
                yield _written(hs.export_net_svg, hs.unfold_net(sol, rows=rows), edge_mm=edge_mm)
            for opts in MODULE_CASES:
                yield _written(hs.export_modules_svg, sol, opts)


def _report_line(segment) -> str:
    """float.hex of each report field; a window with no interior vertex gives its error's name."""
    try:
        report = hs.verify_uniform(segment)
    except hs.WindowError:
        return "WindowError\n"
    return " ".join(float(v).hex() for v in report.as_dict().values()) + "\n"


def _sha256(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _stdout(run) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return out.getvalue()


def demo_transcript(demo: Path) -> str:
    """stdout of a copy of demo run in a temporary directory, so its output/
    directory lands there; that directory is written as <demo dir>."""
    with tempfile.TemporaryDirectory() as where:
        copy = Path(where) / demo.name
        shutil.copy(demo, copy)
        return _stdout(lambda: runpy.run_path(str(copy), run_name="__main__")).replace(where, "<demo dir>")


def branch_pins() -> dict[str, str]:
    """The digest of the 3..64 record, and of its discrete fields alone."""
    lines = record(3, 64)
    return {"record_3_64": digest(lines), "record_3_64_discrete": digest(discrete(lines))}


def census_texts() -> list[str]:
    """The census product of 5..24 with compounds: the catalog JSON, with the
    options the bench records, the CSV and the report text."""
    entries = hs.enumerate_catalog(5, 24, include_compounds=True)
    options = {"n_min": 5, "n_max": 24, "include_compounds": True}
    return [_written(hs.write_catalog, entries, options=options), _written(hs.write_catalog_csv, entries),
            hs.format_report(hs.build_report(entries))]


def pin_values() -> dict[str, str]:
    """Every pin recomputed from the tree: digests by name, golden texts by their path under tests/data."""
    meshes = list(pinned_meshes())
    values = branch_pins()
    values["obj"] = _sha256(_written(hs.export_obj, seg, frame=frame) for seg in meshes for frame in (False, True))
    values["sheets"] = _sha256(sheets())
    values["reports"] = _sha256(map(_report_line, meshes))
    values["catalog_5_24"] = _sha256(census_texts())
    values |= {f"demos/{demo.stem}.txt": demo_transcript(demo) for demo in DEMOS}
    values |= {name: _stdout(lambda: cli.main(command.split())) for name, command in CLI_GOLDENS.items()}
    return values


def stored_pins() -> dict[str, str]:
    """Every pin as tests/data holds it, named as pin_values names it."""
    pins = json.loads((DATA / "pins.json").read_text())
    return pins | {name: (DATA / name).read_text(encoding="utf-8") for name in GOLDENS if (DATA / name).exists()}


def pins(out: Path, values: dict[str, str]) -> list[str]:
    """Write values (pin_values) to out, laid out as tests/data is; one line
    per pin: unchanged against tests/data, or old -> new."""
    old = stored_pins()
    digests = {name: value for name, value in values.items() if name not in GOLDENS}
    (out / "pins.json").write_text(json.dumps(digests, indent=2) + "\n")
    for name in GOLDENS:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(values[name], encoding="utf-8", newline="")
    shown = lambda name, value: _sha256([value]) if name in GOLDENS and value is not None else value
    return [
        f"{name}: unchanged" if old.get(name) == value else f"{name}: {shown(name, old.get(name))} -> {shown(name, value)}"
        for name, value in values.items()
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="print the record of a strip range")
    rec.add_argument("--min", type=int, default=3)
    rec.add_argument("--max", type=int, default=64)
    sub.add_parser("digest", help="print the sha256 of a record file").add_argument("file")
    both = sub.add_parser("diff", help="print what changed between two record files")
    both.add_argument("old")
    both.add_argument("new")
    sub.add_parser("pins", help="recompute every pin and write it to tests/data")
    args = parser.parse_args(argv)
    read = lambda path: Path(path).read_text().splitlines()
    if args.command == "record":
        print("\n".join(record(args.min, args.max)))
    elif args.command == "pins":
        print("\n".join(pins(DATA, pin_values())))
        print("bench/reference/ is not re-recorded: bench/record_reference.py records it")
    elif args.command == "digest":
        print(digest(read(args.file)))
    else:
        print("\n".join(diff(read(args.old), read(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
