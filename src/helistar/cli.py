"""Command-line surface.

Subcommands: solve, generate, enumerate, verify, net, modules, antiprism.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 no result.
Each subcommand returns one record, a dict and a text layout of the same
values; main prints the dict as JSON under --json, else the text. Records
carry no timestamps, so identical invocations produce identical bytes.
The solver's theta grid and acceptance thresholds are constants, not flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import classify
from .band_combinatorics import MAX_STRIPS, BandSpec
from .catalog import (
    _band_entries,
    build_report,
    enumerate_catalog,
    format_report,
    write_catalog,
    write_catalog_csv,
)
from .closure_solver import solve_band
from .errors import HelistarError, check_int
from .export import ModuleOptions, export_modules_svg, export_net_svg, export_obj, unfold_net
from .realization import antiprism_tower, realize, verify_uniform

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_RESULT = 3

# the catalog entry fields of one solve row, in order; the band's own are in the record once
_SOLVE_FIELDS = ("branch_index", "winding_m", "theta", "r", "h", "residual", "intersecting", "vertex_figure")

# what each _cmd_* returns: (exit code, the --json payload, the text layout)
_Record = tuple[int, dict, str]


class _NoResult(Exception):
    """No branch to act on: main prints the message and exits 3 (a HelistarError exits 2)."""


def _band(args: argparse.Namespace) -> BandSpec:
    check_int("--strips", args.strips, 3, MAX_STRIPS)
    return BandSpec(args.strips, args.shift)


def _pick_branch(args: argparse.Namespace):
    """The --branch branch of the --strips/--shift band; _NoResult if there is none."""
    sols = solve_band(_band(args))
    if not sols:
        raise _NoResult("no branches for this band")
    if not 1 <= args.branch <= len(sols):
        raise _NoResult(f"branch {args.branch} not available; range is 1..{len(sols)}")
    return sols[args.branch - 1]


def _cmd_solve(args: argparse.Namespace) -> _Record:
    band = _band(args)
    sols = solve_band(band)
    rows = [{f: getattr(e, f) for f in _SOLVE_FIELDS} for e in _band_entries(band, sols, classify(sols))]
    payload = {"n_strips": band.n_strips, "shift": band.shift, "components": band.components,
               "branches": rows}
    text = [
        f"band ({band.n_strips},{band.shift}), {band.components} component(s)",
        "  b    m      theta          r          h     residual  intersecting  figure",
        *(
            f"{r['branch_index']:3d} {r['winding_m']:4d} {r['theta']:10.6f} "
            f"{r['r']:10.6f} {r['h']:10.6f} {r['residual']:12.3e} "
            f"{str(r['intersecting']).lower():>12}  {r['vertex_figure']}"
            for r in rows
        ),
    ]
    return (EXIT_OK if rows else EXIT_NO_RESULT), payload, "\n".join(text)


def _cmd_generate(args: argparse.Namespace) -> _Record:
    seg = realize(_pick_branch(args), args.periods)
    export_obj(seg, args.out, frame=args.frame)
    payload = {"out": args.out, "vertices": len(seg.vertices), "faces": 0 if args.frame else len(seg.faces),
               "lines": len(seg.edges) if args.frame else 0}
    kind = "lines" if args.frame else "faces"
    return EXIT_OK, payload, f"wrote {args.out}: {payload['vertices']} vertices, {payload[kind]} {kind}"


def _writable(path: str) -> None:
    """OSError unless path opens for writing; a file that the check creates is removed again."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _cmd_enumerate(args: argparse.Namespace) -> _Record:
    for path in (args.catalog, args.csv):  # both outputs, before the enumeration and either write
        if path is not None:
            _writable(path)
    entries = enumerate_catalog(args.min, args.max, include_compounds=args.include_compounds)
    options = {"n_min": args.min, "n_max": args.max, "include_compounds": args.include_compounds}
    write_catalog(entries, args.catalog, options)
    if args.csv is not None:
        write_catalog_csv(entries, args.csv)
    report = build_report(entries)
    payload = report.as_dict() | {"catalog": args.catalog}
    return EXIT_OK, payload, f"{format_report(report)}\ncatalog written to {args.catalog}"


def _cmd_verify(args: argparse.Namespace) -> _Record:
    sol = _pick_branch(args)
    report = verify_uniform(realize(sol, args.periods))
    payload = report.as_dict()
    verdict = {True: "ok", False: "FAIL"}
    text = [f"{key}: {payload[key]}" for key in ("vertex_count", "interior_count", "face_count")] + [
        f"edge lengths:   max dev {report.edge_length_max_dev:.3e}  {verdict[report.edge_length_ok]}",
        f"face angles:    max dev {report.face_angle_max_dev:.3e}  {verdict[report.face_angle_ok]}",
        f"constellations: max dev {report.constellation_max_dev:.3e}  {verdict[report.constellation_ok]}",
        f"interior edges in 2 faces: {verdict[report.edge_faces_ok]}",
        "PASS" if report.passed else "FAIL",
    ]
    return (EXIT_OK if report.passed else EXIT_VERIFY_FAILED), payload, "\n".join(text)


def _cmd_net(args: argparse.Namespace) -> _Record:
    net = unfold_net(_pick_branch(args), rows=args.rows)
    export_net_svg(net, args.out, edge_mm=args.edge_mm)
    folds = len(net.fold_angles)
    return EXIT_OK, {"out": args.out, "folds": folds}, f"wrote {args.out}: {folds} fold lines"


def _cmd_modules(args: argparse.Namespace) -> _Record:
    sol = _pick_branch(args)
    mopts = ModuleOptions(args.edge_mm, args.periods, args.columns, args.slit_fraction)
    count = export_modules_svg(sol, mopts, args.out)
    return EXIT_OK, {"out": args.out, "modules": count}, f"wrote {args.out}: {count} modules"


def _cmd_antiprism(args: argparse.Namespace) -> _Record:
    seg = antiprism_tower(args.gon, args.rings)
    export_obj(seg, args.out, frame=args.frame)
    h = float(seg.vertices[args.gon][2])
    payload = {"out": args.out, "vertices": len(seg.vertices), "faces": len(seg.faces), "ring_rise": h}
    text = f"wrote {args.out}: {payload['vertices']} vertices, {payload['faces']} faces, ring rise {h:.9f}"
    return EXIT_OK, payload, text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every main call."""
    top = argparse.ArgumentParser(
        prog="helistar",
        description="construct, enumerate, classify, and export helical (star) deltahedra",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, about, band=True, branch=False, periods=None):
        """A subcommand with the shared flags its options ask for."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(fn=fn)
        if band:
            p.add_argument("--strips", type=int, required=True, help=f"number of strips n (3 to {MAX_STRIPS})")
            p.add_argument("--shift", type=int, required=True, help="seam shift s in [1, n-1]")
        if branch:
            p.add_argument("--branch", type=int, default=1, help="branch index, 1-based")
        if periods is not None:
            p.add_argument("--periods", type=int, default=periods, help="window length in periods")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    command("solve", _cmd_solve, "list all branches of a band")

    p = command("generate", _cmd_generate, "write a mesh window as OBJ", branch=True, periods=4)
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--frame", action="store_true", help="emit edge lines instead of faces")

    p = command("enumerate", _cmd_enumerate, "catalog all bands in a strip range", band=False)
    p.add_argument("--min", type=int, default=5)
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--include-compounds", action="store_true")
    p.add_argument("--catalog", required=True, help="output catalog JSON path")
    p.add_argument("--csv", default=None, help="optional CSV path")

    command("verify", _cmd_verify, "uniformity report for one branch", branch=True, periods=6)

    p = command("net", _cmd_net, "write an unfolding net as SVG", branch=True)
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--edge-mm", type=float, default=40.0)
    p.add_argument("--out", required=True, help="output SVG path")

    p = command("modules", _cmd_modules, "write a slide-together module sheet as SVG", branch=True, periods=2)
    p.add_argument("--edge-mm", type=float, default=40.0)
    p.add_argument("--columns", type=int, default=5)
    p.add_argument("--slit-fraction", type=float, default=0.25)
    p.add_argument("--out", required=True, help="output SVG path")

    p = command("antiprism", _cmd_antiprism, "write an antiprismatic ring tower as OBJ", band=False)
    p.add_argument("--gon", type=int, required=True)
    p.add_argument("--rings", type=int, required=True)
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--frame", action="store_true")
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        code, payload, text = args.fn(args)
    except _NoResult as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_RESULT
    except (HelistarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(json.dumps(payload, indent=2) if args.json else text)
    if code == EXIT_NO_RESULT:  # a solve with an empty table
        print("no branches", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
