"""Command-line surface.

Subcommands: solve, generate, enumerate, verify, net, modules, antiprism.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 no result.
Every subcommand takes --json for machine-readable output; outputs carry no
timestamps, so identical invocations produce identical bytes. The hidden
solver flags are derived from the SolverOptions fields, one flag per field
(min_A becomes --min-A); HELISTAR_GRID_POINTS in the environment overrides the
default scan resolution (an explicit --grid-points still wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from .analysis import classify
from .band_combinatorics import BandSpec
from .catalog import (
    build_report,
    enumerate_catalog,
    format_report,
    write_catalog,
    write_catalog_csv,
)
from .closure_solver import SolverOptions, solve_band
from .errors import HelistarError, ParameterError
from .export import ModuleOptions, export_modules_svg, export_net_svg, export_obj, unfold_net
from .realization import antiprism_tower, realize, verify_uniform

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_RESULT = 3


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(SolverOptions):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=None, help=argparse.SUPPRESS)


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    kwargs = {}
    for f in fields(SolverOptions):
        val = getattr(args, f.name)
        if val is not None:
            kwargs[f.name] = val
    env = os.environ.get("HELISTAR_GRID_POINTS")
    if "grid_points" not in kwargs and env is not None:
        try:
            kwargs["grid_points"] = int(env)
        except ValueError:
            raise ParameterError(f"HELISTAR_GRID_POINTS must be an integer, got {env!r}") from None
    return SolverOptions(**kwargs)


def _band(args: argparse.Namespace) -> BandSpec:
    if args.strips < 3:
        raise ParameterError(f"--strips must be >= 3, got {args.strips}")
    return BandSpec(args.strips, args.shift)


def _branch_rows(band: BandSpec, opts: SolverOptions) -> list[dict]:
    rows = []
    for sol in solve_band(band, opts):
        cls = classify(sol)
        rows.append(
            {
                "branch_index": sol.branch_index,
                "winding_m": sol.winding_m,
                "theta": sol.params.theta,
                "r": sol.params.r,
                "h": sol.params.h,
                "residual": sol.residual,
                "intersecting": cls.intersecting,
                "vertex_figure": cls.vertex_figure,
            }
        )
    return rows


def _cmd_solve(args: argparse.Namespace) -> int:
    band = _band(args)
    rows = _branch_rows(band, _solver_options(args))
    if args.json:
        payload = {
            "n_strips": band.n_strips,
            "shift": band.shift,
            "components": band.components,
            "branches": rows,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"band ({band.n_strips},{band.shift}), {band.components} component(s)")
        print("  b    m      theta          r          h     residual  intersecting  figure")
        for r in rows:
            print(
                f"{r['branch_index']:3d} {r['winding_m']:4d} {r['theta']:10.6f} "
                f"{r['r']:10.6f} {r['h']:10.6f} {r['residual']:12.3e} "
                f"{str(r['intersecting']).lower():>12}  {r['vertex_figure']}"
            )
    if not rows:
        print("no branches", file=sys.stderr)
        return EXIT_NO_RESULT
    return EXIT_OK


def _pick_branch(band: BandSpec, opts: SolverOptions, index: int):
    sols = solve_band(band, opts)
    if not sols:
        print("no branches for this band", file=sys.stderr)
        return None
    if not 1 <= index <= len(sols):
        print(f"branch {index} not available; range is 1..{len(sols)}", file=sys.stderr)
        return None
    return sols[index - 1]


def _cmd_generate(args: argparse.Namespace) -> int:
    band = _band(args)
    sol = _pick_branch(band, _solver_options(args), args.branch)
    if sol is None:
        return EXIT_NO_RESULT
    seg = realize(sol, args.periods)
    export_obj(seg, args.out, frame=args.frame)
    info = {
        "out": args.out,
        "vertices": len(seg.vertices),
        "faces": 0 if args.frame else len(seg.faces),
        "lines": len(seg.edges) if args.frame else 0,
    }
    print(json.dumps(info, indent=2) if args.json else
          f"wrote {args.out}: {info['vertices']} vertices, "
          f"{info['lines'] or info['faces']} {'lines' if args.frame else 'faces'}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    opts = _solver_options(args)
    entries = enumerate_catalog(args.min, args.max, opts, include_compounds=args.include_compounds)
    options_record = {
        "n_min": args.min,
        "n_max": args.max,
        "include_compounds": args.include_compounds,
        **asdict(opts),
    }
    write_catalog(entries, args.catalog, options_record)
    if args.csv:
        write_catalog_csv(entries, args.csv)
    report = build_report(entries)
    if args.json:
        payload = report.as_dict()
        payload["catalog"] = args.catalog
        print(json.dumps(payload, indent=2))
    else:
        print(format_report(report))
        print(f"catalog written to {args.catalog}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    band = _band(args)
    sol = _pick_branch(band, _solver_options(args), args.branch)
    if sol is None:
        return EXIT_NO_RESULT
    seg = realize(sol, args.periods)
    report = verify_uniform(seg, sol.offsets)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        d = report.as_dict()
        for key in ("vertex_count", "interior_count", "face_count"):
            print(f"{key}: {d[key]}")
        print(f"edge lengths:   max dev {report.edge_length_max_dev:.3e}  "
              f"{'ok' if report.edge_length_ok else 'FAIL'}")
        print(f"face angles:    max dev {report.face_angle_max_dev:.3e}  "
              f"{'ok' if report.face_angle_ok else 'FAIL'}")
        print(f"constellations: max dev {report.constellation_max_dev:.3e}  "
              f"{'ok' if report.constellation_ok else 'FAIL'}")
        print(f"interior edges in 2 faces: {'ok' if report.edge_faces_ok else 'FAIL'}")
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_net(args: argparse.Namespace) -> int:
    band = _band(args)
    sol = _pick_branch(band, _solver_options(args), args.branch)
    if sol is None:
        return EXIT_NO_RESULT
    net = unfold_net(sol, rows=args.rows)
    export_net_svg(net, args.out, edge_mm=args.edge_mm)
    print(json.dumps({"out": args.out, "folds": len(net.folds)}, indent=2)
          if args.json else f"wrote {args.out}: {len(net.folds)} fold lines")
    return EXIT_OK


def _cmd_modules(args: argparse.Namespace) -> int:
    band = _band(args)
    sol = _pick_branch(band, _solver_options(args), args.branch)
    if sol is None:
        return EXIT_NO_RESULT
    mopts = ModuleOptions(
        edge_mm=args.edge_mm,
        periods=args.periods,
        columns=args.columns,
        slit_fraction=args.slit_fraction,
    )
    count = export_modules_svg(sol, mopts, args.out)
    print(json.dumps({"out": args.out, "modules": count}, indent=2)
          if args.json else f"wrote {args.out}: {count} modules")
    return EXIT_OK


def _cmd_antiprism(args: argparse.Namespace) -> int:
    seg = antiprism_tower(args.gon, args.rings)
    export_obj(seg, args.out, frame=args.frame)
    h = float(seg.vertices[args.gon][2])
    info = {"out": args.out, "vertices": len(seg.vertices),
            "faces": len(seg.faces), "ring_rise": h}
    print(json.dumps(info, indent=2) if args.json else
          f"wrote {args.out}: {info['vertices']} vertices, {info['faces']} faces, "
          f"ring rise {h:.9f}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="helistar",
        description="construct, enumerate, classify, and export helical (star) deltahedra",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, branch=False, periods=None):
        p.add_argument("--strips", type=int, required=True, help="number of strips n (>= 3)")
        p.add_argument("--shift", type=int, required=True, help="seam shift s in [1, n-1]")
        if branch:
            p.add_argument("--branch", type=int, default=1, help="branch index, 1-based")
        if periods is not None:
            p.add_argument("--periods", type=int, default=periods, help="window length in periods")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        _add_solver_flags(p)

    p = sub.add_parser("solve", help="list all branches of a band")
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("generate", help="write a mesh window as OBJ")
    common(p, branch=True, periods=4)
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--frame", action="store_true", help="emit edge lines instead of faces")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("enumerate", help="catalog all bands in a strip range")
    p.add_argument("--min", type=int, default=5)
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--include-compounds", action="store_true")
    p.add_argument("--catalog", required=True, help="output catalog JSON path")
    p.add_argument("--csv", default=None, help="optional CSV path")
    p.add_argument("--json", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="uniformity report for one branch")
    common(p, branch=True, periods=6)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("net", help="write an unfolding net as SVG")
    common(p, branch=True)
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--edge-mm", type=float, default=40.0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=_cmd_net)

    p = sub.add_parser("modules", help="write a slide-together module sheet as SVG")
    common(p, branch=True, periods=2)
    p.add_argument("--edge-mm", type=float, default=40.0)
    p.add_argument("--columns", type=int, default=5)
    p.add_argument("--slit-fraction", type=float, default=0.25)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=_cmd_modules)

    p = sub.add_parser("antiprism", help="write an antiprismatic ring tower as OBJ")
    p.add_argument("--gon", type=int, required=True)
    p.add_argument("--rings", type=int, required=True)
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--frame", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_antiprism)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except HelistarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
