"""Record the benchmark's reference outputs from the program in src/.

    python3 bench/record_reference.py

Writes bench/reference/census.json, fabricate.json and cli_session.json for
both input sizes (full and smoke). The references pin what the seed program
produced; regenerate them only in a change that deliberately alters program
output, and say so there.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads as wl


def census(helistar, size: wl.Size) -> dict:
    entries, json_text, csv_text, report, text = wl.census_outputs(helistar, *size.census_range)
    views = [rows() for _view, rows in wl.catalog_views(entries, json_text, csv_text)]
    if not all(wl.same_value(v, views[0]) for v in views):
        raise SystemExit("catalog JSON or CSV does not round-trip the entries")
    return {"entries": views[0], "report": report.as_dict(), "report_text": text}


def fabricate(helistar, size: wl.Size) -> dict:
    solve_band = helistar.closure_solver.solve_band
    objects = {}
    for n, s in wl.bands(size.max_n):
        for sol in solve_band(helistar.BandSpec(n, s)):
            record = wl.object_record(*wl.make_object(helistar, sol, size.periods))
            if not record["verdict"]["passed"]:
                raise SystemExit(f"verify_uniform fails on {wl.branch_key(sol)}")
            objects[wl.branch_key(sol)] = record
    return {"periods": size.periods, "objects": objects}


def cli_session(helistar, size: wl.Size) -> dict:
    pairs = [
        [n, s, sol.branch_index]
        for n, s in wl.bands(size.max_n)
        for sol in helistar.closure_solver.solve_band(helistar.BandSpec(n, s))
    ]
    commands = {}
    wl.WORK_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="record-", dir=wl.WORK_DIR))
    try:
        for n, s, b in pairs:
            for kind in wl.CLI_KINDS:
                _start, _seconds, observed = wl.run_command(helistar, kind, n, s, b, out_dir)
                if observed["exit"] != 0:
                    raise SystemExit(f"helistar {kind} {n} {s} {b} exits {observed['exit']}")
                commands[wl.cli_key(kind, n, s, b)] = observed
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"pairs": pairs, "commands": commands}


def main() -> None:
    helistar = wl.load_program()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    docs = {
        "census": {size.key: census(helistar, size) for size in (wl.FULL, wl.SMOKE)},
        "fabricate": {size.key: fabricate(helistar, size) for size in (wl.FULL, wl.SMOKE)},
        # the smoke pool is the full pool cut to its small bands
        "cli_session": cli_session(helistar, wl.FULL),
    }
    for name, doc in docs.items():
        path = wl.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(wl.ROOT)}")


if __name__ == "__main__":
    main()
