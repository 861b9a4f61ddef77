"""Enumeration, naming, and persistence of all branches over a strip range.

Names follow the n-m(s) scheme: strip count, winding label, shift. Entries
with winding 1 are plain helical deltahedra and named "n(s) helical
deltahedron"; bands with gcd(n, s) = g > 1 build g interleaved congruent
copies and are named "compound g x <component name>". Winding collisions
inside one (n, s) are kept apart with a " [bN]" branch suffix, never merged.

The module also builds the per-(n, s) breakdown report. Its star tally counts
connected, self-intersecting branches with a simple vertex figure; branches
with crossed figures form a second family and are tallied separately. Both
totals are compared against published reference tallies (64 stars for 5..12
strips, 12 crossed-figure members) as soft notes, never hard assertions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

from . import __version__
from .analysis import classify
from .band_combinatorics import BandSpec, split_compound
from .closure_solver import BranchSolution, HelixParams, SolverOptions, solve_band, winding_estimate
from .errors import CatalogFormatError, ParameterError
from .export import _fmt, _opened

__all__ = [
    "CatalogEntry",
    "CatalogReport",
    "enumerate_catalog",
    "component_params",
    "build_report",
    "format_report",
    "write_catalog",
    "read_catalog",
    "write_catalog_csv",
    "REFERENCE_STAR_TALLY",
    "REFERENCE_CROSSED_TALLY",
]

REFERENCE_STAR_TALLY = 64     # published reference tally for 5..12 strips
REFERENCE_CROSSED_TALLY = 12  # published reference tally, crossed-figure family

CHIRALITY_NOTE = "one enantiomorph of a chiral pair; mirror twist is 2*pi - theta"


@dataclass
class CatalogEntry:
    """One catalog row; the field order here is the serialized order."""

    name: str
    n_strips: int
    shift: int
    branch_index: int
    winding_m: int
    theta: float
    r: float
    h: float
    residual: float
    intersecting: bool
    vertex_figure: str
    components: int
    chirality_note: str

    @property
    def is_star(self) -> bool:
        """Connected, self-intersecting, simple figure: one star deltahedron."""
        return self.components == 1 and self.intersecting and self.vertex_figure == "simple"


_ENTRY_FIELDS = [f.name for f in fields(CatalogEntry)]
_REAL_FIELDS = {"theta", "r", "h", "residual"}
_INT_FIELDS = {"n_strips", "shift", "branch_index", "winding_m", "components"}


def component_params(solution: BranchSolution) -> tuple[int, BandSpec, HelixParams]:
    """Component band and screw parameters of a compound branch.

    The component occupies every g-th index, so its twist is g*theta folded
    back into (0, pi) (the fold picks the stored enantiomorph) and its rise is
    g*h; the radius is shared.
    """
    if solution.band is None:
        raise ParameterError("component split needs a band, not free offsets")
    g, comp = split_compound(solution.band)
    theta_c = math.fmod(g * solution.params.theta, 2.0 * math.pi)
    if theta_c > math.pi:
        theta_c = 2.0 * math.pi - theta_c
    return g, comp, HelixParams(r=solution.params.r, theta=theta_c, h=g * solution.params.h)


def _base_name(n: int, s: int, m: int) -> str:
    if m >= 2:
        return f"{n}-{m}({s})"
    return f"{n}({s}) helical deltahedron"


def _entry_name(solution: BranchSolution) -> str:
    band = solution.band
    g = band.components
    if g == 1:
        return _base_name(band.n_strips, band.shift, solution.winding_m)
    g, comp, cp = component_params(solution)
    return f"compound {g} x {_base_name(comp.n_strips, comp.shift, winding_estimate(comp, cp))}"


def enumerate_catalog(
    n_min: int,
    n_max: int,
    opts: SolverOptions | None = None,
    include_compounds: bool = False,
) -> list[CatalogEntry]:
    """One entry per surviving branch of every band in the range.

    Shifts run over [1, floor(n/2)] (the mirror half); compound bands are
    skipped unless include_compounds. Order is (n, s, branch_index). Bands
    whose determinant never crosses zero simply contribute nothing.
    """
    if not 3 <= n_min <= n_max:
        raise ParameterError(f"need 3 <= n_min <= n_max, got [{n_min}, {n_max}]")
    opts = opts or SolverOptions()
    entries: list[CatalogEntry] = []
    for n in range(n_min, n_max + 1):
        for s in range(1, n // 2 + 1):
            band = BandSpec(n, s)
            if band.components > 1 and not include_compounds:
                continue
            group: list[CatalogEntry] = []
            for sol in solve_band(band, opts):
                cls = classify(sol)
                group.append(
                    CatalogEntry(
                        name=_entry_name(sol),
                        n_strips=n,
                        shift=s,
                        branch_index=sol.branch_index,
                        winding_m=sol.winding_m,
                        theta=sol.params.theta,
                        r=sol.params.r,
                        h=sol.params.h,
                        residual=sol.residual,
                        intersecting=cls.intersecting,
                        vertex_figure=cls.vertex_figure,
                        components=band.components,
                        chirality_note=CHIRALITY_NOTE,
                    )
                )
            seen: dict[str, int] = {}
            for e in group:
                seen[e.name] = seen.get(e.name, 0) + 1
            for e in group:
                if seen[e.name] > 1:
                    e.name = f"{e.name} [b{e.branch_index}]"
            entries.extend(group)
    return entries


@dataclass
class CatalogReport:
    """Per-(n, s) summary rows plus totals and notes."""

    rows: list[dict]
    star_total: int
    crossed_total: int
    plain_total: int
    compound_entries: int
    entry_total: int
    collisions: list[str]
    compound_star_labels: list[str]

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "star_total": self.star_total,
            "reference_star_tally": REFERENCE_STAR_TALLY,
            "crossed_total": self.crossed_total,
            "reference_crossed_tally": REFERENCE_CROSSED_TALLY,
            "plain_total": self.plain_total,
            "compound_entries": self.compound_entries,
            "entry_total": self.entry_total,
            "collisions": self.collisions,
            "compound_star_labels": self.compound_star_labels,
        }


def build_report(entries: list[CatalogEntry]) -> CatalogReport:
    """Aggregate entries into the breakdown table and the soft-tally notes.

    compound_star_labels records every star-style label n-m(s) that lands on
    a compound band under this seam convention (gcd(n, s) > 1): the label
    exists in the naming scheme but the object is a compound, so it is kept
    out of the star tally and flagged instead.
    """
    groups: dict[tuple[int, int], list[CatalogEntry]] = {}
    for e in entries:
        groups.setdefault((e.n_strips, e.shift), []).append(e)

    rows = []
    star_total = crossed_total = plain_total = compound_entries = 0
    collisions: list[str] = []
    compound_labels: list[str] = []
    for (n, s) in sorted(groups):
        group = groups[(n, s)]
        g = group[0].components
        stars = sum(1 for e in group if e.is_star)
        crossed = sum(1 for e in group if e.components == 1 and e.vertex_figure == "crossed")
        plain = sum(1 for e in group if e.components == 1 and e.winding_m <= 1)
        rows.append(
            {
                "n": n, "s": s, "components": g, "branches": len(group),
                "plain": plain, "stars": stars, "crossed": crossed,
            }
        )
        star_total += stars
        crossed_total += crossed
        plain_total += plain
        if g > 1:
            compound_entries += len(group)
            for e in group:
                if e.winding_m >= 2:
                    compound_labels.append(
                        f"{n}-{e.winding_m}({s}) is a {g}-compound under this seam "
                        f"convention (branch {e.branch_index}, named {e.name!r}); "
                        f"excluded from the star tally"
                    )
        names = [e.name for e in group]
        for nm in sorted(set(names)):
            if names.count(nm) > 1:
                collisions.append(f"({n},{s}): {names.count(nm)} branches named {nm}")
        base = [nm.split(" [b")[0] for nm in names]
        for nm in sorted(set(base)):
            if base.count(nm) > 1:
                collisions.append(
                    f"({n},{s}): winding label {nm!r} shared by "
                    f"{base.count(nm)} branches; branch suffix added"
                )

    return CatalogReport(
        rows=rows,
        star_total=star_total,
        crossed_total=crossed_total,
        plain_total=plain_total,
        compound_entries=compound_entries,
        entry_total=len(entries),
        collisions=sorted(set(collisions)),
        compound_star_labels=compound_labels,
    )


def format_report(report: CatalogReport) -> str:
    """Fixed-width text rendering of the breakdown, for the CLI and demos."""
    out = ["  n  s  comp  branches  plain  stars  crossed"]
    for r in report.rows:
        out.append(
            f"{r['n']:3d} {r['s']:2d} {r['components']:5d} {r['branches']:9d} "
            f"{r['plain']:6d} {r['stars']:6d} {r['crossed']:8d}"
        )
    out.append("")
    out.append(
        f"star entries (connected, intersecting, simple figure): {report.star_total} "
        f"(published reference tally: {REFERENCE_STAR_TALLY})"
    )
    out.append(
        f"crossed-figure branches (second family): {report.crossed_total} "
        f"(published reference tally: {REFERENCE_CROSSED_TALLY})"
    )
    out.append(f"plain helical deltahedra (winding 1): {report.plain_total}")
    out.append(f"total entries: {report.entry_total} ({report.compound_entries} compound)")
    if report.collisions:
        out.append("name collisions:")
        out.extend(f"  {line}" for line in report.collisions)
    if report.compound_star_labels:
        out.append("star-style labels on compound bands:")
        out.extend(f"  {line}" for line in report.compound_star_labels)
    return "\n".join(out)


def _typed(name: str, v):
    """An entry field value as the type the field table gives it."""
    if name in _REAL_FIELDS:
        return float(v)
    if name in _INT_FIELDS:
        return int(v)
    return v


def _scalar(v) -> str:
    """Catalog text of one value: reals to 15 significant digits with no "-0",
    ints plain, bools as true/false, anything else as JSON."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v, ".15g")
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def _entry_values(e: CatalogEntry) -> list:
    return [_typed(name, getattr(e, name)) for name in _ENTRY_FIELDS]


def write_catalog(entries: list[CatalogEntry], sink, options: dict | None = None) -> None:
    """Serialize entries as the catalog JSON document, byte deterministic.

    Reals carry 15 significant digits; the field order is fixed. options is
    recorded verbatim (sorted keys) so a catalog names the run that made it.
    """
    opt = options or {}
    with _opened(sink) as fh:
        fh.write(f'{{\n  "generated_by": "helistar {__version__}",\n  "options": ')
        fh.write("{" + ", ".join(f'"{k}": {_scalar(opt[k])}' for k in sorted(opt)) + "},\n")
        fh.write('  "entries": [')
        for i, e in enumerate(entries):
            fh.write("," if i else "")
            lines = (f'      "{k}": {_scalar(v)}' for k, v in zip(_ENTRY_FIELDS, _entry_values(e)))
            fh.write("\n    {\n" + ",\n".join(lines) + "\n    }")
        fh.write("\n  ]\n}\n" if entries else "]\n}\n")


def read_catalog(source) -> list[CatalogEntry]:
    """Parse a catalog document back into entries.

    Raises CatalogFormatError with line/field diagnostics on malformed input.
    """
    with _opened(source, "r", newline=None) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(
            f"catalog parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise CatalogFormatError("catalog document must be an object with an 'entries' field")
    if not isinstance(doc["entries"], list):
        raise CatalogFormatError("field 'entries' must be a list")
    entries = []
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise CatalogFormatError(f"entry {i}: must be an object")
        kwargs = {}
        for name in _ENTRY_FIELDS:
            if name not in raw:
                raise CatalogFormatError(f"entry {i}: missing field {name!r}")
            try:
                kwargs[name] = _typed(name, raw[name])
            except (TypeError, ValueError) as exc:
                raise CatalogFormatError(f"entry {i}: field {name!r}: {exc}") from exc
        entries.append(CatalogEntry(**kwargs))
    return entries


def write_catalog_csv(entries: list[CatalogEntry], sink) -> None:
    """CSV export: mandatory header row, then one row per entry, same order."""
    with _opened(sink, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_ENTRY_FIELDS)
        for e in entries:
            w.writerow(v if isinstance(v, str) else _scalar(v) for v in _entry_values(e))
