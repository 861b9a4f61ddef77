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

import json
import math
import operator
import reprlib
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii

from . import __version__
from .analysis import classify
from .band_combinatorics import MAX_STRIPS, BandSpec
from .closure_solver import BranchSolution, HelixParams, _winding, solve_band
from .errors import CatalogFormatError, ParameterError, check_int, check_items, check_real, check_type
from .export import _opened

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


_TYPES = {t.__name__: t for t in (str, int, float, bool)}
_ENTRY_TYPES = {f.name: _TYPES[f.type] for f in fields(CatalogEntry)}
_ENTRY_FIELDS = list(_ENTRY_TYPES)
_FIELD_VALUES = operator.attrgetter(*_ENTRY_FIELDS)
# one JSON entry, each field's text in a %s
_ENTRY_TEMPLATE = "\n    {\n" + ",\n".join(f'      "{name}": %s' for name in _ENTRY_FIELDS) + "\n    }"


def component_params(solution: BranchSolution) -> tuple[int, BandSpec, HelixParams]:
    """(g, component band, component params) of a branch, g = band.components.

    The component (n/g, s/g) occupies every g-th index, so its twist is
    g*theta folded back into (0, pi) (the fold picks the stored enantiomorph)
    and its rise is g*h; the radius is shared. A connected branch is its own
    component: (1, band, params).
    """
    check_type("solution", solution, BranchSolution)
    g, n, s, theta_c = _component(solution)
    return g, BandSpec(n, s), HelixParams(r=solution.params.r, theta=theta_c, h=g * solution.params.h)


def _component(solution: BranchSolution) -> tuple[int, int, int, float]:
    """g, the component's n and s, and its twist, as component_params gives them, with no object built."""
    band, g = solution.band, solution.band.components
    theta_c = math.fmod(g * solution.params.theta, 2.0 * math.pi)
    return g, band.n_strips // g, band.shift // g, 2.0 * math.pi - theta_c if theta_c > math.pi else theta_c


def _base_name(n: int, s: int, m: int) -> str:
    if m >= 2:
        return f"{n}-{m}({s})"
    return f"{n}({s}) helical deltahedron"


def _entry_name(solution: BranchSolution) -> str:
    band = solution.band
    g = band.components
    if g == 1:
        return _base_name(band.n_strips, band.shift, solution.winding_m)
    g, n, s, theta_c = _component(solution)
    return f"compound {g} x {_base_name(n, s, _winding(n, s, theta_c))}"


def enumerate_catalog(n_min: int, n_max: int, *, include_compounds: bool = False) -> list[CatalogEntry]:
    """One entry per surviving branch of every band in the range.

    Shifts run over [1, floor(n/2)] (the mirror half); compound bands are
    skipped unless include_compounds, which must be True or False, not just
    truthy. Order is (n, s, branch_index). Bands whose determinant never
    crosses zero simply contribute nothing. Both ends of the range are at
    most MAX_STRIPS.
    """
    check_int("n_min", n_min, 3, MAX_STRIPS)
    check_int("n_max", n_max, n_min, MAX_STRIPS)
    check_type("include_compounds", include_compounds, bool)
    bands = [BandSpec(n, s) for n in range(n_min, n_max + 1) for s in range(1, n // 2 + 1)]
    bands = [band for band in bands if include_compounds or band.components == 1]
    per_band = solve_band(bands)
    verdicts = iter(classify([sol for sols in per_band for sol in sols]))
    return [entry for band, sols in zip(bands, per_band) for entry in _band_entries(band, sols, verdicts)]


def _band_entries(band: BandSpec, sols: list[BranchSolution], verdicts) -> list[CatalogEntry]:
    """The entries of one band's branches, drawing exactly one verdict per branch from the iterable verdicts."""
    names = [_entry_name(sol) for sol in sols]
    return [
        CatalogEntry(
            name=name if names.count(name) == 1 else f"{name} [b{sol.branch_index}]",
            n_strips=band.n_strips, shift=band.shift, branch_index=sol.branch_index,
            winding_m=sol.winding_m, theta=sol.params.theta, r=sol.params.r, h=sol.params.h,
            residual=sol.residual, intersecting=cls.intersecting, vertex_figure=cls.vertex_figure,
            components=band.components, chirality_note=CHIRALITY_NOTE,
        )
        for sol, name, cls in zip(sols, names, verdicts)  # sols first: a band used up draws no verdict
    ]


_REPORT_KEYS = ("n", "s", "components", "branches", "plain", "stars", "crossed")  # of a build_report row


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

    def __post_init__(self) -> None:
        self.rows = check_items("rows", self.rows, dict)
        for i, row in enumerate(self.rows):
            if row.keys() != set(_REPORT_KEYS):
                raise ParameterError(f"rows[{i}] must hold the keys {', '.join(_REPORT_KEYS)}, got {reprlib.repr(row)}")
            if not all(type(value) is int and value >= 0 for value in row.values()):  # named only on failure
                for key, value in row.items():
                    check_int(f"rows[{i}][{key!r}]", value, 0)
        check_int("star_total", self.star_total, 0)
        check_int("crossed_total", self.crossed_total, 0)
        check_int("plain_total", self.plain_total, 0)
        check_int("compound_entries", self.compound_entries, 0)
        check_int("entry_total", self.entry_total, 0)
        self.collisions = check_items("collisions", self.collisions, str)
        self.compound_star_labels = check_items("compound_star_labels", self.compound_star_labels, str)

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "reference_star_tally": REFERENCE_STAR_TALLY,
            "reference_crossed_tally": REFERENCE_CROSSED_TALLY,
        }


def build_report(entries: list[CatalogEntry]) -> CatalogReport:
    """Aggregate entries into the breakdown table and the soft-tally notes.

    compound_star_labels records every star-style label n-m(s) that lands on
    a compound band under this seam convention (gcd(n, s) > 1): the label
    exists in the naming scheme but the object is a compound, so it is kept
    out of the star tally and flagged instead.
    """
    entries = check_items("entries", entries, CatalogEntry)
    # per (n, s): its row, its compound labels, and per base name its branches and bare names
    groups: dict[tuple[int, int], tuple[dict, list[str], dict[str, list[int]]]] = {}
    for e in entries:
        key = n, s = e.n_strips, e.shift
        if key not in groups:
            row = {"n": n, "s": s, "components": e.components, "branches": 0, "plain": 0, "stars": 0, "crossed": 0}
            groups[key] = row, [], {}
        row, labels, names = groups[key]
        row["branches"] += 1
        if e.components == 1:
            row["plain"] += e.winding_m <= 1
            row["stars"] += e.is_star
            row["crossed"] += e.vertex_figure == "crossed"
        g = row["components"]
        if g > 1 and e.winding_m >= 2:
            labels.append(
                f"{n}-{e.winding_m}({s}) is a {g}-compound under this seam "
                f"convention (branch {e.branch_index}, named {e.name!r}); "
                f"excluded from the star tally"
            )
        base = e.name.split(" [b")[0]
        count = names.setdefault(base, [0, 0])
        count[0] += 1
        count[1] += e.name == base  # a catalog read back from a hand-edited file may lack the suffix

    rows: list[dict] = []
    collisions: list[str] = []
    compound_labels: list[str] = []
    for (n, s), (row, labels, names) in sorted(groups.items()):
        rows.append(row)
        compound_labels += labels
        collisions += [
            f"({n},{s}): winding label {nm!r} shared by {total} branches; "
            + (f"{bare} without a branch suffix" if bare else "branch suffix added")
            for nm, (total, bare) in names.items()
            if total > 1
        ]

    return CatalogReport(
        rows=rows,
        star_total=sum(r["stars"] for r in rows),
        crossed_total=sum(r["crossed"] for r in rows),
        plain_total=sum(r["plain"] for r in rows),
        compound_entries=sum(r["branches"] for r in rows if r["components"] > 1),
        entry_total=len(entries),
        collisions=sorted(collisions),
        compound_star_labels=compound_labels,
    )


def format_report(report: CatalogReport) -> str:
    """Fixed-width text rendering of the breakdown, for the CLI and demos."""
    check_type("report", report, CatalogReport)
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
    """An entry field value as its CatalogEntry type; ParameterError if it is not one.

    A bool is never taken for a number, a real must be finite (check_real),
    an integer is a valid real, and nothing else converts: "false" is not a
    bool and 5.7 is not an int.
    """
    kind = _ENTRY_TYPES[name]
    if kind is float:
        check_real(name, v)
    elif kind is int:
        check_int(name, v)
    else:
        check_type(name, v, kind)
    return kind(v)


def _scalar(v) -> str:
    """Catalog text of one option value: a real as in an entry column (_texts),
    anything else, ints and bools too, as JSON."""
    return _texts([v], float, json.dumps)[0] if isinstance(v, float) else json.dumps(v)


def _exact(kind: type, values) -> bool:
    """True when every value is exactly of type kind, and finite if kind is float."""
    return set(map(type, values)) <= {kind} and (kind is not float or all(map(math.isfinite, values)))


def _columns(entries: list[CatalogEntry]) -> list[list]:
    """Each entry field as a column of its CatalogEntry type, every value checked.

    When every column is exactly its field's type, and finite for a real, the
    values are taken as they are. Otherwise every value goes through _typed,
    entry by entry and field by field, so the first bad value raises and each
    other converts as read_catalog would.
    """
    columns = [list(column) for column in zip(*map(_FIELD_VALUES, entries))] or [[] for _ in _ENTRY_FIELDS]
    if all(map(_exact, _ENTRY_TYPES.values(), columns)):
        return columns
    rows = [list(map(_typed, _ENTRY_FIELDS, _FIELD_VALUES(entry))) for entry in entries]
    return [list(column) for column in zip(*rows)]


def _texts(column: list, kind: type, quote) -> list[str]:
    """Catalog text of one checked column: reals as %.15g of v + 0.0 (no "-0"),
    filled into one template per column, bools as true/false, and ints plain
    and strings as quote(v), each distinct value formatted once."""
    if kind is float:
        filled = "\n".join(["%.15g"] * len(column)) % tuple([v + 0.0 for v in column])
        return filled.split("\n") if column else []
    if kind is bool:
        return ["true" if v else "false" for v in column]
    text = {v: str(v) if kind is int else quote(v) for v in set(column)}
    return list(map(text.__getitem__, column))


def write_catalog(entries: list[CatalogEntry], sink, options: dict | None = None) -> None:
    """Serialize entries as the catalog JSON document, byte deterministic.

    Reals carry 15 significant digits; the field order is fixed. options is
    recorded verbatim, each key as str(key), sorted by that text, so a catalog
    names the run that made it. options other than a dict or None, a
    non-finite real option at any depth, an option json cannot encode, two
    keys with one text, a bad entry field, or a sink neither a file object nor
    a path (_opened) raises ParameterError before the sink opens: no partial file.
    """
    check_type("options", options, (dict, type(None)))
    entries = check_items("entries", entries, CatalogEntry)
    opt = {}
    for k, v in (options or {}).items():
        try:
            json.dumps(v, allow_nan=False)
        except (TypeError, ValueError, RecursionError) as exc:
            # reprlib bounds the text: repr recurses as deep as the option
            raise ParameterError(f"option {k!r} must be strict JSON, got {reprlib.repr(v)}") from exc
        if str(k) in opt:
            raise ParameterError(f"option keys {opt[str(k)][0]!r} and {k!r} both write as {str(k)!r}")
        opt[str(k)] = (k, v)
    recorded = ", ".join(f"{json.dumps(text)}: {_scalar(v)}" for text, (_, v) in sorted(opt.items()))
    texts = [_texts(column, kind, encode_basestring_ascii) for column, kind in zip(_columns(entries), _ENTRY_TYPES.values())]
    body = ",".join(_ENTRY_TEMPLATE % row for row in zip(*texts)) + ("\n  " if entries else "")
    with _opened(sink) as fh:
        fh.write(f'{{\n  "generated_by": "helistar {__version__}",\n  "options": {{{recorded}}},\n')
        fh.write(f'  "entries": [{body}]\n}}\n')


def read_catalog(source) -> list[CatalogEntry]:
    """Parse a catalog document back into entries.

    Raises CatalogFormatError with line/field diagnostics on malformed input,
    including bytes that are not UTF-8, an integer longer than Python will
    convert, and nesting deeper than the JSON decoder allows. A source neither
    a file object nor a path (_opened) raises ParameterError, unopened.
    """
    try:
        with _opened(source, "r", newline=None) as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(
            f"catalog parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise CatalogFormatError(f"catalog cannot be decoded: {exc}") from exc
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
            except ParameterError as exc:
                raise CatalogFormatError(f"entry {i}: field {name!r}: {exc}") from exc
        entries.append(CatalogEntry(**kwargs))
    return entries


def _csv_quote(text: str) -> str:
    """A CSV field: text as it is, or in double quotes, each quote doubled,
    when it holds a comma, a quote, a line feed or a carriage return."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_catalog_csv(entries: list[CatalogEntry], sink) -> None:
    """CSV export: header row, then one row per entry, all checked before the sink opens.

    Fields are the catalog texts of write_catalog, joined by commas, and each
    row ends in a line feed. A string is quoted by csv.QUOTE_MINIMAL's rule as
    Python 3.13's csv.writer applies it (_csv_quote): only when it holds a
    comma, a double quote, a line feed or a carriage return, with its quotes
    doubled, so every row reads back through csv.reader. Numbers and
    booleans never need quotes. A sink neither a file object nor a path
    (_opened) raises ParameterError.
    """
    entries = check_items("entries", entries, CatalogEntry)
    texts = [_texts(column, kind, _csv_quote) for column, kind in zip(_columns(entries), _ENTRY_TYPES.values())]
    rows = [",".join(_ENTRY_FIELDS), *map(",".join, zip(*texts)), ""]
    with _opened(sink, newline="") as fh:
        fh.write("\n".join(rows))
