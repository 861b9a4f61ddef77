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
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .analysis import Classification, classify
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
    band, g, params = solution.band, solution.band.components, solution.params
    theta_c = _twist(g, params.theta)
    return g, BandSpec(band.n_strips // g, band.shift // g), HelixParams(r=params.r, theta=theta_c, h=g * params.h)


def _twist(g: int, theta: float) -> float:
    """The twist of the component of a branch of g components at twist theta: g*theta folded into (0, pi]."""
    turn = math.fmod(g * theta, 2.0 * math.pi)
    return 2.0 * math.pi - turn if turn > math.pi else turn


def _base_name(n: int, s: int, m: int) -> str:
    if m >= 2:
        return f"{n}-{m}({s})"
    return f"{n}({s}) helical deltahedron"


def _entry_name(n: int, s: int, g: int, m: int, theta: float) -> str:
    """A branch's name, suffix aside, from its band's n, s and g, its winding_m and its twist."""
    if g == 1:
        return _base_name(n, s, m)
    n, s = n // g, s // g
    return f"compound {g} x {_base_name(n, s, _winding(n, s, _twist(g, theta)))}"


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
    solutions = [sol for sols in solve_band(bands) for sol in sols]
    return _entries(solutions, classify(solutions))


def _entries(solutions: list[BranchSolution], verdicts: list[Classification]) -> list[CatalogEntry]:
    """The entries of branches of any bands, in order, each with its verdict, built column by column.

    A name holds its band's n and s, or g and its component's, so a repeated
    name is a winding collision inside one band: its branches get the " [bN]" suffix.
    """
    n, s, index, m, theta, r, h, residual = zip(*[
        (band.n_strips, band.shift, sol.branch_index, sol.winding_m, p.theta, p.r, p.h, sol.residual)
        for sol in solutions for band, p in [(sol.band, sol.params)]
    ]) if solutions else [()] * 8
    g = list(map(math.gcd, n, s))
    names = list(map(_entry_name, n, s, g, m, theta))
    repeated = {name for name, count in Counter(names).items() if count > 1}
    names = [f"{name} [b{i}]" if name in repeated else name for name, i in zip(names, index)]
    hit, figure = [c.intersecting for c in verdicts], [c.vertex_figure for c in verdicts]
    return list(map(CatalogEntry, names, n, s, index, m, theta, r, h, residual, hit, figure, g, repeat(CHIRALITY_NOTE)))


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
        self.rows, keys = check_items("rows", self.rows, dict), set(_REPORT_KEYS)
        for i, row in enumerate(self.rows):
            if row.keys() != keys:
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
    out of the star tally and flagged instead. The entries are read field by
    field and counted by column: one row per (n, s), in (n, s) order, whose
    components are its first entry's.
    """
    entries = check_items("entries", entries, CatalogEntry)
    values = [(e.n_strips, e.shift, e.components, e.winding_m, e.intersecting, e.vertex_figure, e.name) for e in entries]
    n, s, g, m, hit, figure, names = list(zip(*values)) or [()] * 7
    ns = np.array([n, s])
    order = np.lexsort(ns[::-1])  # (n, s) order, and entry order inside one (n, s)
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ns[:, order[1:]] != ns[:, order[:-1]]).any(axis=0)
    heads, group = order[starts].tolist(), np.empty_like(order)  # each row's first entry, and each entry's row
    group[order] = starts.cumsum() - 1
    own, winding, figure = np.array(g) == 1, np.array(m), np.array(figure, dtype=object)
    stars = own & np.array(hit, dtype=bool) & (figure == "simple")
    counts = [np.bincount(group[flags], minlength=len(heads)).tolist()
              for flags in (slice(None), own & (winding <= 1), stars, own & (figure == "crossed"))]
    rows = [{"n": n[i], "s": s[i], "components": g[i], "branches": b, "plain": p, "stars": k, "crossed": x}
            for i, b, p, k, x in zip(heads, *counts)]

    row_g = np.array([g[i] for i in heads])
    labelled = order[((row_g[group] > 1) & (winding >= 2))[order]].tolist()  # row by row, in entry order
    compound_labels = [
        f"{n[head]}-{m[i]}({s[head]}) is a {g[head]}-compound under this seam convention "
        f"(branch {entries[i].branch_index}, named {names[i]!r}); excluded from the star tally"
        for i, head in zip(labelled, map(heads.__getitem__, group[labelled].tolist()))
    ]
    bases = [name.split(" [b")[0] if " [b" in name else name for name in names]
    keyed = list(zip(group.tolist(), bases))
    bare = Counter(compress(keyed, map(operator.eq, names, bases)))  # a hand-edited file may lack the suffix
    collisions = [
        f"({n[heads[j]]},{s[heads[j]]}): winding label {name!r} shared by {total} branches; "
        + (f"{bare[j, name]} without a branch suffix" if bare[j, name] else "branch suffix added")
        for (j, name), total in Counter(keyed).items()
        if total > 1
    ]
    return CatalogReport(
        rows=rows,
        star_total=sum(counts[2]),
        crossed_total=sum(counts[3]),
        plain_total=sum(counts[1]),
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
    texted = {text: "%.15g" % (v + 0.0) if isinstance(v, float) else json.dumps(v) for text, (_, v) in opt.items()}
    recorded = ", ".join(f"{json.dumps(text)}: {texted[text]}" for text in sorted(texted))
    texts = [_texts(column, kind, encode_basestring_ascii) for column, kind in zip(_columns(entries), _ENTRY_TYPES.values())]
    keys = _ENTRY_TEMPLATE.split("%s")  # the text before each field's, and the entry's end
    rows = zip(*(part for key, column in zip(keys, texts) for part in (repeat(key), column)), repeat(keys[-1]))
    body = ",".join(map("".join, rows)) + ("\n  " if entries else "")
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
