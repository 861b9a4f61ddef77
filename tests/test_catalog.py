"""Naming, enumeration, report building, and catalog persistence."""

import io
import json
import math
from dataclasses import asdict

import pytest

from helistar import (
    BandSpec,
    CatalogEntry,
    CatalogFormatError,
    NotACompoundError,
    ParameterError,
    build_report,
    component_params,
    enumerate_catalog,
    format_report,
    read_catalog,
    solve_band,
    solve_branches,
    write_catalog,
    write_catalog_csv,
)
from helistar.band_combinatorics import OffsetTriple
from helistar.catalog import _ENTRY_FIELDS

TET_THETA = math.acos(-2.0 / 3.0)
TET_R = 3.0 * math.sqrt(3.0) / 10.0
TET_H = 1.0 / math.sqrt(10.0)

PINNED_ENTRIES = [
    CatalogEntry(
        name='odd, "quoted" name', n_strips=7, shift=3, branch_index=2, winding_m=3,
        theta=-0.0, r=2.25597318603832e-13, h=0.5, residual=1e-16, intersecting=True,
        vertex_figure="simple", components=1, chirality_note="note",
    ),
    CatalogEntry(
        name="6(1) helical deltahedron", n_strips=6, shift=1, branch_index=1, winding_m=1,
        theta=1.0471975511965976, r=1.0, h=-0.0, residual=0.0, intersecting=False,
        vertex_figure="crossed", components=1, chirality_note="note",
    ),
]


def pinned_doc(**override) -> str:
    """Catalog text of the pinned entries with fields of the second one replaced."""
    raw = [asdict(e) for e in PINNED_ENTRIES]
    raw[1].update(override)
    return json.dumps({"entries": raw})


PINNED_OPTIONS = {"flag": True, "count": 5, "tol": 1e-13, "label": "x,y", "none": None, "neg": -0.0}

PINNED_JSON = """\
{
  "generated_by": "helistar 0.1.0",
  "options": {"count": 5, "flag": true, "label": "x,y", "neg": 0, "none": null, "tol": 1e-13},
  "entries": [
    {
      "name": "odd, \\"quoted\\" name",
      "n_strips": 7,
      "shift": 3,
      "branch_index": 2,
      "winding_m": 3,
      "theta": 0,
      "r": 2.25597318603832e-13,
      "h": 0.5,
      "residual": 1e-16,
      "intersecting": true,
      "vertex_figure": "simple",
      "components": 1,
      "chirality_note": "note"
    },
    {
      "name": "6(1) helical deltahedron",
      "n_strips": 6,
      "shift": 1,
      "branch_index": 1,
      "winding_m": 1,
      "theta": 1.0471975511966,
      "r": 1,
      "h": 0,
      "residual": 0,
      "intersecting": false,
      "vertex_figure": "crossed",
      "components": 1,
      "chirality_note": "note"
    }
  ]
}
"""

PINNED_CSV = """\
name,n_strips,shift,branch_index,winding_m,theta,r,h,residual,intersecting,vertex_figure,components,chirality_note
"odd, ""quoted"" name",7,3,2,3,0,2.25597318603832e-13,0.5,1e-16,true,simple,1,note
6(1) helical deltahedron,6,1,1,1,1.0471975511966,1,0,0,false,crossed,1,note
"""


class TestNaming:
    def test_plain_and_star_names(self, catalog_entries):
        names = {e.name for e in catalog_entries}
        assert "5(1) helical deltahedron" in names
        assert "5-2(1)" in names
        assert "5-2(2)" in names
        assert "5-4(2)" in names

    def test_compound_names_scaled_to_component(self, catalog_entries):
        six_two = [e for e in catalog_entries if (e.n_strips, e.shift) == (6, 2)]
        assert len(six_two) == 2
        for e in six_two:
            assert e.name.startswith("compound 2 x 3(1) helical deltahedron")
            assert e.components == 2

    def test_winding_collision_gets_branch_suffix(self, catalog_entries):
        nine_one = [e for e in catalog_entries if (e.n_strips, e.shift) == (9, 1)]
        m4 = [e for e in nine_one if e.winding_m == 4]
        assert len(m4) == 2
        assert {e.name for e in m4} == {"9-4(1) [b4]", "9-4(1) [b5]"}
        # non-colliding siblings keep clean names
        assert any(e.name == "9-2(1)" for e in nine_one)


class TestComponentParams:
    def test_six_two_folds_to_tetrahelix(self):
        for sol in solve_band(BandSpec(6, 2)):
            g, comp, cp = component_params(sol)
            assert g == 2
            assert comp == BandSpec(3, 1)
            assert abs(cp.theta - TET_THETA) < 1e-9
            assert abs(cp.r - TET_R) < 1e-9
            assert abs(cp.h - TET_H) < 1e-9

    def test_connected_band_is_not_a_compound(self, band52):
        with pytest.raises(NotACompoundError):
            component_params(band52[0])

    def test_needs_a_band(self):
        sols = solve_branches(OffsetTriple(2, 4, 6))
        assert sols  # offsets alone do have branches, but no strips
        with pytest.raises(ParameterError):
            component_params(sols[0])


class TestEnumerate:
    def test_orders_and_skips_compounds_by_default(self):
        entries = enumerate_catalog(5, 6)
        keys = [(e.n_strips, e.shift, e.branch_index) for e in entries]
        assert keys == sorted(keys)
        assert all(e.components == 1 for e in entries)

    def test_include_compounds(self):
        entries = enumerate_catalog(5, 6, include_compounds=True)
        assert any(e.components == 2 for e in entries)

    def test_rejects_bad_range(self):
        with pytest.raises(ParameterError):
            enumerate_catalog(2, 6)
        with pytest.raises(ParameterError):
            enumerate_catalog(7, 6)

    def test_star_flag_matches_definition(self, catalog_entries):
        for e in catalog_entries:
            expected = e.components == 1 and e.intersecting and e.vertex_figure == "simple"
            assert e.is_star == expected


class TestReport:
    def test_totals_are_consistent(self, catalog_entries):
        rep = build_report(catalog_entries)
        assert rep.entry_total == len(catalog_entries)
        assert rep.star_total == sum(1 for e in catalog_entries if e.is_star)
        assert sum(r["branches"] for r in rep.rows) == rep.entry_total
        d = rep.as_dict()
        assert d["reference_star_tally"] == 64
        assert d["reference_crossed_tally"] == 12

    def test_compound_star_labels_note(self, catalog_entries):
        rep = build_report(catalog_entries)
        assert any("12-5(3)" in line for line in rep.compound_star_labels)
        assert all("excluded from the star tally" in line for line in rep.compound_star_labels)

    def test_format_is_deterministic_text(self, catalog_entries):
        rep = build_report(catalog_entries)
        text = format_report(rep)
        assert text == format_report(build_report(catalog_entries))
        assert "published reference tally: 64" in text
        assert "published reference tally: 12" in text
        assert text.splitlines()[0].split() == ["n", "s", "comp", "branches", "plain", "stars", "crossed"]


class TestPersistence:
    def test_json_bytes_are_pinned(self):
        buf = io.StringIO()
        write_catalog(PINNED_ENTRIES, buf, PINNED_OPTIONS)
        assert buf.getvalue() == PINNED_JSON

    def test_csv_bytes_are_pinned(self):
        buf = io.StringIO()
        write_catalog_csv(PINNED_ENTRIES, buf)
        assert buf.getvalue() == PINNED_CSV

    def test_write_read_write_is_byte_identical(self, catalog_entries):
        opts = {"n_min": 5, "n_max": 12, "include_compounds": True}
        buf1 = io.StringIO()
        write_catalog(catalog_entries, buf1, opts)
        back = read_catalog(io.StringIO(buf1.getvalue()))
        buf2 = io.StringIO()
        write_catalog(back, buf2, opts)
        assert buf1.getvalue() == buf2.getvalue()

    def test_read_back_values_close(self, catalog_entries):
        buf = io.StringIO()
        write_catalog(catalog_entries, buf, {})
        back = read_catalog(io.StringIO(buf.getvalue()))
        assert len(back) == len(catalog_entries)
        for a, b in zip(catalog_entries, back):
            assert a.name == b.name
            assert a.winding_m == b.winding_m
            assert abs(a.theta - b.theta) < 1e-13
            assert a.intersecting == b.intersecting

    def test_empty_catalog_round_trips(self):
        buf = io.StringIO()
        write_catalog([], buf, {})
        assert read_catalog(io.StringIO(buf.getvalue())) == []

    def test_parse_error_carries_position(self):
        with pytest.raises(CatalogFormatError, match="line"):
            read_catalog(io.StringIO('{"entries": [bad'))

    def test_missing_field_names_entry(self):
        doc = '{"generated_by": "x", "options": {}, "entries": [{"name": "q"}]}'
        with pytest.raises(CatalogFormatError, match="entry 0.*missing field"):
            read_catalog(io.StringIO(doc))

    def test_not_an_object(self):
        with pytest.raises(CatalogFormatError):
            read_catalog(io.StringIO("[1, 2]"))

    @pytest.mark.parametrize(
        "doc, match",
        [
            ('{"entries": 5}', "'entries' must be a list"),
            ('{"entries": [5]}', "entry 0: must be an object"),
            (pinned_doc(n_strips="abc"), "entry 1: field 'n_strips'"),
            (pinned_doc(n_strips=None), "entry 1: field 'n_strips'"),
        ],
        ids=["entries-not-a-list", "entry-not-an-object", "n_strips-abc", "n_strips-null"],
    )
    def test_malformed_entries_name_index_and_field(self, doc, match):
        with pytest.raises(CatalogFormatError, match=match):
            read_catalog(io.StringIO(doc))

    def test_csv_header_and_rows(self, catalog_entries):
        buf = io.StringIO()
        write_catalog_csv(catalog_entries, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(_ENTRY_FIELDS)
        assert len(lines) == len(catalog_entries) + 1
        assert lines[1].startswith("5(1) helical deltahedron,5,1,1,1,")

    def test_file_paths_work(self, catalog_entries, tmp_path):
        path = tmp_path / "cat.json"
        write_catalog(catalog_entries[:3], str(path), {"note": "t"})
        assert len(read_catalog(str(path))) == 3
