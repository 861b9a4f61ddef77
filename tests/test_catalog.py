"""Naming, enumeration, report building, and catalog persistence."""

import csv
import io
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from helistar import (
    BandSpec,
    CatalogEntry,
    CatalogFormatError,
    ParameterError,
    build_report,
    component_params,
    enumerate_catalog,
    format_report,
    read_catalog,
    solve_band,
    write_catalog,
    write_catalog_csv,
)
from helistar.catalog import _ENTRY_FIELDS
from helpers import catalog_csv_oracle, catalog_json_oracle

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

    def test_connected_branch_is_its_own_component(self, solutions_5_12):
        connected = [sol for (n, s), sols in solutions_5_12.items() if math.gcd(n, s) == 1 for sol in sols]
        assert len(connected) == 91
        for sol in connected:
            assert component_params(sol) == (1, sol.band, sol.params)

class TestEnumerate:
    def test_orders_and_skips_compounds_by_default(self):
        entries = enumerate_catalog(5, 6)
        keys = [(e.n_strips, e.shift, e.branch_index) for e in entries]
        assert keys == sorted(keys)
        assert all(e.components == 1 for e in entries)

    def test_include_compounds(self):
        entries = enumerate_catalog(5, 6, include_compounds=True)
        assert any(e.components == 2 for e in entries)

    @pytest.mark.parametrize("flag", ["no", "", 0, 1, None, np.True_])
    def test_include_compounds_must_be_a_bool(self, flag):
        # a truthy value such as "no" is not read as True
        with pytest.raises(ParameterError, match="^include_compounds must be a bool, got"):
            enumerate_catalog(5, 8, include_compounds=flag)

    def test_include_compounds_is_keyword_only(self):
        # a third positional argument, such as a stale options object, is refused, not read as the flag
        with pytest.raises(TypeError, match="positional"):
            enumerate_catalog(5, 8, True)

    def test_rejects_bad_range(self):
        with pytest.raises(ParameterError):
            enumerate_catalog(2, 6)
        with pytest.raises(ParameterError):
            enumerate_catalog(7, 6)
        with pytest.raises(ParameterError, match="n_min"):
            enumerate_catalog(5.5, 6)
        with pytest.raises(ParameterError, match="n_min"):
            enumerate_catalog("5", 6)
        with pytest.raises(ParameterError, match="n_max must be an integer >= 5 and <= 1000"):
            enumerate_catalog(5, 1001)
        with pytest.raises(ParameterError, match="n_min must be an integer >= 3 and <= 1000"):
            enumerate_catalog(1001, 1002)

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

    def test_as_dict_keys(self, catalog_entries):
        # the key set of enumerate --json; values are the report's own fields
        rep = build_report(catalog_entries)
        d = rep.as_dict()
        assert sorted(d) == sorted([
            "rows", "star_total", "reference_star_tally", "crossed_total",
            "reference_crossed_tally", "plain_total", "compound_entries",
            "entry_total", "collisions", "compound_star_labels",
        ])
        assert (d["rows"], d["star_total"], d["collisions"]) == (rep.rows, rep.star_total, rep.collisions)

    def test_compound_star_labels_note(self, catalog_entries):
        rep = build_report(catalog_entries)
        assert any("12-5(3)" in line for line in rep.compound_star_labels)
        assert all("excluded from the star tally" in line for line in rep.compound_star_labels)

    def test_collision_line_of_a_generated_catalog(self, catalog_entries):
        rep = build_report(catalog_entries)
        assert "(9,1): winding label '9-4(1)' shared by 2 branches; branch suffix added" in rep.collisions
        assert all(line.endswith("; branch suffix added") for line in rep.collisions)

    def test_collision_line_without_a_suffix(self, catalog_entries):
        # a hand-edited catalog: the second (5, 1) entry renamed to the first's name
        five_one = [e for e in catalog_entries if (e.n_strips, e.shift) == (5, 1)]
        assert len(five_one) == 2
        buf = io.StringIO()
        write_catalog([five_one[0], replace(five_one[1], name=five_one[0].name)], buf)
        rep = build_report(read_catalog(io.StringIO(buf.getvalue())))
        assert rep.collisions == [
            "(5,1): winding label '5(1) helical deltahedron' shared by 2 branches; 2 without a branch suffix"
        ]
        # one entry suffixed and one not
        mixed = [replace(five_one[0], name="5-2(1) [b1]"), five_one[1]]
        assert build_report(mixed).collisions == [
            "(5,1): winding label '5-2(1)' shared by 2 branches; 1 without a branch suffix"
        ]

    def test_a_one_shot_iterator_reports_as_its_list(self, catalog_entries):
        # the report counts its entries after one pass over them
        assert build_report(iter(catalog_entries)) == build_report(catalog_entries)

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

    @pytest.mark.parametrize("count", [0, 3])
    def test_a_one_shot_iterator_writes_as_its_list(self, catalog_entries, count):
        # an empty iterator is truthy, so testing it for entries once wrote "entries": [\n  ]
        entries = catalog_entries[:count]
        for write in (write_catalog, write_catalog_csv):
            from_list, from_iter = io.StringIO(), io.StringIO()
            write(entries, from_list)
            write(iter(entries), from_iter)
            assert from_iter.getvalue() == from_list.getvalue()

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
            (pinned_doc(n_strips="abc"), "entry 1: field 'n_strips': n_strips must be an integer, got 'abc'$"),
            (pinned_doc(n_strips=None), "entry 1: field 'n_strips': n_strips must be an integer, got None$"),
            (pinned_doc(intersecting="false"), "entry 1: field 'intersecting': intersecting must be a bool, got 'false'$"),
            (pinned_doc(intersecting=0), "entry 1: field 'intersecting': intersecting must be a bool, got 0$"),
            (pinned_doc(n_strips=5.7), "entry 1: field 'n_strips': n_strips must be an integer, got 5.7$"),
            (pinned_doc(components=True), "entry 1: field 'components': components must be an integer, got True$"),
            (pinned_doc(theta="1.5"), "entry 1: field 'theta'"),
            (pinned_doc(r=True), "entry 1: field 'r'"),
            (pinned_doc(vertex_figure=1), "entry 1: field 'vertex_figure': vertex_figure must be a str, got 1$"),
            (pinned_doc(theta=math.nan), "entry 1: field 'theta'"),
            (pinned_doc(r=math.inf), "entry 1: field 'r'"),
            (pinned_doc(h=-math.inf), "entry 1: field 'h'"),
            (pinned_doc(residual=10**400), "entry 1: field 'residual'"),
        ],
        ids=[
            "entries-not-a-list", "entry-not-an-object", "n_strips-abc", "n_strips-null",
            "intersecting-string", "intersecting-int", "n_strips-real", "components-bool",
            "theta-string", "r-bool", "vertex_figure-int", "theta-nan", "r-infinity",
            "h-minus-infinity", "residual-huge-int",
        ],
    )
    def test_malformed_entries_name_index_and_field(self, doc, match):
        with pytest.raises(CatalogFormatError, match=match):
            read_catalog(io.StringIO(doc))

    def test_a_file_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_bytes(b'{"entries": [\xff]}')
        for source in (str(path), io.BytesIO(path.read_bytes())):
            with pytest.raises(CatalogFormatError, match="decode byte 0xff in position 13"):
                read_catalog(source)

    def test_nesting_deeper_than_the_decoder_is_a_format_error(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("[" * 100000)
        for source in (str(path), io.StringIO("[" * 100000)):
            with pytest.raises(CatalogFormatError, match="recursion depth"):
                read_catalog(source)

    def test_an_integer_too_long_to_convert_is_a_format_error(self):
        # past sys.get_int_max_str_digits the decoder raises a bare ValueError;
        # a Python without that limit reads the int and finds the entry incomplete
        with pytest.raises(CatalogFormatError):
            read_catalog(io.StringIO('{"entries": [{"n_strips": ' + "1" * 5000 + "}]}"))

    @pytest.mark.parametrize("field", ["theta", "r", "h", "residual"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.5"])
    def test_write_refuses_a_real_field_that_is_not_a_finite_real(self, field, value):
        # the bytes would not read back: NaN and Infinity are refused on read
        bad = [PINNED_ENTRIES[0], replace(PINNED_ENTRIES[1], **{field: value})]
        for write in (write_catalog, write_catalog_csv):
            with pytest.raises(ParameterError, match=field):
                write(bad, io.StringIO())

    def test_options_with_any_key_read_back(self):
        opts = {'a"b': 1, "back\\slash": "x", "tab\tkey": 2.5}
        buf = io.StringIO()
        write_catalog(PINNED_ENTRIES, buf, opts)
        assert len(read_catalog(io.StringIO(buf.getvalue()))) == 2
        assert json.loads(buf.getvalue())["options"] == opts

    def test_a_catalog_recording_the_old_grid_option_reads_back(self):
        # catalogs written while the solver grid was a CLI flag record it among their options
        opts = {"grid_points": 200000, "include_compounds": False, "n_max": 12, "n_min": 5}
        buf = io.StringIO()
        write_catalog(PINNED_ENTRIES, buf, opts)
        assert '"options": {"grid_points": 200000, "include_compounds": false, ' in buf.getvalue()
        again = io.StringIO()
        write_catalog(read_catalog(io.StringIO(buf.getvalue())), again, opts)
        assert again.getvalue() == buf.getvalue()

    def test_option_keys_of_mixed_types_are_written_and_sorted_as_text(self):
        buf = io.StringIO()
        write_catalog(PINNED_ENTRIES, buf, {1: 2, "a": 3, 10: 4})
        assert '"options": {"1": 2, "10": 4, "a": 3}' in buf.getvalue()
        assert len(read_catalog(io.StringIO(buf.getvalue()))) == 2

    @pytest.mark.parametrize("opts", [{1: 2, "1": 3}, {True: 1, "True": 2}])
    def test_write_refuses_two_option_keys_with_one_text(self, tmp_path, opts):
        path = tmp_path / "cat.json"
        with pytest.raises(ParameterError, match="both write as"):
            write_catalog(PINNED_ENTRIES, str(path), opts)
        assert not path.exists()

    @pytest.mark.parametrize(
        "value",
        [
            math.nan, math.inf, -math.inf,
            # NaN and Infinity are not JSON at any depth, and what json cannot encode has no text
            pytest.param([math.nan], id="nan-in-list"),
            pytest.param({"y": math.inf}, id="inf-in-dict"),
            pytest.param([1, {"z": -math.inf}], id="nested-minus-inf"),
            pytest.param(object(), id="object"),
            pytest.param({("a",): 1}, id="tuple-key"),
        ],
    )
    def test_write_refuses_a_non_finite_option_before_writing(self, tmp_path, value):
        path = tmp_path / "cat.json"
        with pytest.raises(ParameterError, match="option 'x'"):
            write_catalog(PINNED_ENTRIES, str(path), {"x": value})
        assert not path.exists()

    @pytest.mark.parametrize("options", [[("x", 1)], "x"], ids=["list", "str"])
    def test_write_refuses_options_that_are_not_a_dict(self, tmp_path, options):
        path = tmp_path / "cat.json"
        with pytest.raises(ParameterError, match="options must be a dict"):
            write_catalog(PINNED_ENTRIES, str(path), options)
        assert not path.exists()

    @pytest.mark.parametrize("nest", [lambda x: [x], lambda x: {"y": x}], ids=["list", "dict"])
    def test_write_refuses_an_option_too_deep_to_encode(self, tmp_path, nest):
        value = 1
        for _ in range(5000):
            value = nest(value)
        path = tmp_path / "cat.json"
        with pytest.raises(ParameterError, match="option 'x'"):
            write_catalog(PINNED_ENTRIES, str(path), {"x": value})
        assert not path.exists()

    @pytest.mark.parametrize("write", [write_catalog, write_catalog_csv])
    def test_failed_write_leaves_no_file(self, tmp_path, write):
        path = tmp_path / "cat.out"
        bad = [PINNED_ENTRIES[0], replace(PINNED_ENTRIES[1], theta=math.nan)]
        with pytest.raises(ParameterError, match="theta"):
            write(bad, str(path))
        assert not path.exists()

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


# Entries whose fields are admissible but not of the exact field type, or
# awkward to quote: the column writers take them through the per-value checks
MIXED_ENTRIES = [
    replace(PINNED_ENTRIES[1], theta=2, r=np.float64(0.25), residual=-0.0),
    replace(PINNED_ENTRIES[0], name='quote " comma , and \u00e9t\u00e9', h=np.float64(-0.0), n_strips=11),
    replace(PINNED_ENTRIES[1], name='quote " comma , and \u00e9t\u00e9', winding_m=7, r=3),
]


class TestColumnWriters:
    @pytest.fixture(scope="class")
    def census_5_24(self):
        return enumerate_catalog(5, 24, include_compounds=True)

    def test_census_bytes_match_the_per_value_writers(self, census_5_24):
        opts = {"n_min": 5, "n_max": 24, "include_compounds": True, "grid_points": 200000}
        assert len(census_5_24) == 1149
        json_buf, csv_buf = io.StringIO(), io.StringIO()
        write_catalog(census_5_24, json_buf, opts)
        write_catalog_csv(census_5_24, csv_buf)
        assert json_buf.getvalue() == catalog_json_oracle(census_5_24, opts)
        assert csv_buf.getvalue() == catalog_csv_oracle(census_5_24)

    @pytest.mark.parametrize("entries", [MIXED_ENTRIES, MIXED_ENTRIES[::-1], MIXED_ENTRIES + PINNED_ENTRIES])
    def test_mixed_types_match_the_per_value_writers(self, entries):
        json_buf, csv_buf = io.StringIO(), io.StringIO()
        write_catalog(entries, json_buf, PINNED_OPTIONS)
        write_catalog_csv(entries, csv_buf)
        assert json_buf.getvalue() == catalog_json_oracle(entries, PINNED_OPTIONS)
        assert csv_buf.getvalue() == catalog_csv_oracle(entries)
        assert '"r": 0.25' in json_buf.getvalue() and '"theta": 2,' in json_buf.getvalue()
        assert "-0" not in csv_buf.getvalue()

    def test_the_first_bad_value_in_entry_order_is_named(self):
        # entry 0's r comes after entry 1's n_strips in field order, but first in entry order
        bad = [replace(PINNED_ENTRIES[0], r=math.inf), replace(PINNED_ENTRIES[1], n_strips=5.0)]
        for write in (write_catalog, write_catalog_csv):
            with pytest.raises(ParameterError, match="^r must be a finite real"):
                write(bad, io.StringIO())


AWKWARD_TEXTS = ["a\nb", "a\rb", "a\r\nb", "\n", "\r", "\r\n", 'say "hi"', '"', "x,y", ",", " lead", "trail ", " ", ""]


class TestCsvQuoting:
    """write_catalog_csv's joined rows against csv.writer, on strings that need quotes or seem to."""

    @staticmethod
    def entries(texts: list[str]) -> list[CatalogEntry]:
        return [replace(PINNED_ENTRIES[1], name=t, chirality_note=t[::-1], branch_index=i) for i, t in enumerate(texts)]

    @pytest.mark.parametrize("text", AWKWARD_TEXTS)
    def test_one_awkward_string_matches_csv_writer_and_reads_back(self, text):
        buf = io.StringIO()
        write_catalog_csv(self.entries([text, "plain"]), buf)
        assert buf.getvalue() == catalog_csv_oracle(self.entries([text, "plain"]))
        header, *rows = csv.reader(io.StringIO(buf.getvalue(), newline=""))
        assert header == _ENTRY_FIELDS
        assert [(row[0], row[-1], len(row)) for row in rows] == [(text, text[::-1], 13), ("plain", "nialp", 13)]

    def test_every_awkward_string_in_one_catalog(self):
        # each string twice, so the per-string quote is shared by its rows
        entries = self.entries(AWKWARD_TEXTS * 2)
        buf = io.StringIO()
        write_catalog_csv(entries, buf)
        assert buf.getvalue() == catalog_csv_oracle(entries)
        _, *rows = csv.reader(io.StringIO(buf.getvalue(), newline=""))
        assert [row[0] for row in rows] == [e.name for e in entries]
        assert [row[3] for row in rows] == [str(e.branch_index) for e in entries]

    def test_the_quoting_rule(self):
        # quoted only for a comma, a double quote, a line feed or a carriage return; spaces stay bare
        buf = io.StringIO()
        write_catalog_csv(self.entries(["a\rb", 'q"', " x ", "a,b"]), buf)
        assert [line.split(",")[0] for line in buf.getvalue().split("\n")[1:-1]] == ['"a\rb"', '"q"""', " x ", '"a']

    def test_an_empty_catalog_is_the_header_line(self):
        buf = io.StringIO()
        write_catalog_csv([], buf)
        assert buf.getvalue() == catalog_csv_oracle([]) == ",".join(_ENTRY_FIELDS) + "\n"
