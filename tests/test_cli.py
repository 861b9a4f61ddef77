"""CLI surface: subcommands, exit codes, json output, outputs checked before they are written."""

import json

import pytest

from helistar import cli, enumerate_catalog
from helistar.realization import MAX_WINDOW


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_tetrahelix_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--strips", "3", "--shift", "1")
        assert code == 0
        assert "2.300524" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "solve", "--strips", "3", "--shift", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_strips"] == 3 and doc["components"] == 1
        assert len(doc["branches"]) == 1
        assert abs(doc["branches"][0]["theta"] - 2.300523983) < 1e-9
        assert doc["branches"][0]["winding_m"] == 1

    def test_rows_are_the_catalog_entries_of_the_band(self, capsys):
        # every band of 5..12, compounds too: a row is its catalog entry's branch fields, in entry order
        fields = ["branch_index", "winding_m", "theta", "r", "h", "residual", "intersecting", "vertex_figure"]
        entries = enumerate_catalog(5, 12, include_compounds=True)
        rows = 0
        for n in range(5, 13):
            for s in range(1, n // 2 + 1):
                code, out, _ = run(capsys, "solve", "--strips", str(n), "--shift", str(s), "--json")
                doc = json.loads(out)
                band = [e for e in entries if (e.n_strips, e.shift) == (n, s)]
                assert code == (0 if band else 3)
                assert [list(row.items()) for row in doc["branches"]] == [[(f, getattr(e, f)) for f in fields] for e in band]
                assert all((doc["n_strips"], doc["shift"], doc["components"]) == (n, s, e.components) for e in band)
                rows += len(doc["branches"])
        assert rows == len(entries) == 124

    def test_shift_out_of_range_is_invalid(self, capsys):
        code, _, err = run(capsys, "solve", "--strips", "5", "--shift", "5")
        assert code == 2
        assert "shift" in err

    def test_too_few_strips_is_invalid(self, capsys):
        code, _, _ = run(capsys, "solve", "--strips", "2", "--shift", "1")
        assert code == 2

    @pytest.mark.parametrize("strips", ["1001", "100000"])
    def test_strips_beyond_the_bound_is_invalid(self, capsys, strips):
        # refused before any work: at 100000 the colleague matrix alone needs about 75 GiB
        code, out, err = run(capsys, "solve", "--strips", strips, "--shift", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --strips must be an integer >= 3 and <= 1000, got {strips}\n"

    def test_no_branches_is_no_result(self, capsys):
        code, _, err = run(capsys, "solve", "--strips", "4", "--shift", "2")
        assert code == 3
        assert "no branches" in err

    @pytest.mark.parametrize("command", ["generate", "verify", "net", "modules"])
    def test_branch_commands_without_branches_are_no_result(self, capsys, tmp_path, command):
        out = ["--out", str(tmp_path / "x")] if command != "verify" else []
        code, _, err = run(capsys, command, "--strips", "4", "--shift", "2", *out)
        assert code == 3
        assert "no branches for this band" in err


class TestGenerate:
    def test_writes_mesh(self, capsys, tmp_path):
        out = tmp_path / "tet.obj"
        code, text, _ = run(
            capsys, "generate", "--strips", "3", "--shift", "1",
            "--periods", "4", "--out", str(out),
        )
        assert code == 0
        assert "13 vertices" in text and "20 faces" in text
        body = out.read_text()
        assert sum(1 for l in body.splitlines() if l.startswith("f ")) == 20

    def test_frame_lines(self, capsys, tmp_path):
        out = tmp_path / "frame.obj"
        code, text, _ = run(
            capsys, "generate", "--strips", "3", "--shift", "1",
            "--periods", "4", "--frame", "--out", str(out),
        )
        assert code == 0
        assert "33 lines" in text

    def test_missing_branch_reports_range(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "--strips", "5", "--shift", "2",
            "--branch", "9", "--out", str(tmp_path / "x.obj"),
        )
        assert code == 3
        assert "1..2" in err

    def test_unwritable_out_is_invalid(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "--strips", "3", "--shift", "1",
            "--out", str(tmp_path / "missing" / "x.obj"),
        )
        assert code == 2
        assert err.startswith("error:")


class TestEnumerate:
    def test_breakdown_and_catalog(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        csv = tmp_path / "cat.csv"
        code, out, _ = run(
            capsys, "enumerate", "--min", "5", "--max", "6",
            "--catalog", str(cat), "--csv", str(csv),
        )
        assert code == 0
        assert "star entries" in out and "published reference tally: 64" in out
        assert cat.exists() and csv.exists()
        doc = json.loads(cat.read_text())
        assert doc["generated_by"] == "helistar 0.1.0"
        assert doc["options"]["n_min"] == 5
        assert sorted(doc["options"]) == ["include_compounds", "n_max", "n_min"]

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--min", "5", "--max", "5", "--json",
            "--catalog", str(tmp_path / "c.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["star_total"] == 2
        assert doc["reference_star_tally"] == 64

    def test_bad_range(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "enumerate", "--min", "8", "--max", "6",
            "--catalog", str(tmp_path / "c.json"),
        )
        assert code == 2

    def test_max_beyond_the_bound_is_invalid(self, capsys, tmp_path):
        catalog = tmp_path / "c.json"
        code, out, err = run(capsys, "enumerate", "--min", "5", "--max", "1001", "--catalog", str(catalog))
        assert (code, out) == (2, "")
        assert err == "error: n_max must be an integer >= 5 and <= 1000, got 1001\n"
        assert not catalog.exists()

    @pytest.mark.parametrize("empty", ["--catalog", "--csv"])
    def test_an_empty_path_is_invalid(self, capsys, tmp_path, empty):
        # an empty --csv fails as an empty --catalog does, not by writing no CSV
        paths = {"--catalog": str(tmp_path / "c.json"), "--csv": str(tmp_path / "c.csv")} | {empty: ""}
        argv = [word for flag_path in paths.items() for word in flag_path]
        code, out, err = run(capsys, "enumerate", "--min", "5", "--max", "5", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "''" in err

    @pytest.mark.parametrize("csv", ["", "missing/c.csv"])
    def test_an_unopenable_csv_leaves_no_catalog(self, capsys, tmp_path, csv):
        # both outputs are checked before either is written, so no catalog is left behind
        code, out, err = run(
            capsys, "enumerate", "--min", "5", "--max", "5",
            "--catalog", str(tmp_path / "c.json"), "--csv", csv and str(tmp_path / csv),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_csv_keeps_an_existing_catalog(self, capsys, tmp_path):
        catalog = tmp_path / "c.json"
        catalog.write_text("an older catalog\n")
        code, _, _ = run(capsys, "enumerate", "--catalog", str(catalog), "--csv", str(tmp_path / "missing" / "c.csv"))
        assert code == 2
        assert catalog.read_text() == "an older catalog\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_an_unopenable_catalog_is_found_before_the_enumeration(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_catalog", lambda *a, **k: pytest.fail("enumerated"))
        code, _, err = run(capsys, "enumerate", "--catalog", str(tmp_path / "missing" / "c.json"))
        assert code == 2 and "missing" in err


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--strips", "5", "--shift", "2", "--periods", "6",
        )
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--strips", "5", "--shift", "2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "vertex_count",
            "interior_count",
            "face_count",
            "edge_length_max_dev",
            "face_angle_max_dev",
            "constellation_max_dev",
            "bad_interior_edges",
            "edge_length_ok",
            "face_angle_ok",
            "constellation_ok",
            "edge_faces_ok",
            "passed",
        ]
        assert doc["passed"] is True and doc["bad_interior_edges"] == 0

    def test_fail_exit_code(self, capsys, monkeypatch):
        import helistar.cli as climod

        real = climod.verify_uniform

        def sabotage(seg, offsets=None):
            rep = real(seg, offsets)
            rep.edge_length_ok = False
            return rep

        monkeypatch.setattr(climod, "verify_uniform", sabotage)
        code, out, _ = run(
            capsys, "verify", "--strips", "5", "--shift", "2", "--periods", "6",
        )
        assert code == 1
        assert "FAIL" in out

    def test_window_error_is_invalid_input(self, capsys):
        code, _, err = run(
            capsys, "verify", "--strips", "5", "--shift", "2", "--periods", "1",
        )
        assert code == 2
        assert "interior" in err


class TestSheets:
    def test_net(self, capsys, tmp_path):
        out = tmp_path / "net.svg"
        code, text, _ = run(
            capsys, "net", "--strips", "5", "--shift", "2", "--out", str(out),
        )
        assert code == 0 and out.exists()
        assert "fold lines" in text

    def test_modules(self, capsys, tmp_path):
        out = tmp_path / "mod.svg"
        code, text, _ = run(
            capsys, "modules", "--strips", "5", "--shift", "2", "--out", str(out),
        )
        assert code == 0 and out.exists()
        assert "6 modules" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["modules", "--edge-mm", "0"],
            ["modules", "--columns", "0"],
            ["modules", "--periods", "0"],
            ["net", "--edge-mm", "-5"],
            ["modules", "--slit-fraction", "nan"],
            ["modules", "--slit-fraction", "-1"],
            ["modules", "--slit-fraction", "0.6"],
            # a sheet whose size overflows a float
            ["net", "--edge-mm", "1e308"],
            ["modules", "--edge-mm", "1e308"],
            ["modules", "--columns", "1" + "0" * 400],
        ],
    )
    def test_bad_sheet_dimensions_are_invalid(self, capsys, tmp_path, argv):
        out = tmp_path / "sheet.svg"
        code, _, err = run(
            capsys, *argv, "--strips", "5", "--shift", "2", "--out", str(out),
        )
        assert code == 2 and "must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("size", [str(MAX_WINDOW + 1), "1000000000000000"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--strips", "5", "--shift", "2", "--periods"],
            ["generate", "--strips", "5", "--shift", "2", "--frame", "--periods"],
            ["verify", "--strips", "5", "--shift", "2", "--periods"],
            ["net", "--strips", "5", "--shift", "2", "--rows"],
            ["modules", "--strips", "5", "--shift", "2", "--periods"],
            ["modules", "--strips", "5", "--shift", "2", "--columns"],
            ["antiprism", "--rings", "3", "--gon"],
            ["antiprism", "--gon", "4", "--rings"],
        ],
    )
    def test_window_beyond_the_bound_is_invalid(self, capsys, tmp_path, argv, size):
        out = tmp_path / "window.out"
        extra = [] if argv[0] == "verify" else ["--out", str(out)]
        code, text, err = run(capsys, *argv, size, *extra)
        assert code == 2 and not text
        assert err.startswith("error:") and f"<= {MAX_WINDOW}" in err
        assert list(tmp_path.iterdir()) == []

    def test_antiprism(self, capsys, tmp_path):
        out = tmp_path / "ap.obj"
        code, text, _ = run(
            capsys, "antiprism", "--gon", "4", "--rings", "3", "--out", str(out),
        )
        assert code == 0
        assert "12 vertices" in text and "16 faces" in text
        assert "0.840896415" in text

    def test_antiprism_rejects_digon(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "antiprism", "--gon", "2", "--rings", "3",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["solve", "--bogus"]) == 2

    def test_main_entry_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["helistar", "--help"])
        with pytest.raises(SystemExit):
            cli.main_entry()


class TestParserReuse:
    CALLS = [
        ["solve", "--strips", "5", "--shift", "2", "--json"],
        ["verify", "--strips", "7", "--shift", "2", "--branch", "2", "--periods", "4"],
        ["solve", "--strips", "6", "--shift", "1"],
        ["--help"],
        ["solve", "--help"],
        ["solve", "--strips", "5", "--shift", "2", "--bogus"],
        ["verify", "--strips", "7", "--shift", "2", "--json"],
    ]

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_calls_in_one_process_match_single_calls(self, capsys):
        # a fresh argument tree for each reference call, one shared tree for
        # the sequence: no flag, default or help text may carry over
        single = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            single.append(run(capsys, *argv))
        cli._parser.cache_clear()
        shared = [run(capsys, *argv) for argv in self.CALLS]
        assert shared == single
        assert [code for code, _, _ in single] == [0, 0, 0, 0, 0, 2, 0]
        assert "usage: helistar solve" in single[4][1]


SOLVE_5_2_TEXT = """\
band (5,2), 1 component(s)
  b    m      theta          r          h     residual  intersecting  figure
  1    2   1.387561   0.470098   0.190644    1.280e-13         true  simple
  2    4   2.475644   0.743127   0.198041    1.373e-13        false  simple
"""

SOLVE_5_2_JSON = """\
{
  "n_strips": 5,
  "shift": 2,
  "components": 1,
  "branches": [
    {
      "branch_index": 1,
      "winding_m": 2,
      "theta": 1.387561004337462,
      "r": 0.47009770833397646,
      "h": 0.190644477228796,
      "residual": 1.2800871473928055e-13,
      "intersecting": true,
      "vertex_figure": "simple"
    },
    {
      "branch_index": 2,
      "winding_m": 4,
      "theta": 2.4756444654461047,
      "r": 0.7431268104104867,
      "h": 0.1980412601552633,
      "residual": 1.3733458814613186e-13,
      "intersecting": false,
      "vertex_figure": "simple"
    }
  ]
}
"""

VERIFY_5_2_TEXT = """\
vertex_count: 31
interior_count: 21
face_count: 52
edge lengths:   max dev 1.287e-13  {edge}
face angles:    max dev 1.485e-13  ok
constellations: max dev 1.998e-15  ok
interior edges in 2 faces: ok
{verdict}
"""

ENUMERATE_5_5_TEXT = """\
  n  s  comp  branches  plain  stars  crossed
  5  1     1         2      1      1        0
  5  2     1         2      0      1        0

star entries (connected, intersecting, simple figure): 2 (published reference tally: 64)
crossed-figure branches (second family): 0 (published reference tally: 12)
plain helical deltahedra (winding 1): 1
total entries: 4 (0 compound)
catalog written to c.json
"""


class TestGoldenOutput:
    """Exact stdout, stderr and exit code of one command of each kind."""

    CASES = [
        (["solve", "--strips", "5", "--shift", "2"], 0, SOLVE_5_2_TEXT, ""),
        (["solve", "--strips", "5", "--shift", "2", "--json"], 0, SOLVE_5_2_JSON, ""),
        (
            ["solve", "--strips", "4", "--shift", "2"],
            3,
            "band (4,2), 2 component(s)\n"
            "  b    m      theta          r          h     residual  intersecting  figure\n",
            "no branches\n",
        ),
        (
            ["solve", "--strips", "4", "--shift", "2", "--json"],
            3,
            '{\n  "n_strips": 4,\n  "shift": 2,\n  "components": 2,\n  "branches": []\n}\n',
            "no branches\n",
        ),
        (
            ["generate", "--strips", "3", "--shift", "1", "--out", "g.obj"],
            0,
            "wrote g.obj: 13 vertices, 20 faces\n",
            "",
        ),
        (
            ["generate", "--strips", "3", "--shift", "1", "--frame", "--out", "g.obj"],
            0,
            "wrote g.obj: 13 vertices, 33 lines\n",
            "",
        ),
        (
            ["generate", "--strips", "3", "--shift", "1", "--frame", "--json", "--out", "g.obj"],
            0,
            '{\n  "out": "g.obj",\n  "vertices": 13,\n  "faces": 0,\n  "lines": 33\n}\n',
            "",
        ),
        (
            ["verify", "--strips", "5", "--shift", "2"],
            0,
            VERIFY_5_2_TEXT.format(edge="ok", verdict="PASS"),
            "",
        ),
        (
            ["net", "--strips", "5", "--shift", "2", "--out", "n.svg"],
            0,
            "wrote n.svg: 23 fold lines\n",
            "",
        ),
        (
            ["net", "--strips", "5", "--shift", "2", "--json", "--out", "n.svg"],
            0,
            '{\n  "out": "n.svg",\n  "folds": 23\n}\n',
            "",
        ),
        (
            ["modules", "--strips", "5", "--shift", "2", "--out", "m.svg"],
            0,
            "wrote m.svg: 6 modules\n",
            "",
        ),
        (
            ["modules", "--strips", "5", "--shift", "2", "--json", "--out", "m.svg"],
            0,
            '{\n  "out": "m.svg",\n  "modules": 6\n}\n',
            "",
        ),
        (
            ["antiprism", "--gon", "4", "--rings", "3", "--out", "a.obj"],
            0,
            "wrote a.obj: 12 vertices, 16 faces, ring rise 0.840896415\n",
            "",
        ),
        (
            ["antiprism", "--gon", "4", "--rings", "3", "--json", "--out", "a.obj"],
            0,
            '{\n  "out": "a.obj",\n  "vertices": 12,\n  "faces": 16,\n  "ring_rise": 0.8408964152537145\n}\n',
            "",
        ),
        (
            ["enumerate", "--min", "5", "--max", "5", "--catalog", "c.json"],
            0,
            ENUMERATE_5_5_TEXT,
            "",
        ),
        (
            ["generate", "--strips", "5", "--shift", "2", "--branch", "9", "--out", "x.obj"],
            3,
            "",
            "branch 9 not available; range is 1..2\n",
        ),
    ]

    @pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
    def test_exact_output(self, capsys, tmp_path, monkeypatch, argv, code, out, err):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (code, out, err)

    def test_exact_verify_failure(self, capsys, monkeypatch):
        real = cli.verify_uniform

        def sabotage(seg, offsets=None):
            rep = real(seg, offsets)
            rep.edge_length_ok = False
            return rep

        monkeypatch.setattr(cli, "verify_uniform", sabotage)
        assert run(capsys, "verify", "--strips", "5", "--shift", "2") == (
            1,
            VERIFY_5_2_TEXT.format(edge="FAIL", verdict="FAIL"),
            "",
        )
