"""CLI surface: subcommands, exit codes, json output, env override."""

import json

import pytest

from helistar import cli


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

    def test_shift_out_of_range_is_invalid(self, capsys):
        code, _, err = run(capsys, "solve", "--strips", "5", "--shift", "5")
        assert code == 2
        assert "shift" in err

    def test_too_few_strips_is_invalid(self, capsys):
        code, _, _ = run(capsys, "solve", "--strips", "2", "--shift", "1")
        assert code == 2

    def test_malformed_grid_env_is_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("HELISTAR_GRID_POINTS", "abc")
        code, _, err = run(capsys, "solve", "--strips", "5", "--shift", "2")
        assert code == 2
        assert "HELISTAR_GRID_POINTS" in err

    def test_non_finite_solver_flag_is_invalid(self, capsys):
        code, _, err = run(capsys, "solve", "--strips", "5", "--shift", "2", "--theta-min", "nan")
        assert code == 2
        assert "theta_min" in err

    def test_no_branches_is_no_result(self, capsys):
        code, _, err = run(capsys, "solve", "--strips", "4", "--shift", "2")
        assert code == 3
        assert "no branches" in err


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

    def test_env_var_sets_grid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HELISTAR_GRID_POINTS", "50000")
        code, _, _ = run(
            capsys, "enumerate", "--min", "5", "--max", "5",
            "--catalog", str(tmp_path / "c.json"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["options"]["grid_points"] == 50000

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HELISTAR_GRID_POINTS", "50000")
        code, _, _ = run(
            capsys, "enumerate", "--min", "5", "--max", "5",
            "--grid-points", "80000", "--catalog", str(tmp_path / "c.json"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["options"]["grid_points"] == 80000


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--strips", "5", "--shift", "2", "--periods", "6",
        )
        assert code == 0
        assert "PASS" in out

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
        ],
    )
    def test_bad_sheet_dimensions_are_invalid(self, capsys, tmp_path, argv):
        out = tmp_path / "sheet.svg"
        code, _, err = run(
            capsys, *argv, "--strips", "5", "--shift", "2", "--out", str(out),
        )
        assert code == 2 and "must be" in err
        assert not out.exists()

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
