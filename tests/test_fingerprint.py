"""The pins (fingerprint.py): each pin against tests/data, the command that
re-records them, and the branch fingerprint's record and diff."""

import dataclasses
import math
from pathlib import Path

import pytest

import fingerprint
import helistar as hs
from fingerprint import DATA, diff, digest, record

STORED = fingerprint.stored_pins()


@pytest.fixture(scope="module")
def record_5_8():
    return record(5, 8)


def fields(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.split())


@pytest.fixture(scope="module")
def recomputed():
    return fingerprint.pin_values()


@pytest.mark.parametrize("name", STORED)
def test_pin(recomputed, name):
    # each digest of pins.json and each golden text, recomputed from the tree
    assert recomputed[name] == STORED[name]


def test_pins_reports_every_pin_unchanged_and_writes_tests_data(recomputed, tmp_path):
    assert fingerprint.pins(tmp_path, recomputed) == [f"{name}: unchanged" for name in STORED]
    written = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*") if path.is_file())
    assert written == sorted(map(Path, ["pins.json", *fingerprint.GOLDENS]))
    for path in written:
        assert (tmp_path / path).read_bytes() == (DATA / path).read_bytes(), path


def test_pins_name_a_one_ulp_theta_move_in_the_record_but_not_its_discrete_fields(recomputed, tmp_path, monkeypatch):
    solve = hs.solve_band

    def moved(bands):
        # branch 1 of (64, 1), its theta up one ulp; its residual and dihedrals follow
        sols = [list(branches) for branches in solve(bands)]
        where = next(i for i, band in enumerate(bands) if (band.n_strips, band.shift) == (64, 1))
        sol = sols[where][0]
        theta = math.nextafter(sol.params.theta, math.inf)
        sols[where][0] = dataclasses.replace(sol, params=dataclasses.replace(sol.params, theta=theta))
        return sols

    monkeypatch.setattr(hs, "solve_band", moved)
    values = recomputed | fingerprint.branch_pins()  # only the record is recomputed
    lines = fingerprint.pins(tmp_path, values)
    assert lines[0] == f"record_3_64: {STORED['record_3_64']} -> {values['record_3_64']}"
    assert values["record_3_64"] != STORED["record_3_64"]
    assert lines[1:] == [f"{name}: unchanged" for name in list(STORED)[1:]]


def test_a_record_has_one_line_of_every_field_per_branch(record_5_8):
    assert len(record_5_8) == 31
    first = fields(record_5_8[0])
    assert list(first) == [*fingerprint.DISCRETE, *fingerprint.REAL]
    assert (first["n"], first["s"], first["branch"]) == ("5", "1", "1")
    assert len(first["dihedrals"].split(",")) == 3 and len(first["polygon"].split(",")) == 18
    assert float.fromhex(first["theta"]) > 0.0


def test_diff_of_a_record_with_itself_is_empty(record_5_8):
    assert diff(record_5_8, record_5_8) == [f"{field}: unchanged" for field in fingerprint.REAL]


def test_diff_names_a_flipped_verdict_a_shifted_theta_and_a_lost_branch(record_5_8):
    changed = [fields(line) for line in record_5_8]
    flip, shift = changed[3], changed[17]
    flip["intersecting"] = str(flip["intersecting"] != "True")
    theta = float.fromhex(shift["theta"])
    shift["theta"] = math.nextafter(math.nextafter(theta, 4.0), 4.0).hex()  # up 2 ulps
    lost = changed.pop(20)
    new = [" ".join(f"{k}={v}" for k, v in f.items()) for f in changed]

    at = lambda f: f"n={f['n']} s={f['s']} branch={f['branch']}"
    old_verdict = fields(record_5_8[3])["intersecting"]
    assert diff(record_5_8, new) == [
        f"lost {at(lost)}",
        f"changed intersecting at {at(flip)}: {old_verdict} -> {flip['intersecting']}",
        f"theta: 2 ulps, {2 * math.ulp(theta) / theta:.3g} relative, most at {at(shift)}",
        *[f"{field}: unchanged" for field in fingerprint.REAL[1:]],
    ]
    assert diff(new, record_5_8)[0] == f"added {at(lost)}"


def test_the_script_prints_a_record_its_digest_and_a_diff(tmp_path, capsys):
    assert fingerprint.main(["record", "--min", "5", "--max", "6"]) == 0
    text = capsys.readouterr().out
    assert text == "\n".join(record(5, 6)) + "\n"
    path = tmp_path / "record.txt"
    path.write_text(text)
    assert fingerprint.main(["digest", str(path)]) == 0
    assert capsys.readouterr().out == digest(record(5, 6)) + "\n"
    assert fingerprint.main(["diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{field}: unchanged" for field in fingerprint.REAL]
