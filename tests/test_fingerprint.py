"""The branch fingerprint (fingerprint.py): its 3..64 pin and its diff."""

import math

import pytest

import fingerprint
from fingerprint import diff, digest, record


@pytest.fixture(scope="module")
def record_5_8():
    return record(5, 8)


def fields(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.split())


def test_the_3_64_record_is_pinned():
    # every branch of 3..64, compounds included: solver, verdict and figure bits
    lines = record(3, 64)
    assert len(lines) == 23796
    assert digest(lines) == "1ca02c1f74569cb1b7f1512730e1beb2467cd628ab93296ef2c95acf26eabf42"
    # its verdict, witness, figure, polygon and dihedral fields, in the layout of
    # the hand-run digest that CHANGES.md quotes for the face-lane change
    def verdict_line(f):
        pairs = None if f["witness"] == "none" else tuple((w[0], int(w[1:])) for w in f["witness"].split(","))
        head = [f["n"], f["s"], f["branch"], f["intersecting"], str(pairs), f["figure"]]
        return " ".join(head + f["polygon"].split(",") + f["dihedrals"].split(","))

    verdicts = [verdict_line(fields(line)) for line in lines]
    assert digest(verdicts) == "b72429cb6b1f0dd0cdc3616453bc4f3fdbfcebf56584fd21dd37405da7a812eb"


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
