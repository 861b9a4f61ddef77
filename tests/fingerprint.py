"""A fingerprint of every branch of a strip range, and a diff of two of them.

    PYTHONPATH=src python tests/fingerprint.py record --min 3 --max 64 > new.txt
    PYTHONPATH=src python tests/fingerprint.py digest new.txt
    PYTHONPATH=src python tests/fingerprint.py diff old.txt new.txt

A record has one line per branch of every band (n, s), n in [min, max] and
1 <= s <= n/2, compounds included, all solved in one solve_band call and
classified in one classify call. Each line is key=value fields: the discrete
ones (n, s, branch, m, intersecting, witness, figure) as text, the real ones
(theta, r, h, residual, the three dihedrals and the 18 coordinates of the
vertex-figure polygon) by float.hex, so equal records mean equal bits. Only
the package's public API is used, so a fault in the package cannot hide in
its own record.
"""

import argparse
import hashlib
import math
import struct
import sys
from pathlib import Path

import helistar as hs

DISCRETE = ("n", "s", "branch", "m", "intersecting", "witness", "figure")
REAL = ("theta", "r", "h", "residual", "dihedrals", "polygon")


def _witness(witness) -> str:
    """A witness pair as U0,D-3; none for a non-intersecting branch."""
    return "none" if witness is None else ",".join(f"{kind}{k}" for kind, k in witness)


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def record(lo: int, hi: int) -> list[str]:
    """One line per branch of the bands with lo..hi strips, in band then branch order."""
    bands = [hs.BandSpec(n, s) for n in range(lo, hi + 1) for s in range(1, n // 2 + 1)]
    branches = [sol for sols in hs.solve_band(bands) for sol in sols]
    lines = []
    for sol, cls in zip(branches, hs.classify(branches), strict=True):
        p = sol.params
        fields = {
            "n": sol.band.n_strips,
            "s": sol.band.shift,
            "branch": sol.branch_index,
            "m": sol.winding_m,
            "intersecting": cls.intersecting,
            "witness": _witness(cls.witness),
            "figure": cls.vertex_figure,
            "theta": _hex([p.theta]),
            "r": _hex([p.r]),
            "h": _hex([p.h]),
            "residual": _hex([sol.residual]),
            "dihedrals": _hex(sol.dihedrals),
            "polygon": _hex(cls.figure_polygon.ravel()),
        }
        lines.append(" ".join(f"{key}={value}" for key, value in fields.items()))
    return lines


def digest(lines: list[str]) -> str:
    """sha256 of the record's lines joined by newlines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps: adjacent floats differ by 1, across zero too."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def diff(old: list[str], new: list[str]) -> list[str]:
    """What changed from record old to record new, as lines of text.

    Branches are paired by (n, s, branch). Lists every branch added or lost
    and every changed discrete field by name, then for each real field the
    largest change over the paired branches in ulps and relative to the old
    value, and the branch where the ulps are largest (the vector fields take
    their largest component).
    """
    parse = lambda lines: {
        (f["n"], f["s"], f["branch"]): f
        for f in (dict(item.split("=", 1) for item in line.split()) for line in lines)
    }
    a, b = parse(old), parse(new)
    name = lambda key: "n={} s={} branch={}".format(*key)
    out = [f"added {name(key)}" for key in b if key not in a]
    out += [f"lost {name(key)}" for key in a if key not in b]
    paired = [key for key in a if key in b]
    for key in paired:
        out += [
            f"changed {field} at {name(key)}: {a[key][field]} -> {b[key][field]}"
            for field in DISCRETE
            if a[key][field] != b[key][field]
        ]
    for field in REAL:
        ulps, rel, where = 0, 0.0, None
        for key in paired:
            for x, y in zip(*(map(float.fromhex, r[key][field].split(",")) for r in (a, b))):
                d = abs(_ordered(x) - _ordered(y))
                if d > ulps:
                    ulps, where = d, key
                if d:
                    rel = max(rel, abs(y - x) / abs(x) if x else math.inf)
        out.append(f"{field}: unchanged" if where is None else f"{field}: {ulps} ulps, {rel:.3g} relative, most at {name(where)}")
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="print the record of a strip range")
    rec.add_argument("--min", type=int, default=3)
    rec.add_argument("--max", type=int, default=64)
    sub.add_parser("digest", help="print the sha256 of a record file").add_argument("file")
    both = sub.add_parser("diff", help="print what changed between two record files")
    both.add_argument("old")
    both.add_argument("new")
    args = parser.parse_args(argv)
    read = lambda path: Path(path).read_text().splitlines()
    if args.command == "record":
        print("\n".join(record(args.min, args.max)))
    elif args.command == "digest":
        print(digest(read(args.file)))
    else:
        print("\n".join(diff(read(args.old), read(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
