"""Object arguments: one refusal table over every public operation that takes a
package object or a list of them, checked by errors.check_type and errors.check_items,
and one over package objects built with a wrong field, which check their own fields.

A refusal raises ParameterError whose message starts with the argument's name,
or with the bad item's, name[i], before anything is written to the sink.
"""

import io
import re
from collections import Counter

import pytest

from helistar import (
    BranchSolution,
    CatalogEntry,
    CatalogReport,
    ModuleOptions,
    NetLayout,
    ParameterError,
    build_report,
    classify,
    component_params,
    enumerate_catalog,
    export_modules_svg,
    export_net_svg,
    export_obj,
    format_report,
    realize,
    unfold_net,
    verify_uniform,
    write_catalog,
    write_catalog_csv,
)
from helistar import errors


@pytest.fixture(scope="module")
def good(tetrahelix):
    """A valid value of every argument kind in the tables."""
    entries = enumerate_catalog(5, 6)
    return {
        "solution": tetrahelix,
        "segment": realize(tetrahelix),
        "net": unfold_net(tetrahelix),
        "entries": entries,
        "report": build_report(entries),
    }


# target -> (argument name in messages, the kind it must be, call with that argument as v, the others valid)
TARGETS = {
    "realize": ("solution", "a BranchSolution", lambda g, v, sink: realize(v)),
    "unfold_net": ("solution", "a BranchSolution", lambda g, v, sink: unfold_net(v)),
    "component_params": ("solution", "a BranchSolution", lambda g, v, sink: component_params(v)),
    "export_modules_svg": ("solution", "a BranchSolution", lambda g, v, sink: export_modules_svg(v, ModuleOptions(), sink)),
    "export_modules_svg-opts": ("opts", "a ModuleOptions", lambda g, v, sink: export_modules_svg(g["solution"], v, sink)),
    "verify_uniform": ("segment", "a MeshSegment", lambda g, v, sink: verify_uniform(v)),
    "export_obj": ("segment", "a MeshSegment", lambda g, v, sink: export_obj(v, sink)),
    "export_obj-frame": ("frame", "a bool", lambda g, v, sink: export_obj(g["segment"], sink, frame=v)),
    "export_net_svg": ("net", "a NetLayout", lambda g, v, sink: export_net_svg(v, sink)),
    "format_report": ("report", "a CatalogReport", lambda g, v, sink: format_report(v)),
}

# a value of another kind: for an object its neighbour in the good table, for a bool a branch
OTHER = {"solution": "segment", "segment": "solution", "net": "solution", "report": "entries", "opts": "net", "frame": "solution"}

LISTS = {
    "build_report": lambda v, sink: build_report(v),
    "write_catalog": lambda v, sink: write_catalog(v, sink),
    "write_catalog_csv": lambda v, sink: write_catalog_csv(v, sink),
}


@pytest.mark.parametrize("bad", ["none", "text", "number", "other"])
@pytest.mark.parametrize("target", TARGETS)
def test_a_wrong_object_is_refused_by_name(good, target, bad):
    name, kind, call = TARGETS[target]
    value = {"none": None, "text": "no", "number": 1, "other": good[OTHER[name]]}[bad]
    sink = io.StringIO()
    with pytest.raises(ParameterError, match=rf"^{name} must be {kind}, got "):
        call(good, value, sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("bad", ["none", "text", "lone_entry", "none_item", "none_after_entry", "report_item"])
@pytest.mark.parametrize("target", LISTS)
def test_a_wrong_entry_list_is_refused_by_name(good, target, bad):
    entry = good["entries"][0]
    value, named = {
        "none": (None, "entries must be a list of CatalogEntry, got "),
        "text": ("ab", "entries must be a list of CatalogEntry, got 'ab'"),
        "lone_entry": (entry, "entries must be a list of CatalogEntry, got "),
        "none_item": ([None], "entries[0] must be a CatalogEntry, got "),
        "none_after_entry": ([entry, None], "entries[1] must be a CatalogEntry, got "),
        "report_item": ([entry, good["report"]], "entries[1] must be a CatalogEntry, got "),
    }[bad]
    sink = io.StringIO()
    with pytest.raises(ParameterError, match=f"^{re.escape(named)}"):
        LISTS[target](value, sink)
    assert sink.getvalue() == ""


def test_a_list_of_exact_items_is_checked_without_an_item_loop(monkeypatch, good):
    # the entry lists of the writers and the report are taken on one set of item
    # types; only a list holding some other type is checked item by item
    calls = Counter()
    check = errors.check_type
    monkeypatch.setattr(errors, "check_type", lambda name, *rest: calls.update([name]) or check(name, *rest))
    entries = good["entries"]
    write_catalog(entries, io.StringIO())
    write_catalog_csv(entries, io.StringIO())
    build_report(entries)
    assert not calls

    class Tagged(CatalogEntry):
        pass

    tagged = [entries[0], Tagged(**vars(entries[1]))]
    assert errors.check_items("entries", tagged, CatalogEntry) == tagged
    assert calls == Counter(["entries[0]", "entries[1]"])


def branch(g, **fields):
    """The good branch with fields replaced, built by hand."""
    sol = g["solution"]
    return BranchSolution(**{"band": sol.band, "params": sol.params, "branch_index": 1, **fields})


def net(g, **fields):
    """The good net with fields replaced, built by hand."""
    return NetLayout(**{**vars(g["net"]), **fields})


def reassigned(g, **fields):
    """A net unfolded afresh, then fields reassigned: NetLayout checks none of them, the sheet each."""
    net = unfold_net(g["solution"])
    for name, value in fields.items():
        setattr(net, name, value)
    return net


def report(g, **fields):
    """The good report with fields replaced, built by hand."""
    return CatalogReport(**{**vars(g["report"]), **fields})


# a package object with one wrong field, passed on to an operation -> the message it must raise
FIELDS = {
    "branch-band": (lambda g, sink: realize(branch(g, band=None)), "band must be a BandSpec, got None"),
    "branch-params": (lambda g, sink: classify([branch(g, params=None)]), "params must be a HelixParams, got None"),
    "branch-index-zero": (
        lambda g, sink: unfold_net(branch(g, branch_index=0)),
        "branch_index must be an integer >= 1, got 0",
    ),
    "branch-index-real": (
        lambda g, sink: export_modules_svg(branch(g, branch_index=1.0), ModuleOptions(), sink),
        "branch_index must be an integer >= 1, got 1.0",
    ),
    # the good net is the tetrahelix's at rows = 2: 12 point rows, 13 folds, 2 seam pairs
    "net-points": (
        lambda g, sink: export_net_svg(NetLayout(3, 1, 2, None, [], [], [], []), sink),
        "points must be a 2-D array of shape (12, 2), got None",
    ),
    "net-rows": (lambda g, sink: export_net_svg(net(g, rows=True), sink), "rows must be an integer >= 1"),
    "net-no-points": (
        lambda g, sink: export_net_svg(net(g, points=[]), sink),
        "points must be a 2-D array of shape (12, 2), got shape (0,)",
    ),
    "net-one-point": (
        lambda g, sink: export_net_svg(net(g, points=[[0.0, 0.0]]), sink),
        "points must be a 2-D array of shape (12, 2), got shape (1, 2)",
    ),
    # points of another window: the shape follows n_strips and rows
    "net-other-rows": (
        lambda g, sink: export_net_svg(net(g, rows=3), sink),
        "points must be a 2-D array of shape (16, 2), got shape (12, 2)",
    ),
    "net-point-nan": (
        lambda g, sink: export_net_svg(net(g, points=[[float("nan"), 0.0], *g["net"].points[1:].tolist()]), sink),
        "points[0][0] must be a finite real, got nan",
    ),
    "net-point-bool": (
        lambda g, sink: export_net_svg(net(g, points=[[0.0, True], *g["net"].points[1:].tolist()]), sink),
        "points[0][1] must be a finite real, got True",
    ),
    # a point row outside [0, 12): past the end, then negative, which would index from the end
    "net-triangle": (
        lambda g, sink: export_net_svg(net(g, triangles=g["net"].triangles + 1), sink),
        "triangles must hold vertex indices in [0, 12), got 1..12",
    ),
    "net-fold": (
        lambda g, sink: export_net_svg(net(g, fold_edges=g["net"].fold_edges + 2), sink),
        "fold_edges must hold vertex indices in [0, 12), got 3..12",
    ),
    "net-fold-end": (
        lambda g, sink: export_net_svg(net(g, fold_edges=g["net"].fold_edges - 2), sink),
        "fold_edges must hold vertex indices in [0, 12), got -1..8",
    ),
    "net-fold-row": (
        lambda g, sink: export_net_svg(net(g, fold_edges=[[0, 1.5]], fold_angles=[1.0]), sink),
        "fold_edges[0][1] must be an integer, got 1.5",
    ),
    "net-seam": (
        lambda g, sink: export_net_svg(net(g, seam_pairs=[[12, 2]]), sink),
        "seam_pairs must hold vertex indices in [0, 12), got 2..12",
    ),
    "net-seam-negative": (
        lambda g, sink: export_net_svg(net(g, seam_pairs=[[9, -1]]), sink),
        "seam_pairs must hold vertex indices in [0, 12), got -1..9",
    ),
    # one angle a fold
    "net-fold-angles": (
        lambda g, sink: export_net_svg(net(g, fold_angles=g["net"].fold_angles[1:]), sink),
        "fold_angles must be a 1-D array of shape (13,), got shape (12,)",
    ),
    "net-fold-angle-nan": (
        lambda g, sink: export_net_svg(net(g, fold_angles=[float("nan")] * 13), sink),
        "fold_angles[0] must be a finite real, got nan",
    ),
    # a field reassigned after the net was built
    "net-fold-angles-reassigned": (
        lambda g, sink: export_net_svg(reassigned(g, fold_angles=g["net"].fold_angles[1:]), sink),
        "fold_angles must be a 1-D array of shape (13,), got shape (12,)",
    ),
    "net-fold-edges-reassigned": (
        lambda g, sink: export_net_svg(reassigned(g, fold_edges=g["net"].fold_edges + 100), sink),
        "fold_edges must hold vertex indices in [0, 12), got 101..110",
    ),
    "report-rows": (
        lambda g, sink: format_report(CatalogReport(None, 0, 0, 0, 0, 0, [], [])),
        "rows must be a list of dict, got None",
    ),
    # a row must hold the counts build_report writes, each an int >= 0
    "report-row-keys": (
        lambda g, sink: format_report(CatalogReport([{}], 0, 0, 0, 0, 0, [], [])),
        "rows[0] must hold the keys n, s, components, branches, plain, stars, crossed, got {}",
    ),
    "report-row-count": (
        lambda g, sink: format_report(report(g, rows=[*g["report"].rows, {**g["report"].rows[0], "n": "x"}])),
        "rows[3]['n'] must be an integer >= 0, got 'x'",
    ),
    "report-total": (
        lambda g, sink: format_report(report(g, star_total="56")),
        "star_total must be an integer >= 0, got '56'",
    ),
    "report-negative": (
        lambda g, sink: format_report(report(g, entry_total=-1)),
        "entry_total must be an integer >= 0, got -1",
    ),
    "report-collision": (
        lambda g, sink: format_report(report(g, collisions=[None])),
        "collisions[0] must be a str, got None",
    ),
    # a str or bytes is iterable, but not a list of its characters
    "report-collisions-text": (
        lambda g, sink: format_report(CatalogReport([], 0, 0, 0, 0, 0, "ab", [])),
        "collisions must be a list of str, got 'ab'",
    ),
    "report-collisions-bytes": (
        lambda g, sink: format_report(report(g, collisions=b"ab")),
        "collisions must be a list of str, got b'ab'",
    ),
}


@pytest.mark.parametrize("target", FIELDS)
def test_a_wrong_field_is_refused_by_name(good, target):
    call, named = FIELDS[target]
    sink = io.StringIO()
    with pytest.raises(ParameterError, match=f"^{re.escape(named)}"):
        call(good, sink)
    assert sink.getvalue() == ""
