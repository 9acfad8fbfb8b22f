"""Joins, the triple presentation, slices, and the coslice fastpath."""

import functools
import math

import pytest

from oracles import (
    coslice_projection,
    enumerate_triples,
    join_inclusions,
    join_simplex_from_triple,
    one_object_category,
    scan_coslice,
    scan_slice,
    simplex_join_iso,
    slice_projection,
    triple_from_join_simplex,
)

from qckit import join as join_module
from qckit.join import (
    CosliceSSet,
    SlicePresentation,
    coslice_edge_anatomy,
    coslice_fastpath,
    cross_validate_coslice,
    join,
    join_of_maps,
    slice_sset,
    vertex_anchor,
)
from qckit.monoids import MonoidSpec, build_reference_monoid, deloop, saturating_grades
from qckit.ordinals import degeneracy
from qckit.scat import simplicial_nerve
from qckit.sset import (
    FinSSet,
    SimplexRef,
    SimplicialMap,
    TruncationError,
    boundary,
    identity_map,
    iso_search,
    nondeg_ref,
    standard_map,
    standard_simplex,
    truncate,
    validate,
    validate_map,
)


@pytest.fixture
def circle_times_edge():
    return boundary(2), standard_simplex(1)


def test_join_validates_and_keeps_parts(circle_times_edge):
    x, y = circle_times_edge
    j = join(x, y)
    assert j.truncation == x.truncation + y.truncation + 1 == 4
    assert validate(j).ok
    for d in range(j.truncation + 1):
        for c in j.nondegenerate(d):
            a, b = j.parts[c]
            assert a is not None or b is not None


def test_join_nondegenerate_counts(circle_times_edge):
    x, y = circle_times_edge
    j = join(x, y)
    for n in range(j.truncation + 1):
        pure = len(x.nondegenerate(n)) if n <= x.truncation else 0
        pure += len(y.nondegenerate(n)) if n <= y.truncation else 0
        pairs = sum(
            len(x.nondegenerate(p)) * len(y.nondegenerate(n - 1 - p))
            for p in range(0, n)
            if p <= x.truncation and n - 1 - p <= y.truncation
        )
        assert len(j.nondegenerate(n)) == pure + pairs


def _ref(cell, *epi):
    return {"cell": cell, "epi": list(epi)}


def test_join_cell_order_and_faces_are_pinned():
    # the generic slice names its cells in search order over the join's
    # cells, so the order within each dimension is part of the contract:
    # the first factor's cells, the second's, then pairs by increasing cut
    assert join(standard_simplex(1), standard_simplex(0)).to_json() == {
        "truncation": 2,
        "cells": {"0": ["0|", "1|", "|0"], "1": ["0-1|", "0|0", "1|0"],
                  "2": ["0-1|0"]},
        "faces": {
            "0-1|": [_ref("1|", 0), _ref("0|", 0)],
            "0|0": [_ref("|0", 0), _ref("0|", 0)],
            "1|0": [_ref("|0", 0), _ref("1|", 0)],
            "0-1|0": [_ref("1|0", 0, 1), _ref("0|0", 0, 1),
                      _ref("0-1|", 0, 1)],
        },
    }
    # a loop whose 2-cell has a degenerate face: the join shifts that
    # face's epi past the left part
    v, e = nondeg_ref("v", 0), nondeg_ref("e", 1)
    loop = FinSSet(2, {0: ["v"], 1: ["e"], 2: ["t"]}, {
        "e": [v, v], "t": [e, e, SimplexRef(degeneracy(0, 0), "v")],
    })
    assert validate(loop).ok
    assert join(standard_simplex(0), loop).to_json() == {
        "truncation": 3,
        "cells": {"0": ["0|", "|v"], "1": ["|e", "0|v"], "2": ["|t", "0|e"],
                  "3": ["0|t"]},
        "faces": {
            "|e": [_ref("|v", 0), _ref("|v", 0)],
            "0|v": [_ref("|v", 0), _ref("0|", 0)],
            "|t": [_ref("|e", 0, 1), _ref("|e", 0, 1), _ref("|v", 0, 0)],
            "0|e": [_ref("|e", 0, 1), _ref("0|v", 0, 1), _ref("0|v", 0, 1)],
            "0|t": [_ref("|t", 0, 1, 2), _ref("0|e", 0, 1, 2),
                    _ref("0|e", 0, 1, 2), _ref("0|v", 0, 1, 1)],
        },
    }


def test_join_simplex_count_matches_triple_count(circle_times_edge):
    # independent count: one simplex per cut position and per pair of
    # factor simplices, degenerate extension above factor truncations
    x, y = circle_times_edge
    j = join(x, y)
    for n in range(j.truncation + 1):
        assert len(j.simplices(n)) == len(enumerate_triples(x, y, n))


def test_triple_round_trip(circle_times_edge):
    x, y = circle_times_edge
    j = join(x, y)
    for n in range(j.truncation + 1):
        refs = j.simplices(n)
        triples = [triple_from_join_simplex(j, r) for r in refs]
        assert len(set(triples)) == len(refs)
        for r, t in zip(refs, triples):
            assert join_simplex_from_triple(j, n, t) == r
        assert set(triples) == set(enumerate_triples(x, y, n))


def test_join_inclusions_are_valid_maps(circle_times_edge):
    x, y = circle_times_edge
    j = join(x, y)
    incl_x, incl_y = join_inclusions(j)
    assert validate_map(incl_x).ok
    assert validate_map(incl_y).ok


def test_join_with_empty_factor_is_the_other_factor():
    empty = FinSSet(0, {0: ()}, {})
    y = boundary(2)
    left = join(empty, y)
    right = join(y, empty)
    for d in range(y.truncation + 1):
        assert len(left.nondegenerate(d)) == len(y.nondegenerate(d))
        assert len(right.nondegenerate(d)) == len(y.nondegenerate(d))
    assert validate(left).ok and validate(right).ok
    assert iso_search(left, y, y.truncation) is not None


@pytest.mark.parametrize("k,l", [(0, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 3)])
def test_simplex_join_iso(k, l):
    m = simplex_join_iso(k, l)
    assert validate_map(m).ok
    n = k + 1 + l
    # bijective on nondegenerate cells level by level
    for d in range(n + 1):
        images = {m.assignment[c].cell for c in m.source.nondegenerate(d)}
        assert all(m.assignment[c].epi.is_identity
                   for c in m.source.nondegenerate(d))
        assert len(images) == len(m.source.nondegenerate(d))
        assert len(images) == math.comb(n + 1, d + 1)
    # vertex placement: left block first, then the right block
    for i in range(k + 1):
        assert m.assignment[f"{i}|"].cell == str(i)
    for i in range(l + 1):
        assert m.assignment[f"|{i}"].cell == str(k + 1 + i)


def test_join_of_maps_is_a_valid_map():
    collapse = standard_map(degeneracy(1, 0))  # simplex(2) -> simplex(1)
    g = identity_map(standard_simplex(1))
    jm = join_of_maps(collapse, g)
    assert validate_map(jm).ok
    # left vertices follow the collapse, right vertices are fixed
    assert jm.assignment["0|"].cell == "0|"
    assert jm.assignment["2|"].cell == "1|"
    assert jm.assignment["0-1|"].cell == "0|"


def test_coslice_of_simplex_shifts_down():
    # the under-slice of simplex(3) at its first vertex: k-cells are the
    # (k+1)-simplices through vertex 0, one for each monotone tail
    c = coslice_fastpath(standard_simplex(3), "0", 2)
    assert validate(c).ok
    assert [c.cell_count(d) for d in range(3)] == [
        math.comb(4, d + 1) for d in range(3)
    ]
    assert iso_search(c, truncate(standard_simplex(3), 2), 2) is not None


def test_coslice_fastpath_requires_room():
    with pytest.raises(TruncationError):
        coslice_fastpath(standard_simplex(2), "0", 2)


def test_coslice_projection_is_valid():
    c = coslice_fastpath(standard_simplex(3), "0", 2)
    proj = coslice_projection(c)
    assert validate_map(proj).ok
    # the projection of the edge 0 -> (0 -> v) picks out the far vertex
    for cell in c.nondegenerate(0):
        u = c.underlying[cell]
        assert proj.assignment[cell].cell == u.cell.split("-")[-1]


def test_generic_slice_matches_fastpath_on_simplex():
    report, fast, generic = cross_validate_coslice(standard_simplex(3), "0", 2)
    assert report.ok, report.problems
    assert validate(generic).ok
    for d in range(3):
        assert fast.cell_count(d) == generic.cell_count(d)


def corrupted_fastpath(change):
    """coslice_fastpath with its output rebuilt after ``change(faces,
    underlying)`` edits the face entries or the underlying simplices."""
    real = coslice_fastpath

    def fastpath(base, vertex, dim):
        fast = real(base, vertex, dim)
        cells = {d: fast.nondegenerate(d) for d in range(dim + 1)}
        faces = {c: list(fast.face_entries(c))
                 for d in range(1, dim + 1) for c in cells[d]}
        underlying = dict(fast.underlying)
        change(faces, underlying)
        return CosliceSSet(dim, cells, faces, underlying, base)

    return fastpath


def test_cross_validation_reports_a_corrupted_face(monkeypatch):
    def change(faces, underlying):
        faces["c:0-1-2-3"][0] = faces["c:0-1-2-3"][1]

    monkeypatch.setattr(join_module, "coslice_fastpath", corrupted_fastpath(change))
    report, _, _ = cross_validate_coslice(standard_simplex(3), "0", 2)
    assert report.problems == ["level 2: face 0 disagrees at 'c:0-1-2-3' / 'm2_13'"]


def test_cross_validation_reports_a_corrupted_top_cell(monkeypatch):
    def change(faces, underlying):
        underlying["c:0-3"] = nondeg_ref("1-2", 1)

    monkeypatch.setattr(join_module, "coslice_fastpath", corrupted_fastpath(change))
    report, _, _ = cross_validate_coslice(standard_simplex(3), "0", 2)
    assert report.problems == [
        "level 0: top-cell images differ: [('0', (0, 0)), ('0-1', (0, 1)), "
        "('0-2', (0, 1)), ('1-2', (0, 1))] vs [('0', (0, 0)), ('0-1', (0, 1)), "
        "('0-2', (0, 1)), ('0-3', (0, 1))]",
        # the level-1 cells whose face 0 is the corrupted vertex c:0-3
        "level 1: face 0 disagrees at 'c:s0:0-3' / 'm1_6'",
        "level 1: face 0 disagrees at 'c:0-1-3' / 'm1_8'",
        "level 1: face 0 disagrees at 'c:0-2-3' / 'm1_9'",
    ]


def test_generic_slice_matches_fastpath_on_default_nerve():
    nerve = simplicial_nerve(deloop(build_reference_monoid()), 3)
    (star,) = nerve.nondegenerate(0)
    report, fast, generic = cross_validate_coslice(nerve, star, 2)
    assert report.ok, report.problems
    assert validate(generic).ok
    assert [generic.cell_count(d) for d in range(3)] == [
        fast.cell_count(d) for d in range(3)
    ]


def test_generic_slice_projection():
    pres = SlicePresentation(
        standard_simplex(3), vertex_anchor(standard_simplex(3), "0"), "under"
    )
    s = slice_sset(pres, 1)
    proj = slice_projection(s)
    assert validate_map(proj).ok


def test_generic_slice_deeper_than_the_recursion_limit():
    # a 700-edge path anchored at vertex 0: one search level per cone cell
    n = 700
    path = FinSSet(
        1,
        {0: [f"v{i}" for i in range(n + 1)], 1: [f"e{i}" for i in range(n)]},
        {f"e{i}": [nondeg_ref(f"v{i + 1}", 0), nondeg_ref(f"v{i}", 0)]
         for i in range(n)},
    )
    base = standard_simplex(2)
    assignment = {f"v{i}": nondeg_ref("0", 0) for i in range(n + 1)}
    assignment.update({f"e{i}": SimplexRef(degeneracy(0, 0), "0") for i in range(n)})
    anchor = SimplicialMap(path, base, assignment)
    s = slice_sset(SlicePresentation(base, anchor, "under"), 0)
    proj = slice_projection(s)
    assert sorted(proj.assignment[c].cell for c in s.nondegenerate(0)) == ["0", "1", "2"]


def test_over_slice_of_simplex_at_last_vertex():
    # over-slice at the final vertex mirrors the under-slice at the first
    pres = SlicePresentation(
        standard_simplex(3), vertex_anchor(standard_simplex(3), "3"), "over"
    )
    s = slice_sset(pres, 1)
    assert validate(s).ok
    assert [s.cell_count(d) for d in range(2)] == [4, 6]
    assert iso_search(s, truncate(standard_simplex(3), 1), 1) is not None


def test_coslice_on_coherent_nerve_and_edge_anatomy():
    d = one_object_category(
        ["1", "a"], lambda later, earlier: "a" if "a" in (later, earlier) else "1")
    n = simplicial_nerve(d, 3)
    (v,) = n.nondegenerate(0)
    c = coslice_fastpath(n, v, 2)
    assert validate(c).ok
    report, fast, generic = cross_validate_coslice(n, v, 1)
    assert report.ok, report.problems
    for edge_cell in c.nondegenerate(1):
        data = coslice_edge_anatomy(c, n, nondeg_ref(edge_cell, 1))
        assert {data.v01, data.v12, data.v02} <= {"1", "a"}
        assert data.gamma.dim == 1


@functools.lru_cache(maxsize=None)
def slice_base(name):
    """The bases the slice oracles run on: three nerves and simplex(3)."""
    if name == "simplex(3)":
        return standard_simplex(3)
    spec = {
        "default": None,
        "Z/3": MonoidSpec(saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3),
        "four grades": MonoidSpec(
            saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3),
    }[name]
    return simplicial_nerve(deloop(build_reference_monoid(spec)), 3)


def slice_assignments(s):
    """Every cell of the slice s with its assignment, in cell order."""
    return [(c, s.assignment(c))
            for d in range(s.truncation + 1) for c in s.nondegenerate(d)]


@pytest.mark.parametrize("name", ["default", "Z/3", "four grades", "simplex(3)"])
def test_slices_match_the_apply_scan(name):
    # both routes of the cross-validation share materialize_presheaf, so
    # each is also checked against the ref-valued route, which acts by
    # FinSSet.apply per value and normalizes by its own routine
    base = slice_base(name)
    v = base.nondegenerate(0)[0]
    report, fast, generic = cross_validate_coslice(base, v, 2)
    assert report.ok, report.problems
    want = scan_coslice(base, v, 2)
    assert fast.to_json() == want.to_json()
    assert list(fast.underlying.items()) == list(want.underlying.items())
    want = scan_slice(generic.presentation, 2)
    assert generic.to_json() == want.to_json()
    assert slice_assignments(generic) == slice_assignments(want)


@pytest.mark.parametrize("name", ["default", "simplex(3)"])
def test_over_slice_matches_the_apply_scan(name):
    base = slice_base(name)
    pres = SlicePresentation(base, vertex_anchor(base, base.nondegenerate(0)[-1]), "over")
    got, want = slice_sset(pres, 2), scan_slice(pres, 2)
    assert got.to_json() == want.to_json()
    assert slice_assignments(got) == slice_assignments(want)
