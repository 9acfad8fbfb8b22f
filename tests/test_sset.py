import functools
import json
import math
import sys

import pytest

from oracles import (
    combinations_nerve,
    compose_maps,
    scan_apply,
    scan_identity_problems,
    validate_map,
)
from qckit.monoids import build_reference_monoid, deloop
from qckit.ordinals import MonotoneMap, all_maps, compose, degeneracy, face, identity
from qckit.scat import simplicial_nerve
from qckit.sset import (
    FinSSet,
    SimplexRef,
    TruncationError,
    UnknownCellError,
    boundary,
    horn,
    identity_map,
    iso_search,
    materialize_presheaf,
    nondeg_ref,
    point,
    simplex_cell_id,
    standard_map,
    standard_simplex,
    truncate,
    validate,
)


@pytest.mark.parametrize("n", range(0, 5))
def test_standard_simplex_nondegenerate_counts(n):
    X = standard_simplex(n)
    for m in range(n + 1):
        assert X.cell_count(m) == math.comb(n + 1, m + 1)


@pytest.mark.parametrize("n", range(0, 4))
def test_standard_simplex_total_counts(n):
    # |Delta^n_k| = C(n+k+1, k+1), degenerate simplices included
    X = standard_simplex(n, truncation=n + 2)
    for k in range(n + 3):
        assert len(X.simplices(k)) == math.comb(n + k + 1, k + 1)


@pytest.mark.parametrize("n", range(0, 5))
@pytest.mark.parametrize("extra", [0, 2])
def test_standard_simplex_matches_the_combinations_oracle(n, extra):
    # cell ids, cell order and face order, key order included
    got = standard_simplex(n, truncation=n + extra).to_json()
    want = combinations_nerve(range(n + 1), simplex_cell_id, n + extra).to_json()
    assert json.dumps(got) == json.dumps(want)


def test_simplices_below_zero_and_above_truncation():
    X = standard_simplex(2)
    assert X.simplices(-1) == []
    with pytest.raises(TruncationError):
        X.simplices(3)
    with pytest.raises(TruncationError):
        X.nondegenerate(3)


@pytest.mark.parametrize("x", [point(), standard_simplex(2), horn(3, 1)],
                         ids=["point", "simplex(2)", "horn(3,1)"])
def test_one_truncation_message_above_the_truncation(x):
    # nondegenerate is the one check; simplices and truncate reach it
    t = x.truncation
    for ask in (x.nondegenerate, x.simplices, lambda d: truncate(x, d)):
        with pytest.raises(TruncationError, match=rf"^dimension {t + 1} above truncation {t}$"):
            ask(t + 1)


def test_validate_standard_simplices():
    for n in range(4):
        assert validate(standard_simplex(n)).ok


def test_validate_catches_swapped_face():
    X = standard_simplex(2)
    faces = {c: list(X.face_entries(c)) for d in range(1, 3) for c in X.nondegenerate(d)}
    faces["0-1-2"][0], faces["0-1-2"][1] = faces["0-1-2"][1], faces["0-1-2"][0]
    bad = FinSSet(2, {d: X.nondegenerate(d) for d in range(3)}, faces)
    report = validate(bad)
    assert not report.ok
    assert any("0-1-2" in p for p in report.problems)


def permuted_faces(x, cell, order):
    """x with the face entries of ``cell`` permuted: entry i is the old
    entry ``order[i]``."""
    faces = {c: list(x.face_entries(c)) for d in range(1, x.truncation + 1)
             for c in x.nondegenerate(d)}
    faces[cell] = [faces[cell][k] for k in order]
    return FinSSet(x.truncation, {d: x.nondegenerate(d) for d in range(x.truncation + 1)}, faces)


def default_nerve():
    return simplicial_nerve(deloop(build_reference_monoid()), 3)


# corrupted sets, each with problems, then the valid sets of
# test_quasicat's ORACLE_FIXTURES, with none
IDENTITY_SWEEP_SETS = {
    "simplex(3)-swapped": (lambda: permuted_faces(standard_simplex(3), "0-1-2", (1, 0, 2)), True),
    "simplex(3)-rotated": (lambda: permuted_faces(standard_simplex(3), "0-1-2-3", (1, 2, 3, 0)), True),
    # n3c0's faces 0 and 3 are a triangle and a degenerate vertex
    "nerve-swapped": (lambda: permuted_faces(default_nerve(), "n3c0", (3, 1, 2, 0)), True),
    "default-nerve": (default_nerve, False),
    **{f"horn({n},{k})": (functools.partial(horn, n, k), False)
       for n in range(1, 4) for k in range(n + 1)},
    **{f"simplex({n})": (functools.partial(standard_simplex, n), False) for n in range(1, 4)},
}


@pytest.mark.parametrize("name", IDENTITY_SWEEP_SETS)
def test_validate_identity_problems_match_the_face_walk(name):
    # the same problems, in the same order, as the sweep that walks
    # every face afresh; none on the valid sets
    make, broken = IDENTITY_SWEEP_SETS[name]
    x = make()
    problems = validate(x).problems
    assert problems == scan_identity_problems(x)
    assert bool(problems) == broken


def test_validate_catches_unknown_reference():
    e = nondeg_ref("ghost", 0)
    X = FinSSet(1, {0: ["v"], 1: ["e"]}, {"e": [e, nondeg_ref("v", 0)]})
    report = validate(X)
    assert not report.ok
    assert any("ghost" in p for p in report.problems)
    with pytest.raises(UnknownCellError):
        X.apply(nondeg_ref("e", 1), face(1, 0))


@pytest.mark.parametrize("cells, faces, problems", [
    ({0: ["v", "w"], 1: ["v"]}, {"v": [nondeg_ref("w", 0)] * 2},
     ["cell 'v' listed in dimensions 0 and 1", "vertex 'v' has face entries"]),
    ({0: ["v"]}, {"v": [nondeg_ref("v", 0)]}, ["vertex 'v' has face entries"]),
    ({0: ["a"], 1: ["e"]},
     {"e": [SimplexRef(MonotoneMap(0, 1, (0,)), "a"), nondeg_ref("a", 0)]},
     ["cell 'e': face 0 epi lands in [1] but cell 'a' has dimension 0"]),
], ids=["listed-twice", "vertex-faces", "epi-target"])
def test_validate_names_each_structural_fault(cells, faces, problems):
    assert validate(FinSSet(1, cells, faces)).problems == problems


def test_presheaf_functoriality_delta3():
    # (s . a) . b == s . (a . b), exhaustively over Delta^3
    X = standard_simplex(3)
    for k in range(4):
        for s in X.simplices(k):
            for m in range(4):
                for a in all_maps(m, k):
                    sa = X.apply(s, a)
                    for l in range(3):
                        for b in all_maps(l, m):
                            assert X.apply(sa, b) == X.apply(s, compose(a, b))


def test_degeneracy_detection_matches_normal_form():
    # s is degenerate at i iff s == (s . d_i) . s_i
    X = standard_simplex(3)
    for k in range(1, 4):
        for s in X.simplices(k):
            witnessed = any(
                X.apply(X.apply(s, face(k, i)), degeneracy(k - 1, i)) == s
                for i in range(k)
            )
            assert witnessed == s.is_degenerate


def test_boundary_and_horn_counts():
    b2 = boundary(2)
    assert [b2.cell_count(d) for d in range(2)] == [3, 3]
    h21 = horn(2, 1)
    assert [h21.cell_count(d) for d in range(2)] == [3, 2]
    h31 = horn(3, 1)
    assert [h31.cell_count(d) for d in range(3)] == [4, 6, 3]
    assert validate(b2).ok and validate(h21).ok and validate(h31).ok


def degenerate_sphere():
    """One vertex, one 2-cell, every face the degenerate edge."""
    collapse = SimplexRef(MonotoneMap(1, 0, (0, 0)), "v")
    return FinSSet(2, {0: ["v"], 2: ["T"]}, {"T": [collapse, collapse, collapse]})


def test_degenerate_face_references_validate():
    assert validate(degenerate_sphere()).ok


def test_json_round_trip_bit_exact():
    for X in (standard_simplex(3), horn(3, 1), degenerate_sphere(), point()):
        blob = X.to_json_str()
        Y = FinSSet.from_json(blob)
        assert Y.to_json_str() == blob
        assert validate(Y).ok == validate(X).ok


def test_loaded_face_entries_share_one_epi_per_value():
    blob = json.loads(default_nerve().to_json_str())
    x = FinSSet.from_json(blob)
    entries = [r for d in range(1, 4) for c in x.nondegenerate(d)
               for r in x.face_entries(c)]
    first = {}
    for r in entries:
        assert r.epi is first.setdefault((r.epi.values, r.epi.target_arity), r.epi)
    assert len(first) < len(entries)
    # a malformed epi is still named by its cell and face index
    c = x.nondegenerate(3)[-1]
    blob["faces"][c][2]["epi"] = [1, 0, 0]
    with pytest.raises(ValueError, match=rf"^cell '{c}' face 2: "):
        FinSSet.from_json(blob)


def test_iso_search_identity_and_relabels():
    X = standard_simplex(2)
    found = iso_search(X, X, 2)
    assert found is not None
    assert validate_map(found).ok
    relabeled = FinSSet.from_json(X.to_json_str().replace("0-1", "edge01"))
    found2 = iso_search(X, relabeled, 2)
    assert found2 is not None
    assert validate_map(found2).ok


def test_iso_search_distinguishes_orientation():
    def two_edges(reversed_second):
        faces = {
            "a": [nondeg_ref("v1", 0), nondeg_ref("v0", 0)],
            "b": [nondeg_ref("v2", 0), nondeg_ref("v1", 0)]
            if not reversed_second
            else [nondeg_ref("v1", 0), nondeg_ref("v2", 0)],
        }
        return FinSSet(1, {0: ["v0", "v1", "v2"], 1: ["a", "b"]}, faces)

    path = two_edges(False)
    convergent = two_edges(True)
    assert iso_search(path, path, 1) is not None
    assert iso_search(path, convergent, 1) is None


def test_iso_search_deeper_than_the_recursion_limit():
    # one backtracking level per nondegenerate cell: 1023 of them
    x = standard_simplex(9)
    assert sum(x.cell_count(d) for d in range(10)) > sys.getrecursionlimit()
    found = iso_search(x, x, 9)
    assert found is not None
    assert found.assignment == identity_map(x).assignment


def test_iso_search_count_mismatch():
    assert iso_search(standard_simplex(2), standard_simplex(1), 1) is None


def test_standard_map_functorial():
    a = MonotoneMap(1, 2, (0, 2))
    f = standard_map(a)
    assert validate_map(f).ok
    assert f.assignment["0-1"] == nondeg_ref("0-2", 1)
    b = MonotoneMap(2, 1, (0, 0, 1))
    g = standard_map(b)
    gf = standard_map(compose(a, b))
    assert compose_maps(f, g).assignment == gf.assignment


def test_collapsing_standard_map_hits_degeneracies():
    s = MonotoneMap(2, 1, (0, 1, 1))
    f = standard_map(s)
    assert validate_map(f).ok
    img = f.assignment["0-1-2"]
    assert img.is_degenerate and img.cell == "0-1"


@pytest.mark.parametrize("x", [standard_simplex(1, truncation=2), degenerate_sphere()],
                         ids=["simplex(1)", "degenerate-sphere"])
def test_materialize_accepts_values_repeated_across_levels(x):
    # positions repeat across levels (0 is a vertex, an edge and a
    # triangle of both sets); as values they give the same cells and
    # faces as the refs they stand for, named alike.  The sphere's
    # triangle has degenerate edges as faces, which share position 0
    # with its vertex.
    sims = [x.simplices(n) for n in range(3)]

    def name(n, s):
        return f"{n}:{s.cell}"

    by_ref = materialize_presheaf(sims, x.apply, name)
    by_pos = materialize_presheaf(
        [range(len(level)) for level in sims],
        lambda p, alpha: x.action(alpha)[p],
        lambda n, p: name(n, sims[n][p]),
    )
    assert by_pos[:2] == by_ref[:2]
    assert {c: sims[int(c[0])][p] for c, p in by_pos[2].items()} == by_ref[2]
    assert [len(by_ref[0][n]) for n in range(3)] == [
        x.cell_count(n) for n in range(3)]


@pytest.mark.parametrize("make", [
    lambda: standard_simplex(3),
    default_nerve,
], ids=["simplex(3)", "nerve"])
def test_identity_action_is_a_range_and_keeps_no_table(make):
    # neither action nor apply keeps a table for an identity, and every
    # table kept, one per operator, is whole
    x = make()
    for n in range(x.truncation + 1):
        x.action(face(n, 0) if n else degeneracy(0, 0))
        kept = dict(x._tables)
        assert x.action(identity(n)) == range(len(x.simplices(n)))
        assert [x.apply(s, identity(n)) for s in x.simplices(n)] == x.simplices(n)
        assert x._tables == kept
    assert x._tables and all(
        len(table) == len(x.simplices(op.target_arity)) and None not in table
        for op, table in x._tables.items())


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def test_the_operator_step_cache_holds_no_per_set_state():
    # fill the cache from a well-formed set, then act on broken copies
    # whose face entries differ from it under the same operators
    good = standard_simplex(3)
    calls = [(s, op) for n in range(4) for s in good.simplices(n)
             for m in range(4) for op in all_maps(m, n)]
    for s, op in calls:
        good.apply(s, op)
    cells = {d: good.nondegenerate(d) for d in range(4)}
    faces = {c: list(good.face_entries(c)) for d in range(1, 4) for c in cells[d]}
    d0, d1, d2 = faces["0-1-2"]

    bad = FinSSet(3, cells, {**faces, "0-1-2": [d0, nondeg_ref("ghost", 1), d2]})
    named = "face 1 of cell '0-1-2' references unknown cell 'ghost'"
    for s, op in [(nondeg_ref("0-1-2", 2), face(2, 1)),
                  (nondeg_ref("0-1-2-3", 3), MonotoneMap(1, 3, (0, 2)))]:
        with pytest.raises(UnknownCellError, match=named):
            bad.apply(s, op)
        with pytest.raises(UnknownCellError, match=named):
            scan_apply(bad, s, op)

    swapped = {**faces, "0-1-2": [d1, d0, d2]}
    bad = FinSSet(3, cells, swapped)
    got = [outcome(bad.apply, s, op) for s, op in calls]
    assert got == [outcome(scan_apply, bad, s, op) for s, op in calls]
    assert got != [("value", good.apply(s, op)) for s, op in calls]
