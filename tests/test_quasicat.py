"""Horn filling, invertibility, core, and homotopy invariants."""

import collections
import functools
import itertools

import pytest

from oracles import (
    cyclic_table,
    horn_compatibility,
    one_object_category,
    scan_apply,
    scan_core,
    scan_face_index,
    scan_faces_index,
    scan_filler,
    scan_horn_problems,
    scan_invertible_edge,
    scan_pi0,
    scan_pi1,
    scan_survey,
)
from qckit.join import coslice_fastpath
from qckit.monoids import (
    MonoidSpec,
    build_reference_monoid,
    default_monoid_spec,
    deloop,
    saturating_grades,
)
from qckit.ordinals import MonotoneMap, all_maps, degeneracy, face
from qckit.quasicat import (
    HornProblem,
    core,
    find_filler,
    horn_problems,
    invertible_edge_cells,
    is_invertible_edge,
    is_kan_up_to,
    is_quasicategory_up_to,
    pi0,
    pi1,
    tables_isomorphic,
)
from qckit.scat import simplicial_nerve
from qckit.sset import (
    FinSSet,
    SimplexRef,
    TruncationError,
    UnknownCellError,
    horn,
    nondeg_ref,
    standard_simplex,
    truncate,
)


def cyclic_category(n: int):
    return one_object_category(
        [str(i) for i in range(n)],
        lambda later, earlier: str((int(later) + int(earlier)) % n))


def absorbing_category():
    return one_object_category(
        ["1", "a"], lambda later, earlier: "a" if "a" in (later, earlier) else "1")


@pytest.fixture(scope="module")
def b_z2():
    return simplicial_nerve(cyclic_category(2), 3)


@pytest.fixture(scope="module")
def b_absorbing():
    return simplicial_nerve(absorbing_category(), 3)


@pytest.fixture(scope="module")
def default_nerve():
    return simplicial_nerve(deloop(build_reference_monoid()), 3)


# the default Z/2 nerve, every horn and every simplex up to dimension 3
ORACLE_FIXTURES = ["default-nerve"] + [
    f"horn({n},{k})" for n in range(1, 4) for k in range(n + 1)
] + [f"simplex({n})" for n in range(1, 4)]


def oracle_fixture(name, request):
    if name == "default-nerve":
        return request.getfixturevalue("default_nerve")
    n, *k = (int(v) for v in name[name.index("(") + 1 : -1].split(","))
    return horn(n, *k) if k else standard_simplex(n)


def test_horn_problem_shape_checks():
    with pytest.raises(ValueError):
        HornProblem(2, 3, (None, None, None))
    with pytest.raises(ValueError):
        HornProblem(2, 1, (None, None))


def test_compatibility_accepts_faces_of_a_real_simplex():
    x = standard_simplex(3)
    top = nondeg_ref("0-1-2-3", 3)
    for k in range(4):
        faces = tuple(
            None if i == k else x.apply(top, face(3, i)) for i in range(4)
        )
        assert horn_compatibility(x, HornProblem(3, k, faces)).ok


def test_compatibility_rejects_mismatched_faces():
    x = standard_simplex(2)
    faces = (nondeg_ref("1-2", 1), None, nondeg_ref("0-2", 1))
    report = horn_compatibility(x, HornProblem(2, 1, faces))
    assert not report.ok
    assert "0 and 2" in report.problems[0]


def test_find_filler_recovers_the_simplex():
    x = standard_simplex(3)
    for s in x.simplices(3):
        for k in range(4):
            faces = tuple(
                None if i == k else x.apply(s, face(3, i)) for i in range(4)
            )
            assert find_filler(x, HornProblem(3, k, faces)) == s


def test_find_filler_finds_nothing_for_a_face_outside_the_set():
    # a given face that is not a simplex of x has no position, so no
    # simplex bears it
    x = standard_simplex(2)
    for stranger in (nondeg_ref("0-9", 1), nondeg_ref("0", 0), nondeg_ref("0-1-2", 2)):
        assert find_filler(x, HornProblem(2, 1, (nondeg_ref("1-2", 1), None, stranger))) is None
        assert scan_filler(x, HornProblem(2, 1, (nondeg_ref("1-2", 1), None, stranger))) is None
    assert find_filler(x, HornProblem(2, 1, (nondeg_ref("1-2", 1), None, nondeg_ref("0-1", 1)))) == (
        nondeg_ref("0-1-2", 2)
    )


@pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (1, 1), (2, -1), (2, 3), (3, 4)])
def test_horn_problems_refuse_a_bad_shape(n, k):
    problems = horn_problems(standard_simplex(3), n, k)
    with pytest.raises(ValueError, match=rf"no \({n},{k}\)-horn"):
        next(problems)


def test_find_filler_respects_truncation():
    # the set's own check raises, at the first level above its truncation
    x = standard_simplex(2)
    for n in (3, 4):
        with pytest.raises(TruncationError, match=r"^dimension 3 above truncation 2$"):
            find_filler(x, HornProblem(n, 1, (None,) * (n + 1)))


def test_horn_problem_enumeration_counts_on_simplex():
    # in a simplex a horn is determined by its would-be filler, and
    # every compatible horn bounds one
    x = standard_simplex(2)
    problems = list(horn_problems(x, 2, 1))
    assert all(horn_compatibility(x, p).ok for p in problems)
    assert len(problems) == len(x.simplices(2))


def self_citing_set():
    """A malformed set: the edge e has one face entry, which cites e
    itself, so every walk that needs a face of e ends at its missing
    face 1."""
    return FinSSet(1, {1: ["e"]}, {"e": [SimplexRef(MonotoneMap(0, 1, (0,)), "e")]})


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def count_walks(monkeypatch, x):
    """The outermost face walks x runs from now on, by (ref, operator)."""
    walks = collections.Counter()
    depth = [0]
    walk = x._act

    def counted(ref, alpha):
        if not depth[0]:
            walks[ref, alpha] += 1
        depth[0] += 1
        try:
            return walk(ref, alpha)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(x, "_act", counted)
    return walks


@pytest.mark.parametrize("name", ORACLE_FIXTURES + ["self-citing"])
def test_apply_matches_the_face_walk(name, request, monkeypatch):
    x = self_citing_set() if name == "self-citing" else oracle_fixture(name, request)
    top = x.truncation
    # operators from [top + 1] are degenerate and start above the truncation
    calls = [
        (s, op)
        for n in range(top + 1)
        for s in x.simplices(n)
        for m in range(top + 2)
        for op in all_maps(m, n)
    ]
    walks = count_walks(monkeypatch, x)
    first = [outcome(x.apply, s, op) for s, op in calls]
    assert first == [outcome(scan_apply, x, s, op) for s, op in calls]
    if name != "self-citing":
        # a valid set answers every call, within the truncation and above it
        assert [got for got in first if got[0] != "value"] == []
    # Each pass walks exactly the calls that the set keeps no table for,
    # once each: on a valid set, those whose operator starts above the
    # truncation; on the self-citing set, whose edge cites a face with no
    # position, every call.  The rest read the action tables.
    walked = {(s, op) for s, op in calls if op.source_arity > top or name == "self-citing"}
    assert walks == dict.fromkeys(walked, 1)
    walks.clear()
    assert [outcome(x.apply, s, op) for s, op in calls] == first
    assert walks == dict.fromkeys(walked, 1)
    if name == "self-citing":
        assert all(got[0] == "raised" for (_, op), got in zip(calls, first)
                   if not op.is_surjective)


def test_apply_walks_a_ref_without_a_position(monkeypatch):
    # an edge written with a non-surjective epi is not a normal form, so
    # it has no position in the kept tables: every call walks and stores
    # nothing, the identity operator included
    x = standard_simplex(2)
    ref = SimplexRef(MonotoneMap(1, 2, (0, 2)), "0-1-2")
    assert ref not in x.position(1)
    ops = [op for m in range(x.truncation + 1) for op in all_maps(m, 1)]
    assert any(op.is_identity for op in ops)
    first = [x.apply(ref, op) for op in ops]
    assert first == [scan_apply(x, ref, op) for op in ops]
    walks = count_walks(monkeypatch, x)
    assert [x.apply(ref, op) for op in ops] == first
    assert walks == {(ref, op): 1 for op in ops}


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_action_tables_match_the_face_walk(name, request):
    # on a fresh copy, so every table is filled here: top levels first,
    # whose fills fill the lower tables they read
    x = FinSSet.from_json(oracle_fixture(name, request).to_json())
    top = x.truncation
    for n in reversed(range(top + 1)):
        for m in range(top + 1):
            for op in all_maps(m, n):
                where = x.position(m)
                assert list(x.action(op)) == [
                    where[scan_apply(x, s, op)] for s in x.simplices(n)]


def position_index_as_simplices(x, n, at=None):
    """``x.position_index(n, at)`` with every position read back
    through ``simplices``."""
    lower, upper = x.simplices(n - 1), x.simplices(n)
    return {
        tuple(lower[q] for q in key): tuple(upper[p] for p in ps)
        for key, ps in x.position_index(n, at).items()
    }


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_face_table_matches_apply(name, request):
    # the full position index lists every simplex once, under its faces
    x = oracle_fixture(name, request)
    for n in range(1, x.truncation + 1):
        index = position_index_as_simplices(x, n)
        assert sorted(p for ps in x.position_index(n).values() for p in ps) == (
            list(range(len(x.simplices(n))))
        )
        for faces, simplices in index.items():
            for s in simplices:
                assert faces == tuple(x.apply(s, face(n, i)) for i in range(n + 1))


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_faces_index_matches_the_apply_scan(name, request):
    x = oracle_fixture(name, request)
    for n in range(1, x.truncation + 1):
        for r in range(n + 2):
            for at in itertools.combinations(range(n + 1), r):
                assert position_index_as_simplices(x, n, at) == scan_faces_index(x, n, at)
        assert x.position_index(n) == x.position_index(n, range(n + 1))


@pytest.mark.parametrize("name", ["b_z2", "b_absorbing", "default_coslice"])
def test_invertible_edge_matches_the_apply_scan(name, request):
    if name == "default_coslice":
        nerve = request.getfixturevalue("default_nerve")
        x = coslice_fastpath(nerve, nerve.nondegenerate(0)[0], 2)
    else:
        x = request.getfixturevalue(name)
    verdicts = [is_invertible_edge(x, e) for e in x.simplices(1)]
    assert verdicts == [scan_invertible_edge(x, e) for e in x.simplices(1)]
    assert any(verdicts) and (name == "b_z2" or not all(verdicts))


def test_no_invertible_edge_without_triangles():
    x = truncate(standard_simplex(2), 1)
    for e in x.simplices(1):
        assert is_invertible_edge(x, e) == e.is_degenerate
        assert scan_invertible_edge(x, e) == e.is_degenerate
    assert invertible_edge_cells(x) == ()


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_horn_search_matches_the_apply_scan(name, request):
    x = oracle_fixture(name, request)
    for n in range(2, x.truncation + 1):
        index = scan_face_index(x, n)
        for k in range(n + 1):
            problems = list(horn_problems(x, n, k))
            assert problems == scan_horn_problems(x, n, k)
            for p in problems:
                assert find_filler(x, p) == scan_filler(x, p, index)


@pytest.mark.parametrize("name", ORACLE_FIXTURES + ["b_absorbing"])
def test_surveys_match_the_apply_scan(name, request):
    # the surveys test horns on positions; the scan builds every horn
    # problem as refs and fills it through FinSSet.apply, as find_filler's
    # oracle does, so the counts and the first horn shown are both checked
    if name == "b_absorbing":
        x = request.getfixturevalue(name)
    else:
        x = oracle_fixture(name, request)
    for top in range(2, x.truncation + 1):
        for survey, inner in ((is_quasicategory_up_to, True), (is_kan_up_to, False)):
            got, want = survey(x, top), scan_survey(x, top, inner)
            assert (got.subject, got.problems) == (want.subject, want.problems)
    if name in ("simplex(3)", "horn(2,1)", "b_absorbing"):
        assert not is_kan_up_to(x, x.truncation).ok


def test_simplex_is_a_quasicategory_but_not_kan():
    x = standard_simplex(3)
    assert is_quasicategory_up_to(x, 3).ok
    outer = is_kan_up_to(x, 2)
    assert not outer.ok  # the edge 0-1 has no left inverse


def test_missing_filler_is_reported():
    x = horn(2, 1)
    report = is_quasicategory_up_to(x, 2)
    assert not report.ok
    assert "1 unfillable (2,1)-horns" in report.problems[0]


def test_group_nerve_is_kan(b_z2):
    assert is_kan_up_to(b_z2, 3).ok


def test_absorbing_monoid_nerve_has_inner_fillers_only(b_absorbing):
    assert is_quasicategory_up_to(b_absorbing, 3).ok
    assert not is_kan_up_to(b_absorbing, 2).ok


def test_invertible_edges_in_group_nerve(b_z2):
    assert invertible_edge_cells(b_z2) == b_z2.nondegenerate(1)


def test_absorbing_edge_is_not_invertible(b_absorbing):
    (cell,) = b_absorbing.nondegenerate(1)
    assert not is_invertible_edge(b_absorbing, nondeg_ref(cell, 1))


def test_degenerate_edges_always_invertible(b_absorbing):
    (v,) = b_absorbing.nondegenerate(0)
    loop = b_absorbing.apply(nondeg_ref(v, 0), degeneracy(0, 0))
    assert is_invertible_edge(b_absorbing, loop)


def test_core_of_group_nerve_is_everything(b_z2):
    result = core(b_z2)
    for d in range(4):
        assert result.sset.nondegenerate(d) == b_z2.nondegenerate(d)


def test_core_of_absorbing_nerve_is_the_point(b_absorbing):
    result = core(b_absorbing)
    assert [result.sset.cell_count(d) for d in range(4)] == [1, 0, 0, 0]
    assert result.invertible_edges == ()
    again = core(result.sset)
    for d in range(4):
        assert again.sset.nondegenerate(d) == result.sset.nondegenerate(d)


CORE_SPECS = {
    "default": default_monoid_spec(),
    "Z/3": MonoidSpec(saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3),
    "four-grades": MonoidSpec(
        saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3
    ),
}


@functools.lru_cache(maxsize=None)
def spec_coslice(spec: str):
    """The dimension-2 coslice at the one vertex of a spec's nerve."""
    nerve = simplicial_nerve(deloop(build_reference_monoid(CORE_SPECS[spec])), 3)
    return coslice_fastpath(nerve, nerve.nondegenerate(0)[0], 2)


@pytest.mark.parametrize(
    "name", ORACLE_FIXTURES + [f"coslice({s})" for s in CORE_SPECS]
)
def test_core_matches_the_edge_scan(name, request):
    if name.startswith("coslice("):
        x = spec_coslice(name[len("coslice("):-1])
    else:
        x = oracle_fixture(name, request)
    result = core(x)
    cells = scan_core(x)
    assert result.sset.truncation == x.truncation
    assert {d: result.sset.nondegenerate(d) for d in cells} == cells
    for d in range(1, x.truncation + 1):
        for c in cells[d]:
            assert result.sset.face_entries(c) == x.face_entries(c)
    assert result.invertible_edges == tuple(sorted(
        c for c in x.nondegenerate(1)
        if scan_invertible_edge(x, nondeg_ref(c, 1))
    ))
    if name.startswith("coslice("):
        # a coslice core is neither everything nor only its vertices
        assert 0 < len(cells[1]) < len(x.nondegenerate(1))


def test_pi0_counts_zigzag_components():
    x = FinSSet(
        1,
        {0: ["p", "q", "r", "s"], 1: ["e", "f"]},
        {
            "e": [nondeg_ref("q", 0), nondeg_ref("p", 0)],
            "f": [nondeg_ref("q", 0), nondeg_ref("r", 0)],
        },
    )
    assert pi0(x) == (("p", "q", "r"), ("s",))


def one_sided_homotopies():
    """One vertex and four loops: the triangle (id, f, e) joins e and f,
    the triangle (g, h, id) joins g and h, each by one of pi1's two
    rules; no other triangle but the degenerate ones composes loops, so
    pi1 reports missing composites."""
    b, s0b = nondeg_ref("b", 0), SimplexRef(degeneracy(0, 0), "b")
    e, f, g, h = (nondeg_ref(c, 1) for c in "efgh")
    return FinSSet(
        2,
        {0: ["b"], 1: ["e", "f", "g", "h"], 2: ["t", "u"]},
        {**{c: [b, b] for c in "efgh"}, "t": [s0b, f, e], "u": [g, h, s0b]},
    )


def pi_fixture(name, request):
    if name == "one-sided":
        return one_sided_homotopies()
    if name.startswith("coslice-core("):
        return core(spec_coslice(name[len("coslice-core("):-1])).sset
    return oracle_fixture(name, request)


PI_FIXTURES = ORACLE_FIXTURES + ["one-sided"] + [
    f"coslice-core({s})" for s in CORE_SPECS
]


@pytest.mark.parametrize("name", PI_FIXTURES)
def test_pi0_matches_the_apply_scan(name, request):
    x = pi_fixture(name, request)
    assert pi0(x) == scan_pi0(x)


@pytest.mark.parametrize("name", PI_FIXTURES)
def test_pi1_matches_the_apply_scan(name, request):
    x = pi_fixture(name, request)
    if x.truncation < 2:
        with pytest.raises(TruncationError):
            pi1(x, x.nondegenerate(0)[0])
        return
    for v in x.nondegenerate(0):
        got = pi1(x, v)
        assert (got.classes, got.identity, got.table, got.problems) == scan_pi1(x, v)
    if name.startswith("coslice-core("):
        # a coslice core's groups are the components' groups: not all trivial
        assert max(pi1(x, v).order for v in x.nondegenerate(0)) > 1


@pytest.mark.parametrize("basepoint", ["nowhere", "0-1", "0-1-2"])
def test_pi1_names_a_basepoint_that_is_not_a_vertex(basepoint):
    with pytest.raises(UnknownCellError, match=f"basepoint '{basepoint}' is not a vertex"):
        pi1(standard_simplex(2), basepoint)


def test_pi1_of_group_nerve(b_z2):
    result = pi1(b_z2, b_z2.nondegenerate(0)[0])
    assert result.ok, result.problems
    assert result.order == 2
    assert tables_isomorphic(result.table, cyclic_table(2))


def test_pi1_of_z3_nerve():
    n = simplicial_nerve(cyclic_category(3), 3)
    result = pi1(n, n.nondegenerate(0)[0])
    assert result.ok, result.problems
    assert result.order == 3
    assert tables_isomorphic(result.table, cyclic_table(3))
    assert not tables_isomorphic(result.table, cyclic_table(2))


def test_pi1_of_simplex_is_trivial():
    result = pi1(standard_simplex(3), "0")
    assert result.ok
    assert result.order == 1


def test_pi1_reports_missing_inverses_and_the_first_associativity_failure():
    # one vertex b, loops a and c: a.a = c, a.c = a, c.a = a, c.c = a
    b, a, c = nondeg_ref("b", 0), nondeg_ref("a", 1), nondeg_ref("c", 1)
    triangles = {"aa": [a, c, a], "ac": [a, a, c], "ca": [c, a, a], "cc": [c, a, c]}
    x = FinSSet(2, {0: ["b"], 1: ["a", "c"], 2: list(triangles)},
                {"a": [b, b], "c": [b, b], **triangles})
    got = pi1(x, "b")
    assert got.problems == [
        "no inverse for class 0",
        "no inverse for class 2",
        "associativity fails at (0, 0, 2)",
    ]
    assert (got.classes, got.identity, got.table, got.problems) == scan_pi1(x, "b")


def test_tables_isomorphic_tells_z4_from_the_klein_group():
    # equal orders, so only the search over bijections can say no
    klein = {(i, j): i ^ j for i in range(4) for j in range(4)}
    assert not tables_isomorphic(cyclic_table(4), klein)
    assert not tables_isomorphic(klein, cyclic_table(4))
    p = (2, 0, 3, 1)
    relabelled = {(p[i], p[j]): p[v] for (i, j), v in cyclic_table(4).items()}
    assert tables_isomorphic(cyclic_table(4), relabelled)


def test_tables_isomorphic_rejects_partial_tables():
    with pytest.raises(ValueError):
        tables_isomorphic({(0, 0): 0, (0, 1): 1}, cyclic_table(2))
