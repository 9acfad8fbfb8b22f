"""Graded monoids, the delooping pipeline, and exact rational sums."""

import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bar_nerve,
    discrete_spec,
    rref_rescaling_every_pivot,
    scan_bilevel,
    scan_monoid_laws,
    scan_scat_laws,
)
from qckit import monoids
from qckit.monoids import (
    FiniteGroup,
    GradeMonoid,
    GradedSimplicialMonoid,
    MonoidSpec,
    NonassociativityWitness,
    RationalSubspace,
    WindowOverflowError,
    axis_subspace,
    boxplus,
    build_reference_monoid,
    cantor_pairing,
    cyclic_group,
    default_monoid_spec,
    deloop,
    find_nonassociativity_witness,
    group_from_name,
    group_nerve,
    group_order,
    group_product,
    monoid_spec_from_json,
    monoid_spec_to_json,
    pairing_sum,
    random_subspace,
    saturating_grades,
    span,
    szudzik_pairing,
    total_space,
    validate_monoid,
    verify_proposition,
    zero_subspace,
)
from qckit.quasicat import is_kan_up_to
from qckit.scat import simplicial_nerve, validate_scat
from qckit.ordinals import MonotoneMap, epis_onto
from qckit.sset import (
    BilevelMap,
    FinSSet,
    SimplexRef,
    iso_search,
    nondeg_ref,
    standard_simplex,
    truncate,
    validate,
    validate_bilevel,
)


@pytest.fixture(scope="module")
def reference():
    return build_reference_monoid()


@pytest.fixture(scope="module")
def reference_nerve(reference):
    return simplicial_nerve(deloop(reference), 3)


# -- grade monoids ----------------------------------------------------


def test_saturating_grades_absorb():
    g = saturating_grades(2)
    assert g.elements == ("0", "1", "2+")
    assert g.product("1", "1") == "2+"
    assert g.product("2+", "2+") == "2+"
    assert g.validate().ok


def test_group_as_grades_is_rejected():
    z2 = cyclic_group(2)
    grades = GradeMonoid(z2.elements, z2.unit, dict(z2.mult))
    report = grades.validate()
    assert not report.ok
    assert "left translation by '1' is a bijection" in report.problems[0]


def test_broken_associativity_is_reported():
    table = dict(saturating_grades(1).table)
    table[("1+", "1+")] = "0"  # makes 1+ invertible and non-associative
    report = GradeMonoid(("0", "1+"), "0", table).validate()
    assert any("associativity" in p for p in report.problems) or any(
        "bijection" in p for p in report.problems
    )


# -- group nerves against the tuple-built oracle ----------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_nerve_matches_oracle(n):
    g = cyclic_group(n)
    built = group_nerve(g, 3)
    assert validate(built).ok
    oracle = bar_nerve(
        g.elements, g.unit, lambda a, b: g.mult[(a, b)], 3
    )
    for d in range(4):
        assert built.cell_count(d) == oracle.cell_count(d) == (n - 1) ** d
    assert iso_search(built, oracle, 3) is not None


def test_bar_normal_strips_exactly_the_units():
    g = cyclic_group(3)
    ref = group_nerve(g, 4).simplex_of[("1", "0", "2", "0")]
    assert ref.cell == "1.2"
    assert ref.epi.values == (0, 1, 1, 2, 2)


def _ref(cell, *epi):
    return {"cell": cell, "epi": list(epi)}


def test_group_nerve_cell_order_and_faces_are_pinned():
    # cell ids and their order are the words without a unit letter in
    # product order; an inner face multiplies the letters it merges
    assert group_nerve(cyclic_group(3), 2).to_json() == {
        "truncation": 2,
        "cells": {"0": ["v"], "1": ["1", "2"],
                  "2": ["1.1", "1.2", "2.1", "2.2"]},
        "faces": {
            "1": [_ref("v", 0), _ref("v", 0)],
            "2": [_ref("v", 0), _ref("v", 0)],
            "1.1": [_ref("1", 0, 1), _ref("2", 0, 1), _ref("1", 0, 1)],
            "1.2": [_ref("2", 0, 1), _ref("v", 0, 0), _ref("1", 0, 1)],
            "2.1": [_ref("1", 0, 1), _ref("v", 0, 0), _ref("2", 0, 1)],
            "2.2": [_ref("2", 0, 1), _ref("1", 0, 1), _ref("2", 0, 1)],
        },
    }


def symmetric_group_3():
    """S3 as the permutations of (0, 1, 2), with mult[(p, q)] = p after q."""
    perms = list(itertools.permutations(range(3)))
    name = dict(zip(perms, ["e", "a", "b", "c", "d", "f"]))
    mult = {
        (name[p], name[q]): name[tuple(p[i] for i in q)]
        for p in perms for q in perms
    }
    return FiniteGroup("S3", tuple(name.values()), "e", mult)


def test_nonabelian_group_nerve_multiplies_later_after_earlier():
    g = symmetric_group_3()
    nerve = group_nerve(g, 3)
    unit_edge = SimplexRef(epis_onto(1, 0)[0], "v")
    assert nerve.cell_count(2) == 25
    for cell in nerve.nondegenerate(2):
        a, b = cell.split(".")
        ab = g.mult[(b, a)]
        middle = unit_edge if ab == g.unit else nondeg_ref(ab, 1)
        assert nerve.face_entries(cell) == (
            nondeg_ref(b, 1), middle, nondeg_ref(a, 1)
        )
    assert validate(nerve).ok
    assert is_kan_up_to(nerve, 3).ok
    assert len(nerve.word_of) == len(nerve.simplex_of) == 1 + 6 + 36 + 216
    for s, word in nerve.word_of.items():
        assert len(word) == s.dim
        assert nerve.simplex_of[word] == s


# -- the reference monoid ---------------------------------------------


def test_reference_monoid_validates(reference):
    assert validate_monoid(reference).ok
    unit_comp = reference.component("0")
    assert [unit_comp.cell_count(d) for d in range(4)] == [1, 0, 0, 0]


def test_reference_components_are_kan(reference):
    for g in reference.grades.elements:
        assert is_kan_up_to(reference.component(g), 3).ok


def test_total_space_counts(reference):
    total = total_space(reference)
    assert [total.cell_count(d) for d in range(4)] == [3, 2, 2, 2]
    assert validate(total).ok


def test_bad_spec_is_rejected_with_translation():
    z2 = cyclic_group(2)
    grades = GradeMonoid(z2.elements, z2.unit, dict(z2.mult))
    with pytest.raises(ValueError, match="left translation by '1'"):
        build_reference_monoid(MonoidSpec(grades, {"1": "Z/2"}, 3))


def test_spec_missing_component_group():
    with pytest.raises(ValueError, match="no component group"):
        build_reference_monoid(
            MonoidSpec(saturating_grades(2), {"1": "Z/2"}, 3)
        )


def test_unit_component_is_any_name_of_the_trivial_group():
    grades = saturating_grades(2)
    m = build_reference_monoid(
        MonoidSpec(grades, {"0": "Z/1", "1": "Z/2", "2+": "Z/2"}, 3)
    )
    assert validate_monoid(m).ok
    assert m.component("0").to_json() == (
        build_reference_monoid().component("0").to_json()
    )
    with pytest.raises(ValueError, match="unit grade component must be trivial"):
        build_reference_monoid(
            MonoidSpec(grades, {"0": "Z/2", "1": "Z/2", "2+": "Z/2"}, 3)
        )


def test_colon_in_grade_name_is_rejected():
    # cell tags are "grade:cell"; a built spec must refuse what the JSON
    # loader refuses, or verify_proposition fails far from the cause
    es = ("1", "a:b")
    mult = {(x, y): "1" if x == y == "1" else "a:b" for x in es for y in es}
    spec = MonoidSpec(GradeMonoid(es, "1", mult), {"a:b": "Z/2"}, 3)
    with pytest.raises(ValueError, match="'a:b'"):
        build_reference_monoid(spec)


def test_repeated_grade_name_is_rejected():
    # a repeated grade lists its component twice in the total space
    es = ("1", "a", "a")
    mult = {(x, y): "1" if x == y == "1" else "a" for x in es for y in es}
    spec = MonoidSpec(GradeMonoid(es, "1", mult), {"a": "trivial"}, 3)
    with pytest.raises(ValueError, match="grade 'a' is listed twice"):
        build_reference_monoid(spec)


def test_monoid_spec_json_round_trip():
    spec = default_monoid_spec()
    blob = monoid_spec_to_json(spec)
    back = monoid_spec_from_json(blob)
    assert monoid_spec_to_json(back) == blob
    assert back.grades.product("1", "2+") == "2+"


def test_group_from_name():
    assert group_from_name("Z/5").elements == ("0", "1", "2", "3", "4")
    assert group_from_name("trivial").elements == ("0",)
    with pytest.raises(ValueError):
        group_from_name("S3")
    # the order is read off the name, without tabulating the group
    assert group_order("Z/20000") == 20000
    with pytest.raises(ValueError, match="unknown group 'Z/²'"):
        group_order("Z/²")


# -- monoid validation against the apply-based scans ------------------


Z3_SPEC = MonoidSpec(saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3)
FOUR_SPEC = MonoidSpec(
    saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3
)


@pytest.fixture(scope="module")
def z3_monoid():
    return build_reference_monoid(Z3_SPEC)


def with_product(m, key, fn):
    """m with the product at key replaced by fn, on the same ends."""
    bm = m.product[key]
    return dataclasses.replace(
        m, product={**m.product, key: BilevelMap(bm.x, bm.y, bm.target, fn)}
    )


def scanned_problems(m):
    """validate_monoid's problems, with the bilevel and law sweeps taken
    from the apply-based scans (grades and components are lawful)."""
    problems = [
        f"product at ({g!r}, {h!r}): {p}"
        for (g, h), bm in m.product.items()
        for p in scan_bilevel(bm, m.truncation)
    ]
    return problems or scan_monoid_laws(m)


def nonnatural(fn):
    return lambda level, a, b: fn(level, b, b) if level == 2 else fn(level, a, b)


def twisted(fn):
    # x + 2y on Z/3: natural, but not associative with the other products
    return lambda level, a, b: fn(level, a, fn(level, b, b))


def doubling(fn):
    # (a, unit) -> 2a on Z/3: natural, but not unital
    return lambda level, a, b: fn(level, a, a)


@pytest.mark.parametrize("spec", [default_monoid_spec(), Z3_SPEC, FOUR_SPEC],
                         ids=["default", "Z/3", "four-grades"])
def test_monoid_validation_matches_the_apply_scan(spec):
    m = build_reference_monoid(spec)
    for bm in m.product.values():
        assert validate_bilevel(bm, m.truncation).problems == scan_bilevel(bm, m.truncation)
    assert validate_monoid(m).problems == scanned_problems(m) == []


@pytest.mark.parametrize("broken", ["non-natural", "twisted", "right-unit"])
def test_broken_product_problems_match_the_apply_scan(z3_monoid, broken):
    m = z3_monoid
    if broken == "non-natural":
        bad = with_product(m, ("1", "2+"), nonnatural(m.product[("1", "2+")].fn))
    elif broken == "twisted":
        bad = with_product(m, ("1", "1"), twisted(m.product[("1", "1")].fn))
    else:
        bad = with_product(m, ("1", "0"), doubling(m.product[("1", "1")].fn))
    problems = validate_monoid(bad).problems
    assert problems == scanned_problems(bad)
    expected = {
        "non-natural": "product at ('1', '2+'): level 1: operator",
        "twisted": "associativity fails at grades ('1', '1', '1') level 1",
        "right-unit": "right unit fails at grade '1' level 1",
    }[broken]
    assert problems[0].startswith(expected)


def wrong_ends(*pairs):
    return [f"product at {pair!r} has wrong ends" for pair in pairs]


def structurally_broken(m, case):
    """m with one piece of its structure broken, by ``case``."""
    comps, product = m.components, m.product
    if case == "missing-component":
        return dataclasses.replace(
            m, components={g: c for g, c in comps.items() if g != "2+"}
        )
    if case == "missing-unit-vertex":
        return dataclasses.replace(m, unit_vertex="nowhere")
    if case == "missing-product":
        return dataclasses.replace(
            m, product={k: bm for k, bm in product.items() if k != ("1", "2+")}
        )
    if case == "wrong-ends":
        return dataclasses.replace(
            m, product={**product, ("1", "1"): product[("1", "2+")]}
        )
    grade, comp = {
        "wrong-truncation": ("1", truncate(comps["1"], 2)),
        # face 0 of the edge names no cell
        "invalid-component": ("1", FinSSet(
            3, {0: ["a"], 1: ["e"]},
            {"e": [nondeg_ref("zz", 0), nondeg_ref("a", 0)]},
        )),
        # two vertices, the unit vertex among them
        "unit-not-a-point": ("0", FinSSet(3, {0: ["v", "w"]}, {})),
        "not-kan": ("1", standard_simplex(1, 3)),
    }[case]
    return dataclasses.replace(m, components={**comps, grade: comp})


@pytest.mark.parametrize("case, problems", [
    ("missing-component", ["grade '2+' has no component"]),
    ("wrong-truncation", ["component '1' has the wrong truncation"]),
    ("invalid-component",
     ["component '1': cell 'e': face 0 references unknown cell 'zz'"]),
    # the products still run from the old unit component
    ("unit-not-a-point", ["unit component is not a single point"] + wrong_ends(
        ("0", "0"), ("0", "1"), ("0", "2+"), ("1", "0"), ("2+", "0"))),
    ("missing-unit-vertex", ["unit vertex 'nowhere' missing"]),
    ("not-kan", [
        "component '1' not Kan: 1 unfillable (2,0)-horns, first "
        "(None, ('0', (0, 0)), ('0-1', (0, 1)))",
        "component '1' not Kan: 1 unfillable (2,2)-horns, first "
        "(('0-1', (0, 1)), ('1', (0, 0)), None)",
    ] + wrong_ends(
        ("0", "1"), ("1", "0"), ("1", "1"), ("1", "2+"), ("2+", "1"))),
    ("missing-product", ["product missing at ('1', '2+')"]),
    ("wrong-ends", wrong_ends(("1", "1"))),
])
def test_structural_problems_are_named(z3_monoid, case, problems):
    assert validate_monoid(structurally_broken(z3_monoid, case)).problems == (
        problems
    )


def test_off_target_product_is_a_named_problem(z3_monoid):
    def ghost(level, a, b):
        return SimplexRef(MonotoneMap(level, 0, (0,) * (level + 1)), "ghost")

    bad = with_product(z3_monoid, ("1", "1"), ghost)
    problems = validate_monoid(bad).problems
    assert len(problems) == 1
    assert problems[0].startswith("product at ('1', '1'): level 0: value at ")
    assert "not a 0-simplex of the target" in problems[0]


def scanned_scat_problems(d, cap):
    """validate_scat's problems on lawful homs, from the apply-based scans."""
    return [
        f"comp({x!r},{y!r},{z!r}): {p}"
        for (x, y, z), bm in d.comp.items()
        for p in scan_bilevel(bm, cap)
    ] + scan_scat_laws(d, cap)


@pytest.mark.parametrize("broken", ["twisted", "right-unit"])
def test_delooped_broken_product_matches_the_apply_scan(z3_monoid, broken):
    m = z3_monoid
    if broken == "twisted":
        bad = with_product(m, ("1", "1"), twisted(m.product[("1", "1")].fn))
    else:
        bad = with_product(m, ("1", "0"), doubling(m.product[("1", "1")].fn))
    d = deloop(bad)
    problems = validate_scat(d, max_level=2).problems
    assert problems and problems == scanned_scat_problems(d, 2)


def test_unit_laws_failing_from_both_sides_on_one_simplex(z3_monoid):
    # doubling, which is inversion on Z/3, on both (a, unit) and
    # (unit, a): natural, and both unit laws first fail on the same edge
    m = z3_monoid
    double = m.product[("1", "1")].fn
    bad = with_product(with_product(m, ("1", "0"), doubling(double)),
                       ("0", "1"), lambda level, a, b: double(level, b, b))
    problems = validate_monoid(bad).problems
    assert problems == scanned_problems(bad)
    assert [p for p in problems if "unit" in p] == [
        f"right unit fails at grade '1' level {level}" for level in (1, 2, 3)
    ]
    d = deloop(bad)
    problems = validate_scat(d, max_level=2).problems
    assert problems == scanned_scat_problems(d, 2)
    assert problems[0].startswith("left unit law fails at level 1 on ")
    assert problems[1] == problems[0].replace("left", "right")


def test_each_product_is_evaluated_once_per_pair(monkeypatch):
    counters = []

    class CountingBilevelMap(BilevelMap):
        def __init__(self, x, y, target, fn):
            calls = collections.Counter()

            def counted(level, a, b):
                calls[level, a, b] += 1
                return fn(level, a, b)

            counters.append((x, y, calls))
            super().__init__(x, y, target, counted)

    monkeypatch.setattr(monoids, "BilevelMap", CountingBilevelMap)
    m = build_reference_monoid(Z3_SPEC)
    assert len(counters) == len(m.product) == 9
    for x, y, calls in counters:
        pairs = sum(len(x.simplices(k)) * len(y.simplices(k)) for k in range(4))
        assert len(calls) == pairs
        assert max(calls.values()) == 1
    # the nerve composes through the tables too: deloop's composition,
    # and the products behind it, run at most once per (level, pair)
    simplicial_nerve(deloop(m), 3)
    assert len(counters) == 10
    for _, _, calls in counters:
        assert calls and max(calls.values()) == 1


def test_each_face_walk_runs_once_per_simplex_and_operator(monkeypatch):
    # FinSSet.apply keeps what a walk finds, and a walk's own steps read
    # the kept tables: across the Z/3 build and the whole proposition, no
    # (set, simplex, operator) is walked twice
    walks = collections.Counter()
    walk = FinSSet._act

    def counted(self, *args):
        walks[(self, *args)] += 1
        return walk(self, *args)

    monkeypatch.setattr(FinSSet, "_act", counted)
    m = build_reference_monoid(Z3_SPEC)
    assert walks and max(walks.values()) == 1
    built = len(walks)
    assert verify_proposition(m, 2).ok
    assert len(walks) > built and max(walks.values()) == 1


# -- delooping and the nerve ------------------------------------------


def test_deloop_is_a_valid_enriched_category(reference):
    assert validate_scat(deloop(reference), max_level=2).ok


def test_reference_nerve_cell_counts(reference_nerve):
    n = reference_nerve
    assert [len(n.simplices(d)) for d in range(4)] == [1, 3, 17, 193]
    assert [n.cell_count(d) for d in range(4)] == [1, 2, 12, 150]


def test_two_cell_count_identity(reference, reference_nerve):
    # 2-cells of the nerve match pairs (V01, V12) weighted by the number
    # of monoid edges into V12 . V01
    total = total_space(reference)
    cat = deloop(reference)
    from qckit.ordinals import face

    edges_into = {}
    for e in total.simplices(1):
        tgt = total.apply(e, face(1, 0)).cell
        edges_into[tgt] = edges_into.get(tgt, 0) + 1
    comp = cat.comp[("*", "*", "*")]
    from qckit.sset import nondeg_ref

    count = 0
    for v01 in total.nondegenerate(0):
        for v12 in total.nondegenerate(0):
            prod = comp.apply(
                0, nondeg_ref(v12, 0), nondeg_ref(v01, 0)
            ).cell
            count += edges_into.get(prod, 0)
    assert count == len(reference_nerve.simplices(2)) == 17


# -- the proposition --------------------------------------------------


def test_proposition_on_the_default_reference(reference):
    report = verify_proposition(reference, 2)
    assert report.ok, [c.to_json() for c in report.checks]
    assert report.check("c").details[0].startswith("5 of 17")
    assert "pi1 orders [1, 2, 2]" in report.check("e").details[0]
    assert report.check("f").verdict is None
    assert "found" in report.check("f").details[0]


def test_proposition_flags_isomorphic_but_distinct_components(reference):
    report = verify_proposition(reference, 2)
    assert any(
        "abstractly isomorphic" in d for d in report.check("e").details
    )


def test_proposition_on_trivial_monoid():
    grades = GradeMonoid(("0",), "0", {("0", "0"): "0"})
    m = build_reference_monoid(MonoidSpec(grades, {}, 3))
    report = verify_proposition(m, 2)
    assert report.ok
    assert "1 core vertices" in report.check("a").details[0]


def test_proposition_on_discrete_idempotent_monoid():
    # both elements appear as vertices and nothing else is invertible
    m = build_reference_monoid(discrete_spec())
    report = verify_proposition(m, 2)
    assert report.ok
    assert "2 core vertices match 2 monoid vertices" in (
        report.check("a").details[0]
    )
    assert report.check("c").details[0].startswith("2 of ")


def group_grade_monoid(component):
    """Grades Z/2 with `component` on grade 1, built without
    build_reference_monoid, which rejects group grades.  Its delooping
    has a coslice edge that is invertible over the non-unit grade."""
    grades = GradeMonoid(
        ("0", "1"), "0",
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"},
    )
    groups = {"0": cyclic_group(1), "1": group_from_name(component)}
    components = {g: group_nerve(groups[g], 3) for g in grades.elements}
    product = {
        (g, h): BilevelMap(
            components[g], components[h], components[grades.product(g, h)],
            group_product(
                components[g], components[h], components[grades.product(g, h)]
            ),
        )
        for g in grades.elements
        for h in grades.elements
    }
    return GradedSimplicialMonoid(grades, components, "v", product, 3)


def failing_checks(second_edge, reversed_paths, monoid_edges):
    return [
        {"name": "a", "verdict": True,
         "details": ["2 core vertices match 2 monoid vertices"]},
        {"name": "b", "verdict": True,
         "details": ["all 2 identity edges have unit middle and constant path"]},
        {"name": "c", "verdict": False, "details": [
            "edge ('c:s0:n1c0', (0, 1)) invertible=True but middle grade '1'",
            f"edge ('{second_edge}', (0, 1)) invertible=True but middle grade '1'",
        ]},
        {"name": "d", "verdict": False, "details": [
            "path of ('c:s0:n1c0', (0, 1)) runs '1:v' -> '1:v', "
            "expected '1:v' -> '0:v'",
            f"path of ('{second_edge}', (0, 1)) runs '0:v' -> '0:v', "
            "expected '0:v' -> '1:v'",
            f"{reversed_paths} reversed paths against {monoid_edges} monoid edges",
        ]},
        {"name": "e", "verdict": False, "details": [
            "pi0 sizes differ: 1 vs 2",
            "core component ('c:n1c0', 'c:s0:n0c0') does not land in one "
            "monoid component",
        ]},
        {"name": "f", "verdict": None, "details": [
            "isomorphism core vs monoid up to dimension 2: none"
        ]},
    ]


@pytest.mark.parametrize("component, expected", [
    ("trivial", failing_checks("c:n2c0", 4, 2)),
    ("Z/2", failing_checks("c:n2c1", 5, 3)),
])
def test_proposition_fails_on_group_grades(component, expected):
    report = verify_proposition(group_grade_monoid(component), 2)
    assert report.to_json() == {"ok": False, "checks": expected}


@pytest.mark.parametrize("dims", [0, 1])
def test_proposition_needs_two_simplices(reference, dims):
    with pytest.raises(ValueError, match=r"\(e\) needs 2-simplices"):
        verify_proposition(reference, dims)


def test_proposition_json_shape(reference):
    blob = verify_proposition(reference, 2).to_json()
    assert blob["ok"] is True
    assert [c["name"] for c in blob["checks"]] == ["a", "b", "c", "d", "e", "f"]


# -- rational subspaces -----------------------------------------------


def test_span_is_canonical():
    a = span(1, 3, [(1, 1, 0), (0, 1, 1)])
    b = span(1, 3, [(2, 2, 0), (1, 2, 1), (1, 0, -1)])
    assert a == b
    assert a.rank == 2


RATIONAL_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def rational_rows(draw):
    """(rows, canonical): int and Fraction rows, drawn as they come, or
    with every row scaled to a unit pivot, or already reduced."""
    width = draw(st.integers(1, 5))
    row = st.lists(RATIONAL_ENTRIES, min_size=width, max_size=width).map(tuple)
    rows = draw(st.lists(row, max_size=4))
    how = draw(st.sampled_from(["raw", "unit-pivots", "canonical"]))
    if how == "unit-pivots":
        rows = [
            tuple(Fraction(x) / next(y for y in r if y != 0) for x in r)
            if any(r) else r
            for r in rows
        ]
    elif how == "canonical":
        rows = rref_rescaling_every_pivot(rows)
    return rows, how == "canonical"


@given(rational_rows())
@settings(max_examples=200, deadline=None)
def test_rref_matches_the_rescaling_oracle(drawn):
    rows, canonical = drawn
    reduced = monoids._rref(rows)
    assert reduced == rref_rescaling_every_pivot(rows)
    if canonical:
        assert reduced == rows


def test_noncanonical_rows_are_refused():
    one, zero = Fraction(1), Fraction(0)
    for rows in [
        ((Fraction(2), zero),),  # pivot not 1
        ((zero, one), (one, zero)),  # pivots out of order
        ((one, one), (zero, one)),  # nonzero entry above a pivot
        ((one, zero), (zero, zero)),  # zero row
        [(one, zero)],  # a list in place of a tuple
    ]:
        with pytest.raises(ValueError, match="canonical"):
            RationalSubspace(1, 2, rows)


def test_boxplus_blocks_and_unit():
    v = span(1, 2, [(1, 0)])
    w = span(2, 2, [(0, 1, 0, 0), (0, 0, 1, 2)])
    s = boxplus(v, w)
    assert s.copies == 3 and s.rank == 3
    assert s.rows[0][:2] == (Fraction(1), Fraction(0))
    assert boxplus(zero_subspace(2), w) == w
    assert boxplus(w, zero_subspace(2)) == w
    with pytest.raises(ValueError, match="base dimensions differ"):
        boxplus(v, span(1, 3, [(1, 0, 0)]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_boxplus_associative_and_rank_additive(data):
    d = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    v = random_subspace(rng, rng.randint(1, 2), d, 2)
    w = random_subspace(rng, rng.randint(1, 2), d, 2)
    u = random_subspace(rng, rng.randint(1, 2), d, 2)
    assert boxplus(boxplus(v, w), u) == boxplus(v, boxplus(w, u))
    assert boxplus(v, w).rank == v.rank + w.rank


def test_axis_subspace_bounds():
    with pytest.raises(ValueError):
        axis_subspace(1, 4, 4)


def test_pairing_sum_zero_inputs():
    z = span(1, 8, [])
    assert pairing_sum(z, z).rank == 0


def test_pairing_sum_dim_additive():
    v = span(1, 16, [(1 if i == 0 else 0 for i in range(16))])
    w = axis_subspace(1, 16, 1)
    assert pairing_sum(v, w).rank == 2


def test_pairing_sum_window_overflow():
    v = axis_subspace(1, 4, 3)
    with pytest.raises(WindowOverflowError) as exc:
        pairing_sum(v, v)
    assert exc.value.needed > 4
    assert "at least" in str(exc.value)


def test_cantor_witness_axis_spans():
    w = find_nonassociativity_witness(cantor_pairing)
    assert isinstance(w, NonassociativityWitness)
    assert w.left != w.right
    # first axis triple already fails: e0+e0 routes to {e0, e2}, then
    # associating left lands on e3 where right lands on e7
    def support(s):
        return sorted(
            next(i for i, x in enumerate(r) if x != 0) for r in s.rows
        )

    assert support(w.left) == [0, 2, 3]
    assert support(w.right) == [0, 2, 7]


def test_szudzik_witness_exists():
    w = find_nonassociativity_witness(szudzik_pairing)
    assert w is not None
    assert w.left != w.right


def test_witness_json_is_serializable():
    import json

    w = find_nonassociativity_witness(cantor_pairing)
    blob = json.dumps(w.to_json())
    assert "left_association" in blob
