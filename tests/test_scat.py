import functools
import json
import math
import random
import sys

import pytest

from oracles import (
    assignments,
    bar_nerve,
    discrete_spec,
    functor_from_assignments,
    functor_normal_form,
    one_object_category,
    ref_signature,
    rigidify_map,
    scan_bilevel,
    scan_functors,
    scan_nerve,
    scan_precompose,
    scan_scat_laws,
    strict_chain_count,
)

from qckit.ordinals import all_maps, compose, degeneracy, epis_onto, face, identity
from qckit.monoids import (
    MonoidSpec,
    build_reference_monoid,
    deloop,
    saturating_grades,
)
from qckit.posets import mapping_poset
from qckit.scat import (
    EdgeData,
    SCat,
    SimplicialFunctor,
    TriangleData,
    _layout,
    classification_to_functor,
    classify_low_simplices,
    enumerate_functors,
    from_finite_category,
    functor_to_classification,
    precompose,
    rigidify,
    scat_from_manifest,
    scat_to_manifest,
    simplicial_nerve,
    validate_functor,
    validate_scat,
)
from qckit.sset import (
    BilevelMap,
    FinSSet,
    SimplexRef,
    TruncationError,
    iso_search,
    nondeg_ref,
    standard_simplex,
    validate,
    validate_map,
)


def discrete_two_element_monoid():
    """One object; morphisms 1 and a with a.a = a."""
    return one_object_category(
        ["1", "a"], lambda later, earlier: "1" if later == earlier == "1" else "a")


def poset_category_012():
    objs = [0, 1, 2]
    morphisms = {
        (x, y): [f"{x}to{y}"] for x in objs for y in objs if x <= y
    }

    def comp(x, y, z, later, earlier):
        return f"{x}to{z}"

    return from_finite_category(
        objs, morphisms, comp, {x: f"{x}to{x}" for x in objs}, truncation=3
    )


@functools.lru_cache(maxsize=None)
def delooped(name):
    """The delooped reference monoids: default Z/2, Z/3 components, four
    Z/2 grades, and the discrete spec with one idempotent grade."""
    if name == "default":
        return deloop(build_reference_monoid())
    if name == "Z/3":
        spec = MonoidSpec(saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3)
        return deloop(build_reference_monoid(spec))
    if name == "four grades":
        spec = MonoidSpec(
            saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3)
        return deloop(build_reference_monoid(spec))
    return deloop(build_reference_monoid(discrete_spec()))


# -- rigidification ---------------------------------------------------


@pytest.mark.parametrize("k", range(0, 5))
def test_rigidify_hom_cell_counts(k):
    c = rigidify(k)
    for i in range(k + 1):
        for j in range(k + 1):
            h = c.hom(i, j)
            p = mapping_poset(i, j, k)
            if i > j:
                assert h.cell_count(0) == 0
                continue
            for m in range(min(h.truncation, max(j - i - 1, 0)) + 1):
                expected = strict_chain_count(
                    p, lambda a, b: a <= b, m + 1
                )
                assert h.cell_count(m) == expected


@pytest.mark.parametrize("k", range(0, 5))
def test_rigidify_is_valid_scat(k):
    assert validate_scat(rigidify(k)).ok


# -- functor enumeration ----------------------------------------------


def test_discrete_monoid_functor_counts():
    d = discrete_two_element_monoid()
    for k in range(4):
        assert len(enumerate_functors(k, d)) == 2**k


def test_discrete_poset_category_functor_counts():
    d = poset_category_012()
    for k in range(4):
        # weakly increasing (k+1)-chains in 0 <= 1 <= 2
        assert len(enumerate_functors(k, d)) == math.comb(k + 3, k + 1)


def test_enumerate_functors_no_duplicates_and_valid():
    d = discrete_two_element_monoid()
    for k in range(4):
        fs = enumerate_functors(k, d)
        assert len(set(fs)) == len(fs)
        for f in fs:
            assert validate_functor(f).ok


def test_validate_functor_names_a_failing_composition_square():
    # the functor sending both edges and their composite to a, rebound
    # to the same homs composed as Z/2, where a.a = 1
    d = discrete_two_element_monoid()

    twisted = one_object_category(
        ["1", "a"], lambda later, earlier: "a" if (later == "a") != (earlier == "a") else "1")
    comp = {
        key: BilevelMap(bm.x, bm.y, bm.target, twisted.comp[key].fn)
        for key, bm in d.comp.items()
    }
    target = SCat(d.objects, d.homs, d.identities, comp)
    (f,) = [
        f for f in enumerate_functors(2, d)
        if assignments(f)[(0, 1)]["0.1"].cell == assignments(f)[(1, 2)]["1.2"].cell == "a"
    ]
    rebound = functor_from_assignments(2, target, f.object_map, assignments(f))
    assert validate_functor(f).ok
    assert validate_functor(rebound).problems == [
        f"composition square fails at level {m} on (0,1,2): '1.2' over '0.1'"
        for m in (0, 1)
    ]


def test_truncation_guard():
    low = one_object_category(["1"], lambda later, earlier: "1", truncation=1)
    with pytest.raises(TruncationError):
        enumerate_functors(3, low)


def test_nerve_above_the_level_cap_raises_the_functor_message():
    # one level cap for functors and nerves; the oracle words it alike
    d = one_object_category(["1"], lambda later, earlier: "1", truncation=1)
    for build in (enumerate_functors, lambda k, d: simplicial_nerve(d, k),
                  lambda k, d: scan_nerve(d, k)):
        with pytest.raises(TruncationError, match="^homs truncated at 1, too low for 3-functors$"):
            build(3, d)
    assert simplicial_nerve(d, 2).truncation == 2


def test_enumerate_functors_leaves_a_negative_arity_to_rigidify():
    d = one_object_category(["1"], lambda later, earlier: "1", truncation=1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        enumerate_functors(-1, d)


def test_nerve_leaves_a_negative_dim_to_the_set():
    d = one_object_category(["1"], lambda later, earlier: "1", truncation=1)
    with pytest.raises(ValueError, match="^truncation must be >= 0$"):
        simplicial_nerve(d, -1)


def test_enumeration_deeper_than_the_recursion_limit():
    # one search level per slot: thousands of them, and a single functor
    d = one_object_category(["1"], lambda later, earlier: "1", truncation=5)
    (f,) = enumerate_functors(6, d)
    slots = sum(len(table) for table in assignments(f).values())
    assert slots > sys.getrecursionlimit()
    assert {r.cell for table in assignments(f).values() for r in table.values()} == {"1"}


def test_precompose_functorial():
    d = discrete_two_element_monoid()
    fs = enumerate_functors(3, d)
    ops = [(a, b) for a in all_maps(2, 3) for b in all_maps(1, 2)]
    for f in fs:
        for a, b in ops:
            assert precompose(precompose(f, a), b) == precompose(f, compose(a, b))


@pytest.mark.parametrize(
    "name, k",
    [("default", k) for k in range(4)]
    + [("idempotent", k) for k in range(4)]
    + [("Z/3", k) for k in range(3)],
)
def test_enumeration_matches_brute_force_scan(name, k):
    d = delooped(name)
    fs = enumerate_functors(k, d)
    expected = scan_functors(k, d)
    assert len(fs) == len(expected)
    for got, want in zip(fs, expected):
        assert got.object_map == want.object_map
        assert assignments(got) == assignments(want)


@pytest.mark.parametrize("k", range(5))
def test_layout_places_each_constraining_slot_fail_first(k):
    # every slot reads only entries set before it: the units, or entries
    # of earlier slots.  A forced slot, or a free one with more than two
    # faces, follows the last entry it reads with nothing but other such
    # slots between; the rest keep their order by gap, i and dimension
    entries, _, slots = _layout(k)
    units = {e for e, ((i, j), _, _) in enumerate(entries) if i == j}
    at = {}  # entry -> its slot's place
    constrains = [split is not None or len(faces) > 2 for _, _, faces, split in slots]
    for t, (e, _, faces, split) in enumerate(slots):
        reads = faces if split is None else (split[3], split[5])
        assert all(r in units or r in at for r in reads)
        at[e] = t
        if constrains[t]:
            last = max((at[r] for r in reads if r not in units), default=-1)
            assert all(constrains[last + 1:t])
    assert sorted(at) == sorted(set(range(len(entries))) - units)
    kept = [entries[s[0]] for s, moved in zip(slots, constrains) if not moved]
    assert kept == sorted(kept, key=lambda entry: (entry[0][1] - entry[0][0], entry[0][0], entry[2]))


def test_precompose_functorial_on_z2_deloop():
    # chains collapse here, so the cached image chains meet degenerate values
    d = delooped("default")
    for f in enumerate_functors(2, d):
        for m in range(4):
            for a in all_maps(m, 2):
                fa = precompose(f, a)
                for l in range(3):
                    for b in all_maps(l, m):
                        assert precompose(fa, b) == precompose(f, compose(a, b))


@pytest.mark.parametrize("name, k", [(n, k) for n in ("default", "Z/3") for k in range(4)])
def test_precompose_matches_the_ref_scan(name, k):
    # every operator [l] -> [k] with l <= k, and the degeneracies from [k + 1]
    ops = [a for l in range(k + 1) for a in all_maps(l, k)]
    ops += [degeneracy(k, i) for i in range(k + 1)]
    for f in enumerate_functors(k, delooped(name)):
        for op in ops:
            assert assignments(precompose(f, op)) == assignments(scan_precompose(f, op))


def test_precompose_above_the_target_truncation_matches_the_ref_scan():
    # the rigidified degeneracies take values in the oracle's homs,
    # listed to level 3, above the level k - 1 where rigidify(k)'s own
    # homs stop
    for src_op in (degeneracy(1, 0), degeneracy(2, 1)):
        g = rigidify_map(src_op)
        for l in range(4):
            for op in all_maps(l, g.arity):
                assert assignments(precompose(g, op)) == assignments(scan_precompose(g, op))


def test_precompose_above_the_level_cap_raises():
    # a 3-functor needs values at level 2, which homs truncated at 1 lack
    d = one_object_category(["1"], lambda later, earlier: "1", truncation=1)
    f = enumerate_functors(2, d)[0]
    with pytest.raises(TruncationError, match="homs truncated at 1, too low for 3-functors"):
        precompose(f, degeneracy(2, 0))
    assert precompose(f, face(2, 0)).arity == 1


@pytest.mark.parametrize("name", ["default", "Z/3", "four grades"])
def test_signature_sorts_as_the_ref_signature(name):
    d = delooped(name)
    for k in range(4):
        fs = enumerate_functors(k, d)
        by_code = sorted(fs, key=SimplicialFunctor.signature)
        by_refs = sorted(fs, key=ref_signature)
        assert [f.code for f in by_code] == [f.code for f in by_refs]


def test_hand_built_functor_off_its_hom_stays_diagnosable():
    d = delooped("default")
    f = enumerate_functors(2, d)[-1]
    h = d.hom("*", "*")
    edge = h.simplices(1)[-1]
    for pair, cid, value, problem in [
        ((0, 1), "0.1", edge, "hom(0,1): cell '0.1' of dimension 0 mapped to a 1-simplex"),
        ((0, 2), "0.2", nondeg_ref("ghost", 0),
         "hom(0,2): cell '0.2' mapped to unknown cell 'ghost'"),
    ]:
        values = assignments(f)
        values[pair][cid] = value
        bad = functor_from_assignments(2, d, f.object_map, values)
        assert assignments(bad) == values
        assert validate_functor(bad).problems == [problem]
        assert (bad == f) is False
        assert bad != f and len({bad, f}) == 2


def test_hand_built_functor_missing_a_hom_is_named():
    d = delooped("default")
    f = enumerate_functors(2, d)[-1]
    values = assignments(f)
    del values[(0, 1)]
    bad = functor_from_assignments(2, d, f.object_map, values)
    assert validate_functor(bad).problems == ["hom(0,1): cell '0.1' has no image"]
    with pytest.raises(KeyError, match=r"chain '0\.1' of hom \(0, 1\)"):
        functor_to_classification(bad)


def test_normal_form_strips_degeneracy_on_z2_deloop():
    n = simplicial_nerve(delooped("default"), 3)
    for cid in n.nondegenerate(2):
        f = n.functor_of[cid]
        for i in range(3):
            epi, g = functor_normal_form(precompose(f, degeneracy(2, i)))
            assert epi == degeneracy(2, i)
            assert g == f


def test_rigidify_map_identity_and_validity():
    assert rigidify_map(identity(2)) == rigidify_map(identity(2))
    for op in (face(2, 1), face(3, 0), degeneracy(1, 0)):
        assert validate_functor(rigidify_map(op)).ok


# -- the coherent nerve -----------------------------------------------


def test_nerve_of_discrete_monoid_matches_bar_construction():
    d = discrete_two_element_monoid()
    n = simplicial_nerve(d, 3)
    assert validate(n).ok
    for k in range(4):
        assert len(n.simplices(k)) == 2**k
        assert n.cell_count(k) == 1
    oracle = bar_nerve(
        ["1", "a"], "1", lambda a, b: "1" if a == b == "1" else "a", 3
    )
    assert iso_search(n, oracle, 3) is not None


def test_nerve_of_poset_category_is_simplex():
    d = poset_category_012()
    n = simplicial_nerve(d, 3)
    assert validate(n).ok
    assert iso_search(n, standard_simplex(2, truncation=3), 3) is not None


def test_iso_search_finds_a_shuffled_copy_of_the_nerve():
    # renamed cells in a shuffled order send the search back out of
    # wrong candidates, so the images it holds as used must shrink again
    n = simplicial_nerve(delooped("default"), 3)
    rng = random.Random(1)
    cells = {d: list(n.nondegenerate(d)) for d in range(4)}
    for cs in cells.values():
        rng.shuffle(cs)
    name = {c: f"r{c}" for cs in cells.values() for c in cs}
    copy = FinSSet(
        3, {d: [name[c] for c in cs] for d, cs in cells.items()},
        {name[c]: [SimplexRef(r.epi, name[r.cell]) for r in n.face_entries(c)]
         for d in range(1, 4) for c in cells[d]})
    found = iso_search(n, copy, 3)
    assert found is not None and validate_map(found).ok


def test_nerve_face_degeneracy_bookkeeping():
    d = discrete_two_element_monoid()
    n = simplicial_nerve(d, 3)
    # the unique nondegenerate 2-cell has the constant-a functor beneath it
    (cid,) = n.nondegenerate(2)
    f = n.functor_of[cid]
    epi, g = functor_normal_form(precompose(f, degeneracy(2, 1)))
    assert epi.values == (0, 1, 1, 2)
    assert g == f


NERVE_TARGETS = {
    "default": lambda: delooped("default"),
    "Z/3": lambda: delooped("Z/3"),
    "idempotent": lambda: delooped("idempotent"),
    "discrete-two-element": discrete_two_element_monoid,
    "poset-012": poset_category_012,
}


@pytest.mark.parametrize("name", list(NERVE_TARGETS))
def test_nerve_matches_the_precompose_scan(name):
    d = NERVE_TARGETS[name]()
    n = simplicial_nerve(d, 3)
    ref = scan_nerve(d, 3)
    for k in range(4):
        assert n.nondegenerate(k) == ref.nondegenerate(k)
    assert n.functor_of == ref.functor_of
    for k in range(1, 4):
        for c in n.nondegenerate(k):
            assert n.face_entries(c) == ref.face_entries(c)
            for i in range(k + 1):
                assert n.functor_of_ref(n.face_entry(c, i)) == precompose(
                    n.functor_of[c], face(k, i)
                )


# -- classification ---------------------------------------------------


@pytest.mark.parametrize("name", ["discrete", "Z/3"])
def test_classification_bijection(name):
    # over Z/3 the triangle's forced vertex is a non-trivial product
    d = discrete_two_element_monoid() if name == "discrete" else delooped(name)
    for k in (1, 2, 3):
        tuples = classify_low_simplices(k, d)
        functors = enumerate_functors(k, d)
        built = [classification_to_functor(k, d, t) for t in tuples]
        assert len(built) == len(functors)
        assert set(built) == set(functors)
        for t, f in zip(tuples, built):
            assert functor_to_classification(f) == t
        for f in functors:
            t = functor_to_classification(f)
            assert classification_to_functor(k, d, t) == f


@pytest.mark.parametrize("k", [0, 4])
def test_classification_covers_k_one_to_three(k):
    d = discrete_two_element_monoid()
    with pytest.raises(ValueError, match=r"k in \{1, 2, 3\}"):
        classify_low_simplices(k, d)
    with pytest.raises(ValueError, match=r"k in \{1, 2, 3\}"):
        classification_to_functor(k, d, EdgeData("1"))
    with pytest.raises(ValueError, match=r"k in \{1, 2, 3\}"):
        functor_to_classification(enumerate_functors(0, d)[0])


def test_classification_to_functor_needs_the_tuple_of_its_arity():
    d = discrete_two_element_monoid()
    with pytest.raises(TypeError, match="TetrahedronData"):
        classification_to_functor(3, d, EdgeData("1"))


def test_classification_needs_a_single_object_target():
    d = from_finite_category(
        ["x", "y"], {("x", "x"): ["1x"], ("y", "y"): ["1y"]},
        lambda x, y, z, later, earlier: later, {"x": "1x", "y": "1y"},
    )
    with pytest.raises(ValueError, match="single-object target"):
        classify_low_simplices(1, d)
    with pytest.raises(ValueError, match="single-object target"):
        classification_to_functor(1, d, EdgeData("1x"))


def test_classification_refuses_a_tuple_that_classifies_no_cell():
    # the default spec: gamma runs from v02 = 1:v, the constant edge at
    # 0:v does not, and no 2-cell has these fields
    d = delooped("default")
    const = lambda cell, m: SimplexRef(epis_onto(m, 0)[0], cell)
    for t in (
        TriangleData("1:v", "0:v", "1:v", const("0:v", 1)),
        TriangleData("1:v", "0:v", "1:v", const("0:v", 2)),  # gamma not an edge
        TriangleData("ghost", "0:v", "1:v", const("0:v", 1)),
    ):
        with pytest.raises(ValueError, match="classifies no 2-cell") as err:
            classification_to_functor(2, d, t)
        assert repr(t) in str(err.value)
        assert t not in classify_low_simplices(2, d)


def test_classification_shapes():
    d = discrete_two_element_monoid()
    ones = classify_low_simplices(1, d)
    assert {t.v01 for t in ones} == {"1", "a"}
    twos = classify_low_simplices(2, d)
    assert all(isinstance(t, TriangleData) for t in twos)
    # gamma runs from V02 to V12 . V01; in a discrete hom it is constant
    for t in twos:
        assert t.gamma.is_degenerate


# -- validation against the apply-based scans -------------------------


def broken_unit_category():
    """One object, morphisms 1 and a, where 1 is no unit: 1.a = a.1 = 1."""

    return one_object_category(
        ["1", "a"], lambda later, earlier: "a" if later == earlier == "a" else "1",
        truncation=2)


@pytest.mark.parametrize("name", ["rigidify-2", "rigidify-3", "discrete", "poset012", "broken-unit"])
def test_scat_validation_matches_the_apply_scan(name):
    d = {
        "rigidify-2": lambda: rigidify(2),
        "rigidify-3": lambda: rigidify(3),
        "discrete": discrete_two_element_monoid,
        "poset012": poset_category_012,
        "broken-unit": broken_unit_category,
    }[name]()
    expected = [
        f"comp({x!r},{y!r},{z!r}): {p}"
        for (x, y, z), bm in d.comp.items()
        for p in scan_bilevel(bm, d.level_cap)
    ] + scan_scat_laws(d, d.level_cap)
    assert validate_scat(d).problems == expected
    assert bool(expected) == (name == "broken-unit")


def test_off_hom_composite_is_a_named_problem():
    d = one_object_category(["1"], lambda later, earlier: "ghost", truncation=1)
    problems = validate_scat(d).problems
    assert problems == [
        "comp('*','*','*'): level 0: value at ('1'.(0,), '1'.(0,)) is not "
        "a 0-simplex of the target: SimplexRef(epi=MonotoneMap("
        "source_arity=0, target_arity=0, values=(0,)), cell='ghost')"
    ]


def test_composition_on_other_homs_is_named():
    # the law sweeps compare positions, which only the hom objects
    # themselves give
    d = discrete_two_element_monoid()
    (key, bm), = d.comp.items()
    copy = FinSSet.from_json(bm.target.to_json())
    moved = SCat(d.objects, d.homs, d.identities,
                 {key: BilevelMap(bm.x, bm.y, copy, bm.fn)})
    assert validate_scat(moved).problems == ["comp('*','*','*') has wrong ends"]
    missing = SCat(d.objects, d.homs, d.identities, {})
    assert validate_scat(missing).problems == ["comp('*','*','*') is missing"]


# -- serialization ----------------------------------------------------


def test_scat_manifest_round_trip(tmp_path):
    d = poset_category_012()
    path = scat_to_manifest(d, str(tmp_path), stem="poset012")
    loaded = scat_from_manifest(path)
    assert validate_scat(loaded).ok
    assert len(loaded.objects) == 3
    n_orig = simplicial_nerve(d, 2)
    n_loaded = simplicial_nerve(loaded, 2)
    assert iso_search(n_orig, n_loaded, 2) is not None


def test_manifest_rows_list_every_pair_and_read_back(tmp_path):
    d = delooped("default")
    path = scat_to_manifest(d, str(tmp_path))
    with open(path) as fh:
        rows = json.load(fh)["comp"]
    loaded = scat_from_manifest(path)
    for (x, y, z), bm in d.comp.items():
        for m in range(d.level_cap + 1):
            # every (a, b), x-major, with its value
            assert rows[f"{x}|{y}|{z}"][str(m)] == [
                [a.to_json(), b.to_json(), bm.apply(m, a, b).to_json()]
                for a in bm.x.simplices(m) for b in bm.y.simplices(m)
            ]
            assert loaded.comp[(x, y, z)].table(m) == bm.table(m)
