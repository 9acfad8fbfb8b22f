"""Acceptance gate: one test per headline criterion, each with its time
budget enforced and a single summary line printed on success."""

import itertools
import json
import random
import time

import oracles

from qckit.cli import main
from qckit.join import coslice_fastpath, cross_validate_coslice
from qckit.grassmann import (
    boxplus,
    find_nonassociativity_witness,
    random_subspace,
    szudzik_pairing,
    zero_subspace,
)
from qckit.monoids import (
    MonoidSpec,
    build_reference_monoid,
    cyclic_group,
    deloop,
    group_nerve,
    monoid_spec_to_json,
    saturating_grades,
    verify_proposition,
)
from qckit.ordinals import all_maps, compose, face
from qckit.posets import mapping_poset, nerve
from qckit.quasicat import core, is_kan_up_to, is_quasicategory_up_to
from qckit.scat import (
    classification_to_functor,
    classify_low_simplices,
    enumerate_functors,
    functor_to_classification,
    scat_to_manifest,
    simplicial_nerve,
)
from qckit.sset import (
    boundary,
    iso_search,
    nondeg_ref,
    standard_simplex,
    validate_map,
)


class Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds
        self.started = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.started
        line = (
            f"criterion {self.label}: PASS in {elapsed:.2f}s "
            f"(limit {self.seconds:.0f}s)"
        )
        assert elapsed <= self.seconds, line.replace("PASS", "OVER BUDGET")
        print(line)


def reference_nerve(dim: int = 3):
    return simplicial_nerve(deloop(build_reference_monoid()), dim)


def same_cells(x, y) -> bool:
    if x.truncation != y.truncation:
        return False
    return all(
        sorted(x.nondegenerate(d)) == sorted(y.nondegenerate(d))
        for d in range(x.truncation + 1)
    )


def test_criterion_1_rigidification_fidelity():
    budget = Budget("1 (rigidification fidelity)", 1.0)
    p02 = mapping_poset(0, 2, 2)
    assert len(p02) == 2
    assert nerve(p02).cell_count(1) == 1

    p03 = mapping_poset(0, 3, 3)
    assert len(p03) == 4
    assert nerve(p03).cell_count(2) == 2

    # brute-force subset oracle over the full interval
    for j in range(1, 6):
        for i in range(j):
            p = mapping_poset(i, j, 5)
            assert len(p) == 2 ** (j - i - 1)
            members = range(i, j + 1)
            keep = {
                frozenset(c)
                for r in range(j - i + 2)
                for c in itertools.combinations(members, r)
                if i in c and j in c
            }
            assert set(p) == keep
    budget.finish()


def test_criterion_2_low_simplex_classification():
    budget = Budget("2 (low-simplex classification)", 30.0)
    cat = deloop(build_reference_monoid())
    o = cat.objects[0]
    h = cat.hom(o, o)

    def mul(late, early):
        return cat.comp[(o, o, o)].apply(late.dim, late, early)

    for k in (1, 2, 3):
        functors = enumerate_functors(k, cat)
        classes = classify_low_simplices(k, cat)
        assert len(functors) == len(classes)
        assert len(set(functors)) == len(functors)
        rebuilt = [classification_to_functor(k, cat, c) for c in classes]
        assert set(rebuilt) == set(functors)
        for f in functors:
            data = functor_to_classification(f)
            assert classification_to_functor(k, cat, data) == f

    # the long-edge endpoint of every 3-cell is the forced triple product
    for c in classify_low_simplices(3, cat):
        v01, v12, v23 = (
            nondeg_ref(v, 0) for v in (c.v01, c.v12, c.v23)
        )
        assert h.apply(c.edge3, face(1, 0)) == mul(v23, mul(v12, v01))
    budget.finish()


def test_criterion_3_discrete_enrichment_oracle():
    budget = Budget("3 (discrete enrichment)", 5.0)
    x = simplicial_nerve(deloop(build_reference_monoid(oracles.discrete_spec())), 3)
    assert [len(x.simplices(d)) for d in range(4)] == [1, 2, 4, 8]

    table = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "a"}
    classical = oracles.bar_nerve(
        ("1", "a"), "1", lambda s, t: table[(s, t)], 3
    )
    assert iso_search(x, classical, 3) is not None
    budget.finish()


def test_criterion_4_join_canonical_iso():
    budget = Budget("4 (join canonical iso)", 5.0)
    for k in range(4):
        for l in range(4):
            iso = oracles.simplex_join_iso(k, l)
            assert validate_map(iso).ok
            j, tgt = iso.source, iso.target
            for d in range(k + l + 2):
                images = {iso.image(r) for r in j.simplices(d)}
                assert len(images) == len(j.simplices(d))
                assert images == set(tgt.simplices(d))
            left, right = oracles.join_inclusions(j)
            for i in range(k + 1):
                v = left.image(nondeg_ref(str(i), 0))
                assert iso.image(v).cell == str(i)
            for i in range(l + 1):
                v = right.image(nondeg_ref(str(i), 0))
                assert iso.image(v).cell == str(k + 1 + i)
    budget.finish()


def test_criterion_5_coslice_anatomy():
    budget = Budget("5 (coslice anatomy)", 30.0)
    nerve3 = reference_nerve()
    fixtures = [
        standard_simplex(3),
        boundary(3),
        group_nerve(cyclic_group(2), 3),
        simplicial_nerve(deloop(build_reference_monoid(oracles.discrete_spec())), 3),
        nerve3,
    ]
    for fix in fixtures:
        for v in fix.nondegenerate(0):
            c = coslice_fastpath(fix, v, 0)
            anchored = [
                e for e in fix.simplices(1)
                if fix.apply(e, face(1, 1)) == nondeg_ref(v, 0)
            ]
            assert len(c.nondegenerate(0)) == len(anchored)
            under = {c.underlying[z] for z in c.nondegenerate(0)}
            assert under == set(anchored)

    (star,) = nerve3.nondegenerate(0)
    report, _, _ = cross_validate_coslice(nerve3, star, 2)
    assert report.ok, report.problems
    budget.finish()


def test_criterion_6_proposition_at_desk_scale():
    budget = Budget("6 (coslice-core proposition)", 300.0)
    specs = {
        "default": None,
        "Z/3 components": MonoidSpec(
            saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3
        ),
        "four grades": MonoidSpec(
            saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3
        ),
    }
    reports = {}
    for label, spec in specs.items():
        report = verify_proposition(build_reference_monoid(spec), 2)
        reports[label] = report
        for name in "abcde":
            outcome = report.check(name)
            assert outcome.verdict is True, (label, name, outcome.details)

    detail = reports["default"].check("e").details[0]
    assert "pi0 size 3" in detail
    assert "[1, 2, 2]" in detail
    budget.finish()


def test_criterion_7_quasicategory_and_kan_verdicts():
    budget = Budget("7 (horn-filling verdicts)", 120.0)
    nerve3 = reference_nerve()
    report = is_quasicategory_up_to(nerve3, 3)
    assert report.ok, report.problems

    (star,) = nerve3.nondegenerate(0)
    the_core = core(coslice_fastpath(nerve3, star, 2)).sset
    report = is_kan_up_to(the_core, 2)
    assert report.ok, report.problems
    budget.finish()


def test_criterion_8_direct_sum_monoid_model():
    budget = Budget("8 (rational direct-sum model)", 10.0)
    rng = random.Random(20260824)
    failures = 0
    for _ in range(1000):
        base = rng.randint(1, 4)
        u, v, w = (
            random_subspace(rng, rng.randint(0, 3), base, 3)
            for _ in range(3)
        )
        if boxplus(boxplus(u, v), w) != boxplus(u, boxplus(v, w)):
            failures += 1
        unit = zero_subspace(base)
        if boxplus(unit, u) != u or boxplus(u, unit) != u:
            failures += 1
    assert failures == 0

    cantor = find_nonassociativity_witness()
    assert cantor is not None
    assert cantor.left.rows != cantor.right.rows
    szudzik = find_nonassociativity_witness(pairing=szudzik_pairing)
    assert szudzik is not None
    assert szudzik.left.rows != szudzik.right.rows
    budget.finish()


def test_criterion_9_self_consistency(tmp_path):
    budget = Budget("9 (self-consistency)", 60.0)

    # every pipeline artifact re-validates under the checker
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(monoid_spec_to_json(oracles.discrete_spec()))
    )
    nerve_path = tmp_path / "nerve.json"
    cos_path = tmp_path / "coslice.json"
    core_path = tmp_path / "core.json"
    assert main(["nerve", "default", "--dim", "3",
                 "--report", str(nerve_path)]) == 0
    assert main(["coslice", str(nerve_path), "--at", "n0c0", "--dim", "2",
                 "--report", str(cos_path)]) == 0
    assert main(["core", str(cos_path), "--report", str(core_path)]) == 0
    poset_path = tmp_path / "poset_nerve.json"
    poset_path.write_text(nerve(mapping_poset(0, 3, 3)).to_json_str())
    manifest = scat_to_manifest(
        deloop(build_reference_monoid(oracles.discrete_spec())), str(tmp_path)
    )
    for artifact in (spec_path, nerve_path, cos_path, core_path,
                     poset_path, manifest):
        assert main(["check", str(artifact)]) == 0, artifact

    # presheaf functoriality, exhaustive over operator pairs on the 3-simplex
    x = standard_simplex(3)
    for n in range(4):
        for r in x.simplices(n):
            for m in range(4):
                for alpha in all_maps(m, n):
                    mid = x.apply(r, alpha)
                    for l in range(4):
                        for beta in all_maps(l, m):
                            assert x.apply(mid, beta) == x.apply(
                                r, compose(alpha, beta)
                            )

    # core is idempotent on every fixture
    nerve3 = reference_nerve()
    (star,) = nerve3.nondegenerate(0)
    fixtures = [
        standard_simplex(3),
        boundary(3),
        group_nerve(cyclic_group(2), 3),
        group_nerve(cyclic_group(3), 3),
        nerve3,
        coslice_fastpath(nerve3, star, 2),
    ]
    for fix in fixtures:
        once = core(fix).sset
        twice = core(once).sset
        assert same_cells(once, twice)
    budget.finish()


def test_criterion_counts_cover_the_gate():
    # nine criteria, no more, no fewer
    names = [n for n in globals() if n.startswith("test_criterion_") and
             n[15].isdigit()]
    assert len(names) == 9
