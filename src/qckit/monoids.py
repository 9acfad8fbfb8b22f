"""Graded simplicial monoids, their delooping, and the main verification.

Two monoid worlds live here.  The abstract one: a finite grade monoid
with only-unit invertibility, one Kan component per grade (group nerves
in the reference models), and a strictly associative graded product;
``deloop`` turns it into a one-object enriched category whose coherent
nerve, coslice, and core feed :func:`verify_proposition`.  The concrete
one: exact-rational subspaces with the block direct sum ``boxplus``,
which is strictly associative, against pairing-based sums, which never
are; :func:`find_nonassociativity_witness` exhibits the failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .ordinals import MonotoneMap, epis_onto, face
from .quasicat import (
    core,
    is_kan_up_to,
    pi0,
    pi1,
    tables_isomorphic,
)
from .scat import (
    SCat,
    functor_to_classification,
    simplicial_nerve,
)
from .join import coslice_fastpath
from .sset import (
    BilevelMap,
    FinSSet,
    SimplexRef,
    ValidationReport,
    associativity_failures,
    iso_search,
    materialize_presheaf,
    unit_failures,
    validate,
    validate_bilevel,
)


# -- grade monoids ----------------------------------------------------


@dataclass(frozen=True)
class GradeMonoid:
    """A finite monoid of grades given by its full multiplication table.

    ``table[a, b]`` is a composed after b.  The intended invariant, on
    top of the monoid laws: left translation by any non-unit fails to be
    a bijection, so no non-unit is invertible."""

    elements: tuple[str, ...]
    unit: str
    table: dict = field(hash=False)

    def product(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def name_problems(self) -> list[str]:
        """Grade names that cell tags ``grade:cell`` cannot tell apart:
        one containing ':' or one listed twice."""
        problems = [
            f"grade name {e!r} contains ':', which cell tags reserve"
            for e in self.elements if ":" in e
        ]
        problems += [
            f"grade {e!r} is listed twice"
            for t, e in enumerate(self.elements) if e in self.elements[:t]
        ]
        return problems

    def validate(self) -> ValidationReport:
        report = ValidationReport("GradeMonoid")
        es = self.elements
        report.problems.extend(self.name_problems())
        if self.unit not in es:
            report.problems.append(f"unit {self.unit!r} not an element")
            return report
        for a in es:
            for b in es:
                if self.table.get((a, b)) not in es:
                    report.problems.append(f"product of ({a!r}, {b!r}) missing")
        if report.problems:
            return report
        for a in es:
            if self.product(a, self.unit) != a or self.product(self.unit, a) != a:
                report.problems.append(f"unit law fails at {a!r}")
        for a, b, c in itertools.product(es, repeat=3):
            if self.product(self.product(a, b), c) != (
                self.product(a, self.product(b, c))
            ):
                report.problems.append(f"associativity fails at ({a!r}, {b!r}, {c!r})")
        for m in es:
            if m == self.unit:
                continue
            row = tuple(self.product(m, x) for x in es)
            if sorted(row) == sorted(es):
                report.problems.append(
                    f"left translation by {m!r} is a bijection: "
                    f"{dict(zip(es, row))}"
                )
        return report


def saturating_grades(top: int) -> GradeMonoid:
    """Addition on {0, 1, ..., top+} where the last grade absorbs."""
    if top < 1:
        raise ValueError("need at least one positive grade")
    names = tuple(str(i) for i in range(top)) + (f"{top}+",)

    def value(n: str) -> int:
        return top if n.endswith("+") else int(n)

    def name(v: int) -> str:
        return f"{top}+" if v >= top else str(v)

    table = {
        (a, b): name(value(a) + value(b)) for a in names for b in names
    }
    return GradeMonoid(names, "0", table)


# -- finite groups and their nerves -----------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple[str, ...]
    unit: str
    mult: dict = field(hash=False)


def cyclic_group(n: int) -> FiniteGroup:
    name = "trivial" if n == 1 else f"Z/{n}"
    elements = tuple(str(i) for i in range(n))
    mult = {
        (a, b): str((int(a) + int(b)) % n) for a in elements for b in elements
    }
    return FiniteGroup(name, elements, "0", mult)


def group_order(name: str) -> int:
    """The order a component group name gives: ``trivial`` is 1, and
    ``Z/`` followed by ASCII digits names an order >= 1."""
    if name == "trivial":
        return 1
    digits = name[2:]
    if name.startswith("Z/") and digits.isascii() and digits.isdigit():
        n = int(digits)
        if n < 1:
            raise ValueError(f"group {name!r} needs order >= 1")
        return n
    raise ValueError(f"unknown group {name!r}")


def group_from_name(name: str) -> FiniteGroup:
    return cyclic_group(group_order(name))


_VERTEX = "v"


def _bar_id(n: int, word: tuple[str, ...]) -> str:
    return _VERTEX if not word else ".".join(word)


def _bar_act(group: FiniteGroup, word: tuple[str, ...],
             alpha: MonotoneMap) -> tuple[str, ...]:
    """The word acted on by alpha: letter i is the product of the letters
    alpha(i-1)+1 .. alpha(i), a later letter after an earlier one; an
    empty run gives the unit."""
    out = []
    v = alpha.values
    for i in range(1, len(v)):
        letter = group.unit
        for later in word[v[i - 1]:v[i]]:
            letter = group.mult[(later, letter)]
        out.append(letter)
    return tuple(out)


class GroupNerve(FinSSet):
    """A group nerve that keeps each simplex's word: ``simplex_of`` maps
    every word of at most ``truncation`` elements, units included, to its
    simplex, and ``word_of`` is its inverse."""

    def __init__(self, group, truncation, cells, faces, value_of):
        super().__init__(truncation, cells, faces)
        self.group: FiniteGroup = group
        self.word_of: dict[SimplexRef, tuple[str, ...]] = {
            s: _bar_act(group, value_of[s.cell], s.epi)
            for n in range(truncation + 1)
            for s in self.simplices(n)
        }
        self.simplex_of: dict[tuple[str, ...], SimplexRef] = {
            w: s for s, w in self.word_of.items()
        }


def group_nerve(group: FiniteGroup, truncation: int) -> GroupNerve:
    """The classical one-vertex nerve, the bar construction: an
    n-simplex is a word of n elements and an operator multiplies the
    letters it merges; the nondegenerate cells are the words without a
    unit letter."""
    for e in group.elements:
        if "." in e or ":" in e or e == _VERTEX:
            raise ValueError(f"element name {e!r} clashes with cell ids")
    levels = [
        list(itertools.product(group.elements, repeat=n))
        for n in range(truncation + 1)
    ]
    cells, faces, value_of = materialize_presheaf(
        levels, lambda word, alpha: _bar_act(group, word, alpha), _bar_id
    )
    return GroupNerve(group, truncation, cells, faces, value_of)


def _canonical_hom(a: FiniteGroup, b: FiniteGroup) -> dict:
    """Identity between equal groups; otherwise collapse to the unit
    (which is the unit insertion when a is trivial)."""
    if a.name == b.name:
        return {e: e for e in a.elements}
    return {e: b.unit for e in a.elements}


def group_product(x: GroupNerve, y: GroupNerve, target: GroupNerve):
    """The levelwise product of the words of x and y into target, letter
    by letter through the canonical homs: a function for a BilevelMap."""
    ha = _canonical_hom(x.group, target.group)
    hb = _canonical_hom(y.group, target.group)
    mult = target.group.mult

    def fn(level: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        return target.simplex_of[tuple(
            mult[(ha[p], hb[q])] for p, q in zip(x.word_of[a], y.word_of[b])
        )]

    return fn


# -- graded simplicial monoids ----------------------------------------


@dataclass
class GradedSimplicialMonoid:
    """One component per grade, a distinguished unit vertex, and a
    strictly associative product given by bilevel maps; ``product[g, h]``
    composes a later g-leg with an earlier h-leg into grade g.h."""

    grades: GradeMonoid
    components: dict
    unit_vertex: str
    product: dict
    truncation: int

    def component(self, grade: str) -> FinSSet:
        return self.components[grade]


def tag(grade: str, cell: str) -> str:
    return f"{grade}:{cell}"


def untag(cell: str) -> tuple[str, str]:
    grade, _, rest = cell.partition(":")
    return grade, rest


def total_space(m: GradedSimplicialMonoid) -> FinSSet:
    """The disjoint union of the components with grade-tagged cells."""
    cells: dict[int, list[str]] = {d: [] for d in range(m.truncation + 1)}
    faces = {}
    for g in m.grades.elements:
        comp = m.component(g)
        for d in range(m.truncation + 1):
            for c in comp.nondegenerate(d):
                cells[d].append(tag(g, c))
                if d >= 1:
                    faces[tag(g, c)] = [
                        SimplexRef(r.epi, tag(g, r.cell))
                        for r in comp.face_entries(c)
                    ]
    return FinSSet(m.truncation, cells, faces)


def validate_monoid(m: GradedSimplicialMonoid) -> ValidationReport:
    """Monoid laws on grades, component soundness, the point unit
    component, Kan components, bilevel naturality, and strict
    associativity and unitality of the product, all exhaustive."""
    report = ValidationReport("GradedSimplicialMonoid")
    report.problems.extend(m.grades.validate().problems)
    for g in m.grades.elements:
        comp = m.components.get(g)
        if comp is None:
            report.problems.append(f"grade {g!r} has no component")
            continue
        if comp.truncation != m.truncation:
            report.problems.append(f"component {g!r} has the wrong truncation")
        report.problems.extend(
            f"component {g!r}: {p}" for p in validate(comp).problems
        )
    if report.problems:
        return report
    unit_comp = m.component(m.grades.unit)
    if [unit_comp.cell_count(d) for d in range(m.truncation + 1)] != (
        [1] + [0] * m.truncation
    ):
        report.problems.append("unit component is not a single point")
    if not unit_comp.has_cell(m.unit_vertex):
        report.problems.append(f"unit vertex {m.unit_vertex!r} missing")
    for g in m.grades.elements:
        kan = is_kan_up_to(m.component(g), m.truncation)
        report.problems.extend(
            f"component {g!r} not Kan: {p}" for p in kan.problems
        )
    for g, h in itertools.product(m.grades.elements, repeat=2):
        bm = m.product.get((g, h))
        if bm is None:
            report.problems.append(f"product missing at ({g!r}, {h!r})")
            continue
        gh = m.grades.product(g, h)
        if bm.x is not m.component(g) or bm.y is not m.component(h) or (
            bm.target is not m.component(gh)
        ):
            report.problems.append(f"product at ({g!r}, {h!r}) has wrong ends")
            continue
        sub = validate_bilevel(bm, m.truncation)
        report.problems.extend(
            f"product at ({g!r}, {h!r}): {p}" for p in sub.problems
        )
    if report.problems:
        return report
    # Both law sweeps compare positions in the product tables, which
    # validate_bilevel has built: every value is a simplex of its target.
    unit = m.grades.unit
    for g in m.grades.elements:
        for level in range(m.truncation + 1):
            u = SimplexRef(epis_onto(level, 0)[0], m.unit_vertex)
            ju = m.component(unit).position(level)[u]
            for _, left, right in unit_failures(
                    m.product[(unit, g)].table(level)[ju],
                    m.product[(g, unit)].table(level), ju):
                side = "right" if right else "left"
                report.problems.append(f"{side} unit fails at grade {g!r} level {level}")
                break
    for g, h, k in itertools.product(m.grades.elements, repeat=3):
        gh = m.grades.product(g, h)
        hk = m.grades.product(h, k)
        for level in range(m.truncation + 1):
            t_gh = m.product[(g, h)].table(level)
            t_hk = m.product[(h, k)].table(level)
            lhs = m.product[(gh, k)].table(level)
            rhs = m.product[(g, hk)].table(level)
            for _ in associativity_failures(t_gh, t_hk, lhs, rhs):
                report.problems.append(
                    f"associativity fails at grades "
                    f"({g!r}, {h!r}, {k!r}) level {level}"
                )
                return report
    return report


# -- monoid specs and the reference build -----------------------------


@dataclass
class MonoidSpec:
    grades: GradeMonoid
    components: dict
    truncation: int = 3


def default_monoid_spec() -> MonoidSpec:
    grades = saturating_grades(2)
    return MonoidSpec(grades, {"1": "Z/2", "2+": "Z/2"}, 3)


def monoid_spec_to_json(spec: MonoidSpec) -> dict:
    es = spec.grades.elements
    return {
        "grades": {
            "elements": list(es),
            "unit": spec.grades.unit,
            "table": [[spec.grades.product(a, b) for b in es] for a in es],
        },
        "components": {
            g: {"group": name} for g, name in sorted(spec.components.items())
        },
        "truncation": spec.truncation,
    }


def monoid_spec_from_json(blob: dict) -> MonoidSpec:
    """Reads a spec file's JSON; a malformed spot raises KeyError,
    TypeError or ValueError naming it.  Laws are left to the build."""
    g = blob["grades"]
    if not isinstance(g, dict):
        raise ValueError("'grades' must be an object")
    es = g["elements"]
    if not (isinstance(es, list) and all(isinstance(e, str) for e in es)):
        raise ValueError(f"'grades.elements' must be a list of strings, got {es!r}")
    es = tuple(es)
    rows = g["table"]
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError(f"'grades.table' must be a list of rows, got {rows!r}")
    if len(rows) != len(es):
        raise ValueError(
            f"grade table has {len(rows)} rows for {len(es)} grades"
        )
    for a, row in zip(es, rows):
        if len(row) != len(es):
            raise ValueError(
                f"grade table row {a!r} has {len(row)} entries, "
                f"expected {len(es)}"
            )
        for b, ab in zip(es, row):
            if ab not in es:
                raise ValueError(
                    f"'grades.table' row {a!r} column {b!r}: {ab!r} is not a grade"
                )
    if g["unit"] not in es:
        raise ValueError(f"'grades.unit' {g['unit']!r} is not a grade")
    table = {
        (a, b): rows[i][j]
        for i, a in enumerate(es)
        for j, b in enumerate(es)
    }
    grades = GradeMonoid(es, g["unit"], table)
    problems = grades.name_problems()
    if problems:
        raise ValueError(f"'grades.elements': {problems[0]}")
    if not isinstance(blob["components"], dict):
        raise ValueError("'components' must be an object")
    components = {}
    for grade, entry in blob["components"].items():
        if grade not in es:
            raise ValueError(f"'components' key {grade!r} is not a grade")
        if not isinstance(entry, dict):
            raise ValueError(
                f"'components' entry {grade!r} must be an object, got {entry!r}"
            )
        try:
            if not isinstance(entry["group"], str):
                raise ValueError(
                    f"'group' must be a string, got {entry['group']!r}"
                )
            group_order(entry["group"])
        except ValueError as e:
            raise ValueError(f"component of grade {grade!r}: {e}")
        components[grade] = entry["group"]
    for grade in es:
        if grade != g["unit"] and grade not in components:
            raise ValueError(f"'components' has no entry for grade {grade!r}")
    truncation = blob.get("truncation", 3)
    if (isinstance(truncation, bool) or not isinstance(truncation, int)
            or truncation < 0):
        raise ValueError(
            f"'truncation' must be an integer >= 0, got {truncation!r}"
        )
    return MonoidSpec(grades, components, truncation)


def build_reference_monoid(spec: MonoidSpec | None = None) -> GradedSimplicialMonoid:
    """Group-nerve components over the spec's grades, multiplied
    levelwise through canonical homs.  Raises on any invalid spec, with
    the violating structure named."""
    spec = default_monoid_spec() if spec is None else spec
    grade_report = spec.grades.validate()
    if not grade_report.ok:
        raise ValueError(
            "grade monoid rejected:\n" + "\n".join(grade_report.problems)
        )
    unit = spec.grades.unit
    if group_order(spec.components.get(unit, "trivial")) != 1:
        raise ValueError("the unit grade component must be trivial")
    components = {}
    for g in spec.grades.elements:
        name = "trivial" if g == unit else spec.components.get(g)
        if name is None:
            raise ValueError(f"no component group named for grade {g!r}")
        components[g] = group_nerve(group_from_name(name), spec.truncation)

    product = {}
    for g, h in itertools.product(spec.grades.elements, repeat=2):
        gh = spec.grades.product(g, h)
        product[(g, h)] = BilevelMap(
            components[g], components[h], components[gh],
            group_product(components[g], components[h], components[gh]),
        )
    m = GradedSimplicialMonoid(
        spec.grades, components, _VERTEX, product, spec.truncation
    )
    report = validate_monoid(m)
    if not report.ok:
        raise ValueError("monoid rejected:\n" + "\n".join(report.problems))
    return m


def deloop(m: GradedSimplicialMonoid) -> SCat:
    """The one-object enriched category with hom the total space and
    composition the graded product."""
    hom = total_space(m)

    def fn(level: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        ga, ca = untag(a.cell)
        gb, cb = untag(b.cell)
        r = m.product[(ga, gb)].apply(
            level, SimplexRef(a.epi, ca), SimplexRef(b.epi, cb)
        )
        return SimplexRef(r.epi, tag(m.grades.product(ga, gb), r.cell))

    return SCat(
        ("*",),
        {("*", "*"): hom},
        {"*": tag(m.grades.unit, m.unit_vertex)},
        {("*", "*", "*"): BilevelMap(hom, hom, hom, fn)},
    )


# -- the main verification pipeline -----------------------------------


@dataclass
class CheckOutcome:
    name: str
    verdict: bool | None
    details: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "details": list(self.details),
        }


@dataclass
class PropositionReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.verdict for c in self.checks if c.verdict is not None)

    def check(self, name: str) -> CheckOutcome:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "pass" if c.verdict else (
                "reported" if c.verdict is None else "FAIL"
            )
            head = f"({c.name}) {verdict}"
            if c.details:
                head += ": " + c.details[0]
            out.append(head)
        return out


# Check (e) compares fundamental groups, which are read off 2-simplices.
PROPOSITION_MIN_DIM = 2


def verify_proposition(m: GradedSimplicialMonoid, dims: int = 2) -> PropositionReport:
    """Runs nerve -> coslice at the object -> core, then compares the
    core with the monoid's total space (the hom of ``deloop(m)``):
    vertices, identity edges, invertibility against the unit grade, the
    orientation-reversing edge correspondence, path components with
    fundamental groups, and an informational isomorphism search.  Each
    of checks (a)-(e) lists its failures and passes when the list is
    empty; its details are then its summary.  Needs
    ``PROPOSITION_MIN_DIM <= dims < m.truncation``."""
    if dims < PROPOSITION_MIN_DIM:
        raise ValueError(
            f"checking to dimension {dims}: check (e) needs 2-simplices, "
            f"so dims must be >= {PROPOSITION_MIN_DIM}"
        )
    if dims + 1 > m.truncation:
        raise ValueError(
            f"checking to dimension {dims} needs truncation {dims + 1}"
        )
    cat = deloop(m)
    total = cat.hom("*", "*")
    nerve = simplicial_nerve(cat, dims + 1)
    (star,) = nerve.nondegenerate(0)
    cos = coslice_fastpath(nerve, star, dims)
    cr = core(cos)
    checks = []

    def classify(ref: SimplexRef):
        return functor_to_classification(nerve.functor_of_ref(ref))

    def check(name: str, fails: list, *summary: str) -> None:
        checks.append(CheckOutcome(name, not fails, fails or list(summary)))

    # (a) vertices of the core against vertices of the monoid
    vertex_of = {
        c: classify(cos.underlying[c]).v01 for c in cr.sset.nondegenerate(0)
    }
    images = sorted(vertex_of.values())
    m_vertices = sorted(total.nondegenerate(0))
    a_fails = []
    if images != m_vertices:
        a_fails.append(f"core vertices map to {images}, monoid has {m_vertices}")
    check("a", a_fails,
          f"{len(images)} core vertices match {len(m_vertices)} monoid vertices")

    # (b) identity edges decompose through the unit with a constant path;
    # (edge, invertible, classification) for every coslice edge, the
    # degenerate ones first, in vertex order; a degenerate edge is
    # invertible, a nondegenerate one when the core kept it
    kept = set(cr.invertible_edges)
    edges = [
        (e, e.is_degenerate or e.cell in kept, classify(cos.underlying_ref(e)))
        for e in cos.simplices(1)
    ]
    identities = [(e.cell, data) for e, _, data in edges if e.is_degenerate]
    check("b", [
        f"identity edge at {c!r} decomposes with middle {data.v12!r} and "
        f"path {data.gamma.sort_key()}"
        for c, data in identities
        if data.v12 != cat.identities["*"] or not data.gamma.is_degenerate
    ], f"all {len(identities)} identity edges have unit middle and constant path")

    # (c) invertibility is exactly unit middle grade, both directions
    c_fails = []
    for e, inv, data in edges:
        middle_grade = untag(data.v12)[0]
        if inv != (middle_grade == m.grades.unit):
            c_fails.append(f"edge {e.sort_key()} invertible={inv} but middle "
                           f"grade {middle_grade!r}")
    inverted = [(e, data) for e, inv, data in edges if inv]
    check("c", c_fails, f"{len(inverted)} of {len(edges)} coslice edges "
          f"invertible, all with unit middle grade")

    # (d) invertible edges correspond to monoid edges, orientation reversed
    pos, names = total.position(1), total.nondegenerate(0)
    d0, d1 = total.action(face(1, 0)), total.action(face(1, 1))
    d_fails = []
    for e, data in inverted:
        p = pos[data.gamma]
        tgt, src = names[d0[p]], names[d1[p]]
        if src != data.v02 or tgt != data.v01:
            d_fails.append(f"path of {e.sort_key()} runs {src!r} -> {tgt!r}, "
                           f"expected {data.v02!r} -> {data.v01!r}")
    gammas = [data.gamma for _, data in inverted]
    m_edges = total.simplices(1)
    if len(gammas) != len(m_edges) or set(gammas) != set(m_edges):
        d_fails.append(
            f"{len(gammas)} reversed paths against {len(m_edges)} monoid edges"
        )
    check("d", d_fails, f"{len(gammas)} invertible edges match {len(m_edges)} "
          f"monoid edges with orientation reversed")

    # (e) path components and fundamental groups
    core_comps = pi0(cr.sset)
    m_comps = pi0(total)
    e_fails = []
    if len(core_comps) != len(m_comps):
        e_fails.append(f"pi0 sizes differ: {len(core_comps)} vs {len(m_comps)}")
    comp_of = {v: comp for comp in m_comps for v in comp}
    for comp in core_comps:
        landed = {comp_of.get(vertex_of.get(v)) for v in comp}
        if len(landed) != 1 or None in landed:
            e_fails.append(
                f"core component {comp} does not land in one monoid component"
            )
    groups = {}
    for c in cr.sset.nondegenerate(0):
        r_core = groups[c] = pi1(cr.sset, c)
        r_m = pi1(total, vertex_of[c])
        if not (r_core.ok and r_m.ok):
            e_fails.append(f"fundamental group at {c!r} ill-defined: "
                           f"{r_core.problems + r_m.problems}")
        elif not tables_isomorphic(r_core.table, r_m.table):
            e_fails.append(f"fundamental groups at {c!r} differ: orders "
                           f"{r_core.order} vs {r_m.order}")
    e_summary = []
    if not e_fails:
        e_summary.append(f"pi0 size {len(core_comps)}; pi1 orders "
                         f"{sorted(r.order for r in groups.values())}")
        redundant = [
            f"{c1!r}~{c2!r}"
            for c1, c2 in itertools.combinations(sorted(groups), 2)
            if tables_isomorphic(groups[c1].table, groups[c2].table)
        ]
        if redundant:
            e_summary.append("distinct vertices with abstractly isomorphic "
                             "groups: " + ", ".join(redundant))
    check("e", e_fails, *e_summary)

    # (f) informational: cell-level isomorphism search
    found = iso_search(cr.sset, total, dims)
    checks.append(CheckOutcome("f", None, [
        f"isomorphism core vs monoid up to dimension {dims}: "
        + ("found" if found is not None else "none")
    ]))
    return PropositionReport(checks)


# -- exact rational subspaces -----------------------------------------


def _rref(rows) -> tuple:
    """Reduced row echelon over exact rationals, zero rows dropped."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    width = len(mat[0])
    lead = 0
    out = []
    for col in range(width):
        pivot = None
        for i in range(lead, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        if mat[lead][col] != 1:
            inv = Fraction(1) / mat[lead][col]
            mat[lead] = [x * inv for x in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [
                    a - factor * b for a, b in zip(mat[i], mat[lead])
                ]
        lead += 1
        if lead == len(mat):
            break
    for row in mat[:lead]:
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of (Q^base_dim)^copies in canonical echelon form, so
    equality of representations is equality of subspaces."""

    copies: int
    base_dim: int
    rows: tuple

    def __post_init__(self):
        width = self.copies * self.base_dim
        for r in self.rows:
            if len(r) != width:
                raise ValueError(f"row width {len(r)} != ambient {width}")
        if _rref(self.rows) != self.rows:
            raise ValueError("rows are not canonical; build with span()")

    @property
    def ambient_dim(self) -> int:
        return self.copies * self.base_dim

    @property
    def rank(self) -> int:
        return len(self.rows)


def span(copies: int, base_dim: int, vectors) -> RationalSubspace:
    width = copies * base_dim
    rows = [
        tuple(Fraction(x) for x in v) for v in vectors
    ]
    for r in rows:
        if len(r) != width:
            raise ValueError(f"vector width {len(r)} != ambient {width}")
    return RationalSubspace(copies, base_dim, _rref(rows))


def zero_subspace(base_dim: int) -> RationalSubspace:
    """Zero copies of the base: the strict unit for boxplus."""
    return RationalSubspace(0, base_dim, ())


def axis_subspace(copies: int, base_dim: int, index: int) -> RationalSubspace:
    width = copies * base_dim
    if not 0 <= index < width:
        raise ValueError(f"axis {index} outside ambient {width}")
    row = tuple(
        Fraction(1 if i == index else 0) for i in range(width)
    )
    return RationalSubspace(copies, base_dim, (row,))


def boxplus(v: RationalSubspace, w: RationalSubspace) -> RationalSubspace:
    """Block direct sum: v in the first copies, w in the last.  Strictly
    associative because blocks concatenate."""
    if v.base_dim != w.base_dim:
        raise ValueError(
            f"base dimensions differ: {v.base_dim} != {w.base_dim}"
        )
    left_pad = (Fraction(0),) * v.ambient_dim
    right_pad = (Fraction(0),) * w.ambient_dim
    rows = tuple(r + right_pad for r in v.rows) + tuple(
        left_pad + r for r in w.rows
    )
    return RationalSubspace(v.copies + w.copies, v.base_dim, rows)


def random_subspace(rng, copies: int, base_dim: int, max_rank: int) -> RationalSubspace:
    k = rng.randint(0, max_rank)
    vectors = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(copies * base_dim)
        ]
        for _ in range(k)
    ]
    return span(copies, base_dim, vectors)


# -- pairing-based sums and their non-associativity -------------------


def cantor_pairing(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def szudzik_pairing(a: int, b: int) -> int:
    return a * a + a + b if a >= b else b * b + a


class WindowOverflowError(ValueError):
    def __init__(self, needed: int, window: int):
        self.needed = needed
        self.window = window
        super().__init__(
            f"pairing image needs coordinate {needed - 1} but the window "
            f"has {window}; rebuild the subspaces in an ambient window of "
            f"at least {needed} coordinates"
        )


def pairing_sum(v: RationalSubspace, w: RationalSubspace,
                pairing=cantor_pairing) -> RationalSubspace:
    """Sum through a chosen injection: coordinates of v run through
    pairing(i, 0), coordinates of w through pairing(j, 1), inside one
    shared window.  Raises when an occupied coordinate routes outside."""
    if (v.copies, v.base_dim) != (w.copies, w.base_dim):
        raise ValueError("pairing sum needs a shared ambient window")
    window = v.ambient_dim

    def route(rows, side):
        out = []
        for r in rows:
            new = [Fraction(0)] * window
            for j, x in enumerate(r):
                if x == 0:
                    continue
                image = pairing(j, side)
                if image >= window:
                    raise WindowOverflowError(image + 1, window)
                new[image] = x
            out.append(new)
        return out

    routed = route(v.rows, 0) + route(w.rows, 1)
    return span(v.copies, v.base_dim, routed)


# the witness search reads the axes 0 .. WITNESS_AXES - 1, so its window
# must hold that many coordinates
WITNESS_AXES = 3


@dataclass
class NonassociativityWitness:
    v: RationalSubspace
    w: RationalSubspace
    u: RationalSubspace
    left: RationalSubspace
    right: RationalSubspace

    def to_json(self) -> dict:
        def rows(s):
            return [[str(x) for x in r] for r in s.rows]

        return {
            "v": rows(self.v),
            "w": rows(self.w),
            "u": rows(self.u),
            "left_association": rows(self.left),
            "right_association": rows(self.right),
        }


def find_nonassociativity_witness(pairing=cantor_pairing, window: int = 16):
    """Searches the axis lines 0 .. WITNESS_AXES - 1 for (v+w)+u !=
    v+(w+u); triples that overflow the window are skipped.  Returns None
    only if nothing in range witnesses the failure."""
    for a, b, c in itertools.product(range(WITNESS_AXES), repeat=3):
        v = axis_subspace(1, window, a)
        w = axis_subspace(1, window, b)
        u = axis_subspace(1, window, c)
        try:
            left = pairing_sum(pairing_sum(v, w, pairing), u, pairing)
            right = pairing_sum(v, pairing_sum(w, u, pairing), pairing)
        except WindowOverflowError:
            continue
        if left != right:
            return NonassociativityWitness(v, w, u, left, right)
    return None
