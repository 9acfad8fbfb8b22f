"""Graded simplicial monoids, their delooping, and the main verification.

A finite grade monoid with only-unit invertibility, one Kan component
per grade (group nerves in the reference models), and a strictly
associative graded product; ``deloop`` turns it into a one-object
enriched category whose coherent nerve, coslice, and core feed
:func:`verify_proposition`.  The concrete model, exact-rational
subspaces with the block direct sum, lives in :mod:`qckit.grassmann`.
"""

from __future__ import annotations

import itertools

from . import Frozen
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


class GradeMonoid(Frozen):
    """A finite monoid of grades, ``(elements, unit, table)``, given by
    its full multiplication table.

    ``table[a, b]`` is a composed after b.  The intended invariant, on
    top of the monoid laws: left translation by any non-unit fails to be
    a bijection, so no non-unit is invertible."""

    _fields = ("elements", "unit", "table")

    def __hash__(self):
        return hash((self.elements, self.unit))

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
                if (a, b) not in self.table:
                    report.problems.append(f"product of ({a!r}, {b!r}) missing")
                elif self.table[a, b] not in es:
                    report.problems.append(
                        f"product of ({a!r}, {b!r}) is {self.table[a, b]!r}, not a grade")
        if report.problems:
            return report
        # the law sweeps read the table by index: t[a][b] is a after b
        pos = {e: i for i, e in enumerate(es)}
        t = [[pos[self.product(a, b)] for b in es] for a in es]
        u = pos[self.unit]
        report.problems.extend(
            f"unit law fails at {es[a]!r}" for a, _, _ in unit_failures(t[u], t, u))
        report.problems.extend(
            f"associativity fails at ({es[a]!r}, {es[b]!r}, {es[c]!r})"
            for a, b, c in associativity_failures(t, t, t, t))
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


class FiniteGroup(Frozen):
    _fields = ("name", "elements", "unit", "mult")

    def __hash__(self):
        return hash((self.name, self.elements, self.unit))


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


class GradedSimplicialMonoid:
    """One component per grade, a distinguished unit vertex, and a
    strictly associative product given by bilevel maps; ``product[g, h]``
    composes a later g-leg with an earlier h-leg into grade g.h."""

    def __init__(self, grades: GradeMonoid, components: dict, unit_vertex: str,
                 product: dict, truncation: int):
        self.grades = grades
        self.components = components
        self.unit_vertex = unit_vertex
        self.product = product
        self.truncation = truncation

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


def spine_injective(x: FinSSet) -> bool:
    """Whether each simplex of x is determined by its spine, its edges
    (i, i + 1): one keyed pass per level over those operators' tables."""
    for n in range(2, x.truncation + 1):
        spines = zip(*[x.action(MonotoneMap(1, n, (i, i + 1))) for i in range(n)])
        if len(set(spines)) != len(x.simplices(n)):
            return False
    return True


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
    # The products are simplicial, so (ab)c and a(bc) agree on the spine
    # edges of a simplex once they agree at level 1; where the target's
    # spines determine its simplices (Segal), levels 0 and 1 are swept,
    # and the first failure of a full sweep would lie at one of them.
    segal = {g: spine_injective(m.component(g)) for g in m.grades.elements}
    for g, h, k in itertools.product(m.grades.elements, repeat=3):
        gh = m.grades.product(g, h)
        hk = m.grades.product(h, k)
        top = min(1, m.truncation) if segal[m.grades.product(gh, k)] else m.truncation
        for level in range(top + 1):
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


class MonoidSpec:
    def __init__(self, grades: GradeMonoid, components: dict, truncation: int = 3):
        self.grades = grades
        self.components = components
        self.truncation = truncation


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


class CheckOutcome:
    def __init__(self, name: str, verdict: bool | None, details: list | None = None):
        self.name = name
        self.verdict = verdict
        self.details = [] if details is None else details

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "details": list(self.details),
        }


class PropositionReport:
    def __init__(self, checks: list):
        self.checks = checks

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


# -- the tracer's names -----------------------------------------------


def __getattr__(name: str):
    # perfbench's tracer reads ``monoids.boxplus`` and ``monoids.span``
    # by name; this forward goes when ROADMAP item 6 retires the tracer
    if name in ("boxplus", "span"):
        from . import grassmann

        return getattr(grassmann, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
