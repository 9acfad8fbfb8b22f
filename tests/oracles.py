"""Test-side oracles built by independent routes from the library code."""

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from qckit.join import CosliceSSet, SliceSSet, cone_operator, join, join_of_maps
from qckit.monoids import GradeMonoid, MonoidSpec
from qckit.ordinals import (
    MonotoneMap,
    compose,
    degeneracy,
    epi_mono_factor,
    epis_onto,
    face,
    identity,
)
from qckit.posets import chain_cell_id, mapping_poset, nerve, normalize_chain, union_chains
from qckit.quasicat import HornProblem
from qckit.scat import (
    NerveSSet,
    SCat,
    SimplicialFunctor,
    enumerate_functors,
    from_finite_category,
    precompose,
    rigidify,
)
from qckit.sset import (
    BilevelMap,
    FinSSet,
    SimplexRef,
    SimplicialMap,
    TruncationError,
    ValidationReport,
    identity_map,
    nondeg_ref,
    simplex_cell_id,
    standard_map,
    standard_simplex,
)


def bar_cell_id(entries):
    return "b[" + ",".join(str(e) for e in entries) + "]"


def bar_normalize(entries, unit):
    """Strip unit entries, recording the collapsing surjection."""
    kept = tuple(e for e in entries if e != unit)
    values = [0]
    seen = 0
    for e in entries:
        if e != unit:
            seen += 1
        values.append(seen)
    epi = MonotoneMap(len(entries), len(kept), tuple(values))
    return SimplexRef(epi, bar_cell_id(kept))


def bar_nerve(elements, unit, mult, truncation):
    """Classical nerve of a finite monoid, built directly from tuples.

    Nondegenerate k-cells are k-tuples with no unit entry; the inner face
    i multiplies entries i and i+1 (first entry is the earlier leg)."""
    cells = {}
    faces = {}
    for m in range(truncation + 1):
        level = []
        for entries in itertools.product(
            [e for e in elements if e != unit], repeat=m
        ):
            cid = bar_cell_id(entries)
            level.append(cid)
            if m >= 1:
                out = []
                for i in range(m + 1):
                    if i == 0:
                        reduced = entries[1:]
                    elif i == m:
                        reduced = entries[:-1]
                    else:
                        reduced = (
                            entries[: i - 1]
                            + (mult(entries[i - 1], entries[i]),)
                            + entries[i + 1 :]
                        )
                    out.append(bar_normalize(reduced, unit))
                faces[cid] = out
        cells[m] = level
    return FinSSet(truncation, cells, faces)


def strict_chain_count(elements, leq, length):
    """Number of strictly increasing chains of the given length.

    Permutations are element-distinct, which strict chains in a poset
    are anyway, so the filter is just the order condition."""
    count = 0
    for chain in itertools.permutations(elements, length):
        if all(leq(chain[t], chain[t + 1]) for t in range(length - 1)):
            count += 1
    return count


def combinations_nerve(elements, cell_id, truncation):
    """The nerve of elements listed in a linear extension of ``<``,
    truncated at ``truncation``: its m-cells are the (m + 1)-element
    ``itertools.combinations`` that are chains, named by ``cell_id``,
    and faces drop one entry."""
    cells, faces = {}, {}
    for m in range(truncation + 1):
        cells[m] = []
        for chain in itertools.combinations(elements, m + 1):
            if all(chain[t] < chain[t + 1] for t in range(m)):
                cid = cell_id(chain)
                cells[m].append(cid)
                if m >= 1:
                    faces[cid] = [nondeg_ref(cell_id(chain[:i] + chain[i + 1:]), m - 1)
                                  for i in range(m + 1)]
    return FinSSet(truncation, cells, faces)


def _chain_sets(cid):
    return [frozenset(int(v) for v in label.split(".")) for label in cid.split("<")]


def scan_functors(k, d):
    """Every simplicial functor rigidify(k) -> d by brute force, in the
    order enumerate_functors promises.

    Free cells are filled by scanning all target simplices and keeping
    those whose faces match the values already chosen; forced cells are
    split and renormalized afresh at every assignment, and composed
    through the composition's ``fn``."""
    src = rigidify(k)
    pairs = sorted(
        ((i, j) for i in range(k + 1) for j in range(i + 1, k + 1)),
        key=lambda ij: (ij[1] - ij[0], ij[0]),
    )
    slots = []
    for i, j in pairs:
        for m in range(j - i):
            for cid in src.hom(i, j).nondegenerate(m):
                interior = sorted(_chain_sets(cid)[0] - {i, j})
                slots.append((i, j, cid, m, interior[0] if interior else None))
    results = []
    for objs in itertools.product(d.objects, repeat=k + 1):
        assignments = {
            (i, i): {chain_cell_id([frozenset({i})]): nondeg_ref(d.identities[objs[i]], 0)}
            for i in range(k + 1)
        }
        for pair in pairs:
            assignments[pair] = {}

        def forced(i, j, cid, p):
            sets = _chain_sets(cid)
            upper = normalize_chain([s & frozenset(range(p, j + 1)) for s in sets])
            lower = normalize_chain([s & frozenset(range(i, p + 1)) for s in sets])
            fu = d.hom(objs[p], objs[j]).apply(assignments[(p, j)][upper.cell], upper.epi)
            fl = d.hom(objs[i], objs[p]).apply(assignments[(i, p)][lower.cell], lower.epi)
            return d.comp[(objs[i], objs[p], objs[j])].fn(fu.dim, fu, fl)

        def faces_ok(i, j, cid, m, cand):
            h = d.hom(objs[i], objs[j])
            table = assignments[(i, j)]
            return all(
                h.apply(cand, face(m, t)) == table[src.hom(i, j).face_entry(cid, t).cell]
                for t in range(m + 1)
            )

        def fill(s):
            if s == len(slots):
                results.append(functor_from_assignments(k, d, objs, assignments))
                return
            i, j, cid, m, p = slots[s]
            table = assignments[(i, j)]
            if p is not None:
                table[cid] = forced(i, j, cid, p)
                fill(s + 1)
                del table[cid]
                return
            for cand in d.hom(objs[i], objs[j]).simplices(m):
                if m >= 1 and not faces_ok(i, j, cid, m, cand):
                    continue
                table[cid] = cand
                fill(s + 1)
                del table[cid]

        fill(0)
    return results


def scan_apply(x, ref, alpha):
    """The normal form of ref . alpha, with no identity shortcut: refactor
    the composite epi-mono and walk the face entries down the mono, one
    missing vertex at a time."""
    if alpha.target_arity != ref.dim:
        raise ValueError(f"operator into [{alpha.target_arity}] on a {ref.dim}-simplex")
    cell, beta = ref.cell, compose(ref.epi, alpha)
    epis = []
    while True:
        epi, mono = epi_mono_factor(beta)
        epis.append(epi)
        if mono.is_identity:
            break
        m = mono.target_arity
        i = max(set(range(m + 1)) - set(mono.values))
        rest = MonotoneMap(
            mono.source_arity, m - 1, tuple(v if v < i else v - 1 for v in mono.values)
        )
        entry = x.face_entry(cell, i)
        cell, beta = entry.cell, compose(entry.epi, rest)
    total = epis.pop()
    while epis:
        total = compose(total, epis.pop())
    return SimplexRef(total, cell)


def scan_face_index(x, n):
    """(face position, face value) -> simplices of level n, every face
    computed afresh through ``FinSSet.apply``."""
    idx = {}
    for s in x.simplices(n):
        for i in range(n + 1):
            idx.setdefault((i, x.apply(s, face(n, i))), []).append(s)
    return idx


def scan_faces_index(x, n, at):
    """The n-simplices keyed by their faces at the positions ``at``, in
    that order, each tuple in ``simplices`` order, every face computed
    afresh through ``FinSSet.apply``."""
    idx = {}
    for s in x.simplices(n):
        key = tuple(x.apply(s, face(n, i)) for i in at)
        idx.setdefault(key, []).append(s)
    return {key: tuple(ss) for key, ss in idx.items()}


def scan_invertible_edge(x, e):
    """Edge invertibility through a (d2, d1) -> {d0} lookup over every
    triangle, all faces and ends computed through ``FinSSet.apply``: some
    g with a triangle g . e = id at the source must also have a triangle
    e . g = id at the target."""
    if e.is_degenerate:
        return True
    idx = {}
    if x.truncation >= 2:
        for t in x.simplices(2):
            d0, d1, d2 = (x.apply(t, face(2, i)) for i in range(3))
            idx.setdefault((d2, d1), set()).add(d0)
    id_src = x.apply(x.apply(e, face(1, 1)), degeneracy(0, 0))
    id_tgt = x.apply(x.apply(e, face(1, 0)), degeneracy(0, 0))
    return any(e in idx.get((g, id_tgt), ()) for g in idx.get((e, id_src), ()))


def scan_core(x):
    """The core's cells per dimension, in x's order, by the edge rule: a
    cell is kept when every edge of it, computed through
    ``FinSSet.apply`` along each mono [1] -> [d], is degenerate or passes
    ``scan_invertible_edge``."""
    verdicts = {}

    def invertible(e):
        if e not in verdicts:
            verdicts[e] = scan_invertible_edge(x, e)
        return verdicts[e]

    return {
        d: tuple(
            c for c in x.nondegenerate(d)
            if all(invertible(x.apply(nondeg_ref(c, d), mono))
                   for mono in all_monos(1, d))
        )
        for d in range(x.truncation + 1)
    }


def scan_pi0(x):
    """Vertex components, merged over every edge's ends computed through
    ``FinSSet.apply``, as pi0 lists them."""
    comp = {v: frozenset([v]) for v in x.nondegenerate(0)}
    for e in x.simplices(1) if x.truncation >= 1 else ():
        a, b = (x.apply(e, face(1, i)).cell for i in (0, 1))
        merged = comp[a] | comp[b]
        for v in merged:
            comp[v] = merged
    return tuple(sorted({tuple(sorted(c)) for c in comp.values()}))


def scan_pi1(x, basepoint):
    """pi1's (classes, identity, table, problems), every face computed
    through ``FinSSet.apply``.  The loops are the edges with both ends at
    the basepoint.  Triangles, in ``simplices`` order, with a degenerate
    d0 join the classes of d2 and d1, with a degenerate d2 those of d0
    and d1; each join hangs the tree of the first under the root of the
    second, and classes are listed by their roots' ``sort_key``, so the
    listing is the one pi1 promises.  A table entry is the class of d1
    over every triangle whose d0 and d2 lie in the two classes."""
    b = nondeg_ref(basepoint, 0)
    id_b = x.apply(b, degeneracy(0, 0))
    loops = [e for e in x.simplices(1)
             if x.apply(e, face(1, 0)) == b == x.apply(e, face(1, 1))]
    parent = {e: e for e in loops}

    def root(e):
        while parent[e] != e:
            e = parent[e]
        return e

    triangles = [tuple(x.apply(t, face(2, i)) for i in range(3)) for t in x.simplices(2)]
    for d0, d1, d2 in triangles:
        if {d0, d1, d2} <= parent.keys():
            for leg, other in ((d0, d2), (d2, d0)):
                if leg == id_b and root(other) != root(d1):
                    parent[root(other)] = root(d1)
    roots = sorted({root(e) for e in loops}, key=SimplexRef.sort_key)
    cls = {e: roots.index(root(e)) for e in loops}
    classes = tuple(
        tuple(sorted((e for e in loops if cls[e] == c), key=SimplexRef.sort_key))
        for c in range(len(roots))
    )
    n = len(classes)
    table, problems = {}, []
    for i, j in itertools.product(range(n), repeat=2):
        values = sorted({cls[d1] for d0, d1, d2 in triangles
                         if d0 in classes[i] and d2 in classes[j]})
        if not values:
            problems.append(f"no composite for classes ({i}, {j})")
        elif len(values) > 1:
            problems.append(f"composite of classes ({i}, {j}) ambiguous: {values}")
        else:
            table[i, j] = values[0]
    unit = cls[id_b]
    if not problems:
        for i in range(n):
            if table[unit, i] != i or table[i, unit] != i:
                problems.append(f"identity fails at class {i}")
            if all(table[i, j] != unit or table[j, i] != unit for j in range(n)):
                problems.append(f"no inverse for class {i}")
        for i, j, k in itertools.product(range(n), repeat=3):
            if table[table[i, j], k] != table[i, table[j, k]]:
                problems.append(f"associativity fails at ({i}, {j}, {k})")
                break
    return classes, unit, table, problems


def scan_filler(x, p, index=None):
    """A simplex matching every given face of the horn problem p, or
    None: the first in ``simplices`` order, found through
    ``scan_face_index`` with every face recomputed per candidate."""
    n = p.dim
    idx = scan_face_index(x, n) if index is None else index
    j0 = 0 if p.missing != 0 else 1
    for s in idx.get((j0, p.faces[j0]), ()):
        if all(
            i == p.missing or x.apply(s, face(n, i)) == p.faces[i]
            for i in range(n + 1)
        ):
            return s
    return None


def scan_horn_problems(x, n, k):
    """Every compatible (n, k) horn problem, in the order horn_problems
    promises: backtracking over the face slots in index order, with each
    candidate's faces recomputed through ``FinSSet.apply`` per test."""
    by_face = scan_face_index(x, n - 1)
    slots = [i for i in range(n + 1) if i != k]
    chosen = {}
    out = []

    def fill(t):
        if t == len(slots):
            out.append(HornProblem(n, k, tuple(chosen.get(i) for i in range(n + 1))))
            return
        i = slots[t]
        prior = slots[:t]
        if prior:
            j = prior[0]
            pool = by_face.get((j, x.apply(chosen[j], face(n - 1, i - 1))), ())
        else:
            pool = x.simplices(n - 1)
        for cand in pool:
            if all(
                x.apply(cand, face(n - 1, j)) == x.apply(chosen[j], face(n - 1, i - 1))
                for j in prior
            ):
                chosen[i] = cand
                fill(t + 1)
                del chosen[i]

    fill(0)
    return out


def scan_bilevel(bm, max_dim):
    """validate_bilevel's problems, in its order, with every value and
    both sides of every commutation recomputed through ``bm.fn`` and
    ``FinSSet.apply``, never read from ``bm.table``."""
    problems = []
    bound = min(max_dim, bm.x.truncation, bm.y.truncation, bm.target.truncation)
    for k in range(bound + 1):
        ops = []
        if k >= 1:
            ops.extend(face(k, i) for i in range(k + 1))
        if k + 1 <= bound:
            ops.extend(degeneracy(k, i) for i in range(k + 1))
        for a in bm.x.simplices(k):
            for b in bm.y.simplices(k):
                out = bm.fn(k, a, b)
                for op in ops:
                    lhs = bm.target.apply(out, op)
                    rhs = bm.fn(
                        op.source_arity, bm.x.apply(a, op), bm.y.apply(b, op)
                    )
                    if lhs != rhs:
                        problems.append(
                            f"level {k}: operator {op.values} not respected at "
                            f"({a.cell!r}.{a.epi.values}, {b.cell!r}.{b.epi.values})"
                        )
    return problems


def scan_monoid_laws(m):
    """The unit and associativity problems of validate_monoid, in its
    order, comparing simplices computed through each product's ``fn`` on
    every (grades, level, a, b, c); stops at the first associativity
    failure."""
    problems = []
    mul = {key: bm.fn for key, bm in m.product.items()}
    unit = m.grades.unit
    for g in m.grades.elements:
        comp = m.component(g)
        for level in range(m.truncation + 1):
            u = SimplexRef(MonotoneMap(level, 0, (0,) * (level + 1)), m.unit_vertex)
            for a in comp.simplices(level):
                if mul[(g, unit)](level, a, u) != a:
                    problems.append(f"right unit fails at grade {g!r} level {level}")
                    break
                if mul[(unit, g)](level, u, a) != a:
                    problems.append(f"left unit fails at grade {g!r} level {level}")
                    break
    for g, h, k in itertools.product(m.grades.elements, repeat=3):
        gh = m.grades.product(g, h)
        hk = m.grades.product(h, k)
        for level in range(m.truncation + 1):
            for a in m.component(g).simplices(level):
                for b in m.component(h).simplices(level):
                    ab = mul[(g, h)](level, a, b)
                    for c in m.component(k).simplices(level):
                        bc = mul[(h, k)](level, b, c)
                        if mul[(gh, k)](level, ab, c) != mul[(g, hk)](level, a, bc):
                            problems.append(
                                f"associativity fails at grades "
                                f"({g!r}, {h!r}, {k!r}) level {level}"
                            )
                            return problems
    return problems


def scan_scat_laws(d, cap):
    """The unit and associativity problems of validate_scat up to level
    cap, in its order, one per failing simplex or triple, composing
    through each composition's ``fn``."""
    problems = []

    def compose_refs(x, y, z, later, earlier):
        return d.comp[(x, y, z)].fn(later.dim, later, earlier)

    for x in d.objects:
        for y in d.objects:
            for m in range(cap + 1):
                for f in d.hom(x, y).simplices(m):
                    if compose_refs(x, y, y, d.identity_ref(y, m), f) != f:
                        problems.append(
                            f"left unit law fails at level {m} on ({x!r},{y!r}): {f.cell!r}"
                        )
                    if compose_refs(x, x, y, f, d.identity_ref(x, m)) != f:
                        problems.append(
                            f"right unit law fails at level {m} on ({x!r},{y!r}): {f.cell!r}"
                        )
    for w, x, y, z in itertools.product(d.objects, repeat=4):
        for m in range(cap + 1):
            for a in d.hom(y, z).simplices(m):
                for b in d.hom(x, y).simplices(m):
                    ab = compose_refs(x, y, z, a, b)
                    for c in d.hom(w, x).simplices(m):
                        lhs = compose_refs(w, x, z, ab, c)
                        rhs = compose_refs(w, y, z, a, compose_refs(w, x, y, b, c))
                        if lhs != rhs:
                            problems.append(
                                f"associativity fails at level {m} on "
                                f"({w!r},{x!r},{y!r},{z!r})"
                            )
    return problems


@functools.lru_cache(maxsize=None)
def _direct_image(op, cid):
    """The normal form of the image of the chain cid under op."""
    return normalize_chain([frozenset(op(v) for v in s) for s in _chain_sets(cid)])


def scan_precompose(f, op):
    """f composed with the rigidified op, chain by chain on refs: each
    chain's direct image is normalized by ``_direct_image`` and its value
    acted on through ``FinSSet.apply``; the result is built from its
    assignments."""
    if op.target_arity != f.arity:
        raise TruncationError(f"operator into [{op.target_arity}] against arity {f.arity}")
    l = op.source_arity
    src = rigidify(l)
    values = assignments(f)
    out = {}
    for i in range(l + 1):
        for j in range(i, l + 1):
            h = f.target.hom(f.object_map[op(i)], f.object_map[op(j)])
            table = out[(i, j)] = {}
            for m in range(max(j - i, 1)):
                for cid in src.hom(i, j).nondegenerate(m):
                    img = _direct_image(op, cid)
                    table[cid] = h.apply(values[(op(i), op(j))][img.cell], img.epi)
    objs = tuple(f.object_map[op(v)] for v in range(l + 1))
    return functor_from_assignments(l, f.target, objs, out)


def ref_signature(f):
    """The nerve's cell order keyed by strings: arity, object map, then
    per pair in order each chain id with its value's ``sort_key``."""
    return (
        f.arity,
        f.object_map,
        tuple(
            (pair, tuple(sorted((c, r.sort_key()) for c, r in table.items())))
            for pair, table in sorted(assignments(f).items())
        ),
    )


def functor_normal_form(f: SimplicialFunctor) -> tuple[MonotoneMap, SimplicialFunctor]:
    """Strip degeneracies: returns (epi, g) with f = g . rigidified epi,
    testing each face by ``scan_precompose``."""
    epi = identity(f.arity)
    cur = f
    while True:
        n = cur.arity
        for i in range(n):
            dropped = scan_precompose(cur, face(n, i))
            if scan_precompose(dropped, degeneracy(n - 1, i)) == cur:
                cur = dropped
                epi = compose(degeneracy(n - 1, i), epi)
                break
        else:
            return epi, cur


def scan_nerve(d, dim: int) -> NerveSSet:
    """The coherent nerve built by its own route: each functor is tested
    for degeneracy by a double ``scan_precompose`` per face, the
    nondegenerate ones are sorted and named by ``ref_signature``, and
    every face is normalized afresh by ``functor_normal_form``."""
    if dim < 0:
        raise ValueError("dim must be >= 0")
    if dim - 1 > d.level_cap:
        raise TruncationError(
            f"homs truncated at {d.level_cap} cannot support a dim-{dim} nerve"
        )
    by_level: list[list[SimplicialFunctor]] = [
        enumerate_functors(k, d) for k in range(dim + 1)
    ]
    cells: dict[int, list[str]] = {}
    ids: dict[tuple, str] = {}
    functor_of: dict[str, SimplicialFunctor] = {}
    for k, fs in enumerate(by_level):
        nondeg = []
        for f in fs:
            if all(
                scan_precompose(scan_precompose(f, face(k, i)), degeneracy(k - 1, i)) != f
                for i in range(k)
            ):
                nondeg.append(f)
        nondeg.sort(key=ref_signature)
        cells[k] = []
        for idx, f in enumerate(nondeg):
            cid = f"n{k}c{idx}"
            cells[k].append(cid)
            ids[ref_signature(f)] = cid
            functor_of[cid] = f
    faces: dict[str, list[SimplexRef]] = {}
    for k in range(1, dim + 1):
        for cid in cells[k]:
            f = functor_of[cid]
            entries = []
            for i in range(k + 1):
                epi, g = functor_normal_form(scan_precompose(f, face(k, i)))
                entries.append(SimplexRef(epi, ids[ref_signature(g)]))
            faces[cid] = entries
    return NerveSSet(dim, cells, faces, functor_of)


def rref_rescaling_every_pivot(rows) -> tuple:
    """Reduced row echelon over exact rationals, zero rows dropped, that
    divides every pivot row by its pivot, even a pivot already 1."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    lead = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        inv = Fraction(1) / mat[lead][col]
        mat[lead] = [x * inv for x in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[lead])]
        lead += 1
        if lead == len(mat):
            break
    return tuple(tuple(row) for row in mat[:lead])

# -- helpers only the tests use ----------------------------------------


def generator_word(f: MonotoneMap) -> list[MonotoneMap]:
    """Write f as a composite of cofaces and codegeneracies.

    Returns [g_1, ..., g_r] with f = g_r . ... . g_1 (g_1 applied first).
    Codegeneracies come first, then cofaces, following the epi-mono
    factorization; the identity yields the empty word.
    """
    epi, mono = epi_mono_factor(f)
    word: list[MonotoneMap] = []
    # Split off codegeneracies: repeatedly merge the first repeated pair.
    cur = epi
    while not cur.is_identity:
        j = next(
            i for i in range(cur.source_arity) if cur.values[i] == cur.values[i + 1]
        )
        word.append(degeneracy(cur.source_arity - 1, j))
        cur = MonotoneMap(
            cur.source_arity - 1,
            cur.target_arity,
            cur.values[:j] + cur.values[j + 1 :],
        )
    # Split off cofaces: add missing image values from the smallest up.
    missing = sorted(set(range(f.target_arity + 1)) - set(mono.values))
    arity = mono.source_arity
    for idx, i in enumerate(missing):
        word.append(face(arity + idx + 1, i))
    return word


def compose_word(word: list[MonotoneMap], n: int) -> MonotoneMap:
    """Fold a generator word starting from the identity on [n]."""
    cur = identity(n)
    for g in word:
        cur = compose(g, cur)
    return cur


def horn_compatibility(x: FinSSet, p: HornProblem) -> ValidationReport:
    """Pairwise face agreement: face j of face j' must equal face j'-1
    of face j whenever both are given."""
    report = ValidationReport(f"horn({p.dim},{p.missing}) compatibility")
    n = p.dim
    for j in range(n + 1):
        for jp in range(j + 1, n + 1):
            if j == p.missing or jp == p.missing:
                continue
            lhs = x.apply(p.faces[jp], face(n - 1, j))
            rhs = x.apply(p.faces[j], face(n - 1, jp - 1))
            if lhs != rhs:
                report.problems.append(
                    f"faces {j} and {jp} disagree: "
                    f"{lhs.sort_key()} vs {rhs.sort_key()}"
                )
    return report


def discrete_spec() -> MonoidSpec:
    """Grades 1 and a with a.a = a, a trivial component: no higher cells."""
    grades = GradeMonoid(
        ("1", "a"), "1",
        {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "a"},
    )
    return MonoidSpec(grades, {"a": "trivial"}, 3)


def one_object_category(names, mul, truncation: int = 3):
    """One object '*' with discrete homs on the morphisms ``names``, the
    first the identity, composed by ``mul(later, earlier)``."""
    return from_finite_category(
        ("*",), {("*", "*"): list(names)},
        lambda x, y, z, later, earlier: mul(later, earlier),
        {"*": names[0]}, truncation)


def cyclic_table(n: int) -> dict:
    return {(i, j): (i + j) % n for i in range(n) for j in range(n)}


def empty_sset(truncation: int = 0) -> FinSSet:
    return FinSSet(truncation, {}, {})


def all_monos(m: int, n: int) -> list[MonotoneMap]:
    """Every injective monotone map [m] -> [n], lexicographic."""
    return [MonotoneMap(m, n, vals) for vals in itertools.combinations(range(n + 1), m + 1)]


def is_injective(f: MonotoneMap) -> bool:
    return len(set(f.values)) == len(f.values)


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f."""
    return SimplicialMap(f.source, g.target,
                         {c: g.image(r) for c, r in f.assignment.items()})


def assignments(f: SimplicialFunctor) -> dict:
    """f's values as refs, per pair and chain id, read through
    ``hom_map``; a pair with no value is left out."""
    out = {}
    for i in range(f.arity + 1):
        for j in range(i, f.arity + 1):
            table = f.hom_map(i, j).assignment
            if table:
                out[(i, j)] = table
    return out


def functor_from_assignments(arity, target, object_map, values) -> SimplicialFunctor:
    """The functor with chain-keyed values ``values[(i, j)][chain id]``.
    Its code is laid out from rigidify(arity)'s homs: pairs in order,
    chains by id within a pair, each the position of its value in the
    target hom, or the value itself where it has none (a missing value,
    or one off its hom)."""
    src = rigidify(arity)
    code = []
    for i in range(arity + 1):
        for j in range(i, arity + 1):
            h, chains = target.hom(object_map[i], object_map[j]), src.hom(i, j)
            for cid in sorted(c for m in range(chains.truncation + 1)
                              for c in chains.nondegenerate(m)):
                m = chains.dim_of(cid)
                ref = values.get((i, j), {}).get(cid)
                code.append(h.position(m).get(ref, ref) if m <= h.truncation else ref)
    return SimplicialFunctor(arity, target, tuple(object_map), tuple(code))


@functools.lru_cache(maxsize=None)
def identity_functor(k: int) -> SimplicialFunctor:
    """Each chain of rigidify(k) to itself, in the nerves of the same
    posets listed to level 3 and composed by union of chains: the
    rigidified degeneracies out of [k + 1] take values up to level k,
    above what rigidify(k)'s own homs keep."""
    objs = tuple(range(k + 1))
    homs = {(i, j): nerve(mapping_poset(i, j, k), 3) for i in objs for j in objs}
    target = SCat(objs, homs, {i: chain_cell_id([frozenset({i})]) for i in objs}, {
        (i, j, p): BilevelMap(homs[(j, p)], homs[(i, j)], homs[(i, p)], union_chains)
        for i in objs for j in objs for p in objs
    })
    return functor_from_assignments(k, target, objs, {
        pair: {c: nondeg_ref(c, d) for d in range(h.truncation + 1)
               for c in h.nondegenerate(d)}
        for pair, h in rigidify(k).homs.items()
    })


def rigidify_map(op: MonotoneMap) -> SimplicialFunctor:
    """The functor rigidify(l) -> rigidify(k) induced by op: [l] -> [k]."""
    return precompose(identity_functor(op.target_arity), op)


# -- maps into and out of joins and slices ------------------------------


def join_inclusions(j) -> tuple[SimplicialMap, SimplicialMap]:
    """The two cofactor inclusions into the join: a factor's cell c goes
    to the pair with c in that factor's place and the other part empty."""
    return tuple(
        SimplicialMap(s, j, {
            ab[k]: nondeg_ref(cid, j.dim_of(cid))
            for cid, ab in j.parts.items() if ab[1 - k] is None
        })
        for k, s in enumerate(j.factors)
    )


def simplex_join_iso(k: int, l: int) -> SimplicialMap:
    """The canonical isomorphism simplex(k) * simplex(l) = simplex(k+1+l),
    vertex i on the left to i, vertex i on the right to k+1+i."""
    j = join(standard_simplex(k), standard_simplex(l))
    assignment = {}
    for cid, (a, b) in j.parts.items():
        va = () if a is None else tuple(int(v) for v in a.split("-"))
        vb = () if b is None else tuple(k + 1 + int(v) for v in b.split("-"))
        assignment[cid] = nondeg_ref(simplex_cell_id(va + vb), len(va) + len(vb) - 1)
    return SimplicialMap(j, standard_simplex(k + 1 + l), assignment)


def slice_projection(s: SliceSSet) -> SimplicialMap:
    """Restriction to the simplex factor: the forgetful map to the base."""
    under = s.presentation.side == "under"
    assignment = {}
    for d in range(s.truncation + 1):
        top = simplex_cell_id(range(d + 1))
        jid = f"|{top}" if under else f"{top}|"
        for c in s.nondegenerate(d):
            assignment[c] = dict(s.cell_assignments[c])[jid]
    return SimplicialMap(s, s.presentation.base, assignment)


def coslice_projection(c: CosliceSSet) -> SimplicialMap:
    """Forgets the anchor leg: an n-cell goes to the face of its
    underlying simplex opposite the cone vertex."""
    assignment = {
        cell: c.base.apply(c.underlying[cell], face(d + 1, 0))
        for d in range(c.truncation + 1) for cell in c.nondegenerate(d)
    }
    return SimplicialMap(c, c.base, assignment)


# -- the triple presentation of the join --------------------------------


@dataclass(frozen=True)
class JoinTriple:
    """Cut position together with the two restrictions.  ``cut`` is the
    last vertex mapped to the left end, -1 when everything lies right;
    a part at dimension -1 is None."""

    cut: int
    left: SimplexRef | None
    right: SimplexRef | None


def _restrict(values: tuple[int, ...], dim: int,
              c: str | None) -> SimplexRef | None:
    """The part c of dimension dim under the epi with these values, or
    the empty part."""
    return None if c is None else SimplexRef(
        MonotoneMap(len(values) - 1, dim, values), c)


def triple_from_join_simplex(j, ref: SimplexRef) -> JoinTriple:
    a, b = j.parts[ref.cell]
    p = -1 if a is None else j.factors[0].dim_of(a)
    q = -1 if b is None else j.factors[1].dim_of(b)
    values = ref.epi.values
    cut = bisect_right(values, p) - 1
    return JoinTriple(
        cut,
        _restrict(values[: cut + 1], p, a),
        _restrict(tuple(v - p - 1 for v in values[cut + 1 :]), q, b),
    )


def join_simplex_from_triple(j, n: int, t: JoinTriple) -> SimplexRef:
    """The level-n simplex of the join with the triple's parts: the cell
    whose parts they are, under the left epi followed by the right one
    shifted past it."""
    a = None if t.left is None else t.left.cell
    b = None if t.right is None else t.right.cell
    (cid,) = [c for c, ab in j.parts.items() if ab == (a, b)]
    lv, lt = ((), -1) if t.left is None else (t.left.epi.values, t.left.epi.target_arity)
    rv, rt = ((), -1) if t.right is None else (t.right.epi.values, t.right.epi.target_arity)
    return SimplexRef(MonotoneMap(n, lt + rt + 1, lv + tuple(lt + 1 + v for v in rv)), cid)


def formal_simplices(x: FinSSet, d: int) -> list[SimplexRef]:
    """Level-d simplices of the degenerate extension: above the stored
    truncation these are surjections onto nondegenerate cells."""
    if d <= x.truncation:
        return x.simplices(d)
    out = []
    for m in range(x.truncation + 1):
        for c in x.nondegenerate(m):
            out.extend(SimplexRef(e, c) for e in epis_onto(d, m))
    return out


def enumerate_triples(x: FinSSet, y: FinSSet, n: int) -> list[JoinTriple]:
    """All (cut, left, right) triples at level n, the other presentation
    of the join; the empty set below dimension 0 contributes one part."""
    out = []
    for cut in range(-1, n + 1):
        lefts = [None] if cut == -1 else formal_simplices(x, cut)
        rights = [None] if cut == n else formal_simplices(y, n - cut - 1)
        for l in lefts:
            for r in rights:
                out.append(JoinTriple(cut, l, r))
    return out


# -- slices and horn surveys by the ref-valued route ---------------------


def scan_materialize(levels, act, id_fn):
    """``materialize_presheaf``'s (cells, faces, value_of) by its own
    route: every value is stripped of degeneracies one face test at a
    time, as ``functor_normal_form`` does, and every face is normalized
    afresh the same way.  Values are keyed by (level, value)."""

    def strip(n, v):
        epi = identity(n)
        while True:
            for i in range(n):
                dropped = act(v, face(n, i))
                if act(dropped, degeneracy(n - 1, i)) == v:
                    v, epi, n = dropped, compose(degeneracy(n - 1, i), epi), n - 1
                    break
            else:
                return epi, v

    cells = {n: [] for n in range(len(levels))}
    ids, value_of = {}, {}
    for n, vals in enumerate(levels):
        for v in vals:
            if (n, v) not in ids and strip(n, v)[0].is_identity:
                ids[n, v] = cid = id_fn(n, v)
                cells[n].append(cid)
                value_of[cid] = v
    faces = {}
    for n in range(1, len(levels)):
        for cid in cells[n]:
            entries = []
            for i in range(n + 1):
                epi, w = strip(n - 1, act(value_of[cid], face(n, i)))
                entries.append(SimplexRef(epi, ids[epi.target_arity, w]))
            faces[cid] = entries
    return cells, faces, value_of


def scan_coslice(base, vertex, dim):
    """``coslice_fastpath`` with refs as values: the (n+1)-simplices of
    the base whose vertex 0, computed through ``FinSSet.apply``, is the
    anchor, acted on by ``FinSSet.apply`` along the cone operator, and
    normalized by ``scan_materialize``."""
    anchor = nondeg_ref(vertex, 0)
    levels = [
        [s for s in base.simplices(n + 1)
         if base.apply(s, MonotoneMap(0, n + 1, (0,))) == anchor]
        for n in range(dim + 1)
    ]

    def id_fn(n, value):
        return f"c:{value.cell}" if value.epi.is_identity else f"c:s0:{value.cell}"

    cells, faces, value_of = scan_materialize(
        levels, lambda v, alpha: base.apply(v, cone_operator(alpha)), id_fn)
    return CosliceSSet(dim, cells, faces, value_of, base)


def scan_slice(pres, dim):
    """``slice_sset`` with sorted (shape cell, base simplex) tuples as
    values: the anchored maps found by backtracking over the shape's
    cells by dimension, each candidate's faces computed through
    ``FinSSet.apply``; a value acted on by ``FinSSet.apply`` once per
    image cell of the join map; normalized by ``scan_materialize``."""
    base, k_set = pres.base, pres.anchor.source
    under = pres.side == "under"
    shapes = [join(k_set, standard_simplex(n)) if under
              else join(standard_simplex(n), k_set) for n in range(dim + 1)]
    fixed = {(f"{c}|" if under else f"|{c}"): r
             for c, r in pres.anchor.assignment.items()}
    by_faces = {d: scan_faces_index(base, d, range(d + 1))
                for d in range(1, dim + k_set.truncation + 2)}

    def anchored_maps(shape):
        order = [(d, c) for d in range(shape.truncation + 1)
                 for c in shape.nondegenerate(d) if c not in fixed]
        table, out = dict(fixed), []

        def fill(t):
            if t == len(order):
                out.append(tuple(sorted(table.items())))
                return
            d, c = order[t]
            want = tuple(base.apply(table[r.cell], r.epi) for r in shape.face_entries(c))
            for s in by_faces[d].get(want, ()) if d else base.simplices(0):
                table[c] = s
                fill(t + 1)
                del table[c]

        fill(0)
        return out

    @functools.lru_cache(maxsize=None)
    def join_map(alpha):
        l, n = alpha.source_arity, alpha.target_arity
        ident, amap = identity_map(k_set), standard_map(alpha)
        return (join_of_maps(ident, amap, shapes[l], shapes[n]) if under
                else join_of_maps(amap, ident, shapes[l], shapes[n]))

    def act(value, alpha):
        jm, table = join_map(alpha), dict(value)
        return tuple(sorted(
            (c, base.apply(table[r.cell], r.epi)) for c, r in jm.assignment.items()
        ))

    counter = itertools.count()
    cells, faces, value_of = scan_materialize(
        [anchored_maps(shape) for shape in shapes], act,
        lambda n, value: f"m{n}_{next(counter)}")
    return SliceSSet(dim, cells, faces, value_of, pres)


def scan_survey(x, max_dim, inner_only):
    """``is_quasicategory_up_to`` (inner only) or ``is_kan_up_to``: the
    horns of ``scan_horn_problems`` that ``scan_filler`` cannot fill,
    counted per shape, the first one shown by its faces' sort keys."""
    kind = "inner horns" if inner_only else "horns"
    report = ValidationReport(f"{kind} up to dimension {max_dim}")
    for n in range(2, max_dim + 1):
        index = scan_face_index(x, n)
        for k in range(1, n) if inner_only else range(n + 1):
            unfilled = [p for p in scan_horn_problems(x, n, k)
                        if scan_filler(x, p, index) is None]
            if unfilled:
                shown = tuple(None if f is None else f.sort_key()
                              for f in unfilled[0].faces)
                report.problems.append(
                    f"{len(unfilled)} unfillable ({n},{k})-horns, first {shown}")
    return report
