"""Simplicially enriched categories with strictly associative composition.

``rigidify(k)`` is the enriched category on objects 0..k whose homs are
nerves of the mapping posets and whose composition is levelwise union of
chains.  A ``SimplicialFunctor`` out of it into a target ``SCat`` is
determined by a small amount of free data; :func:`enumerate_functors`
backtracks over exactly that free data, so every functor is produced
once.  The homotopy-coherent nerve :func:`simplicial_nerve` lists the
functors levelwise, sorted by signature, and hands them with
:func:`precompose` as the action to :func:`sset.materialize_presheaf`,
the one path that strips degeneracies and normalizes faces.

Free versus forced cells: a nondegenerate chain of P(i,j) whose least
element is the bottom {i, j} is free; any other chain has an interior
point in every entry and splits as a union of two shorter chains, so a
functor's value on it is forced by composition (the necklace
description of Dugger-Spivak).  Both kinds of data depend only on the
cell, so they are computed once per hom: a free cell's candidates are
looked up in the target hom's :meth:`FinSSet.faces_index` under the
images of its faces, and a forced cell carries its split point and the
normal forms of its two halves.  :func:`precompose` likewise reads the
image chains of an operator from a per-operator table.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Mapping

from .ordinals import MonotoneMap, degeneracy
from .posets import (
    chain_cell_id,
    chain_sets,
    mapping_poset,
    nerve,
    normalize_chain,
    union_chains,
)
from .sset import (
    BilevelMap,
    FinSSet,
    OffTargetError,
    SimplexRef,
    SimplicialMap,
    TruncationError,
    ValidationReport,
    depth_first,
    materialize_presheaf,
    nondeg_ref,
    validate,
    validate_bilevel,
)


def shared_level_cap(homs: Iterable[FinSSet]) -> int:
    """The highest level every hom reaches: the levels an SCat keeps."""
    return min((h.truncation for h in homs), default=0)


class SCat:
    """Objects, hom simplicial sets, identity vertices, and a levelwise
    composition table per object triple.  All homs share ``level_cap``."""

    def __init__(
        self,
        objects: Iterable[Hashable],
        homs: Mapping[tuple, FinSSet],
        identities: Mapping[Hashable, str],
        comp: Mapping[tuple, BilevelMap],
    ):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.identities = dict(identities)
        self.comp = dict(comp)
        self.level_cap = shared_level_cap(self.homs.values())

    def hom(self, x, y) -> FinSSet:
        return self.homs[(x, y)]

    def identity_ref(self, x, level: int = 0) -> SimplexRef:
        """The level-fold degenerate simplex on the identity vertex."""
        v = self.identities[x]
        epi = MonotoneMap(level, 0, (0,) * (level + 1))
        return SimplexRef(epi, v)

    def compose_refs(self, x, y, z, later: SimplexRef, earlier: SimplexRef) -> SimplexRef:
        return self.comp[(x, y, z)].apply(later.dim, later, earlier)


def validate_scat(d: SCat, max_level: int | None = None) -> ValidationReport:
    """Hom validity, unit vertices, composition on the right homs,
    bilevel naturality of composition, strict unit and associativity
    laws checked levelwise on the composition tables."""
    report = ValidationReport("SCat")
    cap = d.level_cap if max_level is None else min(max_level, d.level_cap)
    for (x, y), h in d.homs.items():
        sub = validate(h)
        report.problems.extend(f"hom({x!r},{y!r}): {p}" for p in sub.problems)
    for x in d.objects:
        v = d.identities.get(x)
        if v is None or not d.hom(x, x).has_cell(v) or d.hom(x, x).dim_of(v) != 0:
            report.problems.append(f"identity of {x!r} is not a vertex")
    for x, y, z in itertools.product(d.objects, repeat=3):
        bm = d.comp.get((x, y, z))
        if bm is None:
            report.problems.append(f"comp({x!r},{y!r},{z!r}) is missing")
        elif not (
            bm.x is d.homs.get((y, z))
            and bm.y is d.homs.get((x, y))
            and bm.target is d.homs.get((x, z))
        ):
            report.problems.append(f"comp({x!r},{y!r},{z!r}) has wrong ends")
    if report.problems:
        return report
    for (x, y, z), bm in d.comp.items():
        sub = validate_bilevel(bm, cap)
        report.problems.extend(
            f"comp({x!r},{y!r},{z!r}): {p}" for p in sub.problems
        )
    # The law sweeps compare positions in the composition tables; a
    # value off its hom has no position, and validate_bilevel named it.
    try:
        tables = {
            key: [bm.table(m) for m in range(cap + 1)]
            for key, bm in d.comp.items()
        }
    except OffTargetError:
        return report
    for x in d.objects:
        for y in d.objects:
            h = d.hom(x, y)
            for m in range(cap + 1):
                jx = d.hom(x, x).position(m)[d.identity_ref(x, m)]
                jy = d.hom(y, y).position(m)[d.identity_ref(y, m)]
                left = tables[(x, y, y)][m][jy]
                right = tables[(x, x, y)][m]
                for i, f in enumerate(h.simplices(m)):
                    if left[i] != i:
                        report.problems.append(
                            f"left unit law fails at level {m} on "
                            f"({x!r},{y!r}): {f.cell!r}"
                        )
                    if right[i][jx] != i:
                        report.problems.append(
                            f"right unit law fails at level {m} on "
                            f"({x!r},{y!r}): {f.cell!r}"
                        )
    for w in d.objects:
        for x in d.objects:
            for y in d.objects:
                for z in d.objects:
                    for m in range(cap + 1):
                        t_ab = tables[(x, y, z)][m]
                        t_bc = tables[(w, x, y)][m]
                        lhs = tables[(w, x, z)][m]
                        rhs = tables[(w, y, z)][m]
                        # (ab)c against a(bc), a whole row of c at a time
                        for row_ab, r_a in zip(t_ab, rhs):
                            for ab, bcs in zip(row_ab, t_bc):
                                l_row = lhs[ab]
                                r_row = [r_a[bc] for bc in bcs]
                                if l_row != r_row:
                                    report.problems.extend(
                                        f"associativity fails at level {m} on "
                                        f"({w!r},{x!r},{y!r},{z!r})"
                                        for lc, rc in zip(l_row, r_row)
                                        if lc != rc
                                    )
    return report


@lru_cache(maxsize=None)
def rigidify(k: int) -> SCat:
    """The rigidified k-simplex: homs are mapping-poset nerves, all taken
    at truncation max(k-1, 0); composition is union of chains."""
    if k < 0:
        raise ValueError("k must be >= 0")
    trunc = max(k - 1, 0)
    objects = tuple(range(k + 1))
    homs = {
        (i, j): nerve(mapping_poset(i, j, k), trunc)
        for i in objects
        for j in objects
    }
    identities = {i: chain_cell_id([frozenset({i})]) for i in objects}
    comp = {
        (i, j, p): BilevelMap(homs[(j, p)], homs[(i, j)], homs[(i, p)], union_chains)
        for i in objects
        for j in objects
        for p in objects
    }
    return SCat(objects, homs, identities, comp)


# -- functors out of rigidified simplices -----------------------------


@lru_cache(maxsize=None)
def _hom_slots(k: int, i: int, j: int) -> tuple[tuple, ...]:
    """Cells of N P(i,j) in fill order: (cell, dim, faces, split).

    A free cell starts at the bottom {i,j}; ``faces`` names its face
    cells and ``split`` is None.  A forced cell has ``split`` = (p,
    upper, lower): p is the least interior point of its first entry, and
    upper, lower are the normal forms of the chain cut to P(p,j) and
    P(i,p)."""
    src = rigidify(k).hom(i, j)
    out = []
    for m in range(j - i):
        for cid in src.nondegenerate(m):
            sets = chain_sets(cid)
            interior = sorted(sets[0] - {i, j})
            if interior:
                p = interior[0]
                upper = normalize_chain([s & frozenset(range(p, j + 1)) for s in sets])
                lower = normalize_chain([s & frozenset(range(i, p + 1)) for s in sets])
                out.append((cid, m, (), (p, upper, lower)))
            else:
                faces = tuple(r.cell for r in src.face_entries(cid))
                out.append((cid, m, faces, None))
    return tuple(out)


class SimplicialFunctor:
    """A functor from rigidify(arity) to target, stored as assignments on
    the nondegenerate chains of every hom nerve."""

    __slots__ = ("arity", "target", "object_map", "assignments", "_sig")

    def __init__(self, arity: int, target: SCat, object_map: tuple,
                 assignments: Mapping[tuple, Mapping[str, SimplexRef]]):
        self.arity = arity
        self.target = target
        self.object_map = tuple(object_map)
        self.assignments = {
            pair: dict(table) for pair, table in assignments.items()
        }
        self._sig = None

    def signature(self) -> tuple:
        if self._sig is None:
            self._sig = (
                self.arity,
                self.object_map,
                tuple(
                    (pair, tuple(sorted(
                        (c, r.sort_key()) for c, r in table.items()
                    )))
                    for pair, table in sorted(self.assignments.items())
                ),
            )
        return self._sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialFunctor):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def image(self, i: int, j: int, ref: SimplexRef) -> SimplexRef:
        """Image of any simplex of N P(i,j), degenerate or not."""
        h = self.target.hom(self.object_map[i], self.object_map[j])
        return h.apply(self.assignments[(i, j)][ref.cell], ref.epi)

    def hom_map(self, i: int, j: int) -> SimplicialMap:
        src = rigidify(self.arity).hom(i, j)
        tgt = self.target.hom(self.object_map[i], self.object_map[j])
        return SimplicialMap(src, tgt, self.assignments[(i, j)])


def _forced_value(tgt: SCat, objs: tuple, assignments: dict, i: int, j: int,
                  split: tuple[int, SimplexRef, SimplexRef]) -> SimplexRef:
    p, upper, lower = split
    fu = tgt.hom(objs[p], objs[j]).apply(assignments[(p, j)][upper.cell], upper.epi)
    fl = tgt.hom(objs[i], objs[p]).apply(assignments[(i, p)][lower.cell], lower.epi)
    return tgt.compose_refs(objs[i], objs[p], objs[j], fu, fl)


def enumerate_functors(k: int, d: SCat) -> list[SimplicialFunctor]:
    """All simplicial functors rigidify(k) -> d, each exactly once.

    For each object map, in ``itertools.product`` order, the cells of
    every hom are slots of :func:`~qckit.sset.depth_first`, in order of
    gap, dimension and chain.  A free cell's candidates are the target
    simplices whose faces are the values already chosen on its faces,
    read from ``faces_index`` in ``simplices`` order.  A forced cell has
    one candidate, computed from shorter gaps through the composition
    tables with the splits precomputed by ``_hom_slots``.  Functors come
    in the search's leaf order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k - 1 > d.level_cap:
        raise TruncationError(
            f"homs truncated at {d.level_cap}, too low for {k}-functors"
        )
    pairs = sorted(
        ((i, j) for i in range(k + 1) for j in range(i + 1, k + 1)),
        key=lambda ij: (ij[1] - ij[0], ij[0]),
    )
    slot_list = [
        (i, j) + slot for (i, j) in pairs for slot in _hom_slots(k, i, j)
    ]
    results: list[SimplicialFunctor] = []

    for objs in itertools.product(d.objects, repeat=k + 1):
        assignments: dict[tuple, dict[str, SimplexRef]] = {
            (i, i): {chain_cell_id([frozenset({i})]): nondeg_ref(d.identities[objs[i]], 0)}
            for i in range(k + 1)
        }
        for (i, j) in pairs:
            assignments[(i, j)] = {}

        def candidates(s: int):
            i, j, cid, m, faces, split = slot_list[s]
            if split is not None:
                return (_forced_value(d, objs, assignments, i, j, split),)
            h = d.hom(objs[i], objs[j])
            if m == 0:
                return h.simplices(0)
            table = assignments[(i, j)]
            return h.faces_index(m).get(tuple(table[c] for c in faces), ())

        slots = [(assignments[(i, j)], cid) for i, j, cid, *_ in slot_list]
        results.extend(SimplicialFunctor(k, d, objs, assignments)
                       for _ in depth_first(slots, candidates))
    return results


def precompose(f: SimplicialFunctor, op: MonotoneMap) -> SimplicialFunctor:
    """f composed with the rigidified op: a functor of op's source arity."""
    if op.target_arity != f.arity:
        raise TruncationError(
            f"operator into [{op.target_arity}] against arity {f.arity}"
        )
    l = op.source_arity
    objs = tuple(f.object_map[op(v)] for v in range(l + 1))
    assignments: dict[tuple, dict[str, SimplexRef]] = {}
    for pair, oi, oj, images in _image_chains(op):
        h = f.target.hom(f.object_map[oi], f.object_map[oj])
        table = f.assignments[(oi, oj)]
        assignments[pair] = {
            cid: h.apply(table[chain.cell], chain.epi) for cid, chain in images
        }
    return SimplicialFunctor(l, f.target, objs, assignments)


@lru_cache(maxsize=None)
def _image_chains(op: MonotoneMap) -> tuple:
    """For op: [l] -> [k], one entry ((i, j), op(i), op(j), images) per
    hom of rigidify(l); images pairs each nondegenerate chain of P(i,j)
    with the normal form of its direct image in P(op(i), op(j)).  It
    depends only on op, so precompose reads it instead of renormalizing
    for every functor."""
    l = op.source_arity
    src = rigidify(l)
    out = []
    for i in range(l + 1):
        for j in range(i, l + 1):
            images = tuple(
                (cid, normalize_chain([frozenset(op(v) for v in s)
                                       for s in chain_sets(cid)]))
                for m in range(max(j - i, 1))
                for cid in src.hom(i, j).nondegenerate(m)
            )
            out.append(((i, j), op(i), op(j), images))
    return tuple(out)


def rigidify_map(op: MonotoneMap) -> SimplicialFunctor:
    """The functor rigidify(l) -> rigidify(k) induced by op: [l] -> [k]."""
    return precompose(_identity_functor(op.target_arity), op)


@lru_cache(maxsize=None)
def _identity_functor(k: int) -> SimplicialFunctor:
    tgt = rigidify(k)
    assignments = {}
    for i in range(k + 1):
        for j in range(i, k + 1):
            table = {}
            for m in range(max(j - i, 1)):
                for cid in tgt.hom(i, j).nondegenerate(m):
                    table[cid] = nondeg_ref(cid, m)
            assignments[(i, j)] = table
    return SimplicialFunctor(k, tgt, tuple(range(k + 1)), assignments)


def validate_functor(f: SimplicialFunctor) -> ValidationReport:
    """Units, naturality of every hom assignment, and the composition
    squares F(b u a) = F(b) . F(a) levelwise on all pairs, compared as
    positions in the target homs through rigidify(k)'s union tables and
    the target's composition tables."""
    report = ValidationReport("SimplicialFunctor")
    k = f.arity
    src = rigidify(k)
    for i in range(k + 1):
        want = nondeg_ref(f.target.identities[f.object_map[i]], 0)
        if f.assignments[(i, i)][chain_cell_id([frozenset({i})])] != want:
            report.problems.append(f"identity at {i} not preserved")
    from .sset import validate_map

    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            sub = validate_map(f.hom_map(i, j))
            report.problems.extend(
                f"hom({i},{j}): {p}" for p in sub.problems
            )
    if report.problems:
        return report
    cap = min(src.level_cap, f.target.level_cap)
    objs = f.object_map
    # (i, j, m) -> the position in the target hom of each m-simplex's image
    images = {
        (i, j, m): [
            f.target.hom(objs[i], objs[j]).position(m)[f.image(i, j, s)]
            for s in src.hom(i, j).simplices(m)
        ]
        for i in range(k + 1)
        for j in range(i, k + 1)
        for m in range(cap + 1)
    }
    for i in range(k + 1):
        for j in range(i, k + 1):
            for p in range(j, k + 1):
                for m in range(cap + 1):
                    unions = src.comp[(i, j, p)].table(m)
                    comps = f.target.comp[(objs[i], objs[j], objs[p])].table(m)
                    f_ij, f_ip = images[i, j, m], images[i, p, m]
                    for b, fb, row in zip(src.hom(j, p).simplices(m),
                                          images[j, p, m], unions):
                        for a, fa, u in zip(src.hom(i, j).simplices(m), f_ij, row):
                            if f_ip[u] != comps[fb][fa]:
                                report.problems.append(
                                    f"composition square fails at level {m} on "
                                    f"({i},{j},{p}): {b.cell!r} over {a.cell!r}"
                                )
    return report


# -- the homotopy-coherent nerve --------------------------------------


class NerveSSet(FinSSet):
    """The coherent nerve with its catalogue of cell functors attached."""

    def __init__(self, truncation, cells, faces, functor_of):
        super().__init__(truncation, cells, faces)
        self.functor_of: dict[str, SimplicialFunctor] = functor_of

    def functor_of_ref(self, ref: SimplexRef) -> SimplicialFunctor:
        return precompose(self.functor_of[ref.cell], ref.epi)


def simplicial_nerve(d: SCat, dim: int) -> NerveSSet:
    """Level k cells are the k-functors; faces precompose with cofaces.

    The functors of each level, sorted by signature, go through
    :func:`materialize_presheaf`, which names the nondegenerate ones
    ``n{k}c{idx}`` in that order and normalizes every face.  Requires
    the homs of d to be truncated at least at dim - 1.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    if dim - 1 > d.level_cap:
        raise TruncationError(
            f"homs truncated at {d.level_cap} cannot support a dim-{dim} nerve"
        )
    levels = [
        sorted(enumerate_functors(k, d), key=SimplicialFunctor.signature)
        for k in range(dim + 1)
    ]
    counters = [itertools.count() for _ in levels]
    cells, faces, functor_of = materialize_presheaf(
        levels, precompose, lambda k, f: f"n{k}c{next(counters[k])}"
    )
    return NerveSSet(dim, cells, faces, functor_of)


# -- classification of low-dimensional nerve cells --------------------


@dataclass(frozen=True)
class EdgeData:
    v01: str


@dataclass(frozen=True)
class TriangleData:
    v01: str
    v12: str
    v02: str
    gamma: SimplexRef


@dataclass(frozen=True)
class TetrahedronData:
    v01: str
    v12: str
    v23: str
    gamma02: SimplexRef
    gamma13: SimplexRef
    edge1: SimplexRef
    edge2: SimplexRef
    edge3: SimplexRef
    tri_left: SimplexRef
    tri_right: SimplexRef


def _the_object(d: SCat):
    if len(d.objects) != 1:
        raise ValueError("classification works over a single-object target")
    return d.objects[0]


def classify_low_simplices(k: int, d: SCat) -> list:
    """Independent parametrizations of the k-cells, k <= 3, over a
    one-object target: vertices, connecting paths, and filling triangles,
    scanned directly from the hom simplicial set."""
    x = _the_object(d)
    h = d.hom(x, x)
    mul = lambda late, early: d.compose_refs(x, x, x, late, early)
    verts = [nondeg_ref(v, 0) for v in h.nondegenerate(0)]
    if k == 1:
        return [EdgeData(v.cell) for v in verts]
    ends = h.face_table(1)  # edge -> (target, source)
    by_target = h.faces_index(1, (0,))
    by_ends = h.faces_index(1)
    if k == 2:
        out = []
        for v01 in verts:
            for v12 in verts:
                for g in by_target.get((mul(v12, v01),), ()):
                    out.append(
                        TriangleData(v01.cell, v12.cell, ends[g][1].cell, g)
                    )
        return out
    if k != 3:
        raise ValueError("classification covers k in {1, 2, 3}")
    tri_by_faces = h.faces_index(2)
    out = []
    for v01 in verts:
        for v12 in verts:
            for v23 in verts:
                v012 = mul(v12, v01)
                v123 = mul(v23, v12)
                v0123 = mul(v23, v012)
                for g02 in by_target.get((v012,), ()):
                    s0v23 = h.apply(v23, degeneracy(0, 0))
                    f2 = mul(s0v23, g02)
                    for g13 in by_target.get((v123,), ()):
                        s0v01 = h.apply(v01, degeneracy(0, 0))
                        f1 = mul(g13, s0v01)
                        v013 = mul(ends[g13][1], v01)
                        v023 = mul(v23, ends[g02][1])
                        for e3 in by_target.get((v0123,), ()):
                            v03 = ends[e3][1]
                            for e1 in by_ends.get((v013, v03), ()):
                                for tl in tri_by_faces.get((f1, e3, e1), ()):
                                    for e2 in by_ends.get((v023, v03), ()):
                                        for tr in tri_by_faces.get((f2, e3, e2), ()):
                                            out.append(TetrahedronData(
                                                v01.cell, v12.cell, v23.cell,
                                                g02, g13, e1, e2, e3, tl, tr,
                                            ))
    return out


def classification_to_functor(k: int, d: SCat, data) -> SimplicialFunctor:
    """Rebuild the functor a classification tuple encodes."""
    x = _the_object(d)
    h = d.hom(x, x)
    objs = tuple(x for _ in range(k + 1))
    assignments: dict[tuple, dict[str, SimplexRef]] = {
        (i, i): {chain_cell_id([frozenset({i})]): nondeg_ref(d.identities[x], 0)}
        for i in range(k + 1)
    }
    bottom = lambda i, j: chain_cell_id([frozenset({i, j})])
    if k == 1:
        assignments[(0, 1)] = {bottom(0, 1): nondeg_ref(data.v01, 0)}
        return SimplicialFunctor(1, d, objs, assignments)
    ends = h.face_table(1)  # edge -> (target, source)
    if k == 2:
        assignments[(0, 1)] = {bottom(0, 1): nondeg_ref(data.v01, 0)}
        assignments[(1, 2)] = {bottom(1, 2): nondeg_ref(data.v12, 0)}
        table = {
            bottom(0, 2): ends[data.gamma][1],
            chain_cell_id([frozenset({0, 2}), frozenset({0, 1, 2})]): data.gamma,
        }
        v012 = chain_cell_id([frozenset({0, 1, 2})])
        table[v012] = ends[data.gamma][0]
        assignments[(0, 2)] = table
        return SimplicialFunctor(2, d, objs, assignments)
    if k != 3:
        raise ValueError("classification covers k in {1, 2, 3}")
    free_values = {
        (0, 1): {bottom(0, 1): nondeg_ref(data.v01, 0)},
        (1, 2): {bottom(1, 2): nondeg_ref(data.v12, 0)},
        (2, 3): {bottom(2, 3): nondeg_ref(data.v23, 0)},
        (0, 2): {
            bottom(0, 2): ends[data.gamma02][1],
            chain_cell_id([frozenset({0, 2}), frozenset({0, 1, 2})]): data.gamma02,
        },
        (1, 3): {
            bottom(1, 3): ends[data.gamma13][1],
            chain_cell_id([frozenset({1, 3}), frozenset({1, 2, 3})]): data.gamma13,
        },
        (0, 3): {
            bottom(0, 3): ends[data.edge3][1],
            chain_cell_id([frozenset({0, 3}), frozenset({0, 1, 3})]): data.edge1,
            chain_cell_id([frozenset({0, 3}), frozenset({0, 2, 3})]): data.edge2,
            chain_cell_id([frozenset({0, 3}), frozenset({0, 1, 2, 3})]): data.edge3,
            chain_cell_id([
                frozenset({0, 3}), frozenset({0, 1, 3}), frozenset({0, 1, 2, 3})
            ]): data.tri_left,
            chain_cell_id([
                frozenset({0, 3}), frozenset({0, 2, 3}), frozenset({0, 1, 2, 3})
            ]): data.tri_right,
        },
    }
    for pair, table in free_values.items():
        assignments[pair] = dict(table)
    for (i, j) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]:
        for (cid, _, _, split) in _hom_slots(3, i, j):
            if split is not None:
                assignments[(i, j)][cid] = _forced_value(
                    d, objs, assignments, i, j, split
                )
    return SimplicialFunctor(3, d, objs, assignments)


def functor_to_classification(f: SimplicialFunctor):
    """Inverse of classification_to_functor."""
    k = f.arity
    a = f.assignments
    bottom = lambda i, j: chain_cell_id([frozenset({i, j})])
    if k == 1:
        return EdgeData(a[(0, 1)][bottom(0, 1)].cell)
    if k == 2:
        gamma = a[(0, 2)][chain_cell_id([frozenset({0, 2}), frozenset({0, 1, 2})])]
        return TriangleData(
            a[(0, 1)][bottom(0, 1)].cell,
            a[(1, 2)][bottom(1, 2)].cell,
            a[(0, 2)][bottom(0, 2)].cell,
            gamma,
        )
    if k != 3:
        raise ValueError("classification covers k in {1, 2, 3}")
    c03 = a[(0, 3)]
    return TetrahedronData(
        a[(0, 1)][bottom(0, 1)].cell,
        a[(1, 2)][bottom(1, 2)].cell,
        a[(2, 3)][bottom(2, 3)].cell,
        a[(0, 2)][chain_cell_id([frozenset({0, 2}), frozenset({0, 1, 2})])],
        a[(1, 3)][chain_cell_id([frozenset({1, 3}), frozenset({1, 2, 3})])],
        c03[chain_cell_id([frozenset({0, 3}), frozenset({0, 1, 3})])],
        c03[chain_cell_id([frozenset({0, 3}), frozenset({0, 2, 3})])],
        c03[chain_cell_id([frozenset({0, 3}), frozenset({0, 1, 2, 3})])],
        c03[chain_cell_id([
            frozenset({0, 3}), frozenset({0, 1, 3}), frozenset({0, 1, 2, 3})
        ])],
        c03[chain_cell_id([
            frozenset({0, 3}), frozenset({0, 2, 3}), frozenset({0, 1, 2, 3})
        ])],
    )


# -- discrete enrichment ----------------------------------------------


def from_finite_category(
    objects: Iterable[Hashable],
    morphisms: Mapping[tuple, Iterable[str]],
    compose_fn,
    identities: Mapping[Hashable, str],
    truncation: int = 3,
) -> SCat:
    """A category with discrete homs: vertices are morphism names and all
    higher simplices are degenerate."""
    objects = tuple(objects)
    homs = {}
    for x in objects:
        for y in objects:
            ms = list(morphisms.get((x, y), ()))
            homs[(x, y)] = FinSSet(truncation, {0: ms}, {})
    for x in objects:
        if identities.get(x) not in homs[(x, x)].nondegenerate(0):
            raise ValueError(
                f"identity of {x!r} is not a listed ({x!r}, {x!r}) morphism"
            )

    def make_fn(x, y, z):
        def fn(level: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
            out = compose_fn(x, y, z, a.cell, b.cell)
            epi = MonotoneMap(level, 0, (0,) * (level + 1))
            return SimplexRef(epi, out)

        return fn

    comp = {
        (x, y, z): BilevelMap(
            homs[(y, z)], homs[(x, y)], homs[(x, z)], make_fn(x, y, z)
        )
        for x in objects
        for y in objects
        for z in objects
    }
    return SCat(objects, homs, dict(identities), comp)


# -- serialization ----------------------------------------------------


def scat_to_manifest(d: SCat, directory: str, stem: str = "scat") -> str:
    """Writes hom files plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    hom_files = {}
    for (x, y), h in d.homs.items():
        fname = f"{stem}_hom_{x}_{y}.json"
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(h.to_json_str())
        hom_files[f"{x}|{y}"] = fname
    comp_tables = {}
    for (x, y, z), bm in d.comp.items():
        levels = {}
        for m in range(d.level_cap + 1):
            levels[str(m)] = [
                [a.to_json(), b.to_json(), out.to_json()]
                for a, b, out in bm.level_table(m)
            ]
        comp_tables[f"{x}|{y}|{z}"] = levels
    manifest = {
        "objects": [str(x) for x in d.objects],
        "homs": hom_files,
        "identities": {str(x): v for x, v in d.identities.items()},
        "comp": comp_tables,
    }
    path = os.path.join(directory, f"{stem}.scat.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _manifest_key(section: str, key: str, parts: int) -> list[str]:
    names = key.split("|")
    if len(names) != parts:
        raise ValueError(
            f"{section!r} key {key!r} must be {parts} objects joined by '|'"
        )
    return names


def scat_from_manifest(path: str) -> SCat:
    with open(path) as fh:
        manifest = json.load(fh)
    directory = os.path.dirname(path)
    objects = manifest["objects"]
    if not (isinstance(objects, list) and all(isinstance(x, str) for x in objects)):
        raise ValueError("'objects' must be a list of strings")
    for key in ("homs", "comp", "identities"):
        if not isinstance(manifest[key], dict):
            raise ValueError(f"{key!r} must be an object")
    homs = {}
    dims = {}  # each hom's cell dimensions, to read the table entries
    for key, fname in manifest["homs"].items():
        x, y = _manifest_key("homs", key, 2)
        if not isinstance(fname, str):
            raise ValueError(f"'homs' entry {key!r} must be a file name")
        with open(os.path.join(directory, fname)) as fh:
            h = homs[(x, y)] = FinSSet.from_json(fh.read())
        dims[h] = {c: d for d in range(h.truncation + 1) for c in h.nondegenerate(d)}

    def ref_from(blob, hom_set, where):
        ref = SimplexRef.from_json(blob, dims[hom_set], f"{where}: entry {blob!r}")
        if ref.cell not in dims[hom_set]:
            raise ValueError(f"{where}: unknown cell {ref.cell!r}")
        return ref

    # every level SCat keeps must list every pair
    level_cap = shared_level_cap(homs.values())
    comp = {}
    for key, levels in manifest["comp"].items():
        if not isinstance(levels, dict):
            raise ValueError(f"'comp' entry {key!r} must be an object")
        x, y, z = _manifest_key("comp", key, 3)
        for pair in ((y, z), (x, y), (x, z)):
            if pair not in homs:
                raise ValueError(
                    f"'comp' key {key!r} needs the hom {'|'.join(pair)!r}, "
                    f"which 'homs' does not list"
                )
        ends = (homs[(y, z)], homs[(x, y)], homs[(x, z)])
        table = {}
        for m_str, rows in levels.items():
            where = f"'comp' entry {key!r} level {m_str!r}"
            try:
                m = int(m_str)
            except ValueError:
                raise ValueError(f"{where}: the level is not a dimension")
            if not isinstance(rows, list):
                raise ValueError(f"{where} must be a list of rows")
            for row in rows:
                if not (isinstance(row, list) and len(row) == 3):
                    raise ValueError(f"{where}: row {row!r} is not a triple")
                a, b, out = (ref_from(e, h, where) for e, h in zip(row, ends))
                table[(m, a.sort_key(), b.sort_key())] = out
        for m in range(level_cap + 1):
            for a, b in itertools.product(ends[0].simplices(m), ends[1].simplices(m)):
                if (m, a.sort_key(), b.sort_key()) not in table:
                    raise ValueError(
                        f"'comp' entry {key!r} level {m} has no row for "
                        f"({a.cell!r}.{a.epi.values}, {b.cell!r}.{b.epi.values})"
                    )

        def make_fn(tbl):
            def fn(level, a, b):
                return tbl[(level, a.sort_key(), b.sort_key())]

            return fn

        comp[(x, y, z)] = BilevelMap(*ends, make_fn(table))
    for x, v in manifest["identities"].items():
        if not isinstance(v, str):
            raise ValueError(f"'identities' entry {x!r} must be a cell name, got {v!r}")
    return SCat(objects, homs, manifest["identities"], comp)
