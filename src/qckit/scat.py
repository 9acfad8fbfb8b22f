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

A functor is stored as its object map and a code: per nondegenerate
chain of rigidify(k), in a fixed layout, the position of the chain's
value in its target hom's ``simplices``, given to the one constructor
``SimplicialFunctor(arity, target, object_map, code)``.  There is no
chain-keyed view of a whole functor: refs appear only where one pair is
read back by ``hom_map`` or one field by the classification.  Truncation
is strict: ``_check_level_cap`` is the one check that k-functors find
the target's homs to level k - 1, for :func:`enumerate_functors`,
:func:`precompose` and :func:`simplicial_nerve`.

Free versus forced cells: a nondegenerate chain of P(i,j) whose least
element is the bottom {i, j} is free; any other chain has an interior
point in every entry and splits as a union of two shorter chains, so a
functor's value on it is forced by composition (the necklace
description of Dugger-Spivak).  Both kinds are looked up by position:
a free cell's candidates in the target hom's
:meth:`FinSSet.position_index` under the positions on its faces, and a
forced cell's value by two kept action tables, which take its halves'
positions to its level, and one read of the composition table there.
:func:`precompose` gathers positions through a plan kept per operator,
and the signature ranks each position in ``sort_key`` order, so the
nerve's cell order is that of the chain-keyed values.

The low-simplex classification reads one field table, ``_FIELD_CHAINS``:
each field of an edge, triangle or tetrahedron tuple is the value on one
free chain, and a tuple rebuilds its functor through the enumeration
search with those chains held fixed.
"""

from __future__ import annotations

import itertools
import json
import os
from functools import lru_cache
from typing import Hashable, Iterable, Mapping

from . import Frozen
from .ordinals import MonotoneMap, degeneracy, epis_onto, face
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
    associativity_failures,
    depth_first,
    materialize_presheaf,
    nondeg_ref,
    unit_failures,
    validate,
    validate_bilevel,
    validate_map,
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
        self._frames: dict[tuple, _Frame] = {}  # (arity, object map) -> frame

    def hom(self, x, y) -> FinSSet:
        return self.homs[(x, y)]

    def identity_ref(self, x, level: int = 0) -> SimplexRef:
        """The level-fold degenerate simplex on the identity vertex."""
        v = self.identities[x]
        return SimplexRef(epis_onto(level, 0)[0], v)


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
                for i, left, right in unit_failures(
                        tables[(x, y, y)][m][jy], tables[(x, x, y)][m], jx):
                    where = f"at level {m} on ({x!r},{y!r}): {h.simplices(m)[i].cell!r}"
                    if left:
                        report.problems.append(f"left unit law fails {where}")
                    if right:
                        report.problems.append(f"right unit law fails {where}")
    for w, x, y, z in itertools.product(d.objects, repeat=4):
        for m in range(cap + 1):
            report.problems.extend(
                f"associativity fails at level {m} on ({w!r},{x!r},{y!r},{z!r})"
                for _ in associativity_failures(
                    tables[(x, y, z)][m], tables[(w, x, y)][m],
                    tables[(w, x, z)][m], tables[(w, y, z)][m])
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
def _layout(k: int) -> tuple[tuple, dict, tuple]:
    """The code layout of k-functors, its index and the search's slots.

    The layout lists ((i, j), chain, dim) for every nondegenerate chain
    of rigidify(k), pairs in order and chains by id within a pair, so
    that codes ranked in ``sort_key`` order sort as chain-keyed
    assignments would; the index maps (pair, chain) to its entry.  The
    slots are the cells the search fills: (entry, dim, faces, split).  A
    free cell starts at the bottom {i,j}, ``faces`` are its face cells'
    entries and ``split`` is None.  A forced cell has ``split`` = (i, p,
    j, upper, its epi, lower, its epi): p is the least interior point of
    its first set, and the chain cut to P(p,j) and P(i,p) has those
    entries and epis as normal forms.  Slots go by gap, dimension and
    chain, but fail-first (Haralick-Elliott): a forced slot, or a free one
    with more than two faces, as soon as every entry it reads is set.
    """
    src = rigidify(k)
    entries = tuple(
        ((i, j), cid, m)
        for i in range(k + 1)
        for j in range(i, k + 1)
        for cid, m in sorted((c, m) for m in range(max(j - i, 1))
                             for c in src.hom(i, j).nondegenerate(m))
    )
    index = {(pair, cid): e for e, (pair, cid, _) in enumerate(entries)}
    slots = []
    for i, j in sorted(((i, j) for i in range(k + 1) for j in range(i + 1, k + 1)),
                       key=lambda ij: (ij[1] - ij[0], ij[0])):
        for m in range(j - i):
            for cid in src.hom(i, j).nondegenerate(m):
                sets = chain_sets(cid)
                interior = sorted(sets[0] - {i, j})
                if not interior:
                    faces = tuple(index[(i, j), r.cell]
                                  for r in src.hom(i, j).face_entries(cid))
                    slots.append((index[(i, j), cid], m, faces, None))
                    continue
                p = interior[0]
                upper = normalize_chain([s & frozenset(range(p, j + 1)) for s in sets])
                lower = normalize_chain([s & frozenset(range(i, p + 1)) for s in sets])
                slots.append((index[(i, j), cid], m, (), (
                    i, p, j, index[(p, j), upper.cell], upper.epi,
                    index[(i, p), lower.cell], lower.epi)))
    units = {e for e, ((i, j), _, _) in enumerate(entries) if i == j}
    return entries, index, _fail_first(slots, units)


def _fail_first(slots: list, units: set) -> tuple:
    """``slots`` with each forced one, and each free one with more than
    two faces, moved up to right after the slot that sets the last entry
    it reads (``units`` are set before any slot); the rest keep their
    order.  A moved slot sorts by its latest read's key, then its own."""
    key = dict.fromkeys(units, (-1,))
    for b, (e, _, faces, split) in enumerate(slots):
        reads = faces if split is None else (split[3], split[5])
        moved = split is not None or len(faces) > 2
        key[e] = max(key[r] for r in reads) + (b,) if moved else (b,)
    return tuple(sorted(slots, key=lambda s: key[s[0]]))


class _Frame:
    """The target side of the k-functors with one object map, as
    position tables: the hom of each code entry and, kept from first
    use, the search's steps, the sort ranks and a precompose plan per
    operator."""

    def __init__(self, d: SCat, k: int, objs: tuple):
        self.d, self.k, self.objs = d, k, objs
        self.homs = tuple(d.hom(objs[i], objs[j]) for (i, j), _, _ in _layout(k)[0])
        self._steps = self._ranks = None
        self._plans: dict[MonotoneMap, tuple] = {}

    def units(self) -> dict[int, int]:
        """A fresh table holding each hom (i, i)'s identity vertex."""
        return {
            e: self.homs[e].position(0)[nondeg_ref(self.d.identities[self.objs[i]], 0)]
            for e, ((i, j), _, _) in enumerate(_layout(self.k)[0]) if i == j
        }

    def steps(self) -> list[tuple]:
        """Per slot: (entry, the hom's ``position_index``, faces, None)
        for a free cell, or (entry, None, (), (upper, act, lower, act,
        table)) for a forced one: the acts take each half's position to
        the cell's level, where ``table`` composes them."""
        if self._steps is None:
            homs, objs = self.homs, self.objs
            self._steps = [
                (e, homs[e].position_index(m, range(len(faces))), faces, None)
                if split is None else
                (e, None, (), (split[3], homs[split[3]].action(split[4]),
                               split[5], homs[split[5]].action(split[6]),
                               self.d.comp[tuple(objs[v] for v in split[:3])].table(m)))
                for e, m, faces, split in _layout(self.k)[2]
            ]
        return self._steps

    def ranks(self) -> tuple:
        """Per code entry, each position's rank in ``sort_key`` order."""
        if self._ranks is None:
            by: dict[tuple, list[int]] = {}
            keys = [(h, m) for (_, _, m), h in zip(_layout(self.k)[0], self.homs)]
            for h, m in keys:
                if (h, m) not in by:
                    sims = h.simplices(m)
                    order = sorted(range(len(sims)), key=lambda p: sims[p].sort_key())
                    by[h, m] = [0] * len(sims)
                    for r, p in enumerate(order):
                        by[h, m][p] = r
            self._ranks = tuple(by[key] for key in keys)
        return self._ranks

    def plan(self, op: MonotoneMap) -> tuple:
        """Per entry of op's source layout: the entry of its image chain
        and the table taking that entry's value to the chain's level."""
        plan = self._plans.get(op)
        if plan is None:
            plan = self._plans[op] = tuple(
                (e, self.homs[e].action(epi)) for e, epi in _image_chains(op))
        return plan


def _frame(d: SCat, k: int, objs: tuple) -> _Frame:
    frame = d._frames.get((k, objs))
    if frame is None:
        frame = d._frames[(k, objs)] = _Frame(d, k, objs)
    return frame


def _ref(h: FinSSet, m: int, v):
    """The m-simplex of h behind code value v: its position read back,
    or v itself where the code kept a ref."""
    return h.simplices(m)[v] if type(v) is int else v


def _candidates(step: tuple, vals: dict):
    """A slot's values once the slots before it are set: the simplices
    whose faces a free cell's faces hold, or a forced cell's composite."""
    _, index, faces, forced = step
    if forced is None:
        return index.get(tuple([vals[f] for f in faces]), ())
    upper, up_act, lower, low_act, table = forced
    return (table[up_act[vals[upper]]][low_act[vals[lower]]],)


class SimplicialFunctor:
    """A functor from rigidify(arity) to target: its object map and its
    code, one entry per nondegenerate chain of rigidify(arity) in the
    layout of :func:`_layout`, each the position of the chain's value in
    its target hom's ``simplices``; the one constructor.  A functor
    built by hand may hold a ref where its value is off its hom, so
    that :func:`validate_functor` can name it.  :meth:`hom_map` reads a
    pair's entries back as refs.  Functors are equal when their object
    maps and codes are."""

    __slots__ = ("arity", "target", "object_map", "code")

    def __init__(self, arity: int, target: SCat, object_map: tuple, code: tuple):
        self.arity, self.target, self.object_map, self.code = arity, target, object_map, code

    def signature(self) -> tuple:
        """The sort key of the nerve's cell order: the object map, then
        each code entry's rank in ``sort_key`` order."""
        ranks = _frame(self.target, self.arity, self.object_map).ranks()
        return self.object_map, tuple([r[v] for r, v in zip(ranks, self.code)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialFunctor):
            return NotImplemented
        return self.object_map == other.object_map and self.code == other.code

    def __hash__(self):
        return hash((self.object_map, self.code))

    def hom_map(self, i: int, j: int) -> SimplicialMap:
        """The hom (i, j) part, read off that pair's code entries only."""
        src = rigidify(self.arity).hom(i, j)
        tgt = self.target.hom(self.object_map[i], self.object_map[j])
        homs = _frame(self.target, self.arity, self.object_map).homs
        return SimplicialMap(src, tgt, {
            cid: _ref(h, m, v)
            for (pair, cid, m), h, v in zip(_layout(self.arity)[0], homs, self.code)
            if pair == (i, j) and v is not None
        })


def _check_level_cap(d: SCat, k: int) -> None:
    """The one level cap: k-functors need d's homs to level k - 1."""
    if k - 1 > d.level_cap:
        raise TruncationError(f"homs truncated at {d.level_cap}, too low for {k}-functors")


def _codes(frame: _Frame, fixed: Mapping[int, int] | None = None):
    """The one search: yields the code of every functor with frame's
    object map, in the search's leaf order.  The cells of every hom are
    slots of :func:`~qckit.sset.depth_first`, in :func:`_layout`'s
    fail-first order, and each takes a position in its target hom.  A free
    cell's candidates are read from the hom's ``position_index`` under
    the positions already chosen on its faces, in ``simplices`` order.
    A forced cell has one candidate: two kept action tables take its
    halves' positions to its level, and the composition table there
    composes them.  An entry in ``fixed`` keeps only its given position,
    where its slot lists it."""
    steps, vals = frame.steps(), frame.units()
    size = len(frame.homs)
    candidates = lambda s: _candidates(steps[s], vals)
    if fixed:
        listed = candidates
        candidates = lambda s: [v for v in listed(s) if fixed.get(steps[s][0], v) == v]
    for _ in depth_first([(vals, step[0]) for step in steps], candidates):
        yield tuple([vals[e] for e in range(size)])


def enumerate_functors(k: int, d: SCat) -> list[SimplicialFunctor]:
    """All simplicial functors rigidify(k) -> d, each exactly once: for
    each object map, in ``itertools.product`` order, the codes of
    :func:`_codes` with nothing fixed."""
    _check_level_cap(d, k)
    return [
        SimplicialFunctor(k, d, objs, code)
        for objs in itertools.product(d.objects, repeat=k + 1)
        for code in _codes(_frame(d, k, objs))
    ]


def precompose(f: SimplicialFunctor, op: MonotoneMap) -> SimplicialFunctor:
    """f composed with the rigidified op: a functor of op's source arity.
    Its code gathers f's positions through the plan of op kept for f's
    target and object map.  Above the target's level cap it raises, as
    :func:`enumerate_functors` does."""
    if op.target_arity != f.arity:
        raise TruncationError(
            f"operator into [{op.target_arity}] against arity {f.arity}"
        )
    _check_level_cap(f.target, op.source_arity)
    code = f.code
    plan = _frame(f.target, f.arity, f.object_map).plan(op)
    return SimplicialFunctor(
        op.source_arity, f.target, tuple([f.object_map[v] for v in op.values]),
        tuple([act[code[e]] for e, act in plan]),
    )


@lru_cache(maxsize=None)
def _image_chains(op: MonotoneMap) -> tuple:
    """For op: [l] -> [k], per entry of the l-layout: the k-layout entry
    and the epi of the normal form of the chain's direct image."""
    _, index, _ = _layout(op.target_arity)
    out = []
    for (i, j), cid, _ in _layout(op.source_arity)[0]:
        img = normalize_chain([frozenset(op(v) for v in s) for s in chain_sets(cid)])
        out.append((index[(op(i), op(j)), img.cell], img.epi))
    return tuple(out)


def validate_functor(f: SimplicialFunctor) -> ValidationReport:
    """Units, naturality of every hom assignment, and the composition
    squares F(b u a) = F(b) . F(a) levelwise on all pairs, compared as
    positions in the target homs through rigidify(k)'s union tables and
    the target's composition tables."""
    report = ValidationReport("SimplicialFunctor")
    k = f.arity
    src = rigidify(k)
    maps = {(i, j): f.hom_map(i, j) for i in range(k + 1) for j in range(i, k + 1)}
    for i in range(k + 1):
        want = nondeg_ref(f.target.identities[f.object_map[i]], 0)
        if maps[i, i].assignment[chain_cell_id([frozenset({i})])] != want:
            report.problems.append(f"identity at {i} not preserved")
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            sub = validate_map(maps[i, j])
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
            fm.target.position(m)[fm.image(s)] for s in fm.source.simplices(m)
        ]
        for (i, j), fm in maps.items()
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
    _check_level_cap(d, dim)
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


# the v fields name vertices, the rest are SimplexRefs
class EdgeData(Frozen):
    _fields = ("v01",)


class TriangleData(Frozen):
    _fields = ("v01", "v12", "v02", "gamma")


class TetrahedronData(Frozen):
    _fields = ("v01", "v12", "v23", "gamma02", "gamma13",
               "edge1", "edge2", "edge3", "tri_left", "tri_right")


def _the_object(d: SCat):
    if len(d.objects) != 1:
        raise ValueError("classification works over a single-object target")
    return d.objects[0]


def _chain(*sets: tuple) -> tuple:
    """(hom, chain id, whether it is a vertex) of the chain of ``sets``."""
    pair = (min(sets[0]), max(sets[0]))
    return pair, chain_cell_id([frozenset(s) for s in sets]), len(sets) == 1


# For k in {1, 2, 3}: the classification type and, field by field in
# the order of its _fields, the free chain of rigidify(k) whose value
# the field records.  A field on a one-set chain records a vertex by its
# cell name.
_FIELD_CHAINS = {
    1: (EdgeData, (_chain((0, 1)),)),
    2: (TriangleData, (_chain((0, 1)), _chain((1, 2)), _chain((0, 2)),
                       _chain((0, 2), (0, 1, 2)))),
    3: (TetrahedronData, (
        _chain((0, 1)), _chain((1, 2)), _chain((2, 3)),
        _chain((0, 2), (0, 1, 2)), _chain((1, 3), (1, 2, 3)),
        _chain((0, 3), (0, 1, 3)), _chain((0, 3), (0, 2, 3)),
        _chain((0, 3), (0, 1, 2, 3)),
        _chain((0, 3), (0, 1, 3), (0, 1, 2, 3)), _chain((0, 3), (0, 2, 3), (0, 1, 2, 3)),
    )),
}


def _field_table(k: int) -> tuple:
    if k not in _FIELD_CHAINS:
        raise ValueError("classification covers k in {1, 2, 3}")
    return _FIELD_CHAINS[k]


def classify_low_simplices(k: int, d: SCat) -> list:
    """Independent parametrizations of the k-cells, k <= 3, over a
    one-object target: vertices, connecting paths, and filling triangles,
    scanned directly from the hom simplicial set by position, through
    its ``position_index``, its kept action tables and the composition
    tables."""
    x = _the_object(d)
    _field_table(k)
    h = d.hom(x, x)
    names = h.nondegenerate(0)  # the vertices, by position
    if k == 1:
        return [EdgeData(v) for v in names]
    mul0 = d.comp[(x, x, x)].table(0)  # mul0[later][earlier]
    src = h.action(face(1, 1))  # edge -> its source vertex
    by_target = h.position_index(1, (0,))
    edges = h.simplices(1)
    verts = range(len(names))
    if k == 2:
        return [
            TriangleData(names[v01], names[v12], names[src[g]], edges[g])
            for v01 in verts for v12 in verts
            for g in by_target.get((mul0[v12][v01],), ())
        ]
    mul1 = d.comp[(x, x, x)].table(1)
    s0 = h.action(degeneracy(0, 0))
    by_ends = h.position_index(1)
    tri_by_faces = h.position_index(2)
    tris = h.simplices(2)
    out = []
    for v01, v12, v23 in itertools.product(verts, repeat=3):
        v012 = mul0[v12][v01]
        v123 = mul0[v23][v12]
        v0123 = mul0[v23][v012]
        for g02 in by_target.get((v012,), ()):
            f2 = mul1[s0[v23]][g02]
            for g13 in by_target.get((v123,), ()):
                f1 = mul1[g13][s0[v01]]
                v013 = mul0[src[g13]][v01]
                v023 = mul0[v23][src[g02]]
                for e3 in by_target.get((v0123,), ()):
                    v03 = src[e3]
                    for e1 in by_ends.get((v013, v03), ()):
                        for tl in tri_by_faces.get((f1, e3, e1), ()):
                            for e2 in by_ends.get((v023, v03), ()):
                                for tr in tri_by_faces.get((f2, e3, e2), ()):
                                    out.append(TetrahedronData(
                                        names[v01], names[v12], names[v23],
                                        edges[g02], edges[g13], edges[e1],
                                        edges[e2], edges[e3], tris[tl], tris[tr],
                                    ))
    return out


def classification_to_functor(k: int, d: SCat, data) -> SimplicialFunctor:
    """Rebuild the functor a classification tuple encodes: the search of
    :func:`enumerate_functors` with each field's chain held at the
    field's value, whose one leaf it is.  A tuple that classifies no
    k-cell raises ValueError naming it."""
    x = _the_object(d)
    kind, fields = _field_table(k)
    if not isinstance(data, kind):
        raise TypeError(f"{k}-cells are classified by {kind.__name__}, not {data!r}")
    objs = (x,) * (k + 1)
    h = d.hom(x, x)
    entries, index, _ = _layout(k)
    fixed = {}
    for (pair, cid, vertex), value in zip(fields, data._values()):
        e = index[pair, cid]
        fixed[e] = h.position(entries[e][2]).get(nondeg_ref(value, 0) if vertex else value)
    for code in _codes(_frame(d, k, objs), fixed):
        return SimplicialFunctor(k, d, objs, code)
    raise ValueError(f"{data!r} classifies no {k}-cell")


def functor_to_classification(f: SimplicialFunctor):
    """Inverse of classification_to_functor: each field read off its
    chain's code entry."""
    kind, fields = _field_table(f.arity)
    entries, index, _ = _layout(f.arity)
    homs = _frame(f.target, f.arity, f.object_map).homs
    values = []
    for pair, cid, vertex in fields:
        e = index[pair, cid]
        ref = _ref(homs[e], entries[e][2], f.code[e])
        if ref is None:
            raise KeyError(f"no value on chain {cid!r} of hom {pair}")
        values.append(ref.cell if vertex else ref)
    return kind(*values)


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
            return SimplexRef(epis_onto(level, 0)[0], compose_fn(x, y, z, a.cell, b.cell))

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
            zs = bm.target.simplices(m)
            levels[str(m)] = [
                [a.to_json(), b.to_json(), zs[t].to_json()]
                for a, row in zip(bm.x.simplices(m), bm.table(m))
                for b, t in zip(bm.y.simplices(m), row)
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


def _manifest_key(section: str, key: str, parts: int, objects: list) -> list[str]:
    names = key.split("|")
    if len(names) != parts:
        raise ValueError(
            f"{section!r} key {key!r} must be {parts} objects joined by '|'"
        )
    for x in names:
        if x not in objects:
            raise ValueError(
                f"{section!r} key {key!r} names {x!r}, which 'objects' does not list"
            )
    return names


def scat_from_manifest(path: str) -> SCat:
    with open(path) as fh:
        manifest = json.load(fh)
    return scat_from_manifest_json(manifest, os.path.dirname(path))


def scat_from_manifest_json(manifest: dict, directory: str) -> SCat:
    """Reads a parsed manifest; its hom files are named relative to
    ``directory``.  A malformed spot raises KeyError, TypeError or
    ValueError naming it."""
    objects = manifest["objects"]
    if not (isinstance(objects, list) and all(isinstance(x, str) for x in objects)):
        raise ValueError("'objects' must be a list of strings")
    for i, x in enumerate(objects):
        if x in objects[:i]:
            raise ValueError(f"'objects': object {x!r} is listed twice")
    for key in ("homs", "comp", "identities"):
        if not isinstance(manifest[key], dict):
            raise ValueError(f"{key!r} must be an object")
    homs = {}
    dims = {}  # each hom's cell dimensions, to read the table entries
    for key, fname in manifest["homs"].items():
        x, y = _manifest_key("homs", key, 2, objects)
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
        x, y, z = _manifest_key("comp", key, 3, objects)
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
        _manifest_key("identities", x, 1, objects)
        if not isinstance(v, str):
            raise ValueError(f"'identities' entry {x!r} must be a cell name, got {v!r}")
    return SCat(objects, homs, manifest["identities"], comp)
