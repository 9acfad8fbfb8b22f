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
chain-keyed view of a whole functor: refs appear only where one field
is read back by the classification.  Truncation is strict:
``_check_level_cap`` is the one check that k-functors find the target's
homs to level k - 1, for :func:`enumerate_functors`, :func:`precompose`
and :func:`simplicial_nerve`.

Free versus forced cells: a nondegenerate chain of P(i,j) whose least
element is the bottom {i, j} is free; any other chain has an interior
point in every entry and splits as a union of two shorter chains, so a
functor's value on it is forced by composition (the necklace
description of Dugger-Spivak).  Both kinds are looked up by position:
a free cell's candidates in the target hom's
:meth:`FinSSet.position_index` under the positions on its faces, and a
forced cell's value by two kept action tables, which take its halves'
positions to its level, and one read of the composition table there.
A free cell that would be guessed before the free cell above it, which
fixes it, is read off that cell's value instead (:func:`_derive`).
:func:`precompose` gathers positions through a plan kept per operator,
and the signature ranks each position in ``sort_key`` order, so the
nerve's cell order is that of the chain-keyed values.

The low-simplex classification reads one field table, ``_FIELD_CHAINS``:
each field of an edge, triangle or tetrahedron tuple is the value on one
free chain.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from . import Frozen
from .ordinals import MonotoneMap, epis_onto, face
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
    TruncationError,
    ValidationReport,
    associativity_failures,
    depth_first,
    materialize_presheaf,
    nondeg_ref,
    unit_failures,
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


def _reads(slot: tuple) -> tuple:
    """The entries a layout slot reads: its faces, or its split's halves."""
    _, _, faces, split = slot
    return faces if split is None else (split[3], split[5])


def _fail_first(slots: list, units: set) -> tuple:
    """``slots`` with each forced one, and each free one with more than
    two faces, moved up to right after the slot that sets the last entry
    it reads (``units`` are set before any slot); the rest keep their
    order.  A moved slot sorts by its latest read's key, then its own."""
    key = dict.fromkeys(units, (-1,))
    for b, slot in enumerate(slots):
        e, _, faces, split = slot
        moved = split is not None or len(faces) > 2
        key[e] = max(key[r] for r in _reads(slot)) + (b,) if moved else (b,)
    return tuple(sorted(slots, key=lambda s: key[s[0]]))


@lru_cache(maxsize=None)
def _derive(k: int) -> tuple[tuple, dict]:
    """The search's slot order: :func:`_layout`'s fail-first slots with
    guessed cells read off the cell above them, and the derived cells.

    A free slot T of dimension m >= 1, taken in slot order, derives its
    face j when that face S is a free slot, neither derived nor deriving,
    and no slot between S and T reads it; T derives no other face.  S
    then moves to right after T: T is keyed by its other faces, and S is
    read off T's value by the face table.  S's own faces still hold, as
    each is a face of one of T's keyed faces (d_i d_j = d_{j-1} d_i).
    ``derived`` maps S's entry to (T's entry, j)."""
    slots = _layout(k)[2]
    order = list(slots)
    free = {e for e, _, _, split in slots if split is None}
    derived: dict[int, tuple[int, int]] = {}
    sources: set[int] = set()
    for e, m, faces, split in slots:
        if split is not None or m == 0:
            continue
        t = next(b for b, slot in enumerate(order) if slot[0] == e)
        for j, f in enumerate(faces):
            if f not in free or f in derived or f in sources:
                continue
            b = next(b for b, slot in enumerate(order) if slot[0] == f)
            if any(f in _reads(slot) for slot in order[b + 1:t]):
                continue
            derived[f] = (e, j)
            sources.add(e)
            order.insert(t, order.pop(b))
            break
    return tuple(order), derived


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
        """Per slot of :func:`_derive`'s order: (entry, the hom's
        ``position_index`` on the faces it keys, those faces, None) for a
        free cell; (entry, None, (source,), its face table) for a derived
        one; or (entry, None, (), (upper, act, lower, act, table)) for a
        forced one: the acts take each half's position to the cell's
        level, where ``table`` composes them."""
        if self._steps is None:
            homs, objs = self.homs, self.objs
            order, derived = _derive(self.k)
            skip = dict(derived.values())
            self._steps = []
            for e, m, faces, split in order:
                if e in derived:
                    t, j = derived[e]
                    step = (e, None, (t,), homs[t].action(face(m + 1, j)))
                elif split is None:
                    at = [i for i in range(len(faces)) if i != skip.get(e)]
                    step = (e, homs[e].position_index(m, at), tuple([faces[i] for i in at]), None)
                else:
                    step = (e, None, (), (
                        split[3], homs[split[3]].action(split[4]),
                        split[5], homs[split[5]].action(split[6]),
                        self.d.comp[tuple(objs[v] for v in split[:3])].table(m)))
                self._steps.append(step)
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
    whose keyed faces a free cell's faces hold, a derived cell's face of
    its source, or a forced cell's composite."""
    _, index, reads, how = step
    if index is not None:
        return index.get(tuple([vals[f] for f in reads]), ())
    if reads:
        return (how[vals[reads[0]]],)
    upper, up_act, lower, low_act, table = how
    return (table[up_act[vals[upper]]][low_act[vals[lower]]],)


class SimplicialFunctor:
    """A functor from rigidify(arity) to target: its object map and its
    code, one entry per nondegenerate chain of rigidify(arity) in the
    layout of :func:`_layout`, each the position of the chain's value in
    its target hom's ``simplices``; the one constructor.  A functor
    built by hand may hold a ref where its value is off its hom, which
    :func:`functor_to_classification` reads back as it is.  Functors are
    equal when their object maps and codes are."""

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


def _check_level_cap(d: SCat, k: int) -> None:
    """The one level cap: k-functors need d's homs to level k - 1."""
    if k - 1 > d.level_cap:
        raise TruncationError(f"homs truncated at {d.level_cap}, too low for {k}-functors")


def _codes(frame: _Frame) -> list[tuple]:
    """The one search: the code of every functor with frame's object
    map, in the leaf order of :func:`_layout`'s fail-first slots.  The
    cells of every hom are slots of :func:`~qckit.sset.depth_first`, in
    :func:`_derive`'s order, and each takes a position in its target
    hom.  A free cell's candidates are read from the hom's
    ``position_index`` under the positions already chosen on its keyed
    faces, in ``simplices`` order.  A derived cell has one candidate, its
    source's value under the source's face table.  A forced cell has one
    candidate: two kept action tables take its halves' positions to its
    level, and the composition table there composes them.  Deriving
    reaches the same leaves, and a stable sort by the free cells'
    positions in fail-first order puts any it reorders back."""
    steps, vals = frame.steps(), frame.units()
    size = len(frame.homs)
    candidates = lambda s: _candidates(steps[s], vals)
    codes = [tuple([vals[e] for e in range(size)])
             for _ in depth_first([(vals, step[0]) for step in steps], candidates)]
    if _derive(frame.k)[1]:
        codes.sort(key=itemgetter(*[e for e, _, _, split in _layout(frame.k)[2] if split is None]))
    return codes


def enumerate_functors(k: int, d: SCat) -> list[SimplicialFunctor]:
    """All simplicial functors rigidify(k) -> d, each exactly once: for
    each object map, in ``itertools.product`` order, the codes of
    :func:`_codes`, in the leaf order of the un-derived fail-first
    search."""
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
    return SimplicialFunctor(op.source_arity, f.target, *_pull(f.target, (f.object_map, f.code), op))


def _pull(d: SCat, value: tuple, op: MonotoneMap) -> tuple:
    """The (object map, code) of a functor into d given as ``value``,
    precomposed with op through the frame's plan of op."""
    objs, code = value
    plan = _frame(d, len(objs) - 1, objs).plan(op)
    return tuple([objs[v] for v in op.values]), tuple([act[code[e]] for e, act in plan])


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
    :func:`materialize_presheaf` as plain (object map, code) pairs,
    precomposed through the frames' plans; it names the nondegenerate
    ones ``n{k}c{idx}`` in that order and normalizes every face.  Each
    cell's functor is built once at the end.  Requires the homs of d to
    be truncated at least at dim - 1.
    """
    _check_level_cap(d, dim)
    levels = [
        [(f.object_map, f.code)
         for f in sorted(enumerate_functors(k, d), key=SimplicialFunctor.signature)]
        for k in range(dim + 1)
    ]
    counters = [itertools.count() for _ in levels]
    cells, faces, value_of = materialize_presheaf(
        levels, lambda v, op: _pull(d, v, op), lambda k, v: f"n{k}c{next(counters[k])}"
    )
    functor_of = {
        cid: SimplicialFunctor(len(objs) - 1, d, objs, code)
        for cid, (objs, code) in value_of.items()
    }
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


def functor_to_classification(f: SimplicialFunctor):
    """The classification tuple of a k-functor, k in {1, 2, 3}: each
    field read off its chain's code entry."""
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


# -- serialization ----------------------------------------------------


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

    epis: dict[tuple, MonotoneMap] = {}

    def ref_from(blob, hom_set, where):
        ref = SimplexRef.from_json(
            blob, dims[hom_set], f"{where}: entry {blob!r}", epis)
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
        if (x, x) not in homs:
            raise ValueError(
                f"'identities' entry {x!r} needs the hom {f'{x}|{x}'!r}, "
                f"which 'homs' does not list"
            )
        if not isinstance(v, str):
            raise ValueError(f"'identities' entry {x!r} must be a cell name, got {v!r}")
    return SCat(objects, homs, manifest["identities"], comp)
