"""Finite posets, their nerves, and the mapping posets used to enrich
rigidified simplices.

The mapping poset P(i, j) consists of the subsets of the integer
interval {i, ..., j} that contain both endpoints, ordered by inclusion;
it is empty when i > j and a single point when i == j.  Its nerve has
one nondegenerate m-cell per strictly increasing chain of m+1 subsets.
Unions of levelwise chains give the strictly associative composition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Sequence

from .ordinals import MonotoneMap
from .sset import (
    BilevelMap,
    FinSSet,
    SimplexRef,
    SimplicialMap,
    ValidationReport,
    nondeg_ref,
)


class FinPoset:
    """A finite poset given by elements and the full order relation."""

    def __init__(self, elements: Iterable[Hashable], leq_pairs: Iterable[tuple]):
        self.elements = tuple(elements)
        self._index = {e: k for k, e in enumerate(self.elements)}
        self._leq = frozenset((a, b) for a, b in leq_pairs)

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def __contains__(self, e) -> bool:
        return e in self._index

    def __len__(self) -> int:
        return len(self.elements)


def validate_poset(p: FinPoset) -> ValidationReport:
    report = ValidationReport("FinPoset")
    for a, b in p._leq:
        if a not in p or b not in p:
            report.problems.append(f"relation ({a!r}, {b!r}) cites a non-element")
    for a in p.elements:
        if not p.leq(a, a):
            report.problems.append(f"reflexivity fails at {a!r}")
    for a in p.elements:
        for b in p.elements:
            if p.leq(a, b) and p.leq(b, a) and a != b:
                report.problems.append(f"antisymmetry fails at ({a!r}, {b!r})")
            for c in p.elements:
                if p.leq(a, b) and p.leq(b, c) and not p.leq(a, c):
                    report.problems.append(
                        f"transitivity fails at ({a!r}, {b!r}, {c!r})"
                    )
    return report


def chain_poset(n: int) -> FinPoset:
    """The linear order 0 < 1 < ... < n."""
    rng = range(n + 1)
    return FinPoset(rng, [(a, b) for a in rng for b in rng if a <= b])


def poset_to_json(p: FinPoset) -> dict:
    return {
        "elements": [element_label(e) for e in p.elements],
        "leq": sorted(
            [element_label(a), element_label(b)]
            for a, b in p._leq
        ),
    }


def poset_from_json(data: dict | str) -> FinPoset:
    if isinstance(data, str):
        data = json.loads(data)
    return FinPoset(data["elements"], [tuple(pair) for pair in data["leq"]])


# -- mapping posets ---------------------------------------------------


def element_label(e) -> str:
    if isinstance(e, frozenset):
        return ".".join(str(v) for v in sorted(e))
    return str(e)


@dataclass(frozen=True)
class MappingPoset:
    """Subsets of {i..j} containing i and j, under inclusion, inside [k]."""

    i: int
    j: int
    k: int
    elements: tuple[frozenset, ...]

    def leq(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    @property
    def bottom(self) -> frozenset:
        return frozenset({self.i, self.j})

    def as_poset(self) -> FinPoset:
        return FinPoset(
            self.elements,
            [(a, b) for a in self.elements for b in self.elements if a <= b],
        )


@lru_cache(maxsize=None)
def mapping_poset(i: int, j: int, k: int) -> MappingPoset:
    if not (0 <= i <= k and 0 <= j <= k):
        raise ValueError(f"endpoints ({i}, {j}) outside [0, {k}]")
    if i > j:
        return MappingPoset(i, j, k, ())
    interior = list(range(i + 1, j))
    elements = []
    for mask in range(1 << len(interior)):
        s = {i, j} | {interior[t] for t in range(len(interior)) if mask >> t & 1}
        elements.append(frozenset(s))
    elements.sort(key=lambda s: (len(s), sorted(s)))
    return MappingPoset(i, j, k, tuple(elements))


# -- nerves -----------------------------------------------------------


def chain_cell_id(chain: Sequence[Hashable]) -> str:
    return "<".join(element_label(e) for e in chain)


def nerve(p: FinPoset | MappingPoset, truncation: int | None = None) -> FinSSet:
    """Nondegenerate m-cells are the strictly increasing (m+1)-chains.

    Faces drop one entry; since a strict chain stays strict under
    deletion, face references are never degenerate.
    """
    if isinstance(p, MappingPoset):
        p = p.as_poset()
    chains: list[list[tuple]] = [[(e,) for e in p.elements]]
    while chains[-1]:
        nxt = []
        for chain in chains[-1]:
            last = chain[-1]
            for e in p.elements:
                if e != last and p.leq(last, e):
                    nxt.append(chain + (e,))
        chains.append(nxt)
    chains.pop()
    top = len(chains) - 1
    if truncation is None:
        truncation = max(top, 0)
    cells: dict[int, list[str]] = {d: [] for d in range(truncation + 1)}
    faces: dict[str, list[SimplexRef]] = {}
    for m, level in enumerate(chains):
        if m > truncation:
            break
        for chain in level:
            cid = chain_cell_id(chain)
            cells[m].append(cid)
            if m >= 1:
                faces[cid] = [
                    nondeg_ref(chain_cell_id(chain[:i] + chain[i + 1 :]), m - 1)
                    for i in range(m + 1)
                ]
    return FinSSet(truncation, cells, faces)


def normalize_chain(chain: Sequence[Hashable]) -> SimplexRef:
    """Normal form of a weakly increasing chain: strictify and record the
    collapsing surjection."""
    strict = [chain[0]]
    values = [0]
    for e in chain[1:]:
        if e != strict[-1]:
            strict.append(e)
        values.append(len(strict) - 1)
    epi = MonotoneMap(len(chain) - 1, len(strict) - 1, tuple(values))
    return SimplexRef(epi, chain_cell_id(strict))


def denormalize_chain(ref: SimplexRef) -> list[str]:
    """Inverse of normalize_chain on labels: spread the strict chain."""
    labels = ref.cell.split("<")
    return [labels[ref.epi(t)] for t in range(ref.dim + 1)]


@lru_cache(maxsize=None)
def chain_sets(cell_id: str) -> tuple[frozenset, ...]:
    """The subsets of a mapping-poset chain cell, read back from its id
    ``"0.2<0.1.2"``; the one parser of chain labels, cached per id."""
    return tuple(
        frozenset(int(v) for v in label.split("."))
        for label in cell_id.split("<")
    )


def union_chains(level: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
    """Levelwise union of two (possibly degenerate) nerve simplices."""
    ups = chain_sets(a.cell)
    los = chain_sets(b.cell)
    return normalize_chain(
        [ups[s] | los[t] for s, t in zip(a.epi.values, b.epi.values)]
    )


def union_compose(i: int, j: int, p: int, k: int,
                  truncation: int | None = None) -> BilevelMap:
    """Levelwise union N P(j,p) x N P(i,j) -> N P(i,p): (J, I) -> J u I.

    Strictly associative because set union is.
    """
    upper = nerve(mapping_poset(j, p, k), truncation)
    lower = nerve(mapping_poset(i, j, k), truncation)
    target = nerve(mapping_poset(i, p, k), truncation)
    return BilevelMap(upper, lower, target, union_chains)


def poset_map_image(f: MonotoneMap, i: int, j: int) -> Callable[[frozenset], frozenset]:
    """Direct image P(i,j) -> P(f(i), f(j)) along a monotone f."""
    if not (0 <= i <= f.source_arity and 0 <= j <= f.source_arity):
        raise ValueError(f"endpoints ({i}, {j}) outside [0, {f.source_arity}]")

    def img(s: frozenset) -> frozenset:
        return frozenset(f(v) for v in s)

    return img


def induced_nerve_map(f: MonotoneMap, i: int, j: int) -> SimplicialMap:
    """The simplicial map N P(i,j) -> N P(f(i), f(j)) induced by direct
    image.  Images of strict chains may collapse, hence the renormalization."""
    img = poset_map_image(f, i, j)
    source = nerve(mapping_poset(i, j, f.source_arity))
    target = nerve(mapping_poset(f(i), f(j), f.target_arity))
    assignment = {}
    for d in range(source.truncation + 1):
        for cid in source.nondegenerate(d):
            assignment[cid] = normalize_chain([img(s) for s in chain_sets(cid)])
    return SimplicialMap(source, target, assignment)
