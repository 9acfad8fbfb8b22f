"""The mapping posets that enrich rigidified simplices, and their nerves.

The mapping poset P(i, j) consists of the subsets of the integer
interval {i, ..., j} that contain both endpoints, ordered by inclusion;
it is empty when i > j and a single point when i == j, and
:func:`mapping_poset` returns its elements as a tuple.  :func:`nerve`
hands that tuple to :func:`sset.poset_nerve`, as the standard simplex
does, and has one nondegenerate m-cell per strictly increasing chain of
m+1 subsets; the ``FinSSet`` it builds checks its own truncation.
Unions of levelwise chains give the strictly associative composition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .ordinals import MonotoneMap
from .sset import FinSSet, SimplexRef, poset_nerve


def element_label(e: frozenset) -> str:
    return ".".join(str(v) for v in sorted(e))


@lru_cache(maxsize=None)
def mapping_poset(i: int, j: int, k: int) -> tuple[frozenset, ...]:
    """The elements of P(i, j) inside [k], by size and then members."""
    if not (0 <= i <= k and 0 <= j <= k):
        raise ValueError(f"endpoints ({i}, {j}) outside [0, {k}]")
    if i > j:
        return ()
    interior = list(range(i + 1, j))
    elements = []
    for mask in range(1 << len(interior)):
        s = {i, j} | {interior[t] for t in range(len(interior)) if mask >> t & 1}
        elements.append(frozenset(s))
    elements.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(elements)


# -- nerves -----------------------------------------------------------


def chain_cell_id(chain: Sequence[frozenset]) -> str:
    return "<".join(element_label(e) for e in chain)


def nerve(elements: Sequence, truncation: int | None = None) -> FinSSet:
    """The nerve of P(i, j) from its elements, named by :func:`chain_cell_id`."""
    return poset_nerve(elements, chain_cell_id, truncation)


def normalize_chain(chain: Sequence[frozenset]) -> SimplexRef:
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
