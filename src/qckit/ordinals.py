"""Finite ordinals [n] = {0, ..., n} and monotone maps between them.

A monotone map is stored by its value sequence, so composition, image
factorization, and enumeration are plain tuple manipulations.  Everything
here is exact and total: malformed data raises at construction time.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import Frozen


class ArityError(ValueError):
    """Raised when arities do not line up (composition, generator indices)."""


@lru_cache(maxsize=None)
def _iota(n: int) -> tuple[int, ...]:
    """(0, ..., n), kept per n so the identity test builds no tuple."""
    return tuple(range(n + 1))


@lru_cache(maxsize=None)
def _image_size(values: tuple[int, ...]) -> int:
    """How many distinct values, kept per sequence so the surjectivity
    test builds no set."""
    return len(set(values))


# sets a field past Frozen.__setattr__
_set = object.__setattr__


class MonotoneMap(Frozen):
    """A weakly monotone map [source_arity] -> [target_arity].

    ``values[i]`` is the image of i.  The value sequence fully determines
    the map once both arities are fixed; ``target_arity`` is stored
    because it is not recoverable from the values alone.
    """

    __slots__ = _fields = ("source_arity", "target_arity", "values")

    def __init__(self, source_arity: int, target_arity: int, values: tuple[int, ...]):
        if source_arity < 0 or target_arity < 0:
            raise ArityError("arities must be >= 0")
        if len(values) != source_arity + 1:
            raise ArityError(
                f"expected {source_arity + 1} values, got {len(values)}"
            )
        prev = 0
        for v in values:
            if not (0 <= v <= target_arity):
                raise ArityError(f"value {v} outside [0, {target_arity}]")
            if v < prev:
                raise ArityError(f"values {values} are not monotone")
            prev = v
        _set(self, "source_arity", source_arity)
        _set(self, "target_arity", target_arity)
        _set(self, "values", values)

    def __eq__(self, other):
        # the values fix the source arity
        if other.__class__ is self.__class__:
            return self.values == other.values and self.target_arity == other.target_arity
        return NotImplemented

    def __hash__(self) -> int:
        # the values determine the map up to its target arity; hashing
        # them alone spares a tuple of all the fields
        return hash(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i]

    @property
    def is_identity(self) -> bool:
        # values (0, ..., n) also force the source arity to be n
        return self.values == _iota(self.target_arity)

    @property
    def is_surjective(self) -> bool:
        return _image_size(self.values) == self.target_arity + 1


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f.  Raises ArityError unless f lands where g starts."""
    if f.target_arity != g.source_arity:
        raise ArityError(
            f"cannot compose [{f.source_arity}]->[{f.target_arity}] "
            f"with [{g.source_arity}]->[{g.target_arity}]"
        )
    return MonotoneMap(
        f.source_arity, g.target_arity, tuple(g.values[v] for v in f.values)
    )


def face(n: int, i: int) -> MonotoneMap:
    """Coface [n-1] -> [n]: the injection skipping i."""
    if not (0 <= i <= n) or n < 1:
        raise ArityError(f"no face index {i} in dimension {n}")
    return MonotoneMap(n - 1, n, tuple(v if v < i else v + 1 for v in range(n)))


def degeneracy(n: int, i: int) -> MonotoneMap:
    """Codegeneracy [n+1] -> [n]: the surjection repeating i."""
    if not (0 <= i <= n):
        raise ArityError(f"no degeneracy index {i} in dimension {n}")
    return MonotoneMap(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))


def epi_mono_factor(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Unique factorization f = mono . epi through the image ordinal."""
    image = sorted(set(f.values))
    index = {v: k for k, v in enumerate(image)}
    k = len(image) - 1
    epi = MonotoneMap(f.source_arity, k, tuple(index[v] for v in f.values))
    mono = MonotoneMap(k, f.target_arity, tuple(image))
    return epi, mono


def all_maps(m: int, n: int) -> list[MonotoneMap]:
    """Every monotone map [m] -> [n], lexicographic in the value sequence."""
    return [
        MonotoneMap(m, n, vals)
        for vals in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


def all_epis(m: int, n: int) -> list[MonotoneMap]:
    return [f for f in all_maps(m, n) if f.is_surjective]


@lru_cache(maxsize=None)
def epis_onto(m: int, k: int) -> tuple[MonotoneMap, ...]:
    """Cached surjections [m] ->> [k], used heavily by simplex enumeration."""
    return tuple(all_epis(m, k))
