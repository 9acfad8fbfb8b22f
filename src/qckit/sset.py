"""Finite truncated simplicial sets presented by nondegenerate cells.

A ``FinSSet`` stores, for each dimension up to a strict truncation, the
list of nondegenerate cells, and for each cell its tuple of faces.  Every
simplex is referred to by a ``SimplexRef``: a surjective reindexing map
together with a nondegenerate cell, the unique epi-mono normal form.

The centrepiece is :meth:`FinSSet.apply`, the contravariant action of an
arbitrary monotone map on a simplex reference.  Each set keeps one
action table per operator alpha: [m] -> [n] within the truncation, of
integer positions: entry p is the position in ``simplices(m)`` of
``simplices(n)[p]`` acted on by alpha.  ``apply`` answers from it.  On
a miss it walks: it acts by the face entry for one vertex the operator
misses, hands the rest of the operator to the tables again, and records
the position, so each (simplex, operator) is walked once.  A step's
operator arithmetic depends only on the two operators and is factored
once per pair for every set, so a miss costs one face-entry read and
one table read.  The tables are sound because cells and face entries
never change after construction, so an entry, once walked, holds for
the life of the set.  They hold integers, a list slot per entry.
An identity operator keeps no table: ``apply`` returns a normal-form
reference itself and :meth:`FinSSet.action` answers with a range of
positions, so callers need no shortcut of their own.  Truncation is
strict: asking for simplices above the truncation raises, it is never
silently completed.

The one face lookup is :meth:`FinSSet.position_index` ``(n, at)``:
the positions of the n-simplices keyed by the positions of their faces
at ``at`` (all of them by default), read off the face operators' action
tables and kept per (n, at).  Fillers, horn problems, invertibility
witnesses, the fundamental group, the generic slice, nerve enumeration
and the low-simplex classification ask it which simplices have given
faces, read a simplex's own faces from the action tables
``action(face(n, i))``, and build refs only for their results.
:meth:`FinSSet.simplices` and :meth:`FinSSet.position` are kept per
dimension; :class:`BilevelMap` answers from its kept level tables, which
the unit and associativity sweeps read (:func:`unit_failures`,
:func:`associativity_failures`).  :func:`poset_nerve` builds both the
standard simplices and the mapping-poset nerves.

Every exhaustive search runs through :func:`depth_first`, one iterative
depth-first loop over slots of the caller's own dicts: nerve functors
(``scat.enumerate_functors``), horn problems (``quasicat.horn_problems``),
anchored maps (the generic slice) and :func:`iso_search`.  Each caller
gives only its candidate rule and reads its result at a leaf; leaves
come in the order of the candidate lists, so each search keeps the
order it promises, and none is bounded by Python's recursion limit.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .ordinals import (
    ArityError,
    MonotoneMap,
    compose,
    degeneracy,
    epi_mono_factor,
    epis_onto,
    face,
    identity,
)


# Level d holds every degenerate copy of each m-cell, C(d, m) of them,
# and commands list whole levels, so a file of a few hundred bytes at
# truncation 64 asks for millions of simplices.  qckit writes files
# truncated at most at 4; a file may claim no more levels than this.
MAX_FILE_TRUNCATION = 8


class TruncationError(ValueError):
    """Raised when a dimension above the stored truncation is requested."""


class UnknownCellError(KeyError):
    """Raised when a face table or assignment refers to a missing cell."""


@dataclass(frozen=True, slots=True)
class SimplexRef:
    """A simplex in epi-mono normal form: nondegenerate ``cell`` reindexed
    along the surjection ``epi``.  Identity epi means the cell itself."""

    epi: MonotoneMap
    cell: str

    def __hash__(self) -> int:
        # every action-table lookup hashes a ref: one flat tuple, not the
        # generated hash's call into MonotoneMap.__hash__
        return hash((self.cell, self.epi.values))

    @property
    def dim(self) -> int:
        return self.epi.source_arity

    @property
    def is_degenerate(self) -> bool:
        return not self.epi.is_identity

    def sort_key(self) -> tuple:
        return (self.cell, self.epi.values)

    def to_json(self) -> dict:
        return {"cell": self.cell, "epi": list(self.epi.values)}

    @staticmethod
    def from_json(blob, dim_of: Mapping[str, int], where: str) -> "SimplexRef":
        """Reads a :meth:`to_json` object back; a malformed one raises a
        ValueError naming ``where``.  The epi lands in ``dim_of[cell]``,
        or for a cell missing there in the smallest consistent arity, so
        the breakage surfaces in :func:`validate` instead of here."""
        vals = blob.get("epi") if isinstance(blob, dict) else None
        if not (
            isinstance(vals, list)
            and isinstance(blob.get("cell"), str)
            and all(type(v) is int for v in vals)
        ):
            raise ValueError(
                f"{where} must be an object with a string 'cell' and a "
                f"list of integers 'epi'"
            )
        target = dim_of.get(blob["cell"], max(vals, default=0))
        try:
            epi = MonotoneMap(len(vals) - 1, target, tuple(vals))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}")
        return SimplexRef(epi, blob["cell"])


def nondeg_ref(cell: str, dim: int) -> SimplexRef:
    return SimplexRef(identity(dim), cell)


@dataclass
class ValidationReport:
    subject: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@lru_cache(maxsize=None)
def _step(epi: MonotoneMap, alpha: MonotoneMap) -> tuple:
    """(epi', i, mu2) with epi . alpha = face(m, i) . mu2 . epi' and i the
    last vertex missed, or (epi', None, None) if none is; kept per pair."""
    epi2, mono = epi_mono_factor(compose(epi, alpha))
    if mono.is_identity:
        return epi2, None, None
    i = max(set(range(mono.target_arity + 1)) - set(mono.values))
    values = tuple(v - (v > i) for v in mono.values)
    return epi2, i, MonotoneMap(mono.source_arity, mono.target_arity - 1, values)


# compose(g, f), kept per pair for the face walk
_composite = lru_cache(maxsize=None)(lambda g, f: compose(g, f))


class FinSSet:
    """Immutable-by-convention finite truncated simplicial set.

    ``cells`` maps each dimension 0..truncation to its nondegenerate cell
    ids; ``faces`` maps each cell of dimension >= 1 to its dim+1 face
    references.  Construction only normalizes containers; semantic
    soundness (reference integrity, simplicial identities) is checked by
    :func:`validate` so that broken inputs can be diagnosed rather than
    refused outright.
    """

    def __init__(
        self,
        truncation: int,
        cells: Mapping[int, Iterable[str]],
        faces: Mapping[str, Iterable[SimplexRef]],
    ):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        for d in cells:
            if not (0 <= d <= truncation):
                raise TruncationError(f"cell dimension {d} outside 0..{truncation}")
        self.truncation = truncation
        self._cells: dict[int, tuple[str, ...]] = {
            d: tuple(cells.get(d, ())) for d in range(truncation + 1)
        }
        self._faces: dict[str, tuple[SimplexRef, ...]] = {
            c: tuple(fs) for c, fs in faces.items()
        }
        self._dim_of: dict[str, int] = {}
        for d in range(truncation + 1):
            for c in self._cells[d]:
                self._dim_of.setdefault(c, d)
        self._simplices: dict[int, list[SimplexRef]] = {}
        self._position: dict[int, dict] = {}
        # alpha -> (table, position at n, position at m, simplices at m)
        self._actions: dict[MonotoneMap, tuple] = {}
        self._complete: dict[MonotoneMap, list[int]] = {}  # filled by action()
        self._position_index: dict[tuple, dict] = {}

    # -- raw structure ------------------------------------------------

    def nondegenerate(self, dim: int) -> tuple[str, ...]:
        if dim < 0:
            return ()
        if dim > self.truncation:
            raise TruncationError(
                f"dimension {dim} above truncation {self.truncation}"
            )
        return self._cells[dim]

    def dim_of(self, cell: str) -> int:
        if cell not in self._dim_of:
            raise UnknownCellError(cell)
        return self._dim_of[cell]

    def has_cell(self, cell: str) -> bool:
        return cell in self._dim_of

    def face_entry(self, cell: str, i: int) -> SimplexRef:
        if cell not in self._dim_of:
            raise UnknownCellError(cell)
        entries = self._faces.get(cell)
        if entries is None or not (0 <= i < len(entries)):
            raise UnknownCellError(f"no face {i} recorded for cell {cell!r}")
        ref = entries[i]
        if ref.cell not in self._dim_of:
            raise UnknownCellError(
                f"face {i} of cell {cell!r} references unknown cell {ref.cell!r}"
            )
        return ref

    def face_entries(self, cell: str) -> tuple[SimplexRef, ...]:
        if cell not in self._dim_of:
            raise UnknownCellError(cell)
        return self._faces.get(cell, ())

    # -- the presheaf action ------------------------------------------

    def apply(self, ref: SimplexRef, alpha: MonotoneMap) -> SimplexRef:
        """Normal form of ref . alpha for any monotone alpha into ref's
        dimension.  Functorial: apply(apply(r, a), b) == apply(r, a . b).

        Answered from alpha's kept action table; a miss walks the face
        entries once and records the position.  A ref without a position
        (malformed input) or an operator reaching above the truncation
        is walked every time, and a walk's error propagates unchanged."""
        if alpha.target_arity != ref.dim:
            raise ArityError(
                f"operator into [{alpha.target_arity}] applied to a "
                f"{ref.dim}-simplex"
            )
        return self._lookup(ref, alpha)

    def _lookup(self, ref: SimplexRef, alpha: MonotoneMap) -> SimplexRef:
        """ref . alpha from alpha's kept table, walking on a miss."""
        if alpha.is_identity:
            # the identity leaves a normal form as it is and keeps no
            # table; a malformed face entry (an epi that is not onto) is
            # walked, as it would be without the shortcut
            return ref if ref.epi.is_surjective else self._act(ref, alpha)
        kept = self._actions.get(alpha)
        if kept is None:
            if max(alpha.source_arity, alpha.target_arity) > self.truncation:
                return self._act(ref, alpha)
            kept = self._kept_action(alpha)
        table, here, there, values = kept
        p = here.get(ref)
        if p is None:
            return self._act(ref, alpha)
        q = table[p]
        if q is None:
            out = self._act(ref, alpha)
            q = there.get(out)
            if q is None:
                return out
            table[p] = q
        return values[q]

    def action(self, alpha: MonotoneMap) -> list[int]:
        """The kept action table of alpha: [m] -> [n], both within the
        truncation: entry p is the position in :meth:`simplices` ``(m)``
        of ``simplices(n)[p]`` acted on by alpha.  Completed through
        :meth:`apply` on first use; a value that is not an m-simplex of
        the set (a malformed set) raises KeyError.  An identity is
        answered by a range and keeps no table."""
        table = self._complete.get(alpha)
        if table is None:
            if alpha.is_identity:
                return range(len(self.simplices(alpha.source_arity)))
            table, _, there, _ = self._kept_action(alpha)
            for p, s in enumerate(self.simplices(alpha.target_arity)):
                if table[p] is None:
                    table[p] = there[self.apply(s, alpha)]
            self._complete[alpha] = table
        return table

    def _kept_action(self, alpha: MonotoneMap) -> tuple:
        kept = self._actions.get(alpha)
        if kept is None:
            here = self.position(alpha.target_arity)
            m = alpha.source_arity
            kept = ([None] * len(here), here, self.position(m), self.simplices(m))
            self._actions[alpha] = kept
        return kept

    def _act(self, ref: SimplexRef, alpha: MonotoneMap) -> SimplexRef:
        """The face walk behind :meth:`apply`: act by the face entry for
        the last vertex the mono of ref.epi . alpha misses, as
        :func:`_step` says; the rest of the mono acts on that entry
        through the kept tables, so each step is walked once too."""
        epi, i, mu2 = _step(ref.epi, alpha)
        if i is None:
            return SimplexRef(epi, ref.cell)
        res = self._lookup(self.face_entry(ref.cell, i), mu2)
        return SimplexRef(_composite(res.epi, epi), res.cell)

    def simplices(self, dim: int) -> list[SimplexRef]:
        """All dim-simplices, degenerate included, in canonical order.
        Empty below dimension 0; error above the truncation.  Built on
        first use and kept: callers must not mutate the list."""
        if dim < 0:
            return []
        out = self._simplices.get(dim)
        if out is None:
            if dim > self.truncation:
                raise TruncationError(
                    f"dimension {dim} above truncation {self.truncation}"
                )
            out = [
                SimplexRef(epi, c)
                for m in range(dim + 1)
                for c in self._cells[m]
                for epi in epis_onto(dim, m)
            ]
            self._simplices[dim] = out
        return out

    def cell_count(self, dim: int) -> int:
        return len(self.nondegenerate(dim))

    def position(self, dim: int) -> dict[SimplexRef, int]:
        """Each dim-simplex mapped to its :meth:`simplices` position; kept."""
        pos = self._position.get(dim)
        if pos is None:
            pos = {s: t for t, s in enumerate(self.simplices(dim))}
            self._position[dim] = pos
        return pos

    def position_index(
        self, dim: int, at: Iterable[int] | None = None
    ) -> dict[tuple, tuple[int, ...]]:
        """The positions in :meth:`simplices` ``(dim)`` keyed by the
        positions in ``simplices(dim - 1)`` of their faces at ``at``
        (default: all), read off the face operators' action tables.
        With ``at`` empty every position sits under the key ().  Built
        once per (dim, at) and kept."""
        at = tuple(range(dim + 1)) if at is None else tuple(at)
        index = self._position_index.get((dim, at))
        if index is None:
            acts = [self.action(face(dim, i)) for i in at]
            buckets: dict[tuple, list[int]] = {}
            for p in range(len(self.simplices(dim))):
                buckets.setdefault(tuple([act[p] for act in acts]), []).append(p)
            index = {key: tuple(ps) for key, ps in buckets.items()}
            self._position_index[(dim, at)] = index
        return index

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        cells = {str(d): list(self._cells[d]) for d in range(self.truncation + 1)}
        faces = {}
        for d in range(1, self.truncation + 1):
            for c in self._cells[d]:
                faces[c] = [r.to_json() for r in self._faces.get(c, ())]
        return {"truncation": self.truncation, "cells": cells, "faces": faces}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def from_json(cls, data: dict | str) -> "FinSSet":
        if isinstance(data, str):
            data = json.loads(data)
        truncation = data["truncation"]
        if isinstance(truncation, bool) or not isinstance(truncation, int):
            raise ValueError(f"'truncation' must be an integer, got {truncation!r}")
        if truncation > MAX_FILE_TRUNCATION:
            raise ValueError(
                f"'truncation' {truncation} exceeds {MAX_FILE_TRUNCATION}"
            )
        for key in ("cells", "faces"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f"{key!r} must be an object")
        cells = {}
        for d, ids in data["cells"].items():
            if not (isinstance(ids, list) and all(isinstance(c, str) for c in ids)):
                raise ValueError(f"'cells' entry {d!r} must be a list of strings")
            try:
                cells[int(d)] = list(ids)
            except ValueError:
                raise ValueError(f"'cells' key {d!r} is not a dimension")
        dim_of = {c: d for d, ids in cells.items() for c in ids}
        faces = {}
        for c, entries in data.get("faces", {}).items():
            if c not in dim_of:
                raise ValueError(f"'faces' key {c!r} is not a listed cell")
            if not isinstance(entries, list):
                raise ValueError(f"the faces of cell {c!r} must be a list")
            faces[c] = tuple(
                SimplexRef.from_json(e, dim_of, f"cell {c!r} face {i}")
                for i, e in enumerate(entries)
            )
        return cls(truncation, cells, faces)


def point(label: str = "pt", truncation: int = 0) -> FinSSet:
    return FinSSet(truncation, {0: [label]}, {})


def subcomplex(x: FinSSet, keep: Callable[[str, int], bool],
               truncation: int | None = None) -> FinSSet:
    """The cells of x, up to ``truncation`` (x's own by default), that
    ``keep(cell, dim)`` accepts and whose face entries all name cells
    kept below them, with their face entries, in x's order.  A cell
    whose face went goes too, so the result is always a sub-complex."""
    if truncation is None:
        truncation = x.truncation
    if truncation > x.truncation:
        raise TruncationError(
            f"cannot extend truncation {x.truncation} to {truncation}"
        )
    kept: set[str] = set()
    cells: dict[int, list[str]] = {}
    faces: dict[str, tuple[SimplexRef, ...]] = {}
    for d in range(truncation + 1):
        cells[d] = []
        for c in x.nondegenerate(d):
            entries = x.face_entries(c)
            if keep(c, d) and all(r.cell in kept for r in entries):
                kept.add(c)
                cells[d].append(c)
                faces[c] = entries
    return FinSSet(truncation, cells, faces)


def truncate(x: FinSSet, t: int) -> FinSSet:
    """Forget every cell above dimension t."""
    return subcomplex(x, lambda c, d: True, t)


# -- standard simplices, boundaries, horns ----------------------------


def simplex_cell_id(values: Iterable[int]) -> str:
    return "-".join(str(v) for v in values)


def poset_nerve(elements: Sequence, cell_id: Callable[[tuple], str],
                truncation: int | None = None) -> FinSSet:
    """The nerve of finitely many elements ordered by ``<``: m-cells are
    the strict chains of m + 1 elements, named ``cell_id(chain)``, each
    level extending the one below in order (for a range, the order of
    ``itertools.combinations``).  Faces drop one entry, so they are
    never degenerate.  Truncated at the longest chain by default."""
    levels = [[(e,) for e in elements]]
    while levels[-1] and (truncation is None or len(levels) <= truncation):
        levels.append([c + (e,) for c in levels[-1] for e in elements if c[-1] < e])
    if truncation is None:
        truncation = max(len(levels) - 2, 0)  # the last level is empty
    cells: dict[int, list[str]] = {}
    faces: dict[str, list[SimplexRef]] = {}
    for m, level in enumerate(levels[:truncation + 1]):
        cells[m] = [cell_id(c) for c in level]
        if m:
            for c, cid in zip(level, cells[m]):
                faces[cid] = [nondeg_ref(cell_id(c[:i] + c[i + 1:]), m - 1)
                              for i in range(m + 1)]
    return FinSSet(truncation, cells, faces)


def standard_simplex(n: int, truncation: int | None = None) -> FinSSet:
    """The n-simplex, the nerve of [n]: nondegenerate m-cells are the
    injections [m] -> [n].  Truncated at n unless told otherwise."""
    if truncation is None:
        truncation = n
    if truncation < n:
        raise TruncationError("truncation below the top cell")
    return poset_nerve(range(n + 1), simplex_cell_id, truncation)


def boundary(n: int) -> FinSSet:
    """The boundary of the n-simplex: all proper faces, still truncated at
    n so missing-filler questions stay posable."""
    if n < 1:
        raise ValueError("boundary needs n >= 1")
    return subcomplex(standard_simplex(n), lambda c, d: d < n)


def horn(n: int, i: int) -> FinSSet:
    """The horn: the boundary minus the face opposite vertex i."""
    if not (0 <= i <= n) or n < 1:
        raise ValueError(f"no horn ({n}, {i})")
    opposite = simplex_cell_id(v for v in range(n + 1) if v != i)
    return subcomplex(standard_simplex(n), lambda c, d: d < n and c != opposite)


# -- maps -------------------------------------------------------------


class SimplicialMap:
    """A map of simplicial sets, stored on nondegenerate source cells.

    ``assignment[c]`` is the normal-form image of the cell c; images of
    degenerate simplices follow by naturality through :meth:`image`.
    """

    def __init__(self, source: FinSSet, target: FinSSet, assignment: Mapping[str, SimplexRef]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def image(self, ref: SimplexRef) -> SimplexRef:
        if ref.cell not in self.assignment:
            raise UnknownCellError(ref.cell)
        return self.target.apply(self.assignment[ref.cell], ref.epi)


def identity_map(x: FinSSet) -> SimplicialMap:
    assignment = {}
    for d in range(x.truncation + 1):
        for c in x.nondegenerate(d):
            assignment[c] = nondeg_ref(c, d)
    return SimplicialMap(x, x, assignment)


def standard_map(alpha: MonotoneMap) -> SimplicialMap:
    """The map of standard simplices induced by alpha: [m] -> [n]."""
    m, n = alpha.source_arity, alpha.target_arity
    assignment = {}
    for d in range(m + 1):
        for vals in itertools.combinations(range(m + 1), d + 1):
            composite = tuple(alpha.values[v] for v in vals)
            epi, mono = epi_mono_factor(
                MonotoneMap(d, n, composite)
            )
            assignment[simplex_cell_id(vals)] = SimplexRef(
                epi, simplex_cell_id(mono.values)
            )
    return SimplicialMap(standard_simplex(m), standard_simplex(n), assignment)


# -- validation -------------------------------------------------------


def validate(x: FinSSet) -> ValidationReport:
    """Reference integrity, dimension bookkeeping, simplicial identities."""
    report = ValidationReport("FinSSet")
    seen: dict[str, int] = {}
    for d in range(x.truncation + 1):
        for c in x.nondegenerate(d):
            if c in seen:
                report.problems.append(
                    f"cell {c!r} listed in dimensions {seen[c]} and {d}"
                )
            seen[c] = d
    for d in range(x.truncation + 1):
        for c in x.nondegenerate(d):
            entries = x.face_entries(c)
            if d == 0:
                if entries:
                    report.problems.append(f"vertex {c!r} has face entries")
                continue
            if len(entries) != d + 1:
                report.problems.append(
                    f"cell {c!r} of dimension {d} has {len(entries)} faces, "
                    f"expected {d + 1}"
                )
                continue
            for i, r in enumerate(entries):
                if not x.has_cell(r.cell):
                    report.problems.append(
                        f"cell {c!r}: face {i} references unknown cell {r.cell!r}"
                    )
                    continue
                if r.epi.source_arity != d - 1:
                    report.problems.append(
                        f"cell {c!r}: face {i} has arity {r.epi.source_arity}, "
                        f"expected {d - 1}"
                    )
                    continue
                if r.epi.target_arity != x.dim_of(r.cell):
                    report.problems.append(
                        f"cell {c!r}: face {i} epi lands in [{r.epi.target_arity}] "
                        f"but cell {r.cell!r} has dimension {x.dim_of(r.cell)}"
                    )
                    continue
                if not r.epi.is_surjective:
                    report.problems.append(
                        f"cell {c!r}: face {i} reindexing map is not surjective"
                    )
                if r.cell == c:
                    report.problems.append(
                        f"cell {c!r}: face {i} references the cell itself"
                    )
    if report.problems:
        return report
    # d_i d_j = d_{j-1} d_i for i < j, on every nondegenerate cell.
    for d in range(2, x.truncation + 1):
        for c in x.nondegenerate(d):
            top = nondeg_ref(c, d)
            for j in range(1, d + 1):
                for i in range(j):
                    try:
                        lhs = x.apply(x.apply(top, face(d, j)), face(d - 1, i))
                        rhs = x.apply(x.apply(top, face(d, i)), face(d - 1, j - 1))
                    except (UnknownCellError, ArityError) as exc:
                        report.problems.append(
                            f"cell {c!r}: faces (d{i}, d{j}) not computable: {exc}"
                        )
                        continue
                    if lhs != rhs:
                        report.problems.append(
                            f"cell {c!r}: identity d{i} d{j} = d{j - 1} d{i} "
                            f"fails: {lhs.cell!r}.{lhs.epi.values} != "
                            f"{rhs.cell!r}.{rhs.epi.values}"
                        )
    return report


def validate_map(f: SimplicialMap) -> ValidationReport:
    """Checks the assignment commutes with faces up to the common truncation."""
    report = ValidationReport("SimplicialMap")
    bound = min(f.source.truncation, f.target.truncation)
    for d in range(bound + 1):
        for c in f.source.nondegenerate(d):
            if c not in f.assignment:
                report.problems.append(f"cell {c!r} has no image")
                continue
            img = f.assignment[c]
            if img.dim != d:
                report.problems.append(
                    f"cell {c!r} of dimension {d} mapped to a {img.dim}-simplex"
                )
                continue
            if not f.target.has_cell(img.cell):
                report.problems.append(
                    f"cell {c!r} mapped to unknown cell {img.cell!r}"
                )
    if report.problems:
        return report
    for d in range(1, bound + 1):
        for c in f.source.nondegenerate(d):
            for i in range(d + 1):
                lhs = f.target.apply(f.assignment[c], face(d, i))
                src_face = f.source.face_entry(c, i)
                rhs = f.image(src_face)
                if lhs != rhs:
                    report.problems.append(
                        f"cell {c!r}: face {i} not preserved: "
                        f"{lhs.cell!r}.{lhs.epi.values} != {rhs.cell!r}.{rhs.epi.values}"
                    )
    return report


# -- bilevel maps -----------------------------------------------------


class OffTargetError(ValueError):
    """Raised when a bilevel map sends a pair to something that is not a
    simplex of its target at that level."""


class BilevelMap:
    """A levelwise map X_k x Y_k -> Z_k commuting with simultaneous
    operators.  Given by a function on normal-form pairs; use
    :func:`validate_bilevel` to check the commutation on a range.

    :meth:`table` evaluates the function once per pair of a level and
    keeps the result as integer positions; :meth:`apply` answers from it.
    Sound because neither the function nor the three simplicial sets
    change after construction; sized by the level, |X_k| x |Y_k|."""

    def __init__(self, x: FinSSet, y: FinSSet, target: FinSSet,
                 fn: Callable[[int, SimplexRef, SimplexRef], SimplexRef]):
        self.x = x
        self.y = y
        self.target = target
        self.fn = fn
        self._tables: dict[int, list[list[int]]] = {}

    def apply(self, level: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        if a.dim != level or b.dim != level:
            raise ArityError(
                f"level {level} application to dims {a.dim}, {b.dim}"
            )
        row = self.table(level)[self.x.position(level)[a]]
        return self.target.simplices(level)[row[self.y.position(level)[b]]]

    def table(self, level: int) -> list[list[int]]:
        """``rows[i][j]`` is the position in ``target.simplices(level)``
        of the value at (x_i, y_j), both in :meth:`FinSSet.simplices`
        order.  Built on first use and kept; raises
        :class:`OffTargetError`, naming the pair, if a value is not a
        simplex of the target."""
        rows = self._tables.get(level)
        if rows is None:
            pos = self.target.position(level)
            ys = self.y.simplices(level)
            rows = []
            for a in self.x.simplices(level):
                row = []
                for b in ys:
                    out = self.fn(level, a, b)
                    t = pos.get(out)
                    if t is None:
                        raise OffTargetError(
                            f"level {level}: value at ({a.cell!r}."
                            f"{a.epi.values}, {b.cell!r}.{b.epi.values}) is "
                            f"not a {level}-simplex of the target: {out!r}"
                        )
                    row.append(t)
                rows.append(row)
            self._tables[level] = rows
        return rows


def validate_bilevel(bm: BilevelMap, max_dim: int) -> ValidationReport:
    """Every value is a simplex of the target, and every face and
    degeneracy operator commutes with the map on every pair: checked
    on the level tables and the three sets' kept action tables, pairs
    outer and operators inner."""
    report = ValidationReport("BilevelMap")
    bound = min(max_dim, bm.x.truncation, bm.y.truncation, bm.target.truncation)
    try:
        tables = [bm.table(k) for k in range(bound + 1)]
    except OffTargetError as e:
        report.problems.append(str(e))
        return report
    for k in range(bound + 1):
        ops: list[MonotoneMap] = []
        if k >= 1:
            ops.extend(face(k, i) for i in range(k + 1))
        if k + 1 <= bound:
            ops.extend(degeneracy(k, i) for i in range(k + 1))
        # (op, act on x, act on y, act on the target, table at op's source)
        checks = [
            (op, bm.x.action(op), bm.y.action(op), bm.target.action(op),
             tables[op.source_arity])
            for op in ops
        ]
        ys = bm.y.simplices(k)
        for i, (a, row) in enumerate(zip(bm.x.simplices(k), tables[k])):
            for j, (b, t) in enumerate(zip(ys, row)):
                for op, act_x, act_y, act_z, lower in checks:
                    if act_z[t] != lower[act_x[i]][act_y[j]]:
                        report.problems.append(
                            f"level {k}: operator {op.values} not respected at "
                            f"({a.cell!r}.{a.epi.values}, {b.cell!r}.{b.epi.values})"
                        )
    return report


def unit_failures(left, right, j):
    """Yields (i, left fails, right fails) once per position i where a
    unit law fails, over level tables: ``left[i]`` is the unit composed
    after i, and ``right[i][j]`` is i composed after the unit at j."""
    for i, (l, row) in enumerate(zip(left, right)):
        if l != i or row[j] != i:
            yield i, l != i, row[j] != i


def associativity_failures(t_ab, t_bc, lhs, rhs):
    """Yields (ab, c) once per entry where (ab)c != a(bc), over level
    tables of positions: ``t_ab[a][b]`` is ab, ``t_bc[b][c]`` is bc,
    and ``lhs[ab][c]`` and ``rhs[a][bc]`` are the two composites.  A
    whole row of c is compared at a time; entries are listed only
    where a row differs."""
    for row_ab, r_a in zip(t_ab, rhs):
        for ab, bcs in zip(row_ab, t_bc):
            r_row = [r_a[bc] for bc in bcs]
            if lhs[ab] != r_row:
                for c, (lc, rc) in enumerate(zip(lhs[ab], r_row)):
                    if lc != rc:
                        yield ab, c


# -- materializing an abstract presheaf ------------------------------


def materialize_presheaf(levels, act, id_fn):
    """Normalize levelwise values and an operator action into cells.

    ``levels[n]`` lists hashable values for the n-simplices; ``act(v, a)``
    applies a monotone operator; ``id_fn(n, v)`` names nondegenerate
    values, called in level order.  Degeneracy of v is detected by
    v == (v . d_i) . s_i, and the normal form accumulates the collapsing
    surjection.  Values are compared only within a level, one normal-form
    dict each, so plain positions in a base's ``simplices`` are legal
    values.  This is the one normal-form path: the coherent nerve, group
    nerves, the generic slice and the coslice fastpath all build through it.

    Returns ``(cells, faces, value_of)``: the nondegenerate cell ids per
    dimension 0..len(levels)-1, each positive-dimensional cell's
    normal-form faces, and the value behind each cell id.
    """
    cells: dict[int, list[str]] = {d: [] for d in range(len(levels))}
    faces: dict[str, list[SimplexRef]] = {}
    value_of: dict[str, object] = {}
    normal: list[dict] = [{} for _ in levels]
    for n, vals in enumerate(levels):
        ops = [(face(n, i), degeneracy(n - 1, i)) for i in range(n)]
        for v in vals:
            if v in normal[n]:
                continue
            ref = None
            dropped_faces = []
            for d_i, s_i in ops:
                dropped = act(v, d_i)
                if act(dropped, s_i) == v:
                    base = normal[n - 1][dropped]
                    ref = SimplexRef(compose(base.epi, s_i), base.cell)
                    break
                dropped_faces.append(dropped)
            if ref is None:
                cid = id_fn(n, v)
                cells[n].append(cid)
                value_of[cid] = v
                ref = nondeg_ref(cid, n)
                if n:
                    # the test computed faces 0..n-1; only face n is new
                    dropped_faces.append(act(v, face(n, n)))
                    faces[cid] = [normal[n - 1][w] for w in dropped_faces]
            normal[n][v] = ref
    return cells, faces, value_of


# -- isomorphism search ----------------------------------------------


def _occurrence_profile(x: FinSSet, dim_cap: int) -> dict[str, tuple]:
    """A cheap iso-invariant per cell: how the cell is cited by higher
    face tables, by (citing dimension, face index, reindexing)."""
    from collections import Counter

    cnt: dict[str, Counter] = {c: Counter() for d in range(dim_cap + 1)
                               for c in x.nondegenerate(d)}
    for d in range(1, dim_cap + 1):
        for c in x.nondegenerate(d):
            for i, r in enumerate(x.face_entries(c)):
                if r.cell in cnt:
                    cnt[r.cell][(d, i, r.epi.values)] += 1
    return {c: tuple(sorted(counter.items())) for c, counter in cnt.items()}


def depth_first(slots: list[tuple[dict, object]], candidates: Callable[[int], Iterable]):
    """Depth-first search over ``slots``, ``(table, key)`` pairs of the
    caller's own dicts.  Slot t takes each of ``candidates(t)`` (never
    None) in turn, as ``table[key] = value``; they are listed when the
    search enters slot t, with exactly slots 0..t-1 set, and the slot is
    removed again once they run out.  Yields once per leaf, with every
    slot set, so leaves come in the lexicographic order of the candidate
    lists; no slots means one leaf.  An explicit stack of candidate
    iterators stands in for recursion, so the depth is not bounded by
    Python's recursion limit."""
    if not slots:
        yield
        return
    stack = [iter(candidates(0))]
    while stack:
        table, key = slots[len(stack) - 1]
        value = next(stack[-1], None)
        if value is None:
            table.pop(key, None)
            stack.pop()
            continue
        table[key] = value
        if len(stack) == len(slots):
            yield
        else:
            stack.append(iter(candidates(len(stack))))


def iso_search(x: FinSSet, y: FinSSet, dim_cap: int) -> SimplicialMap | None:
    """An isomorphism on nondegenerate cells up to dim_cap, or None once
    the search is exhausted.  Runs :func:`depth_first` over the cells of
    x by dimension, then cell order; a cell's candidates are the unused
    cells of y in its profile bucket, in y's cell order, whose face
    entries match the images of its own.  The map returned is the first
    in that order."""
    dim_cap = min(dim_cap, x.truncation, y.truncation)
    for d in range(dim_cap + 1):
        if len(x.nondegenerate(d)) != len(y.nondegenerate(d)):
            return None
    px = _occurrence_profile(x, dim_cap)
    py = _occurrence_profile(y, dim_cap)
    buckets: dict[tuple, list[str]] = {}
    for d in range(dim_cap + 1):
        for c in y.nondegenerate(d):
            buckets.setdefault((d, py[c]), []).append(c)
    order = [
        (d, c) for d in range(dim_cap + 1) for c in x.nondegenerate(d)
    ]
    mapping: dict[str, str] = {}

    def candidates(t: int) -> list[str]:
        d, c = order[t]
        used = set(mapping.values())
        want = tuple((r.epi.values, mapping.get(r.cell)) for r in x.face_entries(c))
        return [
            yc for yc in buckets.get((d, px[c]), [])
            if yc not in used
            and tuple((r.epi.values, r.cell) for r in y.face_entries(yc)) == want
        ]

    for _ in depth_first([(mapping, c) for _, c in order], candidates):
        assignment = {c: nondeg_ref(yc, x.dim_of(c)) for c, yc in mapping.items()}
        return SimplicialMap(x, y, assignment)
    return None
