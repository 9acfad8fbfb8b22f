"""Horn filling, invertible edges, the core, and homotopy invariants.

Everything here is exhaustive search over a finite truncated simplicial
set: horn problems are enumerated with pairwise face compatibility as
the constraint, and edge invertibility asks for a single two-sided
witness pair sharing one candidate inverse.  Every "which simplices
have these faces" question, the horn slots, the fillers, the witness
triangles and the loop composites, is one lookup in
:meth:`FinSSet.faces_index` ``(n, at)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ordinals import degeneracy
from .sset import (
    FinSSet,
    SimplexRef,
    TruncationError,
    ValidationReport,
    depth_first,
    nondeg_ref,
    subcomplex,
)


@dataclass(frozen=True)
class HornProblem:
    """Faces of a hoped-for dim-simplex, all except index ``missing``."""

    dim: int
    missing: int
    faces: tuple

    def __post_init__(self):
        if not 0 <= self.missing <= self.dim:
            raise ValueError("missing face index out of range")
        if len(self.faces) != self.dim + 1:
            raise ValueError("need one slot per face")
        if self.faces[self.missing] is not None:
            raise ValueError("the missing face must be left as None")


def find_filler(x: FinSSet, p: HornProblem):
    """The first simplex, in ``simplices`` order, matching every given
    face, or None."""
    n = p.dim
    if n > x.truncation:
        raise TruncationError(
            f"fillers at dimension {n} exceed truncation {x.truncation}"
        )
    at = tuple(i for i in range(n + 1) if i != p.missing)
    pool = x.faces_index(n, at).get(tuple(p.faces[i] for i in at), ())
    return pool[0] if pool else None


def horn_problems(x: FinSSet, n: int, k: int):
    """All compatible horn problems of this shape, lazily, from
    :func:`~qckit.sset.depth_first` over the face slots in index order.
    A slot's candidates are the (n-1)-simplices, in ``simplices`` order,
    whose faces agree with the earlier slots by the simplicial
    identities, so problems come lexicographically in that order."""
    table = x.face_table(n - 1)
    slots = [i for i in range(n + 1) if i != k]
    # the slots before slot t fix its faces at their own positions
    pools = [x.faces_index(n - 1, slots[:t]) for t in range(len(slots))]
    chosen: dict[int, SimplexRef] = {}

    def candidates(t: int):
        i = slots[t]
        # face i - 1 of each earlier slot j is what face j of slot i must be
        return pools[t].get(tuple(table[chosen[j]][i - 1] for j in slots[:t]), ())

    for _ in depth_first([(chosen, i) for i in slots], candidates):
        yield HornProblem(n, k, tuple(chosen.get(i) for i in range(n + 1)))


def _filler_survey(x: FinSSet, max_dim: int, inner_only: bool) -> ValidationReport:
    kind = "inner horns" if inner_only else "horns"
    report = ValidationReport(f"{kind} up to dimension {max_dim}")
    if max_dim > x.truncation:
        raise TruncationError(
            f"cannot check dimension {max_dim} at truncation {x.truncation}"
        )
    for n in range(2, max_dim + 1):
        ks = range(1, n) if inner_only else range(n + 1)
        for k in ks:
            unfilled = 0
            first = None
            for p in horn_problems(x, n, k):
                if find_filler(x, p) is None:
                    unfilled += 1
                    if first is None:
                        first = p
            if unfilled:
                shown = tuple(
                    None if f is None else f.sort_key() for f in first.faces
                )
                report.problems.append(
                    f"{unfilled} unfillable ({n},{k})-horns, first {shown}"
                )
    return report


def is_quasicategory_up_to(x: FinSSet, max_dim: int) -> ValidationReport:
    """Every compatible inner horn up to max_dim admits a filler."""
    return _filler_survey(x, max_dim, inner_only=True)


def is_kan_up_to(x: FinSSet, max_dim: int) -> ValidationReport:
    """Every compatible horn, outer ones included, admits a filler."""
    return _filler_survey(x, max_dim, inner_only=False)


# -- invertible edges and the core ------------------------------------


def is_invertible_edge(x: FinSSet, e: SimplexRef) -> bool:
    """One candidate inverse g must witness both composites: a triangle
    g . e = identity at the source and a triangle e . g = identity at
    the target.  Degenerate edges carry their doubly degenerate witness
    in any simplicial set; below truncation 2 there are no witnesses."""
    if e.dim != 1:
        raise ValueError("invertibility applies to edges")
    if e.is_degenerate:
        return True
    if x.truncation < 2:
        return False
    tgt, src = x.face_table(1)[e]
    id_src = x.apply(src, degeneracy(0, 0))
    id_tgt = x.apply(tgt, degeneracy(0, 0))
    # (d0, d1, d2) = (g, id_src, e) witnesses g . e, (e, id_tgt, g) e . g
    table = x.face_table(2)
    both = x.faces_index(2)
    return any(
        (e, id_tgt, table[t][0]) in both
        for t in x.faces_index(2, (1, 2)).get((id_src, e), ())
    )


def invertible_edge_cells(x: FinSSet) -> tuple[str, ...]:
    if x.truncation < 1:
        return ()
    return tuple(
        c for c in x.nondegenerate(1)
        if is_invertible_edge(x, nondeg_ref(c, 1))
    )


@dataclass
class CoreResult:
    sset: FinSSet
    invertible_edges: tuple[str, ...]


def core(x: FinSSet) -> CoreResult:
    """The largest subcomplex all of whose edges are invertible: every
    vertex, the invertible edges, and each higher cell whose face
    entries all name kept cells.  That is the same rule, because for
    d >= 2 every edge of a d-cell lies in one of its faces, and a face
    entry's epi is onto its cell."""
    good = invertible_edge_cells(x)
    kept = set(good)
    return CoreResult(
        subcomplex(x, lambda c, d: d != 1 or c in kept), tuple(sorted(good))
    )


# -- path components and the fundamental group ------------------------


def _root(parent, v):
    """The root of v in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent, a, b) -> None:
    """Hangs a's tree under b's root."""
    ra, rb = _root(parent, a), _root(parent, b)
    if ra != rb:
        parent[ra] = rb


def pi0(x: FinSSet) -> tuple[tuple[str, ...], ...]:
    """Vertex components under zigzags of edges."""
    parent = {v: v for v in x.nondegenerate(0)}
    if x.truncation >= 1:
        table = x.face_table(1)
        for e in x.nondegenerate(1):
            tgt, src = table[nondeg_ref(e, 1)]
            _union(parent, src.cell, tgt.cell)
    comps: dict[str, list[str]] = {}
    for v in parent:
        comps.setdefault(_root(parent, v), []).append(v)
    return tuple(sorted(tuple(sorted(vs)) for vs in comps.values()))


@dataclass
class Pi1Result:
    """Loop classes at a basepoint with their composition table.

    ``table[i, j]`` is the class of (representative of i) composed after
    (representative of j); ``problems`` collects every failure of the
    group laws, so ``ok`` means the table is a genuine group."""

    basepoint: str
    classes: tuple[tuple[SimplexRef, ...], ...]
    identity: int
    table: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def order(self) -> int:
        return len(self.classes)


def pi1(x: FinSSet, basepoint: str) -> Pi1Result:
    """Loops at the basepoint modulo triangles with a degenerate leg,
    multiplied through triangle fillers.  Trustworthy when the relevant
    horns fill (the problems list says when they do not)."""
    if x.truncation < 2:
        raise TruncationError("fundamental group needs 2-simplices")
    b = nondeg_ref(basepoint, 0)
    id_b = x.apply(b, degeneracy(0, 0))
    loops = [r for r, faces in x.face_table(1).items() if faces == (b, b)]
    index = {r: i for i, r in enumerate(loops)}
    parent = list(range(len(loops)))

    triangles = x.face_table(2)
    for d0, d1, d2 in triangles.values():
        if d0 in index and d1 in index and d2 in index:
            if d0 == id_b:
                _union(parent, index[d2], index[d1])
            if d2 == id_b:
                _union(parent, index[d0], index[d1])

    roots = sorted({_root(parent, i) for i in range(len(loops))},
                   key=lambda i: loops[i].sort_key())
    root_pos = {r: t for t, r in enumerate(roots)}
    classes = tuple(
        tuple(sorted(
            (loops[i] for i in range(len(loops)) if _root(parent, i) == r),
            key=SimplexRef.sort_key,
        ))
        for r in roots
    )
    result = Pi1Result(
        basepoint, classes, root_pos[_root(parent, index[id_b])]
    )

    # a triangle with loops e, f as d0, d2 has a loop as d1: e after f
    composites = x.faces_index(2, (0, 2))
    for i, j in itertools.product(range(len(classes)), repeat=2):
        values = set()
        for e in classes[i]:
            for f in classes[j]:
                for t in composites.get((e, f), ()):
                    values.add(root_pos[_root(parent, index[triangles[t][1]])])
        if not values:
            result.problems.append(f"no composite for classes ({i}, {j})")
        elif len(values) > 1:
            result.problems.append(
                f"composite of classes ({i}, {j}) ambiguous: {sorted(values)}"
            )
        else:
            result.table[i, j] = values.pop()

    if result.ok:
        n = len(classes)
        e = result.identity
        for i in range(n):
            if result.table[e, i] != i or result.table[i, e] != i:
                result.problems.append(f"identity fails at class {i}")
            if not any(
                result.table[i, j] == e and result.table[j, i] == e
                for j in range(n)
            ):
                result.problems.append(f"no inverse for class {i}")
        for i, j, k in itertools.product(range(n), repeat=3):
            if result.table[result.table[i, j], k] != (
                result.table[i, result.table[j, k]]
            ):
                result.problems.append(
                    f"associativity fails at ({i}, {j}, {k})"
                )
                break
    return result


# -- small group tables -----------------------------------------------


def tables_isomorphic(t1: dict, t2: dict) -> bool:
    """Brute force: meant for the small groups that arise here."""
    n1 = max(i for i, _ in t1) + 1 if t1 else 0
    n2 = max(i for i, _ in t2) + 1 if t2 else 0
    if len(t1) != n1 * n1 or len(t2) != n2 * n2:
        raise ValueError("tables must be total")
    if n1 != n2:
        return False
    for perm in itertools.permutations(range(n1)):
        if all(
            perm[t1[i, j]] == t2[perm[i], perm[j]]
            for i in range(n1) for j in range(n1)
        ):
            return True
    return False
