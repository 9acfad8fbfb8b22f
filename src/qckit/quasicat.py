"""Horn filling, invertible edges, the core, and homotopy invariants.

Everything here is exhaustive search over a finite truncated simplicial
set: horn problems are enumerated with pairwise face compatibility as
the constraint, and edge invertibility asks for a single two-sided
witness pair sharing one candidate inverse.  Every "which simplices
have these faces" question, the horn slots, the fillers, the witness
triangles and the loop composites, is one read of the one face lookup,
:meth:`FinSSet.position_index` ``(n, at)``, and a simplex's own faces
come from the kept action tables of the face operators.  The searches
hold positions; refs are built only for the results: one horn search
serves :func:`horn_problems` and the surveys, which test each horn
against ``position_index`` and build refs for the first unfillable one.
"""

from __future__ import annotations

import itertools

from . import Frozen
from .ordinals import degeneracy, face
from .sset import (
    FinSSet,
    SimplexRef,
    TruncationError,
    UnknownCellError,
    ValidationReport,
    associativity_failures,
    depth_first,
    nondeg_ref,
    subcomplex,
)


class HornProblem(Frozen):
    """Faces of a hoped-for dim-simplex, all except index ``missing``."""

    _fields = ("dim", "missing", "faces")

    def __init__(self, dim: int, missing: int, faces: tuple):
        if not 0 <= missing <= dim:
            raise ValueError("missing face index out of range")
        if len(faces) != dim + 1:
            raise ValueError("need one slot per face")
        if faces[missing] is not None:
            raise ValueError("the missing face must be left as None")
        super().__init__(dim, missing, faces)


def find_filler(x: FinSSet, p: HornProblem):
    """The first simplex, in ``simplices`` order, matching every given
    face, or None.  Above x's truncation the set's own check raises."""
    n = p.dim
    at = tuple(i for i in range(n + 1) if i != p.missing)
    # a face that is not an (n-1)-simplex of x has no position: no filler
    pos = x.position(n - 1)
    pool = x.position_index(n, at).get(tuple([pos.get(p.faces[i]) for i in at]), ())
    return x.simplices(n)[pool[0]] if pool else None


def _horn_search(x: FinSSet, n: int, k: int):
    """The horn search on positions: yields its own ``chosen`` dict, face
    index -> position in ``simplices(n - 1)``, once per compatible horn,
    from :func:`~qckit.sset.depth_first` over the face slots in order."""
    slots = [i for i in range(n + 1) if i != k]
    # the slots before slot t fix its faces at their own positions
    pools = [x.position_index(n - 1, slots[:t]) for t in range(len(slots))]
    # face i - 1 of each earlier slot j is what face j of slot i must be
    # (the first slot has no earlier one, and no table)
    acts = {i: x.action(face(n - 1, i - 1)) for i in slots[1:]}
    chosen: dict[int, int] = {}

    def candidates(t: int):
        act = acts.get(slots[t])
        return pools[t].get(tuple([act[chosen[j]] for j in slots[:t]]), ())

    for _ in depth_first([(chosen, i) for i in slots], candidates):
        yield chosen


def horn_problems(x: FinSSet, n: int, k: int):
    """All compatible horn problems of this shape, lazily.  A face slot's
    candidates are the (n-1)-simplices, in ``simplices`` order, whose
    faces agree with the earlier slots by the simplicial identities, so
    problems come lexicographically in that order.  Raises ValueError
    naming the shape unless n >= 2 and 0 <= k <= n."""
    if n < 2 or not 0 <= k <= n:
        raise ValueError(f"no ({n},{k})-horn: need n >= 2 and 0 <= k <= n")
    sims = x.simplices(n - 1)
    for chosen in _horn_search(x, n, k):
        yield HornProblem(n, k, tuple(
            None if i == k else sims[chosen[i]] for i in range(n + 1)))


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
            at = tuple(i for i in range(n + 1) if i != k)
            fillers = x.position_index(n, at)
            unfilled = 0
            first = None
            for chosen in _horn_search(x, n, k):
                if tuple([chosen[i] for i in at]) not in fillers:
                    unfilled += 1
                    if first is None:
                        first = dict(chosen)
            if unfilled:
                shown = tuple(
                    None if i == k else x.simplices(n - 1)[first[i]].sort_key()
                    for i in range(n + 1)
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
    p = x.position(1)[e]
    s0 = x.action(degeneracy(0, 0))
    id_src = s0[x.action(face(1, 1))[p]]
    id_tgt = s0[x.action(face(1, 0))[p]]
    # (d0, d1, d2) = (g, id_src, e) witnesses g . e, (e, id_tgt, g) e . g
    d0 = x.action(face(2, 0))
    both = x.position_index(2)
    return any(
        (p, id_tgt, d0[t]) in both
        for t in x.position_index(2, (1, 2)).get((id_src, p), ())
    )


def invertible_edge_cells(x: FinSSet) -> tuple[str, ...]:
    if x.truncation < 1:
        return ()
    return tuple(
        c for c in x.nondegenerate(1)
        if is_invertible_edge(x, nondeg_ref(c, 1))
    )


class CoreResult:
    def __init__(self, sset: FinSSet, invertible_edges: tuple[str, ...]):
        self.sset = sset
        self.invertible_edges = invertible_edges


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
    # the vertices are the 0-simplices, so positions stand for them
    verts = x.nondegenerate(0)
    parent = list(range(len(verts)))
    if x.truncation >= 1:
        for tgt, src in zip(x.action(face(1, 0)), x.action(face(1, 1))):
            _union(parent, src, tgt)
    comps: dict[int, list[str]] = {}
    for v, name in enumerate(verts):
        comps.setdefault(_root(parent, v), []).append(name)
    return tuple(sorted(tuple(sorted(vs)) for vs in comps.values()))


class Pi1Result:
    """Loop classes at a basepoint with their composition table.

    ``table[i, j]`` is the class of (representative of i) composed after
    (representative of j); ``problems`` collects every failure of the
    group laws, so ``ok`` means the table is a genuine group."""

    def __init__(self, basepoint: str, classes: tuple[tuple[SimplexRef, ...], ...],
                 identity: int, table: dict | None = None, problems: list | None = None):
        self.basepoint = basepoint
        self.classes = classes
        self.identity = identity
        self.table = {} if table is None else table
        self.problems = [] if problems is None else problems

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
    b = x.position(0).get(nondeg_ref(basepoint, 0))
    if b is None:
        raise UnknownCellError(f"basepoint {basepoint!r} is not a vertex")
    id_b = x.action(degeneracy(0, 0))[b]
    ends = zip(x.action(face(1, 0)), x.action(face(1, 1)))
    # the loops at b by position, each its own class to begin with
    parent = {p: p for p, (tgt, src) in enumerate(ends) if tgt == src == b}

    d1 = x.action(face(2, 1))
    for t0, t1, t2 in zip(x.action(face(2, 0)), d1, x.action(face(2, 2))):
        if t0 in parent and t1 in parent and t2 in parent:
            if t0 == id_b:
                _union(parent, t2, t1)
            if t2 == id_b:
                _union(parent, t0, t1)

    # classes come in their roots' sort_key order, loops in their own
    edges = x.simplices(1)
    key = lambda p: edges[p].sort_key()
    roots = sorted({_root(parent, p) for p in parent}, key=key)
    root_pos = {r: c for c, r in enumerate(roots)}
    cls = {p: root_pos[_root(parent, p)] for p in parent}
    members = [sorted((p for p in parent if cls[p] == c), key=key)
               for c in range(len(roots))]
    result = Pi1Result(
        basepoint, tuple(tuple(edges[p] for p in ps) for ps in members), cls[id_b]
    )

    # a triangle with loops e, f as d0, d2 has a loop as d1: e after f
    composites = x.position_index(2, (0, 2))
    for i, j in itertools.product(range(len(members)), repeat=2):
        values = {
            cls[d1[t]]
            for e in members[i] for f in members[j]
            for t in composites.get((e, f), ())
        }
        if not values:
            result.problems.append(f"no composite for classes ({i}, {j})")
        elif len(values) > 1:
            result.problems.append(
                f"composite of classes ({i}, {j}) ambiguous: {sorted(values)}"
            )
        else:
            result.table[i, j] = values.pop()

    if result.ok:
        n = len(members)
        e = result.identity
        for i in range(n):
            if result.table[e, i] != i or result.table[i, e] != i:
                result.problems.append(f"identity fails at class {i}")
            if not any(
                result.table[i, j] == e and result.table[j, i] == e
                for j in range(n)
            ):
                result.problems.append(f"no inverse for class {i}")
        rows = [[result.table[i, j] for j in range(n)] for i in range(n)]
        for i, j, k in associativity_failures(rows, rows, rows, rows):
            result.problems.append(f"associativity fails at ({i}, {j}, {k})")
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
