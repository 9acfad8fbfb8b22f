"""Joins of simplicial sets, slice constructions, and edge anatomy.

The join X * Y is built by one rule: a nondegenerate n-cell is a pair
(a, b) of nondegenerate cells with dim a + dim b = n - 1, where either
part may be the empty part (None, of dimension -1), so a cell of X or of
Y alone is a pair with an empty part.  Face i of (a, b) is face i of a
when i <= dim a and face i - dim a - 1 of b otherwise; the face of a
vertex is the empty part.  Maps of joins (:func:`join_of_maps`) go part
by part by the same rule.  The test oracles hold what only the tests
read: the cofactor inclusions, the isomorphism simplex(k) * simplex(l)
= simplex(k+1+l), the slice and coslice projections, and the equivalent
presentation by triples (projection to the interval, left part, right
part), bijective with the pairs level by level.

Slices are simplicial sets of anchored maps out of joins with a standard
simplex; the vertex-anchored under-slice has a fastpath through the cone
identification point * simplex = next simplex.  Both are materialized on
positions in the base's ``simplices``, acted on by its kept action
tables; the coslice builds refs once per cell at the end, and a slice
cell's only when its assignment is asked for.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .ordinals import MonotoneMap
from .sset import (
    FinSSet,
    SimplexRef,
    SimplicialMap,
    TruncationError,
    UnknownCellError,
    ValidationReport,
    depth_first,
    identity_map,
    materialize_presheaf,
    nondeg_ref,
    point,
    standard_map,
    standard_simplex,
)


def _join_id(a: str | None, b: str | None) -> str:
    """The id of the pair (a, b): ``a|``, ``|b`` or ``a|b``."""
    return f"{'' if a is None else a}|{'' if b is None else b}"


def _join_ref(l: SimplexRef | None, r: SimplexRef | None) -> SimplexRef:
    """The join simplex with parts l and r: l's epi on the left block,
    r's shifted past it.  An empty part (None) adds no block."""
    lv, lt, a = ((), -1, None) if l is None else (
        l.epi.values, l.epi.target_arity, l.cell)
    rv, rt, b = ((), -1, None) if r is None else (
        r.epi.values, r.epi.target_arity, r.cell)
    epi = MonotoneMap(len(lv) + len(rv) - 1, lt + rt + 1,
                      lv + tuple(lt + 1 + v for v in rv))
    return SimplexRef(epi, _join_id(a, b))


def _part_face(x: FinSSet, c: str, d: int, i: int) -> SimplexRef | None:
    """Face i of the part c of dimension d; a vertex's face is empty."""
    return None if d == 0 else x.face_entry(c, i)


class JoinSSet(FinSSet):
    """A join with the part decomposition of every cell retained."""

    def __init__(self, truncation, cells, faces, parts, factors):
        super().__init__(truncation, cells, faces)
        self.parts: dict[str, tuple[str | None, str | None]] = parts
        self.factors: tuple[FinSSet, FinSSet] = factors


def join(x: FinSSet, y: FinSSet) -> JoinSSet:
    """The join, truncated at trunc(x) + trunc(y) + 1."""
    for s in (x, y):
        for d in range(s.truncation + 1):
            for c in s.nondegenerate(d):
                if "|" in c:
                    raise ValueError(
                        f"cell id {c!r} contains the join separator"
                    )
    trunc = x.truncation + y.truncation + 1
    cells: dict[int, list[str]] = {d: [] for d in range(trunc + 1)}
    faces: dict[str, list[SimplexRef]] = {}
    parts: dict[str, tuple[str | None, str | None]] = {}
    # (dim a, dim b) blocks, -1 for the empty part, in the cell order of
    # each dimension: x's cells, then y's, then pairs by increasing cut
    px, py = range(x.truncation + 1), range(y.truncation + 1)
    blocks = ([(p, -1) for p in px] + [(-1, q) for q in py]
              + [(p, q) for p in px for q in py])
    for p, q in blocks:
        n = p + q + 1
        for a in [None] if p == -1 else x.nondegenerate(p):
            for b in [None] if q == -1 else y.nondegenerate(q):
                cid = _join_id(a, b)
                cells[n].append(cid)
                parts[cid] = (a, b)
                if n >= 1:
                    whole_a = None if a is None else nondeg_ref(a, p)
                    whole_b = None if b is None else nondeg_ref(b, q)
                    faces[cid] = [
                        _join_ref(_part_face(x, a, p, i), whole_b) if i <= p
                        else _join_ref(whole_a, _part_face(y, b, q, i - p - 1))
                        for i in range(n + 1)
                    ]
    return JoinSSet(trunc, cells, faces, parts, (x, y))


def join_of_maps(f: SimplicialMap, g: SimplicialMap,
                 source: JoinSSet | None = None,
                 target: JoinSSet | None = None) -> SimplicialMap:
    """f * g between the joins, part by part."""
    src = source if source is not None else join(f.source, g.source)
    tgt = target if target is not None else join(f.target, g.target)
    assignment = {
        cid: _join_ref(None if a is None else f.assignment[a],
                       None if b is None else g.assignment[b])
        for cid, (a, b) in src.parts.items()
    }
    return SimplicialMap(src, tgt, assignment)


# -- slices -----------------------------------------------------------


class SlicePresentation:
    def __init__(self, base: FinSSet, anchor: SimplicialMap, side: str = "under"):
        if side not in ("under", "over"):
            raise ValueError(f"side must be 'under' or 'over', got {side!r}")
        self.base = base
        self.anchor = anchor
        self.side = side


def vertex_anchor(base: FinSSet, vertex: str) -> SimplicialMap:
    if not base.has_cell(vertex) or base.dim_of(vertex) != 0:
        raise UnknownCellError(f"anchor vertex {vertex!r} is not a vertex")
    k = point("pt")
    return SimplicialMap(k, base, {"pt": nondeg_ref(vertex, 0)})


class SliceSSet(FinSSet):
    """Slice cells are anchored maps, each kept as ``value_of[c]``: the
    positions in the base's ``simplices`` of its values on the level's
    shape cells, ``shape_cells[n]`` in order, named by :meth:`assignment`."""

    def __init__(self, truncation, cells, faces, value_of, shape_cells, presentation):
        super().__init__(truncation, cells, faces)
        self.value_of: dict[str, tuple[int, ...]] = value_of
        self.shape_cells: list[list[tuple[int, str]]] = shape_cells
        self.presentation: SlicePresentation = presentation

    def assignment(self, c: str) -> tuple:
        """The anchored map c as sorted (shape cell, base simplex) pairs."""
        simplices = self.presentation.base.simplices
        return tuple(sorted(
            (sc, simplices(d)[p])
            for (d, sc), p in zip(self.shape_cells[self.dim_of(c)], self.value_of[c])
        ))


def _enumerate_anchored_maps(shape: JoinSSet, cells: list, base: FinSSet,
                             fixed: dict) -> list[tuple]:
    """All simplicial maps shape -> base extending the fixed assignment,
    as tuples of positions in the base's ``simplices``, one per entry of
    ``cells`` (the shape's (dim, cell) pairs in cell order), in the leaf
    order of :func:`~qckit.sset.depth_first` over the free cells by
    dimension.  A cell's candidates come from the base's
    ``position_index`` under its face entries' values, each taken to the
    face's level by a kept action table."""
    order = [(d, c) for d, c in cells if c not in fixed]
    assignment = {c: base.position(shape.dim_of(c))[r] for c, r in fixed.items()}
    # per free cell of dimension >= 1: (face cell, its value's table) per face
    faces = {
        c: [(r.cell, base.action(r.epi)) for r in shape.face_entries(c)]
        for d, c in order if d
    }

    index = {d: base.position_index(d) for d, _ in order if d}

    def candidates(k: int):
        d, c = order[k]
        if d == 0:
            return range(len(base.simplices(0)))
        key = tuple([act[assignment[f]] for f, act in faces[c]])
        return index[d].get(key, ())

    return [tuple([assignment[c] for _, c in cells])
            for _ in depth_first([(assignment, c) for _, c in order], candidates)]


def slice_sset(pres: SlicePresentation, dim: int) -> SliceSSet:
    """The slice as a simplicial set of anchored maps out of joins.

    Under side: cells at level n are maps K * simplex(n) -> base that
    restrict to the anchor on K; over side puts K on the right.  The
    truncation of the base must reach dim + trunc(K) + 1.  The maps are
    materialized, and kept, as base positions.
    """
    k_set = pres.anchor.source
    base = pres.base
    need = dim + k_set.truncation + 1
    if need > base.truncation:
        raise TruncationError(
            f"slice dimension {dim} needs base truncation {need}, "
            f"have {base.truncation}"
        )
    under = pres.side == "under"
    shapes = [join(k_set, standard_simplex(n)) if under else join(standard_simplex(n), k_set)
              for n in range(dim + 1)]
    shape_cells = [[(d, c) for d in range(s.truncation + 1) for c in s.nondegenerate(d)]
                   for s in shapes]

    # the anchor's part of every level's maps, on K's cells in the join
    fixed = {
        (_join_id(c, None) if under else _join_id(None, c)):
            pres.anchor.assignment[c]
        for d in range(k_set.truncation + 1)
        for c in k_set.nondegenerate(d)
    }
    levels = [_enumerate_anchored_maps(s, cs, base, fixed)
              for s, cs in zip(shapes, shape_cells)]

    # alpha: [l] -> [n] -> per cell of shapes[l], the index in shape_cells[n]
    # of its join-map image and the table of the image's epi; once per alpha
    plans: dict[MonotoneMap, list[tuple]] = {}

    def act(value: tuple, alpha: MonotoneMap) -> tuple:
        plan = plans.get(alpha)
        if plan is None:
            l, n = alpha.source_arity, alpha.target_arity
            ident, amap = identity_map(k_set), standard_map(alpha)
            jm = join_of_maps(*((ident, amap) if under else (amap, ident)),
                              shapes[l], shapes[n])
            at = {c: t for t, (_, c) in enumerate(shape_cells[n])}
            images = [jm.assignment[c] for _, c in shape_cells[l]]
            plan = plans[alpha] = [(at[r.cell], base.action(r.epi)) for r in images]
        return tuple([table[value[t]] for t, table in plan])

    counter = itertools.count()
    cells, faces, value_of = materialize_presheaf(
        levels, act, lambda n, value: f"m{n}_{next(counter)}")
    return SliceSSet(dim, cells, faces, value_of, shape_cells, pres)


# -- the vertex-anchored coslice fastpath -----------------------------


@lru_cache(maxsize=None)
def cone_operator(alpha: MonotoneMap) -> MonotoneMap:
    """[l+1] -> [n+1] fixing 0 and acting as alpha above it."""
    return MonotoneMap(
        alpha.source_arity + 1,
        alpha.target_arity + 1,
        (0,) + tuple(v + 1 for v in alpha.values),
    )


class CosliceSSet(FinSSet):
    """Vertex coslice via the cone identification: an n-cell is an
    (n+1)-simplex of the base starting at the anchor vertex."""

    def __init__(self, truncation, cells, faces, underlying, base):
        super().__init__(truncation, cells, faces)
        self.underlying: dict[str, SimplexRef] = underlying
        self.base: FinSSet = base

    def underlying_ref(self, ref: SimplexRef) -> SimplexRef:
        """The base simplex beneath any coslice simplex."""
        u = self.underlying[ref.cell]
        return self.base.apply(u, cone_operator(ref.epi))


def coslice_fastpath(base: FinSSet, vertex: str, dim: int) -> CosliceSSet:
    """The under-slice at a vertex, one dimension shift down the base,
    on positions acted on by ``base.action(cone_operator(alpha))``."""
    if dim + 1 > base.truncation:
        raise TruncationError(
            f"coslice dimension {dim} needs base truncation {dim + 1}, "
            f"have {base.truncation}"
        )
    if not base.has_cell(vertex) or base.dim_of(vertex) != 0:
        raise UnknownCellError(f"{vertex!r} is not a vertex")
    # the positions in base.simplices(n + 1) whose vertex 0, read off
    # the kept table of [0] -> [n + 1], is the anchor
    anchor = base.position(0)[nondeg_ref(vertex, 0)]
    levels = [
        [p for p, v in enumerate(base.action(MonotoneMap(0, n + 1, (0,))))
         if v == anchor]
        for n in range(dim + 1)
    ]

    def act(value: int, alpha: MonotoneMap) -> int:
        return base.action(cone_operator(alpha))[value]

    def id_fn(n: int, value: int) -> str:
        s = base.simplices(n + 1)[value]
        return f"c:{s.cell}" if s.epi.is_identity else f"c:s0:{s.cell}"

    cells, faces, value_of = materialize_presheaf(levels, act, id_fn)
    underlying = {c: base.simplices(n + 1)[value_of[c]]
                  for n in range(dim + 1) for c in cells[n]}
    return CosliceSSet(dim, cells, faces, underlying, base)


def cross_validate_coslice(base: FinSSet, vertex: str, dim: int):
    """Checks the fastpath against the generic slice cell for cell.

    Returns (report, fastpath, generic).  The correspondence sends an
    anchored map to the image of its top join cell.  An n-cell of either
    side is read as a position in ``base.simplices(n + 1)``, and a face
    entry as that position acted on by ``base.action(cone_operator(epi))``.
    """
    report = ValidationReport("coslice cross-validation")
    fast = coslice_fastpath(base, vertex, dim)
    pres = SlicePresentation(base, vertex_anchor(base, vertex), "under")
    generic = slice_sset(pres, dim)
    fast_pos = {c: base.position(fast.dim_of(c) + 1)[r] for c, r in fast.underlying.items()}
    # the top join cell is the last of its shape's cells
    gen_pos = {c: value[-1] for c, value in generic.value_of.items()}

    def at(pos: dict, ref: SimplexRef) -> int:
        return base.action(cone_operator(ref.epi))[pos[ref.cell]]

    for n in range(dim + 1):
        fast_cells = {}
        for c in fast.nondegenerate(n):
            fast_cells.setdefault(fast_pos[c], c)
        gen_cells = {}
        for c in generic.nondegenerate(n):
            gen_cells.setdefault(gen_pos[c], c)
        if set(fast_cells) != set(gen_cells):
            simplices = base.simplices(n + 1)
            report.problems.append(
                f"level {n}: top-cell images differ: "
                f"{sorted(simplices[p].sort_key() for p in fast_cells)} vs "
                f"{sorted(simplices[p].sort_key() for p in gen_cells)}"
            )
            continue
        if len(gen_cells) != generic.cell_count(n):
            report.problems.append(
                f"level {n}: generic slice cells not determined by top cell"
            )
        for p, fc in fast_cells.items():
            gc = gen_cells[p]
            for i in range(n + 1) if n >= 1 else ():
                fr, gr = fast.face_entry(fc, i), generic.face_entry(gc, i)
                if at(fast_pos, fr) != at(gen_pos, gr):
                    report.problems.append(
                        f"level {n}: face {i} disagrees at {fc!r} / {gc!r}"
                    )
    return report, fast, generic


def coslice_edge_anatomy(coslice: CosliceSSet, nerve_sset, edge: SimplexRef):
    """Decomposes a coslice edge over a coherent nerve into its triangle
    data (two sources, a composite target, and the connecting path), and
    checks the data reassembles the underlying 2-cell."""
    from .scat import classification_to_functor, functor_to_classification

    if edge.dim != 1:
        raise ValueError("anatomy applies to coslice edges")
    two = coslice.underlying_ref(edge)
    f = nerve_sset.functor_of_ref(two)
    data = functor_to_classification(f)
    rebuilt = classification_to_functor(2, f.target, data)
    if rebuilt != f:
        raise AssertionError("anatomy failed to reassemble the 2-cell")
    return data
