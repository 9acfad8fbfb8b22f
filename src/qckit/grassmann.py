"""Exact rational subspaces and their direct sums.

The stratified Grassmannian's strictly associative direct sum, on
finite models: subspaces of (Q^base_dim)^copies in reduced row echelon
form, so equality of representations is equality of subspaces.  The
block direct sum ``boxplus`` is strictly associative and unital;
pairing-based sums, which route coordinates through an injection
N x 2 -> N, never are, and :func:`find_nonassociativity_witness`
exhibits the failure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from . import Frozen


# -- exact rational subspaces -----------------------------------------

# one shared zero: the pads of boxplus and the zeros _rref writes are
# this object, so comparing two sums' rows mostly meets identical entries
_ZERO = Fraction(0)


def _rref(rows) -> tuple:
    """Reduced row echelon over exact rationals, zero rows dropped.

    Each row is scaled to integers by the lcm of its denominators and
    eliminated on ints, every new row divided by its gcd; the pivots
    are divided out once, at the end."""
    mat = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        mat.append([x.numerator * (den // x.denominator) for x in r])
    if not mat:
        return ()
    lead = 0
    pivots = []
    for col in range(len(mat[0])):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        top = mat[lead]
        p = top[col]
        for i, row in enumerate(mat):
            c = row[col]
            if c and i != lead:
                row = [p * a - c * b for a, b in zip(row, top)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return tuple(
        tuple(Fraction(x, row[col]) if x else _ZERO for x in row)
        for row, col in zip(mat, pivots)
    )


def _is_reduced_echelon(rows) -> bool:
    """Whether ``rows`` is a tuple of tuples in reduced row echelon form
    with no zero row, which holds exactly when ``_rref(rows) == rows``:
    each row's first nonzero entry is 1, those pivots strictly increase,
    and every other entry in a pivot column is 0."""
    if not isinstance(rows, tuple):
        return False
    pivots = []
    for r in rows:
        if not isinstance(r, tuple):
            return False
        col = next((j for j, x in enumerate(r) if x), None)
        if col is None or r[col] != 1 or (pivots and col <= pivots[-1]):
            return False
        pivots.append(col)
    # entries below a pivot precede their row's own pivot, so are 0
    return not any(
        r[col] for i, r in enumerate(rows) for col in pivots[i + 1:]
    )


class RationalSubspace(Frozen):
    """A subspace of (Q^base_dim)^copies in canonical echelon form, so
    equality of representations is equality of subspaces."""

    _fields = ("copies", "base_dim", "rows")

    def __init__(self, copies: int, base_dim: int, rows: tuple):
        width = copies * base_dim
        for r in rows:
            if len(r) != width:
                raise ValueError(f"row width {len(r)} != ambient {width}")
        if not _is_reduced_echelon(rows):
            raise ValueError("rows are not canonical; build with span()")
        super().__init__(copies, base_dim, rows)

    @classmethod
    def _canonical(cls, copies: int, base_dim: int, rows: tuple) -> "RationalSubspace":
        """Built unchecked from rows of the ambient width that are
        canonical by construction, as ``span``'s and ``boxplus``'s are."""
        out = object.__new__(cls)
        Frozen.__init__(out, copies, base_dim, rows)
        return out

    @property
    def ambient_dim(self) -> int:
        return self.copies * self.base_dim

    @property
    def rank(self) -> int:
        return len(self.rows)


def span(copies: int, base_dim: int, vectors) -> RationalSubspace:
    width = copies * base_dim
    rows = [
        tuple(Fraction(x) for x in v) for v in vectors
    ]
    for r in rows:
        if len(r) != width:
            raise ValueError(f"vector width {len(r)} != ambient {width}")
    return RationalSubspace._canonical(copies, base_dim, _rref(rows))


def zero_subspace(base_dim: int) -> RationalSubspace:
    """Zero copies of the base: the strict unit for boxplus."""
    return RationalSubspace(0, base_dim, ())


def axis_subspace(copies: int, base_dim: int, index: int) -> RationalSubspace:
    width = copies * base_dim
    if not 0 <= index < width:
        raise ValueError(f"axis {index} outside ambient {width}")
    row = tuple(
        Fraction(1 if i == index else 0) for i in range(width)
    )
    return RationalSubspace(copies, base_dim, (row,))


def boxplus(v: RationalSubspace, w: RationalSubspace) -> RationalSubspace:
    """Block direct sum: v in the first copies, w in the last.  Strictly
    associative because blocks concatenate."""
    if v.base_dim != w.base_dim:
        raise ValueError(
            f"base dimensions differ: {v.base_dim} != {w.base_dim}"
        )
    left_pad = (_ZERO,) * v.ambient_dim
    right_pad = (_ZERO,) * w.ambient_dim
    rows = tuple(r + right_pad for r in v.rows) + tuple(
        left_pad + r for r in w.rows
    )
    return RationalSubspace._canonical(v.copies + w.copies, v.base_dim, rows)


def random_subspace(rng, copies: int, base_dim: int, max_rank: int) -> RationalSubspace:
    k = rng.randint(0, max_rank)
    vectors = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(copies * base_dim)
        ]
        for _ in range(k)
    ]
    return span(copies, base_dim, vectors)


# -- pairing-based sums and their non-associativity -------------------


def cantor_pairing(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def szudzik_pairing(a: int, b: int) -> int:
    return a * a + a + b if a >= b else b * b + a


class WindowOverflowError(ValueError):
    def __init__(self, needed: int, window: int):
        self.needed = needed
        self.window = window
        super().__init__(
            f"pairing image needs coordinate {needed - 1} but the window "
            f"has {window}; rebuild the subspaces in an ambient window of "
            f"at least {needed} coordinates"
        )


def pairing_sum(v: RationalSubspace, w: RationalSubspace,
                pairing=cantor_pairing) -> RationalSubspace:
    """Sum through a chosen injection: coordinates of v run through
    pairing(i, 0), coordinates of w through pairing(j, 1), inside one
    shared window.  Raises when an occupied coordinate routes outside."""
    if (v.copies, v.base_dim) != (w.copies, w.base_dim):
        raise ValueError("pairing sum needs a shared ambient window")
    window = v.ambient_dim

    def route(rows, side):
        out = []
        for r in rows:
            new = [Fraction(0)] * window
            for j, x in enumerate(r):
                if x == 0:
                    continue
                image = pairing(j, side)
                if image >= window:
                    raise WindowOverflowError(image + 1, window)
                new[image] = x
            out.append(new)
        return out

    routed = route(v.rows, 0) + route(w.rows, 1)
    return span(v.copies, v.base_dim, routed)


# the witness search reads the axes 0 .. WITNESS_AXES - 1, so its window
# must hold that many coordinates
WITNESS_AXES = 3


class NonassociativityWitness:
    def __init__(self, v: RationalSubspace, w: RationalSubspace, u: RationalSubspace,
                 left: RationalSubspace, right: RationalSubspace):
        self.v, self.w, self.u = v, w, u
        self.left, self.right = left, right

    def to_json(self) -> dict:
        def rows(s):
            return [[str(x) for x in r] for r in s.rows]

        return {
            "v": rows(self.v),
            "w": rows(self.w),
            "u": rows(self.u),
            "left_association": rows(self.left),
            "right_association": rows(self.right),
        }


def find_nonassociativity_witness(pairing=cantor_pairing, window: int = 16):
    """Searches the axis lines 0 .. WITNESS_AXES - 1 for (v+w)+u !=
    v+(w+u); triples that overflow the window are skipped.  Returns None
    only if nothing in range witnesses the failure."""
    for a, b, c in itertools.product(range(WITNESS_AXES), repeat=3):
        v = axis_subspace(1, window, a)
        w = axis_subspace(1, window, b)
        u = axis_subspace(1, window, c)
        try:
            left = pairing_sum(pairing_sum(v, w, pairing), u, pairing)
            right = pairing_sum(v, pairing_sum(w, u, pairing), pairing)
        except WindowOverflowError:
            continue
        if left != right:
            return NonassociativityWitness(v, w, u, left, right)
    return None
