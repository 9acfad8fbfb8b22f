import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import all_monos, compose_word, generator_word, is_injective

from qckit.grassmann import RationalSubspace
from qckit.monoids import FiniteGroup, GradeMonoid
from qckit.ordinals import (
    ArityError,
    MonotoneMap,
    all_epis,
    all_maps,
    compose,
    degeneracy,
    epi_mono_factor,
    face,
    identity,
)
from qckit.quasicat import HornProblem
from qckit.scat import EdgeData, TetrahedronData, TriangleData
from qckit.sset import SimplexRef, nondeg_ref


def monotone_values(m, n):
    return st.lists(
        st.integers(min_value=0, max_value=n), min_size=m + 1, max_size=m + 1
    ).map(lambda vs: tuple(sorted(vs)))


@st.composite
def composable_triple(draw):
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    c = draw(st.integers(min_value=0, max_value=4))
    d = draw(st.integers(min_value=0, max_value=4))
    f = MonotoneMap(a, b, draw(monotone_values(a, b)))
    g = MonotoneMap(b, c, draw(monotone_values(b, c)))
    h = MonotoneMap(c, d, draw(monotone_values(c, d)))
    return f, g, h


# 1. composition is associative and unital
@given(composable_triple())
def test_compose_associative(fgh):
    f, g, h = fgh
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_compose_unital(m, n, data):
    f = MonotoneMap(m, n, data.draw(monotone_values(m, n)))
    assert compose(f, identity(m)) == f
    assert compose(identity(n), f) == f


def test_compose_arity_mismatch():
    f = face(2, 0)
    g = face(2, 1)
    with pytest.raises(ArityError):
        compose(g, f)


# 2. generator identities
@pytest.mark.parametrize("n", range(2, 6))
def test_coface_identities(n):
    # d_j . d_i = d_i . d_{j-1} for i < j, as maps [n-2] -> [n]
    for j in range(n + 1):
        for i in range(j):
            lhs = compose(face(n, j), face(n - 1, i))
            rhs = compose(face(n, i), face(n - 1, j - 1))
            assert lhs == rhs


@pytest.mark.parametrize("n", range(0, 4))
def test_codegeneracy_identities(n):
    # s_j . s_i = s_i . s_{j+1} for i <= j, as maps [n+2] -> [n]
    for j in range(n + 1):
        for i in range(j + 1):
            lhs = compose(degeneracy(n, j), degeneracy(n + 1, i))
            rhs = compose(degeneracy(n, i), degeneracy(n + 1, j + 1))
            assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 4))
def test_mixed_identities(n):
    # s_j . d_i, the three classical cases, as maps [n] -> [n]
    for j in range(n):
        for i in range(n + 1):
            got = compose(degeneracy(n - 1, j), face(n, i))
            if i < j:
                assert got == compose(face(n - 1, i), degeneracy(n - 2, j - 1))
            elif i in (j, j + 1):
                assert got == identity(n - 1)
            else:
                assert got == compose(face(n - 1, i - 1), degeneracy(n - 2, j))


# 3. enumeration counts against closed forms
@pytest.mark.parametrize("m", range(0, 5))
@pytest.mark.parametrize("n", range(0, 5))
def test_enumeration_counts(m, n):
    assert len(all_maps(m, n)) == math.comb(m + n + 1, m + 1)
    assert len(all_monos(m, n)) == (math.comb(n + 1, m + 1) if m <= n else 0)
    assert len(all_epis(m, n)) == (math.comb(m, n) if m >= n else 0)


# 4. epi-mono factorization: existence, correctness, uniqueness
@pytest.mark.parametrize("m", range(0, 5))
@pytest.mark.parametrize("n", range(0, 5))
def test_epi_mono_factor(m, n):
    for f in all_maps(m, n):
        epi, mono = epi_mono_factor(f)
        assert epi.is_surjective
        assert is_injective(mono)
        assert compose(mono, epi) == f


def test_epi_mono_factor_unique():
    for f in all_maps(3, 2):
        found = []
        for k in range(4):
            for epi in all_epis(3, k):
                for mono in all_monos(k, 2):
                    if compose(mono, epi) == f:
                        found.append((epi, mono))
        assert found == [epi_mono_factor(f)]


# 5. every monotone map is a composite of generators
@pytest.mark.parametrize("m", range(0, 5))
@pytest.mark.parametrize("n", range(0, 5))
def test_generator_word_recomposes(m, n):
    for f in all_maps(m, n):
        word = generator_word(f)
        assert compose_word(word, m) == f
        for g in word:
            assert abs(g.target_arity - g.source_arity) == 1


def test_malformed_maps_rejected():
    with pytest.raises(ArityError):
        MonotoneMap(1, 1, (1, 0))
    with pytest.raises(ArityError):
        MonotoneMap(1, 1, (0, 2))
    with pytest.raises(ArityError):
        MonotoneMap(2, 1, (0, 1))
    with pytest.raises(ArityError):
        face(0, 0)
    with pytest.raises(ArityError):
        degeneracy(1, 2)


# 6. the value types of every layer keep a frozen record's contract
VALUE_TYPES = {
    "MonotoneMap": (MonotoneMap, (1, 2, (0, 2)), "values"),
    "SimplexRef": (SimplexRef, (degeneracy(0, 0), "v"), "cell"),
    "HornProblem": (
        HornProblem, (2, 1, (nondeg_ref("a", 1), None, nondeg_ref("b", 1))), "missing"),
    "EdgeData": (EdgeData, ("1",), "v01"),
    "TriangleData": (TriangleData, ("1", "0", "1", nondeg_ref("g", 1)), "gamma"),
    "TetrahedronData": (TetrahedronData, (
        "1", "0", "1", *(nondeg_ref(e, 1) for e in ("g", "h", "e1", "e2", "e3")),
        nondeg_ref("l", 2), nondeg_ref("r", 2)), "tri_right"),
    "GradeMonoid": (GradeMonoid, (("0", "1+"), "0", {
        ("0", "0"): "0", ("0", "1+"): "1+", ("1+", "0"): "1+", ("1+", "1+"): "1+"}),
        "table"),
    "FiniteGroup": (FiniteGroup, ("Z/2", ("0", "1"), "0", {
        ("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}), "unit"),
    "RationalSubspace": (RationalSubspace, (1, 2, ((Fraction(0), Fraction(1)),)), "rows"),
}


# the repr text other modules' messages quote
REPRS = {
    "MonotoneMap": "MonotoneMap(source_arity=1, target_arity=2, values=(0, 2))",
    "SimplexRef": "SimplexRef(epi=MonotoneMap(source_arity=1, target_arity=0, "
                  "values=(0, 0)), cell='v')",
}


@pytest.mark.parametrize("kind", VALUE_TYPES)
def test_value_types_are_frozen_records(kind):
    cls, fields, name = VALUE_TYPES[kind]
    a, b = cls(*fields), cls(*fields)
    old = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, old)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is old
    # equal fields: equal objects with equal hashes; a dict field stays
    # out of the hash
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != fields and fields != a
    if kind in REPRS:
        assert repr(a) == REPRS[kind]
        assert not hasattr(a, "__dict__")
