import json

import pytest

from oracles import combinations_nerve, rigidify_map

from qckit.ordinals import MonotoneMap
from qckit.posets import chain_cell_id, chain_sets, mapping_poset, nerve, normalize_chain
from qckit.scat import rigidify
from qckit.sset import validate, validate_bilevel, validate_map


def test_mapping_poset_sizes():
    # 2^(j-i-1) for i < j, a point for i == j, empty for i > j
    for k in range(5):
        for i in range(k + 1):
            for j in range(k + 1):
                p = mapping_poset(i, j, k)
                if i > j:
                    assert len(p.elements) == 0
                elif i == j:
                    assert len(p.elements) == 1
                else:
                    assert len(p.elements) == 2 ** (j - i - 1)


def test_mapping_poset_02():
    p = mapping_poset(0, 2, 2)
    assert list(p.elements) == [frozenset({0, 2}), frozenset({0, 1, 2})]
    n = nerve(p)
    assert [n.cell_count(d) for d in range(n.truncation + 1)] == [2, 1]


def test_mapping_poset_03_nerve_counts():
    p = mapping_poset(0, 3, 3)
    assert len(p.elements) == 4
    n = nerve(p)
    assert validate(n).ok
    # the diamond: 4 vertices, 5 strict 2-chains, 2 strict 3-chains
    assert [n.cell_count(d) for d in range(n.truncation + 1)] == [4, 5, 2]
    two = n.nondegenerate(2)
    assert set(two) == {
        chain_cell_id(
            [frozenset({0, 3}), frozenset({0, 1, 3}), frozenset({0, 1, 2, 3})]
        ),
        chain_cell_id(
            [frozenset({0, 3}), frozenset({0, 2, 3}), frozenset({0, 1, 2, 3})]
        ),
    }


@pytest.mark.parametrize("k", range(5))
def test_nerve_matches_the_combinations_oracle(k):
    # cell ids, cell order and face order, key order included; the
    # longest chain of P(i, j) adds the j - i - 1 interior points one by one
    for i in range(k + 1):
        for j in range(k + 1):
            p = mapping_poset(i, j, k)
            want = combinations_nerve(p.elements, chain_cell_id, max(j - i - 1, 0))
            assert json.dumps(nerve(p).to_json()) == json.dumps(want.to_json())


def test_nerve_faces_never_degenerate():
    n = nerve(mapping_poset(0, 4, 4))
    assert validate(n).ok
    for d in range(1, n.truncation + 1):
        for c in n.nondegenerate(d):
            for ref in n.face_entries(c):
                assert not ref.is_degenerate


def test_normalize_denormalize_round_trip():
    chain = [frozenset({0, 2}), frozenset({0, 2}),
             frozenset({0, 1, 2}), frozenset({0, 1, 2})]
    ref = normalize_chain(chain)
    assert ref.epi.values == (0, 0, 1, 1)
    assert ref.cell == "0.2<0.1.2"
    strict = chain_sets(ref.cell)
    assert [strict[ref.epi(t)] for t in range(ref.dim + 1)] == chain


def test_union_compose_is_bilevel():
    bm = rigidify(3).comp[(0, 1, 3)]
    assert validate_bilevel(bm, 2).ok


def test_union_compose_vertex_level():
    bm = rigidify(3).comp[(0, 2, 3)]
    a = normalize_chain([frozenset({2, 3})])
    b = normalize_chain([frozenset({0, 2})])
    assert bm.apply(0, a, b) == normalize_chain([frozenset({0, 2, 3})])


def test_induced_nerve_map_coface():
    f = MonotoneMap(1, 2, (0, 2))
    m = rigidify_map(f).hom_map(0, 1)
    assert validate_map(m).ok
    assert m.assignment[chain_cell_id([frozenset({0, 1})])].cell == "0.2"


def test_induced_nerve_map_collapse():
    f = MonotoneMap(2, 1, (0, 0, 1))
    m = rigidify_map(f).hom_map(0, 2)
    assert validate_map(m).ok
    edge = chain_cell_id([frozenset({0, 2}), frozenset({0, 1, 2})])
    img = m.assignment[edge]
    assert img.is_degenerate and img.cell == "0.1"
