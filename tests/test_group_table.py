"""Group tables: enumeration against the reference, the GA views, and how
many eliminations building and using a table costs."""

import pytest

import enumerate_reference as ref
from conftest import F3, F5
from reflen import AffineMap, Matrix, Vector, include_at
from reflen.errors import ShapeMismatch, Singular
from reflen.oracle import GroupTable, enumerate_group, gl_order

GROUPS = [("GL", 1, 5), ("GA", 1, 3), ("GL", 2, 2), ("GL", 2, 7), ("GL", 3, 2),
          ("GL", 3, 3), ("GA", 2, 3), ("GA", 2, 5), ("GA", 3, 2)]


@pytest.mark.parametrize("kind,n,p", GROUPS)
def test_enumeration_matches_reference(kind, n, p):
    table = enumerate_group(kind, n, p)
    expected = ref.enumerate_elements(kind, n, p)
    assert [m.entries for m in table.elements] == [m.entries for m in expected]
    if kind == "GA":
        for eid, block in enumerate(table.elements):
            assert table.affine_map(eid) == AffineMap.from_block_matrix(block)


def test_views_share_linear_parts():
    table = enumerate_group("GA", 2, 3)
    linears = {id(table.affine_map(eid).linear) for eid in range(len(table))}
    assert len(linears) == gl_order(2, 3)


def ga_block(field, linear, translation):
    return AffineMap(Matrix(field, linear), Vector(field, translation)).block_matrix()


def test_hand_built_ga_table_checks_every_block():
    identity = Matrix.identity(F3, 3)
    shift = ga_block(F3, [[1, 0], [0, 1]], [1, 0])
    swap = ga_block(F3, [[0, 1], [1, 0]], [0, 0])
    table = GroupTable("GA", 2, 3, [identity, shift, swap])
    assert table.affine_map(1) == AffineMap.translation_by(Vector(F3, [1, 0]))
    singular = Matrix(F3, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(Singular):
        GroupTable("GA", 2, 3, [identity, shift, singular])
    # the linear part of a valid block, so only its last row is wrong
    bad_last_row = Matrix(F3, [[1, 0, 1], [0, 1, 0], [0, 1, 1]])
    with pytest.raises(ShapeMismatch):
        GroupTable("GA", 2, 3, [identity, shift, bad_last_row])
    with pytest.raises(ShapeMismatch):
        GroupTable("GL", 2, 3, [Matrix.identity(F3, 2)]).affine_map(0)


def test_table_eliminations(rref_calls):
    table = enumerate_group("GA", 3, 2)
    assert len(rref_calls) <= gl_order(3, 2)
    rref_calls.clear()
    views = [table.affine_map(eid) for eid in range(len(table))]
    assert rref_calls == []
    gg, hh = views[100], views[1000]
    gg.compose(hh)
    assert rref_calls == []
    gg.inverse()
    assert len(rref_calls) == 1
    rref_calls.clear()
    include_at(Matrix(F5, [[2, 1], [0, 3]]), Vector(F5, [1, 4]))
    assert len(rref_calls) == 1
