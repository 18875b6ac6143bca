import pytest

from bfs_reference import bfs_lengths as reference_bfs_lengths
from conftest import F3
from reflen import Matrix
from reflen.errors import NotClosed
from reflen.oracle import (CayleyTable, GroupTable, _check_tuples, bfs_lengths,
                           enumerate_group, reflections_of)


@pytest.mark.parametrize(
    "kind,n,p",
    [("GL", 2, 2), ("GL", 2, 3), ("GL", 3, 2), ("GL", 2, 5), ("GA", 2, 2),
     ("GA", 2, 3), ("GA", 3, 2), ("GL", 1, 5), ("GA", 1, 3)],
)
def test_backends_agree(kind, n, p):
    """The row-table BFS, with its early exit, gives the same lengths as the
    reference BFS, which multiplies matrices and expands every level."""
    table = enumerate_group(kind, n, p)
    refl = reflections_of(table)
    flat = [tuple(e for row in m.entries for e in row) for m in table.elements]
    expected = reference_bfs_lengths(
        flat, sorted(refl), table.matrix_dim, p, table.identity_id
    )
    assert bfs_lengths(table, refl).lengths == expected


def test_lookup_miss_raises():
    # {I, t} is not closed: t*t is missing, so the search must not stop early
    table = GroupTable("GL", 2, 3, [
        Matrix(F3, [[1, 0], [0, 1]]),
        Matrix(F3, [[1, 1], [0, 1]]),
    ])
    with pytest.raises(NotClosed):
        bfs_lengths(table, {1})


def test_closed_subgroup_table():
    # the cyclic group of a transvection, built by hand: no early exit, and
    # expanding its last level finds every product in the table
    t = Matrix(F3, [[1, 1], [0, 1]])
    elements = [Matrix.identity(F3, 2), t, t.mul(t)]
    table = GroupTable("GL", 2, 3, elements)
    assert bfs_lengths(table, {1}).lengths == [0, 1, 2]
    assert bfs_lengths(table, {1, 2}).lengths == [0, 1, 1]


def test_single_generator_cyclic_subgroup():
    table = enumerate_group("GL", 2, 3)
    # order-2 element: reaches only {I, g}
    g = next(
        i
        for i, m in enumerate(table.elements)
        if not m.is_identity() and m.mul(m).is_identity()
    )
    lt = bfs_lengths(table, {g})
    reached = [i for i in range(len(table)) if lt.reachable(i)]
    assert reached == sorted([table.identity_id, g])
    assert lt.length(g) == 1


@pytest.mark.parametrize("kind,n,p", [("GL", 3, 2), ("GL", 2, 5), ("GA", 2, 3)])
def test_cayley_products_match_matrix_products(kind, n, p):
    table = enumerate_group(kind, n, p)
    cayley = CayleyTable(table, reflections_of(table))
    gens = [table.elements[gid] for gid in cayley.gens]
    for eid, x in enumerate(table.elements):
        assert cayley.products(eid) == [table.id_of(x.mul(g)) for g in gens]


def test_tuple_loop_lookup_miss_raises():
    # {I, t}: the tuple (t, t) has the product t*t, which is missing
    table = GroupTable("GL", 2, 3, [
        Matrix(F3, [[1, 0], [0, 1]]),
        Matrix(F3, [[1, 1], [0, 1]]),
    ])
    refl = reflections_of(table)
    assert list(refl) == [1]
    cayley = CayleyTable(table, refl)
    assert _check_tuples(table, cayley, refl, [0, 1], None, 1) == (1, 0)
    with pytest.raises(NotClosed):
        _check_tuples(table, cayley, refl, [0, 1], None, 2)
