import pytest

import reflections_reference as ref
from conftest import F5
from reflen import Matrix
from reflen.errors import NoReflections, NotPrime, ShapeMismatch, TooLarge
from reflen.factorization import (
    OrderedFactorization,
    factor_minimal_gl,
    is_reduced,
    reflection_length_gl,
)
from reflen.oracle import (
    bfs_lengths,
    census,
    enumerate_group,
    formula_length,
    ga_order,
    gl_order,
    is_product_of_two_reflections,
    reflections_of,
    verify_formulas,
)
from reflen import oracle
from reflen.reflection import matrix_of, reflection_from_matrix

REFLECTION_GROUPS = [
    ("GL", 1, 5), ("GL", 2, 2), ("GL", 2, 3), ("GL", 2, 5), ("GL", 2, 7),
    ("GL", 3, 2), ("GA", 1, 2), ("GA", 1, 3), ("GA", 2, 2), ("GA", 2, 3),
    ("GA", 2, 5), ("GA", 3, 2),
]


def reflection_count(kind, n, p):
    """The number of reflections in GL_n(F_p) or GA_n(F_p), in closed form.

    GL: the rank-one I + v alpha^T, one per line [v] and form alpha != 0
    with alpha(v) != -1.  GA: each of the p (p^n - 1)/(p - 1) affine
    hyperplanes is fixed pointwise by x |-> x + alpha(x - c) w for the
    p^n - p^(n-1) vectors w with alpha(w) != -1, one of them the identity.
    """
    if kind == "GL":
        return (p**n - 1) * (p**n - p ** (n - 1) - 1) // (p - 1)
    return p * (p**n - 1) // (p - 1) * (p**n - p ** (n - 1) - 1)


def test_orders():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_order(2, 5) == 480
    assert ga_order(2, 2) == 24
    assert ga_order(2, 3) == 432
    assert ga_order(3, 2) == 1344


def test_enumerate_group_counts_and_determinism():
    t1 = enumerate_group("GL", 2, 3)
    t2 = enumerate_group("GL", 2, 3)
    assert len(t1) == 48
    assert [m.entries for m in t1.elements] == [m.entries for m in t2.elements]
    flat = [tuple(e for row in m.entries for e in row) for m in t1.elements]
    assert flat == sorted(flat)


def test_enumerate_group_errors():
    with pytest.raises(TooLarge):
        enumerate_group("GL", 3, 5, cap=1000)
    with pytest.raises(NotPrime):
        enumerate_group("GL", 2, 4)
    for kind, n in [("GL", 0), ("GA", 0), ("GL", -1)]:
        with pytest.raises(ShapeMismatch):
            enumerate_group(kind, n, 3)


def test_reflection_counts():
    assert len(reflections_of(enumerate_group("GL", 2, 2))) == 3
    # 4 canonical lines, 5 admissible forms each
    assert len(reflections_of(enumerate_group("GL", 2, 3))) == 20
    # GA_2(F_2) = S_4: the six transpositions
    assert len(reflections_of(enumerate_group("GA", 2, 2))) == 6
    assert len(reflections_of(enumerate_group("GA", 1, 2))) == 0


@pytest.mark.parametrize("kind,n,p", REFLECTION_GROUPS)
def test_reflections_match_reference(kind, n, p):
    table = enumerate_group(kind, n, p)
    refl = reflections_of(table)
    assert list(refl) == ref.reflection_ids(table)
    assert len(refl) == reflection_count(kind, n, p)
    for eid, r in refl.items():
        linear = (table.elements[eid] if kind == "GL"
                  else table.affine_map(eid).linear)
        assert matrix_of(r) == linear
        expected = reflection_from_matrix(linear)
        assert (r.v, r.alpha) == (expected.v, expected.alpha)


def test_reflections_of_eliminates_nothing(rref_calls):
    for kind, n, p in [("GL", 3, 2), ("GA", 2, 3)]:
        table = enumerate_group(kind, n, p)
        rref_calls.clear()
        assert len(reflections_of(table)) == reflection_count(kind, n, p)
        assert rref_calls == []


def test_verify_formulas_small_groups():
    for kind, n, p in [
        ("GL", 2, 2),
        ("GL", 2, 3),
        ("GL", 3, 2),
        ("GA", 2, 2),
        ("GA", 1, 3),
        ("GA", 2, 3),
        ("GA", 3, 2),
    ]:
        report = verify_formulas(enumerate_group(kind, n, p))
        assert report.ok, (kind, n, p, report.first_counterexample)
        assert report.agreements == report.total


def test_verify_degenerate_group_raises():
    with pytest.raises(NoReflections):
        verify_formulas(enumerate_group("GA", 1, 2))


def test_tuple_criterion_against_bfs():
    report = verify_formulas(enumerate_group("GL", 2, 2), check_tuples_up_to=3)
    assert report.tuple_checks == 3 + 9 + 27
    assert report.tuple_failures == 0
    report = verify_formulas(enumerate_group("GA", 2, 2), check_tuples_up_to=2)
    assert report.tuple_checks == 6 + 36
    assert report.tuple_failures == 0


def test_ga_tuple_check_eliminates_nothing(rref_calls):
    # the GA tuple answers are read off the formula pass's lengths
    table = enumerate_group("GA", 2, 3)
    rref_calls.clear()
    plain = verify_formulas(table)
    without = len(rref_calls)
    rref_calls.clear()
    report = verify_formulas(table, check_tuples_up_to=2)
    assert len(rref_calls) == without
    assert report.agreements == plain.agreements
    assert report.tuple_checks > 0 and report.tuple_failures == 0


def test_gl_formula_pass_one_elimination_per_element(rref_calls):
    # enumerated elements are invertible, so only rank(g - 1) is eliminated
    table = enumerate_group("GL", 3, 2)
    rref_calls.clear()
    verify_formulas(table)
    assert len(rref_calls) == len(table) == 168


def test_gl_tuple_check_eliminates_nothing(rref_calls):
    # the GL tuple answers carry the prefixes' echelon rows instead
    table = enumerate_group("GL", 3, 2)
    rref_calls.clear()
    plain = verify_formulas(table)
    without = len(rref_calls)
    rref_calls.clear()
    report = verify_formulas(table, check_tuples_up_to=3)
    assert len(rref_calls) == without
    assert report.agreements == plain.agreements
    assert report.tuple_checks == 21 + 21**2 + 21**3
    assert report.tuple_failures == 0


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_incremental_criterion_matches_is_reduced(n, p):
    # every tuple up to length 3, extended factor by factor as the tuple
    # loop does, against the library's two-rank is_reduced
    table = enumerate_group("GL", n, p)
    refl = list(reflections_of(table).values())
    prefixes = [((), ((), ()))]
    for k in range(1, 4):
        longer = []
        for factors, spans in prefixes:
            for r in refl:
                tup = factors + (r,)
                ext = oracle._extend_reduced(spans, r.v.entries, r.alpha.entries, p)
                S = OrderedFactorization(table.field, n, tup)
                assert (ext is not None) == is_reduced(S), tup
                longer.append((tup, ext))
        prefixes = longer


def test_tuple_checks_bounded_by_cap():
    table = enumerate_group("GL", 2, 2)
    assert verify_formulas(table, check_tuples_up_to=3, cap=39).tuple_checks == 39
    with pytest.raises(TooLarge):
        verify_formulas(table, check_tuples_up_to=3, cap=38)


def test_tuple_cap_refused_before_any_elimination(monkeypatch, rref_calls):
    def not_called(table, gens):
        raise AssertionError("bfs_lengths ran before the cap check")

    monkeypatch.setattr(oracle, "bfs_lengths", not_called)
    for kind, n, p in [("GL", 2, 3), ("GA", 2, 3)]:
        table = enumerate_group(kind, n, p)
        rref_calls.clear()
        with pytest.raises(TooLarge):
            verify_formulas(table, check_tuples_up_to=3, cap=1000)
        assert rref_calls == []


def test_bfs_symmetry_under_inversion():
    # word length is invariant under g -> g^-1
    table = enumerate_group("GL", 2, 3)
    lt = bfs_lengths(table, reflections_of(table))
    for eid in range(len(table)):
        inv_id = table.id_of(table.elements[eid].inverse())
        assert lt.length(eid) == lt.length(inv_id)


def test_bfs_unreached_without_generators():
    table = enumerate_group("GA", 1, 2)
    lt = bfs_lengths(table, set())
    assert lt.length(table.identity_id) == 0
    assert sum(1 for eid in range(len(table)) if lt.reachable(eid)) == 1


def test_census_gl2_f3():
    rep = census(enumerate_group("GL", 2, 3))
    assert rep.total == 48
    assert rep.reflections == 20
    assert rep.length_counts == {0: 1, 1: 20, 2: 27}
    assert rep.unreachable == 0
    assert rep.kind_counts == {"semisimple": 12, "transvection": 8}


def test_census_ga2_f2():
    rep = census(enumerate_group("GA", 2, 2))
    assert rep.total == 24
    assert rep.reflections == 6
    # length 2: the 3 translations and the 8 order-3 elements; length 3:
    # the six 4-cycles
    assert rep.length_counts == {0: 1, 1: 6, 2: 11, 3: 6}
    assert rep.class_counts == {"elliptic": 15, "parabolic": 0, "hyperbolic": 9}
    assert rep.translations == 3
    assert rep.nontranslation_hyperbolic == 6
    assert any("order-3" in note for note in rep.notes)


def test_census_ga2_f3():
    rep = census(enumerate_group("GA", 2, 3))
    assert rep.total == 432
    assert sum(rep.length_counts.values()) == 432
    assert rep.translations == 8
    assert sum(rep.class_counts.values()) == 432


def test_formula_length_matches_direct_calls():
    table = enumerate_group("GL", 2, 3)
    for eid in (0, 5, len(table) - 1):
        assert formula_length(table, eid) == reflection_length_gl(
            table.elements[eid]
        )


def test_scalar_two_i3_needs_three_factors():
    # 2 * I_3 over F_5: no pair of reflections multiplies to it, but a
    # triple does, so its length is exactly 3
    g = Matrix.identity(F5, 3).scale(2)
    assert not is_product_of_two_reflections(g)
    S = factor_minimal_gl(g)
    assert len(S) == 3
    assert S.product() == g


def test_two_reflection_test_agrees_with_rank():
    table = enumerate_group("GL", 2, 3)
    for g in table.elements[:60]:
        length = reflection_length_gl(g)
        if is_product_of_two_reflections(g):
            assert length <= 2
        else:
            assert length != 2
