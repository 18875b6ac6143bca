from itertools import product as iproduct

import pytest

from conftest import F2, F3, F5, random_invertible, random_reflection
from reflen import (
    GF,
    INDETERMINATE,
    QQ,
    LinearForm,
    Matrix,
    OrderedFactorization,
    Vector,
    factor_minimal_gl,
    factorization_report,
    image_basis,
    is_reduced,
    kernel_basis,
    length_from_factorization,
    make_reflection,
    reflection_length_gl,
    s_spaces,
)
from reflen.errors import Singular
from reflen.oracle import enumerate_group, reflections_of
from reflen.reflection import is_reflection_matrix, reflection_from_matrix

COORD_FORMS = [
    LinearForm(F5, [1, 0, 0]),
    LinearForm(F5, [0, 1, 0]),
    LinearForm(F5, [0, 0, 1]),
]


def triple(vs):
    return OrderedFactorization.of(
        [make_reflection(v, a) for v, a in zip(vs, COORD_FORMS)]
    )


ONES = Vector(F5, [1, 1, 1])
CASE_I = triple([ONES, ONES, ONES])
CASE_II = triple([ONES, ONES, Vector(F5, [1, 0, 1])])
CASE_III = triple([Vector(F5, [1, 0, 0]), Vector(F5, [0, 1, 0]), Vector(F5, [0, 0, 1])])


def test_s_spaces_case_i():
    moved, fixed = s_spaces(CASE_I)
    assert moved.dim == 1
    assert fixed.codim == 3


def test_s_spaces_case_iii():
    moved, fixed = s_spaces(CASE_III)
    assert moved.dim == 3
    assert fixed.codim == 3


def test_s_spaces_empty_tuple():
    S = OrderedFactorization(F5, 3, [])
    moved, fixed = s_spaces(S)
    assert moved.dim == 0
    assert fixed.dim == 3


def test_case_products_match_printed_matrices():
    assert CASE_I.product() == Matrix(F5, [[2, 2, 4], [1, 3, 4], [1, 2, 0]])
    assert CASE_II.product() == Matrix(F5, [[2, 2, 2], [1, 3, 1], [1, 2, 3]])
    assert CASE_III.product() == Matrix.identity(F5, 3).scale(2)


def test_reflection_length_known():
    assert reflection_length_gl(Matrix.identity(F5, 3)) == 0
    assert reflection_length_gl(CASE_I.product()) == 1
    assert reflection_length_gl(CASE_II.product()) == 2
    assert reflection_length_gl(Matrix.identity(F5, 3).scale(2)) == 3
    with pytest.raises(Singular):
        reflection_length_gl(Matrix.zeros(F5, 3, 3))


def test_is_reduced_cases():
    assert not is_reduced(CASE_I)
    assert is_reduced(CASE_III)
    single = OrderedFactorization.of([CASE_I.factors[0]])
    assert is_reduced(single)


def test_length_from_factorization():
    assert length_from_factorization(CASE_II) == 2
    assert length_from_factorization(CASE_I) == 1
    repeated = OrderedFactorization.of([CASE_I.factors[0], CASE_I.factors[0]])
    assert length_from_factorization(repeated) is INDETERMINATE


def test_factorization_report():
    fr = factorization_report(CASE_II)
    assert (fr.k, fr.vS_dim, fr.vS_codim) == (3, 2, 3)
    assert not fr.reduced
    assert fr.length_by_criterion == 2


def test_factor_minimal_trivial_cases():
    S = factor_minimal_gl(Matrix.identity(F5, 3))
    assert len(S) == 0
    s1 = Matrix(F5, [[2, 0, 0], [1, 1, 0], [1, 0, 1]])
    S = factor_minimal_gl(s1)
    assert len(S) == 1
    assert S.product() == s1


def test_factor_minimal_scalar():
    g = Matrix.identity(F5, 3).scale(2)
    S = factor_minimal_gl(g)
    assert len(S) == 3
    assert S.product() == g
    assert is_reduced(S)


def check_minimal(g):
    S = factor_minimal_gl(g)
    assert S.product() == g
    assert len(S) == reflection_length_gl(g)
    for r in S.factors:
        assert is_reflection_matrix(r.matrix())
    assert is_reduced(S) or len(S) == 0


@pytest.mark.parametrize("kind,n,p", [("GL", 2, 2), ("GL", 2, 3), ("GL", 3, 2)])
def test_factor_minimal_exhaustive(kind, n, p):
    for g in enumerate_group(kind, n, p).elements:
        check_minimal(g)


def test_factor_minimal_random(rng):
    for field in (F5, QQ):
        for _ in range(20):
            check_minimal(random_invertible(field, 3, rng))


def test_inclusions_property(rng):
    # im(g - 1) inside the moved span, fixed intersection inside ker(g - 1)
    cases = [(F2, 2), (F3, 2), (F5, 3)]
    for field, n in cases:
        for _ in range(20):
            k = rng.randint(1, 5)
            S = OrderedFactorization(
                field, n, [random_reflection(field, n, rng) for _ in range(k)]
            )
            g = S.product()
            moved, fixed = s_spaces(S)
            for v in image_basis(g.minus_identity()).vectors():
                assert moved.contains(v)
            ker = kernel_basis(g.minus_identity())
            for v in fixed.vectors():
                assert ker.contains(v)


def test_criterion_soundness_exhaustive_gl2_f2():
    table = enumerate_group("GL", 2, 2)
    refl = [
        reflection_from_matrix(m) for m in table.elements if is_reflection_matrix(m)
    ]
    assert len(refl) == 3
    for k in range(1, 4):
        for combo in iproduct(refl, repeat=k):
            S = OrderedFactorization(F2, 2, combo)
            assert is_reduced(S) == (reflection_length_gl(S.product()) == k)


def test_criterion_soundness_random(rng):
    for field, n in [(F3, 3), (F5, 3), (QQ, 3)]:
        for _ in range(25):
            k = rng.randint(1, 4)
            S = OrderedFactorization(
                field, n, [random_reflection(field, n, rng) for _ in range(k)]
            )
            assert is_reduced(S) == (reflection_length_gl(S.product()) == k)
            by_crit = length_from_factorization(S)
            if by_crit is not INDETERMINATE:
                assert by_crit == reflection_length_gl(S.product())


def test_length_subadditivity(rng):
    for _ in range(20):
        g = random_invertible(F5, 3, rng)
        h = random_invertible(F5, 3, rng)
        assert reflection_length_gl(g.mul(h)) <= (
            reflection_length_gl(g) + reflection_length_gl(h)
        )


def test_factor_minimal_one_elimination_per_factor(rng, rref_calls):
    # the invertibility check, then one rref(g - 1) per descent step
    for field in (F2, GF(7), QQ):
        for n in range(3, 7):
            for _ in range(3):
                g = random_invertible(field, n, rng)
                length = reflection_length_gl(g)
                rref_calls.clear()
                factor_minimal_gl(g)
                assert len(rref_calls) == 1 + length


def test_is_reduced_two_eliminations(rng, rref_calls):
    for k in range(1, 5):
        S = OrderedFactorization(F5, 3, [random_reflection(F5, 3, rng) for _ in range(k)])
        rref_calls.clear()
        is_reduced(S)
        assert len(rref_calls) == 2


def test_factorization_report_two_eliminations(rng, rref_calls):
    for k in range(1, 5):
        S = OrderedFactorization(F5, 3, [random_reflection(F5, 3, rng) for _ in range(k)])
        rref_calls.clear()
        fr = factorization_report(S)
        assert len(rref_calls) == 2
        assert fr.length_by_criterion == length_from_factorization(S)


def check_ranks_match_spaces(S):
    moved, fixed = s_spaces(S)
    fr = factorization_report(S)
    assert (fr.vS_dim, fr.vS_codim) == (moved.dim, fixed.codim)
    k = len(S)
    assert is_reduced(S) == (moved.dim == k and fixed.codim == k)


def test_ranks_match_spaces_exhaustive_gl2_f3():
    refl = list(reflections_of(enumerate_group("GL", 2, 3)).values())
    check_ranks_match_spaces(OrderedFactorization(F3, 2, []))
    for k in (1, 2):
        for combo in iproduct(refl, repeat=k):
            check_ranks_match_spaces(OrderedFactorization(F3, 2, combo))


def test_ranks_match_spaces_random(rng):
    for field in (F5, QQ):
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, 4)
            check_ranks_match_spaces(OrderedFactorization(
                field, n, [random_reflection(field, n, rng) for _ in range(k)]
            ))
