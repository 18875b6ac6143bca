import random
from itertools import product as iproduct

import pytest

import affine_reference as ref
from conftest import F2, F3, F5, random_affine, random_scalar, random_vector
from reflen import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    QQ,
    AffineMap,
    AffineSubspace,
    Matrix,
    SubspaceBasis,
    Vector,
    classify,
    factor_minimal_affine,
    fix_aff,
    fix_lin,
    image_basis,
    include_at,
    is_affine_reflection,
    make_affine_reflection,
    mov,
    project,
    reflection_length_affine,
)
from reflen.affine import compose_all
from reflen.errors import (
    NoReflections,
    NotAReflection,
    PointOnHyperplane,
    ShapeMismatch,
)
from reflen.fields import GF
from reflen.oracle import enumerate_group

F65521 = GF(65521)


def flip_f3():
    # (x, y) -> (x, -y)
    return AffineMap(Matrix(F3, [[1, 0], [0, -1]]), Vector.zero(F3, 2))


def shift_f3():
    # (x, y) -> (x + 1, y)
    return AffineMap.translation_by(Vector(F3, [1, 0]))


def swap_shift_f3():
    # (x, y) -> (y + 1, x)
    return AffineMap(Matrix(F3, [[0, 1], [1, 0]]), Vector(F3, [1, 0]))


def line(field, base, direction):
    return AffineSubspace(
        Vector(field, base),
        SubspaceBasis.from_vectors(field, 2, [Vector(field, direction)]),
    )


def test_block_matrix_round_trip():
    s = swap_shift_f3()
    B = s.block_matrix()
    assert B == Matrix(F3, [[0, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert AffineMap.from_block_matrix(B) == s
    with pytest.raises(ShapeMismatch):
        AffineMap.from_block_matrix(Matrix(F3, [[1, 0], [1, 1]]))


def test_project_and_include():
    assert include_at(Matrix.identity(F3, 2), Vector(F3, [1, 2])).is_identity()
    assert project(shift_f3()).is_identity()
    r = include_at(Matrix(F3, [[1, 0], [0, -1]]), Vector.zero(F3, 2))
    assert r == flip_f3()


def test_mov_examples():
    assert mov(flip_f3()) == line(F3, [0, 0], [0, 1])
    t_mov = mov(shift_f3())
    assert t_mov.dim == 0
    assert t_mov.base == Vector(F3, [1, 0])
    s_mov = mov(swap_shift_f3())
    assert s_mov.dim == 1
    assert s_mov.contains(Vector(F3, [1, 0]))
    assert s_mov.directions.contains(Vector(F3, [1, -1]))


def test_fix_examples():
    assert fix_aff(flip_f3()) == line(F3, [0, 0], [1, 0])
    assert fix_lin(flip_f3()).basis == ((1, 0),)
    assert fix_aff(shift_f3()).is_empty
    assert fix_lin(shift_f3()).is_full()
    assert fix_aff(swap_shift_f3()).is_empty
    assert fix_lin(swap_shift_f3()).basis == ((1, 1),)


def test_classify_examples():
    assert classify(flip_f3()) == ELLIPTIC
    assert classify(shift_f3()) == HYPERBOLIC
    assert classify(swap_shift_f3()) == PARABOLIC
    assert classify(AffineMap.identity(F3, 2)) == ELLIPTIC
    # (x, y) -> (x + 1, x + y) over F_2: hyperbolic but not a translation
    gg = AffineMap(Matrix(F2, [[1, 0], [1, 1]]), Vector(F2, [1, 0]))
    assert classify(gg) == HYPERBOLIC
    assert not gg.is_translation()


def test_lengths_examples():
    assert reflection_length_affine(flip_f3()) == 1
    assert reflection_length_affine(swap_shift_f3()) == 2
    assert reflection_length_affine(shift_f3()) == 2
    glide = AffineMap(Matrix(QQ, [[1, 0], [0, -1]]), Vector(QQ, [1, 0]))
    assert classify(glide) == PARABOLIC
    assert reflection_length_affine(glide) == 2
    gg = AffineMap(Matrix(F2, [[1, 0], [1, 1]]), Vector(F2, [1, 0]))
    assert mov(gg).dim == 1
    assert reflection_length_affine(gg) == 3


def test_degenerate_group_raises():
    gg = AffineMap.translation_by(Vector(F2, [1]))
    with pytest.raises(NoReflections):
        reflection_length_affine(gg)
    with pytest.raises(NoReflections):
        factor_minimal_affine(gg)
    assert reflection_length_affine(AffineMap.identity(F2, 1)) == 0
    assert factor_minimal_affine(AffineMap.identity(F2, 1)) == []


def test_make_affine_reflection_flip():
    H = line(F3, [0, 0], [1, 0])
    r = make_affine_reflection(H, Vector(F3, [0, 1]), Vector(F3, [0, 2]))
    assert r == flip_f3()


def test_make_affine_reflection_off_origin():
    H = line(F3, [0, 1], [1, 0])  # y = 1
    r = make_affine_reflection(H, Vector(F3, [0, 0]), Vector(F3, [0, 2]))
    # r(x, y) = (x, 2 - y): fixes y = 1, swaps y = 0 and y = 2
    assert r.apply(Vector(F3, [0, 0])) == Vector(F3, [0, 2])
    assert r.apply(Vector(F3, [1, 1])) == Vector(F3, [1, 1])
    assert is_affine_reflection(r)


def test_make_affine_reflection_errors():
    H = line(F3, [0, 0], [1, 0])
    with pytest.raises(PointOnHyperplane):
        make_affine_reflection(H, Vector(F3, [1, 0]), Vector(F3, [0, 1]))
    with pytest.raises(NotAReflection):
        make_affine_reflection(H, Vector(F3, [0, 1]), Vector(F3, [0, 1]))


@pytest.mark.parametrize("p", [2, 3])
def test_make_affine_reflection_uniqueness(p):
    from reflen.fields import GF

    field = GF(p)
    table = enumerate_group("GA", 2, p)
    reflections = [
        table.affine_map(i)
        for i in range(len(table))
        if is_affine_reflection(table.affine_map(i))
    ]
    points = [Vector(field, t) for t in iproduct(range(p), repeat=2)]
    hyperplanes = {fix_aff(r) for r in reflections}
    for H in hyperplanes:
        off = [a for a in points if not H.contains(a)]
        for a in off:
            for b in off:
                if a == b:
                    continue
                r = make_affine_reflection(H, a, b)
                matching = [
                    m for m in reflections if fix_aff(m) == H and m.apply(a) == b
                ]
                assert matching == [r]


def test_is_affine_reflection_examples():
    assert is_affine_reflection(flip_f3())
    assert not is_affine_reflection(shift_f3())
    assert not is_affine_reflection(AffineMap.identity(F3, 2))


def test_mov_probe_point_independent(rng):
    for field in (F3, F5, QQ):
        for _ in range(10):
            gg = random_affine(field, 3, rng)
            m = mov(gg)
            directions = image_basis(gg.linear.minus_identity())
            for _ in range(5):
                a = random_vector(field, 3, rng)
                probe = AffineSubspace(gg.apply(a).sub(a), directions)
                assert probe == m


def test_complementary_dimensions(rng):
    for field in (F2, F3, F5, QQ):
        for _ in range(15):
            gg = random_affine(field, 3, rng)
            assert mov(gg).dim + fix_lin(gg).dim == 3


def test_mov_subadditivity_and_lower_bound(rng):
    for _ in range(15):
        g1 = random_affine(F3, 3, rng)
        g2 = random_affine(F3, 3, rng)
        m12 = mov(g1.compose(g2))
        total = mov(g1)
        # affine sum: base points add, directions add
        from reflen.linalg import subspace_sum

        dirs = subspace_sum(
            subspace_sum(mov(g1).directions, mov(g2).directions),
            SubspaceBasis.zero(F3, 3),
        )
        summed = AffineSubspace(mov(g1).base.add(mov(g2).base), dirs)
        assert summed.contains(m12.base)
        for v in m12.directions.vectors():
            assert dirs.contains(v)
        assert reflection_length_affine(g1) >= mov(g1).dim


def check_affine_factorization(gg):
    factors = factor_minimal_affine(gg)
    assert compose_all(factors, gg.field, gg.dim) == gg
    assert len(factors) == reflection_length_affine(gg)
    for fmap in factors:
        assert is_affine_reflection(fmap)


def test_glide_factorization_matches_known_pair():
    glide = AffineMap(Matrix(QQ, [[1, 0], [0, -1]]), Vector(QQ, [1, 0]))
    r1 = AffineMap(Matrix(QQ, [[1, 1], [0, -1]]), Vector.zero(QQ, 2))
    r2 = AffineMap(Matrix(QQ, [[1, -1], [0, 1]]), Vector(QQ, [1, 0]))
    assert is_affine_reflection(r1)
    assert is_affine_reflection(r2)
    assert r1.compose(r2) == glide
    check_affine_factorization(glide)


def test_translation_factorization():
    check_affine_factorization(shift_f3())
    check_affine_factorization(AffineMap.translation_by(Vector(F2, [1, 0])))
    check_affine_factorization(AffineMap.translation_by(Vector(QQ, [2, -3])))


@pytest.mark.parametrize("n,p", [(2, 2), (1, 3)])
def test_factor_minimal_exhaustive(n, p):
    table = enumerate_group("GA", n, p)
    for i in range(len(table)):
        check_affine_factorization(table.affine_map(i))


def test_factor_minimal_random(rng):
    for field in (F3, F5, QQ):
        for _ in range(200):
            check_affine_factorization(random_affine(field, 2, rng))


def assert_matches_reference(gg):
    kind = classify(gg)
    assert kind == ref.classify(gg)
    assert is_affine_reflection(gg) == ref.is_reflection(gg)
    assert mov(gg) == ref.mov(gg)
    assert fix_aff(gg) == ref.fix_aff(gg)
    assert fix_lin(gg).basis == ref.fix_lin(gg).basis
    assert reflection_length_affine(gg) == ref.reflection_length(gg)
    return kind


@pytest.mark.parametrize("n,p,has_parabolic",
                         [(1, 3, False), (2, 2, False), (2, 3, True), (3, 2, True)])
def test_echelon_queries_match_reference_on_whole_groups(n, p, has_parabolic):
    table = enumerate_group("GA", n, p)
    kinds = {assert_matches_reference(table.affine_map(i)) for i in range(len(table))}
    assert kinds == {ELLIPTIC, HYPERBOLIC} | ({PARABOLIC} if has_parabolic else set())


def random_structured_affine(field, n, rng):
    """g = I + D with D of random rank k <= n, and t either in im D (a fixed
    point exists) or random, so every class and every dim mov occurs."""
    while True:
        k = rng.randint(0, n)
        D = Matrix.zeros(field, n, n)
        for _ in range(k):
            u = Matrix(field, [[random_scalar(field, rng)] for _ in range(n)])
            w = Matrix(field, [[random_scalar(field, rng) for _ in range(n)]])
            D = D.add(u.mul(w))
        g = Matrix.identity(field, n).add(D)
        if not g.is_invertible():
            continue
        if rng.random() < 0.5:
            t = D.matvec(random_vector(field, n, rng))
        else:
            t = random_vector(field, n, rng)
        return AffineMap(g, t)


@pytest.mark.parametrize("field", [QQ, F65521], ids=["Q", "F65521"])
def test_echelon_queries_match_reference_on_random_maps(field):
    rng = random.Random(65521)
    kinds = set()
    for n in range(1, 7):
        for _ in range(25):
            kinds.add(assert_matches_reference(random_structured_affine(field, n, rng)))
            assert_matches_reference(random_affine(field, n, rng))
    assert kinds == {ELLIPTIC, PARABOLIC, HYPERBOLIC}


def test_echelon_queries_match_reference_on_f2_glides():
    # rank(g - 1) = 1, (g - 1)^2 = 0 and (g - 1)t != 0: hyperbolic, length 3
    glide = AffineMap(Matrix(F2, [[1, 0], [1, 1]]), Vector(F2, [1, 0]))
    assert assert_matches_reference(glide) == HYPERBOLIC
    assert reflection_length_affine(glide) == 3
    # same linear part in 3D with t in ker(g - 1) but not in im(g - 1)
    g3 = Matrix(F2, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert assert_matches_reference(AffineMap(g3, Vector(F2, [0, 0, 1]))) == PARABOLIC
    assert assert_matches_reference(AffineMap(g3, Vector(F2, [1, 0, 1]))) == HYPERBOLIC


def test_one_elimination_per_affine_query(rref_calls):
    calls = rref_calls
    maps = [
        flip_f3(),
        shift_f3(),
        swap_shift_f3(),
        AffineMap(Matrix(F2, [[1, 0], [1, 1]]), Vector(F2, [1, 0])),
        AffineMap(Matrix(QQ, [[1, 0], [0, -1]]), Vector(QQ, [1, 0])),
    ]
    for gg in maps:
        for query in (classify, reflection_length_affine, is_affine_reflection):
            calls.clear()
            query(gg)
            assert len(calls) == 1, (query.__name__, gg)


def test_elliptic_factorization_eliminations(rref_calls):
    # classify, fix_aff and factor_minimal_gl's invertibility check, then one
    # per descent step; lifting the factors through the fixed point adds none
    rng = random.Random(17)
    seen = 0
    for n in range(2, 7):
        for _ in range(4):
            gg = random_affine(F65521, n, rng)
            if classify(gg) != ELLIPTIC:
                continue
            seen += 1
            length = reflection_length_affine(gg)
            rref_calls.clear()
            factors = factor_minimal_affine(gg)
            assert len(rref_calls) == 3 + length
            assert len(factors) == length
            assert compose_all(factors, F65521, n) == gg
    assert seen >= 10
