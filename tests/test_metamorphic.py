"""Metamorphic properties of reflection length, and the postconditions of
minimal factorizations, at sizes the oracle cannot reach: n <= 8 over F_7,
F_65521 and Q.

Length is a class function, is invariant under inversion, and moves by at
most length(h) under multiplication by h.  The affine suite also checks that
every ``compose``/``inverse`` result has an invertible linear part, since
both build their results without re-checking it.  A minimal factorization
has as many factors as the length, gives back its input, and consists of
reflections; in GL it is also reduced.
"""

from hypothesis import given, settings, strategies as st

from conftest import random_scalar, random_vector
from reflen import QQ, AffineMap, GF, Matrix, factor_minimal_affine, factor_minimal_gl, \
    is_affine_reflection, is_reduced, reflection_length_affine, reflection_length_gl
from reflen.affine import compose_all
from reflen.reflection import is_reflection_matrix

FIELDS = st.sampled_from([GF(7), GF(65521), QQ])
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def structured_invertible(field, n, rng):
    """I + D with D a sum of k random rank-one terms, so every length from 0
    to n occurs."""
    k = rng.randint(0, n)
    while True:
        D = Matrix.zeros(field, n, n)
        for _ in range(k):
            u = Matrix(field, [[random_scalar(field, rng)] for _ in range(n)])
            w = Matrix(field, [[random_scalar(field, rng) for _ in range(n)]])
            D = D.add(u.mul(w))
        g = Matrix.identity(field, n).add(D)
        if g.is_invertible():
            return g


def structured_affine(field, n, rng):
    """A structured linear part, with a translation in im(g - 1) (a fixed
    point exists) or random, so every class occurs."""
    g = structured_invertible(field, n, rng)
    if rng.random() < 0.5:
        t = g.minus_identity().matvec(random_vector(field, n, rng))
    else:
        t = random_vector(field, n, rng)
    return AffineMap(g, t)


@st.composite
def samples(draw, build, count):
    """count elements of one group, built from one seeded generator."""
    field = draw(FIELDS)
    n = draw(st.integers(min_value=1, max_value=8))
    rng = draw(st.randoms(use_true_random=False))
    return tuple(build(field, n, rng) for _ in range(count))


@SETTINGS
@given(samples(structured_invertible, 2))
def test_gl_length_metamorphic(gh):
    g, h = gh
    length = reflection_length_gl(g)
    h_inv = h.inverse()
    assert reflection_length_gl(h.mul(g).mul(h_inv)) == length
    assert reflection_length_gl(g.inverse()) == length
    assert abs(reflection_length_gl(g.mul(h)) - length) <= reflection_length_gl(h)


@SETTINGS
@given(samples(structured_affine, 2))
def test_ga_length_metamorphic(gh):
    gg, hh = gh
    length = reflection_length_affine(gg)
    hh_inv = hh.inverse()
    conjugate = hh.compose(gg).compose(hh_inv)
    gg_inv = gg.inverse()
    product = gg.compose(hh)
    for result in (hh_inv, conjugate, gg_inv, product):
        assert result.linear.is_invertible()
    assert reflection_length_affine(conjugate) == length
    assert reflection_length_affine(gg_inv) == length
    assert abs(reflection_length_affine(product) - length) <= \
        reflection_length_affine(hh)


@SETTINGS
@given(samples(structured_invertible, 1))
def test_gl_factorization_postconditions(gs):
    g, = gs
    S = factor_minimal_gl(g)
    assert len(S) == reflection_length_gl(g)
    assert S.product() == g
    assert all(is_reflection_matrix(r.matrix()) for r in S.factors)
    assert is_reduced(S)


@SETTINGS
@given(samples(structured_affine, 1))
def test_ga_factorization_postconditions(ggs):
    gg, = ggs
    factors = factor_minimal_affine(gg)
    assert len(factors) == reflection_length_affine(gg)
    assert compose_all(factors, gg.field, gg.dim) == gg
    assert all(is_affine_reflection(f) for f in factors)
