import random
import sys
from fractions import Fraction

import pytest

from reflen import GF, QQ, AffineMap, LinearForm, Matrix, Vector, make_reflection
from reflen import linalg


def random_scalar(field, rng):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_vector(field, n, rng):
    return Vector(field, [random_scalar(field, rng) for _ in range(n)])


def random_nonzero_vector(field, n, rng):
    while True:
        v = random_vector(field, n, rng)
        if not v.is_zero():
            return v


def random_matrix(field, r, c, rng):
    return Matrix(field, [[random_scalar(field, rng) for _ in range(c)] for _ in range(r)])


def random_invertible(field, n, rng):
    while True:
        M = random_matrix(field, n, n, rng)
        if M.is_invertible():
            return M


def random_reflection(field, n, rng):
    while True:
        v = random_nonzero_vector(field, n, rng)
        a = random_nonzero_vector(field, n, rng)
        alpha = LinearForm(field, a.entries)
        if alpha(v) != field.neg(field.one):
            return make_reflection(v, alpha)


def random_affine(field, n, rng):
    return AffineMap(random_invertible(field, n, rng), random_vector(field, n, rng))


@pytest.fixture
def rref_calls(monkeypatch):
    """A list that records the argument of every ``linalg.rref`` call made
    anywhere in reflen while the test runs."""
    real = linalg.rref
    calls = []

    def counting(M):
        calls.append(M)
        return real(M)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reflen" and getattr(module, "rref", None) is real:
            monkeypatch.setattr(module, "rref", counting)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240817)


F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
