from fractions import Fraction

import pytest

from reflen import GF, QQ, Matrix
from reflen.errors import InexactScalar, NotPrime
from reflen.fields import is_prime


def test_prime_validation():
    GF(2)
    GF(65521)
    with pytest.raises(NotPrime):
        GF(1)
    with pytest.raises(NotPrime):
        GF(4)
    with pytest.raises(NotPrime):
        GF(91)
    with pytest.raises(NotPrime):
        GF(2**16 + 1)  # prime, but over the residue-size bound


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == primes


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                               43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97])
def test_inverses_exhaustive(p):
    f = GF(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1


def test_prime_field_ops():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.neg(3) == 4
    assert f.div(1, 3) == 5
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 3)) == 5


def test_rational_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.coerce("3/4") == Fraction(3, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_equality_and_hash():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ == QQ
    assert hash(GF(5)) == hash(GF(5))


def test_floats_rejected_not_rounded():
    with pytest.raises(InexactScalar):
        Matrix(GF(5), [[2.7, 0], [0, 1]])
    with pytest.raises(InexactScalar):
        Matrix(QQ, [[0.1]])
    with pytest.raises(InexactScalar):
        GF(7).coerce(2.0)
    # exact non-int input is still taken exactly
    assert GF(7).coerce(True) == 1
    assert GF(7).coerce("1/3") == 5
    assert QQ.coerce(2) == Fraction(2)
