"""Exact scalar arithmetic over prime fields F_p and the rationals Q.

Scalars are plain Python values: an ``int`` residue in ``[0, p)`` for a prime
field, a ``fractions.Fraction`` (always in lowest terms, positive denominator)
for the rationals.  Field objects carry the arithmetic; containers in
:mod:`reflen.linalg` hold one field reference and raw scalar values.  Input
is taken exactly; a float is refused, since it has already been rounded.
"""

from fractions import Fraction

from .errors import InexactScalar, NotPrime

MAX_PRIME = 2**16


def _exact(x):
    """x as a Fraction, refusing floats."""
    if isinstance(x, float):
        raise InexactScalar("%r is a float, not an exact scalar" % (x,))
    return Fraction(x)


def is_prime(n):
    """Trial-division primality test, adequate for moduli below 2^16."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p of integers modulo a prime p, 2 <= p < 2^16."""

    is_prime_field = True

    def __init__(self, p):
        if not isinstance(p, int) or not (2 <= p < MAX_PRIME):
            raise NotPrime("modulus must be an integer in [2, 2^16): %r" % (p,))
        if not is_prime(p):
            raise NotPrime("%d is not prime" % p)
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        if not isinstance(x, Fraction):
            x = _exact(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.p)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class RationalField:
    """The field Q of exact rationals."""

    is_prime_field = False

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        return _exact(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def format(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


#: Shared instance; all rational-field values compare equal through it.
QQ = RationalField()


def GF(p):
    """Convenience constructor for F_p."""
    return PrimeField(p)
