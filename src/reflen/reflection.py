"""Reflections in GL(V): the (v, alpha) parametrization, matrix conversion,
and the semisimple/transvection split.

A reflection acts by x |-> x + alpha(x) * v; the pair defines an invertible
map exactly when alpha(v) != -1.  Its fixed hyperplane is ker(alpha) and its
moved line is the span of v.
"""

from .errors import (
    FieldMismatch,
    NotAReflection,
    NotInvertible,
    ShapeMismatch,
    Singular,
    ZeroForm,
    ZeroVector,
)
from .linalg import LinearForm, Matrix, image_basis, rref


class Reflection:
    """A GL reflection, stored as its defining vector and linear form."""

    __slots__ = ("v", "alpha")

    def __init__(self, v, alpha):
        self.v = v
        self.alpha = alpha

    @property
    def field(self):
        return self.v.field

    @property
    def dim(self):
        return len(self.v)

    def apply(self, x):
        return x.add(self.v.scale(self.alpha(x)))

    def matrix(self):
        return matrix_of(self)

    def det(self):
        # det(I + v * alpha^T) = 1 + alpha(v)
        f = self.field
        return f.add(f.one, self.alpha(self.v))

    def inverse(self):
        # (I + v a^T)^-1 = I - v a^T / (1 + a(v)): same vector, rescaled form.
        f = self.field
        c = f.neg(f.inv(self.det()))
        return Reflection(self.v, self.alpha.scale(c))

    def __eq__(self, other):
        # Compare as maps: the pair is unique only up to reciprocal scaling.
        return (
            isinstance(other, Reflection)
            and other.field == self.field
            and other.matrix() == self.matrix()
        )

    def __hash__(self):
        return hash(self.matrix())

    def __repr__(self):
        return "Reflection(v=%r, alpha=%r)" % (self.v, self.alpha)


class ReflectionKind:
    """Either Semisimple (with its determinant beta != 1) or Transvection."""

    __slots__ = ("name", "beta")

    def __init__(self, name, beta=None):
        self.name = name
        self.beta = beta

    @classmethod
    def semisimple(cls, beta):
        return cls("semisimple", beta)

    @classmethod
    def transvection(cls):
        return cls("transvection")

    @property
    def is_transvection(self):
        return self.name == "transvection"

    def __eq__(self, other):
        return (
            isinstance(other, ReflectionKind)
            and other.name == self.name
            and other.beta == self.beta
        )

    def __repr__(self):
        if self.is_transvection:
            return "ReflectionKind.transvection()"
        return "ReflectionKind.semisimple(%r)" % (self.beta,)


def make_reflection(v, alpha):
    if v.field != alpha.field:
        raise FieldMismatch("vector and form over different fields")
    if len(v) != len(alpha):
        raise ShapeMismatch("vector and form of different dimension")
    if v.is_zero():
        raise ZeroVector("reflection vector must be nonzero")
    if alpha.is_zero():
        raise ZeroForm("reflection form must be nonzero")
    f = v.field
    if alpha(v) == f.neg(f.one):
        raise NotInvertible("alpha(v) = -1 gives a singular map")
    return Reflection(v, alpha)


def matrix_of(r):
    """The matrix I + v * alpha^T of the reflection."""
    f = r.field
    one, zero = f.one, f.zero
    return Matrix._trusted(f, tuple([
        tuple([f.add(one if i == j else zero, f.mul(vi, aj))
               for j, aj in enumerate(r.alpha.entries)])
        for i, vi in enumerate(r.v.entries)
    ]))


def reflection_from_matrix(M):
    """Recover the canonical (v, alpha) pair from a reflection matrix.

    v is the echelon generator of im(M - I) (leading entry 1), which pins
    down alpha uniquely.
    """
    if M.rows != M.cols:
        raise ShapeMismatch("square matrix required")
    f = M.field
    D = M.minus_identity()
    img = image_basis(D)
    if img.dim != 1:
        raise NotAReflection("rank(M - I) = %d, need 1" % img.dim)
    v = img.vectors()[0]
    lead = next(i for i, e in enumerate(v.entries) if e != f.zero)
    # column j of D is alpha(e_j) * v, and v[lead] = 1.
    alpha = LinearForm(f, [D.entries[lead][j] for j in range(M.cols)])
    if alpha(v) == f.neg(f.one):
        raise Singular("matrix is not invertible")
    return Reflection(v, alpha)


def is_reflection_matrix(M):
    """True iff M is invertible with rank(M - I) = 1."""
    if M.rows != M.cols:
        return False
    if rref(M.minus_identity())[1] != 1:
        return False
    return M.is_invertible()


def classify_reflection(r):
    f = r.field
    d = r.det()
    if d == f.one:
        return ReflectionKind.transvection()
    return ReflectionKind.semisimple(d)
