"""Ordered reflection factorizations in GL(V): the moved span and fixed
intersection of a tuple, the reducedness criterion, reflection length, and
greedy construction of minimal factorizations.
"""

from .errors import FieldMismatch, ShapeMismatch, Singular
from .linalg import LinearForm, Matrix, SubspaceBasis, Vector, kernel_basis, rref
from .reflection import make_reflection


class _Indeterminate:
    """Returned when neither hypothesis of the length criterion applies."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INDETERMINATE"


INDETERMINATE = _Indeterminate()


class OrderedFactorization:
    """An ordered (possibly empty) tuple of reflections over one field."""

    __slots__ = ("field", "dim", "factors")

    def __init__(self, field, dim, factors):
        factors = tuple(factors)
        for r in factors:
            if r.field != field:
                raise FieldMismatch("factor over wrong field")
            if r.dim != dim:
                raise ShapeMismatch("factor of wrong dimension")
        self.field = field
        self.dim = dim
        self.factors = factors

    @classmethod
    def of(cls, factors):
        factors = tuple(factors)
        if not factors:
            raise ShapeMismatch("use OrderedFactorization(field, dim, []) for empty")
        return cls(factors[0].field, factors[0].dim, factors)

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def product(self):
        out = Matrix.identity(self.field, self.dim)
        for r in self.factors:
            out = out.mul(r.matrix())
        return out


class FactorizationReport:
    __slots__ = ("k", "vS_dim", "vS_codim", "product", "reduced", "length_by_criterion")

    def __init__(self, k, vS_dim, vS_codim, product, reduced, length_by_criterion):
        self.k = k
        self.vS_dim = vS_dim
        self.vS_codim = vS_codim
        self.product = product
        self.reduced = reduced
        self.length_by_criterion = length_by_criterion

    def __repr__(self):
        return (
            "FactorizationReport(k=%d, vS_dim=%d, vS_codim=%d, reduced=%r, "
            "length_by_criterion=%r)"
            % (self.k, self.vS_dim, self.vS_codim, self.reduced, self.length_by_criterion)
        )


def s_spaces(S):
    """The moved span (span of the factor vectors) and the fixed intersection
    (intersection of the factor hyperplanes) of a tuple."""
    f, n = S.field, S.dim
    moved = SubspaceBasis.from_vectors(f, n, [r.v for r in S.factors])
    if not S.factors:
        fixed = SubspaceBasis.full(f, n)
    else:
        forms = Matrix(f, [r.alpha.entries for r in S.factors])
        fixed = kernel_basis(forms)
    return moved, fixed


def reflection_length_gl(g):
    """rank(g - I), which is the reflection length of an invertible g."""
    if not g.is_invertible():
        raise Singular("reflection length requires an invertible matrix")
    return _rank_minus_identity(g)


def _rank_minus_identity(g):
    """rank(g - I) from one elimination, for callers that know g is
    invertible."""
    return rref(g.minus_identity())[1]


def _ranks(S):
    """(dim V_S, codim V^S) of a tuple: the ranks of the k x n matrices of
    its vectors and of its forms, since V^S is the common kernel of the
    forms."""
    if not S.factors:
        return 0, 0
    f = S.field
    vectors = Matrix._trusted(f, tuple([r.v.entries for r in S.factors]))
    forms = Matrix._trusted(f, tuple([r.alpha.entries for r in S.factors]))
    return rref(vectors)[1], rref(forms)[1]


def is_reduced(S):
    """True iff dim V_S = codim V^S = k: the k vectors are independent and
    the k forms are independent."""
    k = len(S)
    return _ranks(S) == (k, k)


def length_from_factorization(S):
    """Length of the product read off the tuple alone, when the criterion
    applies: codim of the fixed intersection equal to k gives dim of the moved
    span, and dually; otherwise INDETERMINATE."""
    return _length_from_ranks(len(S), *_ranks(S))


def _length_from_ranks(k, dim, codim):
    if codim == k:
        return dim
    if dim == k:
        return codim
    return INDETERMINATE


def factorization_report(S):
    dim, codim = _ranks(S)
    k = len(S)
    return FactorizationReport(
        k=k,
        vS_dim=dim,
        vS_codim=codim,
        product=S.product(),
        reduced=(dim == k and codim == k),
        length_by_criterion=_length_from_ranks(k, dim, codim),
    )


def _descent_reflection(g):
    """A reflection r that fixes K = ker(g - 1) pointwise and sends g(x) to
    x for a deterministically chosen x outside K.  Multiplying r * g then
    grows the fixed space by exactly one dimension, to K + span{x}.

    Everything is read off one elimination: the nonzero rows rho_1, ...,
    rho_k of rref(g - 1) span the forms that vanish on K.  x is the unit
    vector of the first pivot column, so rho_i(x) = [i = 1] and x is not in
    K.  Neither is y = g(x): g fixes K pointwise, so y in K would give
    x = g^-1(y) in K.  Hence some c_i = rho_i(y) is nonzero; let i be the
    first.  alpha = rho_i / c_i, plus rho_1 when i > 1, vanishes on K, has
    alpha(y) = 1 (c_1 = 0 when i > 1) and alpha(x) != 0 (1 / c_1 when
    i = 1, else 1).  So r(z) = z + alpha(z)(x - y) sends y to x, fixes K,
    and is invertible, since 1 + alpha(x - y) = alpha(x) != 0."""
    f = g.field
    red, _, pivots = rref(g.minus_identity())
    x = Vector.unit(f, g.rows, pivots[0])
    y = g.matvec(x)
    c = red.matvec(y)
    i = next(i for i, ci in enumerate(c) if ci != f.zero)
    alpha = Vector._trusted(f, red.entries[i]).scale(f.inv(c[i]))
    if i:
        alpha = alpha.add(Vector._trusted(f, red.entries[0]))
    return make_reflection(x.sub(y), LinearForm(f, alpha.entries))


def factor_minimal_gl(g):
    """A minimal ordered reflection factorization of an invertible g.

    The output has exactly rank(g - I) factors, multiplies back to g, and
    passes is_reduced.  The construction is greedy and deterministic: peel one
    reflection at a time, each step enlarging the fixed space by one.
    """
    if not g.is_invertible():
        raise Singular("cannot factor a singular matrix")
    f, n = g.field, g.rows
    factors = []
    current = g
    while not current.is_identity():
        r = _descent_reflection(current)
        factors.append(r.inverse())
        current = r.matrix().mul(current)
    return OrderedFactorization(f, n, factors)
