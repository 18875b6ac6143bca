"""Ordered reflection factorizations in GL(V): the moved span and fixed
intersection of a tuple, the reducedness criterion, reflection length, and
greedy construction of minimal factorizations.
"""

from .errors import FieldMismatch, ShapeMismatch, Singular
from .linalg import (
    LinearForm,
    Matrix,
    SubspaceBasis,
    Vector,
    kernel_basis,
    rref,
    solve,
)
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
    return rref(g.minus_identity())[1]


def is_reduced(S):
    moved, fixed = s_spaces(S)
    k = len(S)
    return fixed.codim == k and moved.dim == k


def length_from_factorization(S):
    """Length of the product read off the tuple alone, when the criterion
    applies: codim of the fixed intersection equal to k gives dim of the moved
    span, and dually; otherwise INDETERMINATE."""
    moved, fixed = s_spaces(S)
    k = len(S)
    if fixed.codim == k:
        return moved.dim
    if moved.dim == k:
        return fixed.codim
    return INDETERMINATE


def factorization_report(S):
    moved, fixed = s_spaces(S)
    k = len(S)
    return FactorizationReport(
        k=k,
        vS_dim=moved.dim,
        vS_codim=fixed.codim,
        product=S.product(),
        reduced=(fixed.codim == k and moved.dim == k),
        length_by_criterion=length_from_factorization(S),
    )


def _descent_reflection(g):
    """A reflection r with r(g(x)) = x for a deterministically chosen x
    outside K = ker(g - 1), also fixing K pointwise.  Multiplying r * g then
    grows the fixed space by exactly one dimension.

    x is the unit vector of K's first non-pivot column.  No vector of K is
    zero on all of K's RREF pivot columns, so x is not in K, and neither is
    gx: g fixes K pointwise, so gx in K would give x = g^-1(gx) in K."""
    f = g.field
    n = g.rows
    K = kernel_basis(g.minus_identity())
    kpivots = {next(j for j, e in enumerate(row) if e != f.zero) for row in K.basis}
    x = Vector.unit(f, n, next(j for j in range(n) if j not in kpivots))
    gx = g.matvec(x)
    # Does gx lie in K + span{x}?  Solve gx = z + c*x with z in K.
    cols = K.vectors() + [x]
    rep = solve(Matrix.from_cols(f, cols), gx)
    conditions = list(K.vectors())
    rhs = [f.zero] * len(conditions)
    if not rep.empty:
        c = rep.particular[len(cols) - 1]
        conditions.append(x)
        rhs.append(f.inv(c))
    else:
        conditions.append(x)
        rhs.append(f.one)
        conditions.append(gx)
        rhs.append(f.one)
    sol = solve(Matrix.from_rows(f, conditions), Vector(f, rhs))
    assert not sol.empty
    alpha = LinearForm(f, sol.particular.entries)
    # Normalize so alpha(gx) = 1; then r(gx) = gx + (x - gx) = x.
    alpha = alpha.scale(f.inv(alpha(gx)))
    return make_reflection(x.sub(gx), alpha)


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
