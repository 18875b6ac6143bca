"""The general affine group GA of an n-dimensional affine space: fundamental
subspaces, the elliptic/parabolic/hyperbolic classification, reflection
length, affine reflections, and minimal affine factorizations.

An affine map is stored as an invertible linear part plus a translation
vector, equivalently the (n+1)x(n+1) block matrix [[g, t], [0, 1]].  Points
and vectors share the Vector representation; the space is coordinatized so
the origin is a point.
"""

from .errors import (
    FieldMismatch,
    NoReflections,
    NotAHyperplane,
    NotAReflection,
    PointOnHyperplane,
    ShapeMismatch,
    Singular,
)
from .factorization import factor_minimal_gl
from .linalg import (
    LinearForm,
    Matrix,
    SubspaceBasis,
    Vector,
    annihilator,
    image_basis,
    kernel_basis,
    rref,
    solve,
    subspace_sum,
)
from .reflection import Reflection, matrix_of

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"

#: Length offset over dim mov for each class.
CLASS_OFFSET = {ELLIPTIC: 0, PARABOLIC: 1, HYPERBOLIC: 2}


class AffineMap:
    """x |-> linear(x) + translation, with invertible linear part."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear, translation):
        if linear.field != translation.field:
            raise FieldMismatch("linear part and translation over different fields")
        if linear.rows != linear.cols or linear.rows != len(translation):
            raise ShapeMismatch("linear part must be n x n with length-n translation")
        if not linear.is_invertible():
            raise Singular("linear part must be invertible")
        self.linear = linear
        self.translation = translation

    @classmethod
    def _trusted(cls, linear, translation):
        """An affine map from an invertible n x n linear part and a length-n
        translation over the same field, taken without checks."""
        gg = cls.__new__(cls)
        gg.linear = linear
        gg.translation = translation
        return gg

    @classmethod
    def identity(cls, field, n):
        return cls._trusted(Matrix.identity(field, n), Vector.zero(field, n))

    @classmethod
    def translation_by(cls, vec):
        return cls._trusted(Matrix.identity(vec.field, len(vec)), vec)

    @classmethod
    def from_block_matrix(cls, B):
        rows, trans = _block_parts(B)
        f = B.field
        return cls(Matrix._trusted(f, rows), Vector._trusted(f, trans))

    def block_matrix(self):
        f = self.field
        n = self.dim
        rows = [
            list(self.linear.entries[i]) + [self.translation[i]] for i in range(n)
        ]
        rows.append([f.zero] * n + [f.one])
        return Matrix(f, rows)

    @property
    def field(self):
        return self.linear.field

    @property
    def dim(self):
        return self.linear.rows

    def apply(self, point):
        return self.linear.matvec(point).add(self.translation)

    def compose(self, other):
        """self after other (matches block-matrix multiplication)."""
        if other.field != self.field or other.dim != self.dim:
            raise FieldMismatch("composing maps over different spaces")
        return AffineMap._trusted(
            self.linear.mul(other.linear),
            self.linear.matvec(other.translation).add(self.translation),
        )

    def inverse(self):
        inv = self.linear.inverse()
        return AffineMap._trusted(inv, inv.matvec(self.translation).neg())

    def is_identity(self):
        return self.linear.is_identity() and self.translation.is_zero()

    def is_translation(self):
        return self.linear.is_identity()

    def __eq__(self, other):
        return (
            isinstance(other, AffineMap)
            and other.linear == self.linear
            and other.translation == self.translation
        )

    def __hash__(self):
        return hash((self.linear, self.translation))

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.linear, self.translation)


def _block_parts(B):
    """The linear rows and the translation entries of a block matrix
    [[g, t], [0, 1]], as tuples; checks the shape and the last row."""
    if B.rows != B.cols or B.rows < 2:
        raise ShapeMismatch("block form must be (n+1) x (n+1), n >= 1")
    n = B.rows - 1
    f = B.field
    if B.entries[n] != (f.zero,) * n + (f.one,):
        raise ShapeMismatch("last row of block form must be (0, ..., 0, 1)")
    top = B.entries[:n]
    return tuple([row[:n] for row in top]), tuple([row[n] for row in top])


class AffineSubspace:
    """Either empty, or a base point plus a direction subspace.

    The stored base point is canonical: it is reduced modulo the directions,
    so equal subspaces compare structurally equal.
    """

    __slots__ = ("base", "directions")

    def __init__(self, base=None, directions=None):
        if base is None:
            self.base = None
            self.directions = None
            return
        self.directions = directions
        self.base = directions.reduce(base)

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def point(cls, p):
        return cls(p, SubspaceBasis.zero(p.field, len(p)))

    @property
    def is_empty(self):
        return self.base is None

    @property
    def dim(self):
        if self.is_empty:
            raise ValueError("empty affine subspace has no dimension")
        return self.directions.dim

    def contains(self, p):
        if self.is_empty:
            return False
        return self.directions.contains(p.sub(self.base))

    def __eq__(self, other):
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return other.base == self.base and other.directions == self.directions

    def __hash__(self):
        return hash((self.base, self.directions))

    def __repr__(self):
        if self.is_empty:
            return "AffineSubspace.empty()"
        return "AffineSubspace(%r, %r)" % (self.base, self.directions)


def project(gg):
    """Linear part of an affine map."""
    return gg.linear


def include_at(g, a):
    """The affine map fixing the point a with linear part g: x |-> a + g(x - a)."""
    if g.field != a.field:
        raise FieldMismatch("matrix and point over different fields")
    if not g.is_invertible():
        raise Singular("linear part must be invertible")
    return AffineMap._trusted(g, a.sub(g.matvec(a)))


def _echelon(gg):
    """One elimination of the augmented system [g - 1 | -t], whose solutions
    are the fixed points of gg.

    Returns ``(rank, fixes_point)``: rank(g - 1), which is dim mov, from the
    pivots among the first n columns; and whether gg fixes a point, which
    holds exactly when column n is not a pivot.
    """
    f = gg.field
    D = gg.linear.minus_identity()
    aug = Matrix._trusted(f, tuple([
        row + (f.neg(t),) for row, t in zip(D.entries, gg.translation.entries)
    ]))
    _, rank, pivots = rref(aug)
    if rank and pivots[-1] == gg.dim:
        return rank - 1, False
    return rank, True


def mov(gg):
    """The moved space: the affine subspace im(g - 1) + (gg(a) - a) of V,
    independent of the probe point a."""
    directions = image_basis(gg.linear.minus_identity())
    return AffineSubspace(gg.translation, directions)


def fix_aff(gg):
    """Affine fixed space: solutions of gg(x) = x (possibly empty)."""
    sol = solve(gg.linear.minus_identity(), gg.translation.neg())
    if sol.empty:
        return AffineSubspace.empty()
    return AffineSubspace(sol.particular, sol.kernel)


def fix_lin(gg):
    """Linear fixed space ker(g - 1) of the linear part."""
    return kernel_basis(gg.linear.minus_identity())


def _class_of(gg, rank, fixes_point):
    """The class of gg from rank(g - 1) and whether gg fixes a point.

    An element is hyperbolic when it fixes no point and its two
    linear-fixed-space cosets through a and gg(a) cover the whole space:
    that means a nontrivial translation (rank 0), or (only over F_2) a glide
    whose linear part is a reflection with mirror containing the moved line,
    which is rank 1 with (g - 1)^2 = 0 and (g - 1)t != 0.  Over F_2 an
    invertible g with g - 1 = v alpha^T has alpha(v) = 0, so
    (g - 1)^2 = alpha(v)(g - 1) = 0 always holds and only (g - 1)t is tested.
    """
    if fixes_point:
        return ELLIPTIC
    if rank == 0:
        return HYPERBOLIC
    f = gg.field
    if f.is_prime_field and f.p == 2 and rank == 1:
        if not gg.linear.minus_identity().matvec(gg.translation).is_zero():
            return HYPERBOLIC
    return PARABOLIC


def classify(gg):
    """Elliptic / parabolic / hyperbolic classification, uniform over all
    fields, from one elimination."""
    return _class_of(gg, *_echelon(gg))


def _check_degenerate(gg):
    f = gg.field
    if f.is_prime_field and f.p == 2 and gg.dim == 1 and not gg.is_identity():
        raise NoReflections("the 1-dimensional affine group over F_2 has no reflections")


def reflection_length_affine(gg):
    """dim mov + (0 | 1 | 2) by class; 0 for the identity."""
    if gg.is_identity():
        return 0
    _check_degenerate(gg)
    rank, fixes_point = _echelon(gg)
    return rank + CLASS_OFFSET[_class_of(gg, rank, fixes_point)]


def is_affine_reflection(gg):
    """True iff gg fixes an affine hyperplane pointwise."""
    rank, fixes_point = _echelon(gg)
    return fixes_point and rank == 1


def make_affine_reflection(H, a, b):
    """The unique affine reflection with mirror H sending a to b.

    Both points must lie off H; a == b is rejected (that would force the
    identity, which is not a reflection).
    """
    if H.is_empty or H.dim != len(a) - 1:
        raise NotAHyperplane("mirror must be a nonempty affine hyperplane")
    if a.field != H.base.field or b.field != a.field:
        raise FieldMismatch("points and hyperplane over different fields")
    if len(b) != len(a):
        raise ShapeMismatch("point dimensions differ")
    if H.contains(a) or H.contains(b):
        raise PointOnHyperplane("both points must lie off the mirror")
    if a == b:
        raise NotAReflection("a fixed point off the mirror would force the identity")
    f = a.field
    c = H.base
    # alpha vanishes on the mirror direction with alpha(c - a) = 1; v = a - b.
    conditions = Matrix.from_rows(f, H.directions.vectors() + [c.sub(a)])
    rhs = Vector(f, [f.zero] * H.directions.dim + [f.one])
    sol = solve(conditions, rhs)
    assert not sol.empty, "a off the mirror guarantees a consistent system"
    alpha = LinearForm(f, sol.particular.entries)
    v = a.sub(b)
    # r(x) = x + alpha(x - c) * v.
    trans = v.scale(f.neg(alpha(c)))
    rr = AffineMap(matrix_of(Reflection(v, alpha)), trans)
    assert rr.apply(a) == b
    return rr


def _translation_factors(lam):
    """A translation by lam != 0 as a product of two affine reflections,
    valid over every field (dimension >= 2 required over F_2).

    Both mirrors are parallel to lam: r1(x) = x + alpha(x) * lam with
    alpha(lam) = -2, and r2 = t_lam o r1 (r1 is an involution).
    """
    f = lam.field
    n = len(lam)
    target = f.neg(f.add(f.one, f.one))
    if target != f.zero:
        # alpha supported on the first nonzero coordinate of lam.
        j = next(i for i, e in enumerate(lam.entries) if e != f.zero)
        entries = [f.zero] * n
        entries[j] = f.div(target, lam[j])
        alpha = LinearForm(f, entries)
    else:
        # Characteristic 2: need a nonzero form vanishing on lam.
        if n < 2:
            raise NoReflections(
                "translations in a 1-dimensional space over F_2 are not products of reflections"
            )
        ann = annihilator(
            SubspaceBasis.from_vectors(f, n, [lam])
        ).vectors()
        alpha = LinearForm(f, ann[0].entries)
    lin = matrix_of(Reflection(lam, alpha))
    r1 = AffineMap(lin, Vector.zero(f, n))
    r2 = AffineMap(lin, lam)
    assert r2.compose(r1) == AffineMap.translation_by(lam)
    return [r2, r1]


def _elliptic_factors(gg):
    """Lift a minimal linear factorization through the fixed point."""
    a = fix_aff(gg).base
    S = factor_minimal_gl(gg.linear)
    # a reflection matrix is invertible, so include_at's check is skipped
    return [AffineMap._trusted(m, a.sub(m.matvec(a)))
            for m in map(matrix_of, S.factors)]


def _parabolic_mirror(gg):
    """An affine hyperplane whose direction contains fix_lin(gg) and which
    misses both a and gg(a), for a deterministically chosen probe point a.
    The mirror is the coset phi(x) = c of the kernel of a form phi."""
    f = gg.field
    n = gg.dim
    if not (f.is_prime_field and f.p == 2):
        # a = 0.  The forms vanishing on fix_lin(gg) are the row space of
        # g - 1, and phi is its first RREF row.  c must avoid phi(a) = 0 and
        # phi(gg(a)) = phi(t); outside characteristic 2, one of 0, 1, 2 does.
        a = Vector.zero(f, n)
        phi = LinearForm(f, rref(gg.linear.minus_identity())[0].entries[0])
        banned = {f.zero, phi(gg.translation)}
        c = next(x for x in (f.zero, f.one, f.add(f.one, f.one)) if x not in banned)
    else:
        # F_2: find a with W = L + span(gg(a) - a) proper, then use the coset
        # of a hyperplane containing W that avoids a (and hence gg(a)).
        L = fix_lin(gg)
        for a in [Vector.zero(f, n)] + [Vector.unit(f, n, i) for i in range(n)]:
            motion = gg.apply(a).sub(a)
            W = subspace_sum(L, SubspaceBasis.from_vectors(f, n, [motion]))
            if not W.is_full():
                break
        else:
            raise AssertionError("parabolic element must admit a non-covering probe point")
        phi = LinearForm(f, annihilator(W).vectors()[0].entries)
        c = f.add(phi(a), f.one)
    # base point with phi = c along phi's leading coordinate.
    j = next(i for i, e in enumerate(phi.entries) if e != f.zero)
    base = Vector.unit(f, n, j).scale(f.div(c, phi[j]))
    return a, AffineSubspace(base, kernel_basis(Matrix(f, [phi.entries])))


def factor_minimal_affine(gg):
    """A minimal factorization of gg into affine reflections.

    The factor count equals reflection_length_affine(gg), the factors compose
    (left to right) back to gg, and each passes is_affine_reflection.
    """
    if gg.is_identity():
        return []
    _check_degenerate(gg)
    kind = classify(gg)
    if kind == ELLIPTIC:
        return _elliptic_factors(gg)
    if kind == PARABOLIC:
        a, mirror = _parabolic_mirror(gg)
        rr = make_affine_reflection(mirror, gg.apply(a), a)
        corrected = rr.compose(gg)
        return [rr.inverse()] + _elliptic_factors(corrected)
    # Hyperbolic: a translation, or (F_2 only) a glide reflection.
    if gg.is_translation():
        return _translation_factors(gg.translation)
    lifted = include_at(gg.linear, Vector.zero(gg.field, gg.dim))
    residue = gg.compose(lifted.inverse())
    assert residue.is_translation()
    return _translation_factors(residue.translation) + [lifted]


def compose_all(factors, field, n):
    """Product (composition, leftmost applied last) of a factor list."""
    out = AffineMap.identity(field, n)
    for fmap in factors:
        out = out.compose(fmap)
    return out
