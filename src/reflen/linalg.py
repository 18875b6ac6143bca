"""Exact dense linear algebra over one field: vectors, forms, matrices,
echelon forms, canonical subspace bases, and affine solution sets.

Every value is immutable (entries stored as tuples) and every operation is a
pure function, so values can be shared freely between threads.

The public constructors coerce every entry into the field.  Results of field
operations are already reduced, so the operations here build their results
with the internal ``_trusted`` constructors, which skip that step.
"""

from .errors import FieldMismatch, ShapeMismatch, Singular


def _same_field(a, b):
    if a.field != b.field:
        raise FieldMismatch("operands over %r and %r" % (a.field, b.field))


class Vector:
    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = tuple(field.coerce(e) for e in entries)
        if not self.entries:
            raise ShapeMismatch("vectors must have positive length")

    @classmethod
    def _trusted(cls, field, entries):
        """A vector from a nonempty tuple of entries already in the field."""
        v = cls.__new__(cls)
        v.field = field
        v.entries = entries
        return v

    @classmethod
    def zero(cls, field, n):
        return cls(field, [field.zero] * n)

    @classmethod
    def unit(cls, field, n, i):
        entries = [field.zero] * n
        entries[i] = field.one
        return cls(field, entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def is_zero(self):
        return all(e == self.field.zero for e in self.entries)

    def add(self, other):
        _same_field(self, other)
        if len(other) != len(self):
            raise ShapeMismatch("vector lengths differ")
        f = self.field
        return Vector._trusted(
            f, tuple([f.add(a, b) for a, b in zip(self.entries, other.entries)])
        )

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        f = self.field
        return Vector._trusted(f, tuple([f.neg(a) for a in self.entries]))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Vector._trusted(f, tuple([f.mul(c, a) for a in self.entries]))

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "Vector(%r, %s)" % (self.field, list(self.entries))


class LinearForm:
    """A covector; calling it on a Vector of equal length gives the dot product."""

    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = tuple(field.coerce(e) for e in entries)
        if not self.entries:
            raise ShapeMismatch("forms must have positive length")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def is_zero(self):
        return all(e == self.field.zero for e in self.entries)

    def __call__(self, v):
        _same_field(self, v)
        if len(v) != len(self):
            raise ShapeMismatch("form/vector lengths differ")
        f = self.field
        acc = f.zero
        for a, b in zip(self.entries, v.entries):
            acc = f.add(acc, f.mul(a, b))
        return acc

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return LinearForm(f, [f.mul(c, a) for a in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, "form", self.entries))

    def __repr__(self):
        return "LinearForm(%r, %s)" % (self.field, list(self.entries))


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries):
        rows = tuple(tuple(field.coerce(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix dimensions must be positive")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = rows

    @classmethod
    def _trusted(cls, field, rows):
        """A matrix from a nonempty tuple of equal-length, nonempty tuples of
        entries already in the field."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.entries = rows
        return m

    @classmethod
    def identity(cls, field, n):
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, field, r, c):
        return cls(field, [[field.zero] * c for _ in range(r)])

    @classmethod
    def from_rows(cls, field, vectors):
        return cls(field, [v.entries for v in vectors])

    def col(self, j):
        return Vector(self.field, [self.entries[i][j] for i in range(self.rows)])

    def transpose(self):
        return Matrix._trusted(self.field, tuple(zip(*self.entries)))

    def _entrywise(self, op, other):
        _same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix shapes differ")
        return Matrix._trusted(
            self.field,
            tuple([
                tuple([op(a, b) for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            ]),
        )

    def add(self, other):
        return self._entrywise(self.field.add, other)

    def sub(self, other):
        return self._entrywise(self.field.sub, other)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Matrix._trusted(
            f, tuple([tuple([f.mul(c, a) for a in row]) for row in self.entries])
        )

    def mul(self, other):
        _same_field(self, other)
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        cols = tuple(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix._trusted(f, tuple(out))

    def matvec(self, v):
        _same_field(self, v)
        if self.cols != len(v):
            raise ShapeMismatch("matrix/vector shapes differ")
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero
            for a, b in zip(row, v.entries):
                acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return Vector._trusted(f, tuple(out))

    def minus_identity(self):
        if self.rows != self.cols:
            raise ShapeMismatch("square matrix required")
        f = self.field
        one = f.one
        return Matrix._trusted(
            f,
            tuple([
                row[:i] + (f.sub(row[i], one),) + row[i + 1:]
                for i, row in enumerate(self.entries)
            ]),
        )

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one, zero = self.field.one, self.field.zero
        return all(
            e == (one if i == j else zero)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def is_invertible(self):
        return self.rows == self.cols and rref(self)[1] == self.rows

    def inverse(self):
        if self.rows != self.cols:
            raise ShapeMismatch("square matrix required")
        n = self.rows
        aug = Matrix(
            self.field,
            [
                list(self.entries[i])
                + [self.field.one if j == i else self.field.zero for j in range(n)]
                for i in range(n)
            ],
        )
        red, rank, _ = rref(aug)
        if rank < n:
            raise Singular("matrix is not invertible")
        return Matrix._trusted(self.field, tuple([row[n:] for row in red.entries]))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "Matrix(%r, %s)" % (self.field, [list(r) for r in self.entries])


def rref(M):
    """Reduced row echelon form.

    Returns ``(R, rank, pivots)`` where R is the unique RREF of M, rank is the
    number of nonzero rows, and pivots is the strictly increasing list of
    pivot columns.
    """
    f = M.field
    zero, mul, sub = f.zero, f.mul, f.sub
    rows = [list(r) for r in M.entries]
    nrows, ncols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # Left of column c the pivot row is zero, so only columns c.. change.
        prow = rows[r]
        inv = f.inv(prow[c])
        tail = [mul(inv, x) for x in prow[c:]]
        rows[r] = prow[:c] + tail
        for i in range(nrows):
            row = rows[i]
            factor = row[c]
            if i != r and factor != zero:
                row[c:] = [sub(x, mul(factor, y)) for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix._trusted(f, tuple([tuple(row) for row in rows])), len(pivots), pivots


class SubspaceBasis:
    """A linear subspace of F^n, stored as its canonical RREF basis.

    Two equal subspaces always have identical stored bases, so structural
    equality is subspace equality.  The empty basis is the zero subspace.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, basis_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(field.coerce(e) for e in row) for row in basis_rows)

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, [])

    @classmethod
    def full(cls, field, n):
        return cls.from_vectors(field, n, [Vector.unit(field, n, i) for i in range(n)])

    @classmethod
    def from_vectors(cls, field, n, vectors):
        """Canonicalize an arbitrary spanning list into an RREF basis."""
        vectors = [v for v in vectors if not v.is_zero()]
        if not vectors:
            return cls.zero(field, n)
        for v in vectors:
            if v.field != field:
                raise FieldMismatch("basis vector over wrong field")
            if len(v) != n:
                raise ShapeMismatch("basis vector of wrong length")
        red, rank, _ = rref(Matrix.from_rows(field, vectors))
        return cls(field, n, red.entries[:rank])

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        return self.ambient_dim - self.dim

    def vectors(self):
        return [Vector(self.field, row) for row in self.basis]

    def contains(self, v):
        if v.field != self.field:
            raise FieldMismatch("vector over wrong field")
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("vector of wrong length")
        return self.reduce(v).is_zero()

    def reduce(self, v):
        """Subtract off the basis to get the canonical coset representative:
        the result has zeros in every pivot column of this basis."""
        f = self.field
        out = list(v.entries)
        for row in self.basis:
            lead = next(j for j, e in enumerate(row) if e != f.zero)
            c = out[lead]
            if c != f.zero:
                out = [f.sub(x, f.mul(c, y)) for x, y in zip(out, row)]
        return Vector(f, out)

    def is_full(self):
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return "SubspaceBasis(%r, %d, %s)" % (
            self.field,
            self.ambient_dim,
            [list(r) for r in self.basis],
        )


def kernel_basis(M):
    """Canonical basis of the null space {x : Mx = 0}."""
    red, _, pivots = rref(M)
    return _kernel_from_rref(red, pivots, M.cols)


def _kernel_from_rref(red, pivots, ncols):
    """Null space of the first ncols columns of a matrix, from its RREF red
    and the pivots among those columns: the first ncols columns of an RREF
    are the RREF of those columns."""
    f = red.field
    vecs = []
    for c in range(ncols):
        if c in pivots:
            continue
        entries = [f.zero] * ncols
        entries[c] = f.one
        for i, p in enumerate(pivots):
            entries[p] = f.neg(red.entries[i][c])
        vecs.append(Vector._trusted(f, tuple(entries)))
    return SubspaceBasis.from_vectors(f, ncols, vecs)


def image_basis(M):
    """Canonical basis of the column space of M."""
    cols = [M.col(j) for j in range(M.cols)]
    return SubspaceBasis.from_vectors(M.field, M.rows, cols)


def _check_compatible(A, B):
    if A.field != B.field:
        raise FieldMismatch("subspaces over different fields")
    if A.ambient_dim != B.ambient_dim:
        raise ShapeMismatch("subspaces of different ambient dimension")


def subspace_sum(A, B):
    _check_compatible(A, B)
    return SubspaceBasis.from_vectors(
        A.field, A.ambient_dim, A.vectors() + B.vectors()
    )


def annihilator(A):
    """Forms (as coordinate vectors) vanishing on the subspace A."""
    if A.dim == 0:
        return SubspaceBasis.full(A.field, A.ambient_dim)
    return kernel_basis(Matrix(A.field, A.basis))


def subspace_intersect(A, B):
    _check_compatible(A, B)
    ann = annihilator(A).vectors() + annihilator(B).vectors()
    if not ann:
        return SubspaceBasis.full(A.field, A.ambient_dim)
    return kernel_basis(Matrix.from_rows(A.field, ann))


def subspace_contains(A, v):
    return A.contains(v)


class AffineSolutionSet:
    """Solution set of a linear system: empty, or particular + kernel."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular=None, kernel=None):
        self.particular = particular
        self.kernel = kernel

    @property
    def empty(self):
        return self.particular is None

    def __repr__(self):
        if self.empty:
            return "AffineSolutionSet(empty)"
        return "AffineSolutionSet(%r, %r)" % (self.particular, self.kernel)


def solve(A, b):
    """Exact solution set of Ax = b.

    The particular solution is deterministic: all free variables are 0.
    """
    _same_field(A, b)
    if A.rows != len(b):
        raise ShapeMismatch("matrix/vector shapes differ")
    f = A.field
    aug = Matrix(f, [list(row) + [b[i]] for i, row in enumerate(A.entries)])
    red, rank, pivots = rref(aug)
    if A.cols in pivots:
        return AffineSolutionSet()
    entries = [f.zero] * A.cols
    for i, p in enumerate(pivots):
        entries[p] = red.entries[i][A.cols]
    return AffineSolutionSet(
        Vector._trusted(f, tuple(entries)), _kernel_from_rref(red, pivots, A.cols)
    )
