"""Brute-force ground truth on small groups: enumerate GL_n(F_p) or
GA_n(F_p), build the reflections from their (v, alpha) pairs and look them
up in the table, BFS the Cayley graph over them, and compare the resulting
word lengths against the closed-form formulas.
"""

from itertools import product as iproduct
from operator import itemgetter

from . import affine
from .errors import NoReflections, NotClosed, ShapeMismatch, TooLarge
from .factorization import _rank_minus_identity
from .fields import PrimeField
from .linalg import LinearForm, Matrix, Vector
from .reflection import classify_reflection, is_reflection_matrix, make_reflection, \
    matrix_of

GL = "GL"
GA = "GA"

DEFAULT_CAP = 10**6

UNREACHED = -1


def gl_order(n, p):
    order = 1
    pn = p**n
    for i in range(n):
        order *= pn - p**i
    return order


def ga_order(n, p):
    return p**n * gl_order(n, p)


def _is_whole_group(table):
    order = gl_order if table.kind == GL else ga_order
    return len(table) == order(table.n, table.p)


class GroupTable:
    """A fully enumerated small group of matrices, in deterministic
    (lexicographic, row-major) order, with an id lookup by entries.

    A GA table also holds one ``AffineMap`` view per element, built when the
    table is.  Each distinct linear part is checked for invertibility once,
    by ``AffineMap.from_block_matrix`` on its first block, and shared by the
    views of every block with that linear part; every block's shape and last
    row are checked.
    """

    __slots__ = ("kind", "n", "p", "field", "elements", "views", "index",
                 "identity_id")

    def __init__(self, kind, n, p, elements):
        self.kind = kind
        self.n = n
        self.p = p
        self.field = PrimeField(p)
        self.elements = elements
        self.views = _affine_views(self.field, elements) if kind == GA else None
        self.index = {m.entries: i for i, m in enumerate(elements)}
        dim = self.matrix_dim
        self.identity_id = self.index[Matrix.identity(self.field, dim).entries]

    @property
    def matrix_dim(self):
        return self.n if self.kind == GL else self.n + 1

    def __len__(self):
        return len(self.elements)

    def id_of(self, m):
        return self.index[m.entries]

    def affine_map(self, eid):
        if self.kind != GA:
            raise ShapeMismatch("affine view only for GA tables")
        return self.views[eid]


def _affine_views(field, blocks):
    """One AffineMap per block matrix, sharing one linear part Matrix and one
    translation Vector among the blocks that have it."""
    linears = {}
    translations = {}
    views = []
    for B in blocks:
        rows, trans = affine._block_parts(B)
        linear = linears.get(rows)
        if linear is None:
            # the first block with this linear part gets the full check
            linear = linears[rows] = affine.AffineMap.from_block_matrix(B).linear
        vec = translations.get(trans)
        if vec is None:
            vec = translations[trans] = Vector._trusted(field, trans)
        views.append(affine.AffineMap._trusted(linear, vec))
    return views


def _invertible_matrices(field, n):
    """All of GL_n(F_p), rows chosen lexicographically, each row outside the
    span of the previous ones.  Yields matrices in lex order of their
    flattened entries.

    Only the first n - 1 rows need a span: any row outside it closes an
    invertible matrix.
    """
    p = field.p
    all_rows = list(iproduct(range(p), repeat=n))

    def rec(chosen, span):
        if len(chosen) == n - 1:
            for row in all_rows:
                if row not in span:
                    yield Matrix._trusted(field, chosen + (row,))
            return
        for row in all_rows:
            if row in span:
                continue
            new_span = {
                tuple([(a + c * b) % p for a, b in zip(s, row)])
                for s in span for c in range(p)
            }
            yield from rec(chosen + (row,), new_span)

    yield from rec((), {(0,) * n})


def enumerate_group(kind, n, p, cap=DEFAULT_CAP):
    if kind not in (GL, GA):
        raise ShapeMismatch("kind must be GL or GA")
    if n < 1:
        raise ShapeMismatch("dimension must be at least 1, got %d" % n)
    field = PrimeField(p)  # raises NotPrime for bad p
    order = gl_order(n, p) if kind == GL else ga_order(n, p)
    if order > cap:
        raise TooLarge("group order %d exceeds cap %d" % (order, cap))
    if kind == GL:
        elements = list(_invertible_matrices(field, n))
    else:
        last = (0,) * n + (1,)
        translations = list(iproduct(range(p), repeat=n))
        elements = []
        for g in _invertible_matrices(field, n):
            # row i of each block is g's row i extended by lam[i]
            extended = [[row + (c,) for c in range(p)] for row in g.entries]
            for lam in translations:
                rows = tuple([ext[c] for ext, c in zip(extended, lam)]) + (last,)
                elements.append(Matrix._trusted(field, rows))
        elements.sort(key=lambda m: m.entries)
    assert len(elements) == order
    return GroupTable(kind, n, p, elements)


def reflections_of(table):
    """The reflections in the table: a dict from element id, in id order, to
    the ``Reflection`` (v, alpha) of the element, or for GA of its linear
    part.

    Each reflection is built from its pair and looked up, so nothing is
    eliminated.  GL's are the I + v alpha^T of ``enumerate_reflections``.
    An affine map fixes a hyperplane pointwise exactly when its linear part
    is a reflection and its translation lies on the moved line [v], so GA's
    are the p blocks [[I + v alpha^T, s v], [0, 1]], s in F_p.  v has
    leading entry 1, so each pair is the one ``reflection_from_matrix``
    recovers.  Pairs whose element is missing from a hand-built table are
    skipped.
    """
    p = table.p
    last = (0,) * table.n + (1,)
    out = {}
    for r in enumerate_reflections(table.field, table.n):
        rows = matrix_of(r).entries
        if table.kind == GL:
            keys = (rows,)
        else:
            keys = [tuple([row + (s * c % p,) for row, c in zip(rows, r.v.entries)])
                    + (last,) for s in range(p)]
        for key in keys:
            eid = table.index.get(key)
            if eid is not None:
                out[eid] = r
    return dict(sorted(out.items()))


class LengthTable:
    __slots__ = ("lengths",)

    def __init__(self, lengths):
        self.lengths = lengths

    def length(self, eid):
        return self.lengths[eid]

    def reachable(self, eid):
        return self.lengths[eid] != UNREACHED


class CayleyTable:
    """Right multiplication of a table's elements by a generator set, with no
    arithmetic.

    Right multiplication acts on each row alone: row_i(x g) = row_i(x) g.  So
    the distinct rows of the table are numbered once, each element becomes
    the tuple of its row numbers, and each generator becomes the list of its
    action on row numbers; a product is then one lookup per row and one dict
    probe.  Generators are taken in id order.
    """

    __slots__ = ("gens", "element_rows", "acts", "index")

    def __init__(self, table, gens):
        p = table.p
        row_ids = {}
        self.element_rows = [
            tuple([row_ids.setdefault(row, len(row_ids)) for row in m.entries])
            for m in table.elements
        ]
        rows = list(row_ids)
        self.gens = sorted(gens)
        self.acts = []
        for gid in self.gens:
            cols = list(zip(*table.elements[gid].entries))
            # rows that leave the table get fresh numbers, so their products miss
            self.acts.append([
                row_ids.setdefault(
                    tuple([sum([a * b for a, b in zip(row, col)]) % p for col in cols]),
                    len(row_ids),
                )
                for row in rows
            ])
        # key(act) is the product's row numbers: a tuple, or one int when dim is 1
        ids = list(range(len(rows)))
        self.index = {itemgetter(*e)(ids): eid
                      for eid, e in enumerate(self.element_rows)}

    def products(self, eid):
        """The ids of eid * g for each generator g, in generator order.  A
        product that is not in the table raises NotClosed."""
        key = itemgetter(*self.element_rows[eid])
        index = self.index
        try:
            return [index[key(act)] for act in self.acts]
        except KeyError:
            raise NotClosed(
                "a product of element %d and a generator is not in the table" % eid
            ) from None


def bfs_lengths(table, gens, cayley=None):
    """Exact word length of every element over the generator set, by BFS
    over the products of a ``CayleyTable(table, gens)``, built here unless
    the caller passes the one it built.

    Elements outside the generated subgroup keep UNREACHED.  A product that
    is not in the table raises NotClosed.  When the table is the whole group
    it is closed under products, so the search stops as soon as every element
    has a length instead of expanding the last level, which finds nothing.
    """
    if cayley is None:
        cayley = CayleyTable(table, gens)
    products = cayley.products
    lengths = [UNREACHED] * len(table)
    lengths[table.identity_id] = 0
    unreached = len(table) - 1 if _is_whole_group(table) else -1
    frontier = [table.identity_id]
    d = 0
    while frontier and unreached:
        d += 1
        nxt = []
        for eid in frontier:
            for j in products(eid):
                if lengths[j] == UNREACHED:
                    lengths[j] = d
                    nxt.append(j)
        unreached -= len(nxt)
        frontier = nxt
    return LengthTable(lengths)


def formula_length(table, eid):
    """The closed-form prediction: rank(g - 1) for GL, dim mov plus the class
    offset for GA."""
    if table.kind == GL:
        # enumerated elements are invertible by construction
        return _rank_minus_identity(table.elements[eid])
    gg = table.affine_map(eid)
    return affine.reflection_length_affine(gg)


class VerificationReport:
    __slots__ = (
        "kind", "n", "p", "total", "agreements", "disagreements",
        "first_counterexample", "tuple_checks", "tuple_failures",
    )

    def __init__(self, kind, n, p, total, agreements, disagreements,
                 first_counterexample=None, tuple_checks=0, tuple_failures=0):
        self.kind = kind
        self.n = n
        self.p = p
        self.total = total
        self.agreements = agreements
        self.disagreements = disagreements
        self.first_counterexample = first_counterexample
        self.tuple_checks = tuple_checks
        self.tuple_failures = tuple_failures

    @property
    def ok(self):
        return self.disagreements == 0 and self.tuple_failures == 0

    def records(self):
        lines = [
            ("group", "%s %d %d" % (self.kind, self.n, self.p)),
            ("elements", str(self.total)),
            ("agreements", str(self.agreements)),
            ("disagreements", str(self.disagreements)),
        ]
        if self.first_counterexample is not None:
            eid, bfs_len, formula = self.first_counterexample
            lines.append(("first_counterexample_id", str(eid)))
            lines.append(("first_counterexample_bfs", str(bfs_len)))
            lines.append(("first_counterexample_formula", str(formula)))
        if self.tuple_checks:
            lines.append(("tuple_checks", str(self.tuple_checks)))
            lines.append(("tuple_failures", str(self.tuple_failures)))
        return lines


def verify_formulas(table, check_tuples_up_to=0, cap=DEFAULT_CAP):
    """Compare BFS word lengths against the closed-form lengths for every
    element; optionally also check the reducedness criterion on every
    reflection tuple up to the given length, at most cap tuples in all.  The
    cap is checked before any length is computed.

    One ``CayleyTable`` over the reflections serves both the BFS and the
    tuple products, and the tuple loop (``_check_tuples``) makes no
    elimination: GL carries each prefix's echelon rows, GA reads the
    formula pass's lengths."""
    refl = reflections_of(table)
    if not refl:
        raise NoReflections(
            "%s_%d(F_%d) contains no reflections" % (table.kind, table.n, table.p)
        )
    checks = sum(len(refl) ** k for k in range(1, check_tuples_up_to + 1))
    if checks > cap:
        raise TooLarge("%d tuple checks exceed cap %d" % (checks, cap))
    cayley = CayleyTable(table, refl)
    lt = bfs_lengths(table, refl, cayley)
    agreements = 0
    disagreements = 0
    first = None
    formula = [formula_length(table, eid) for eid in range(len(table))]
    for eid, expected in enumerate(formula):
        got = lt.length(eid)
        if got == expected:
            agreements += 1
        else:
            disagreements += 1
            if first is None:
                first = (eid, got, expected)
    tuple_checks, tuple_failures = _check_tuples(
        table, cayley, refl, lt.lengths, formula, check_tuples_up_to
    )
    return VerificationReport(
        table.kind, table.n, table.p, len(table), agreements, disagreements,
        first, tuple_checks, tuple_failures,
    )


def _check_tuples(table, cayley, refl, lengths, formula, up_to):
    """(checks, failures) of the reducedness criterion against the BFS
    lengths, over every tuple of reflections of length 1 to up_to.

    The tuples of one length extend those of the length before, so a
    tuple's product is one ``cayley`` lookup from its prefix's product.  In
    GL a tuple of length k is reduced exactly when dim V_S = codim V^S = k,
    that is when its k vectors and its k forms are independent, so each
    reduced prefix carries the echelon rows of both and a tuple adds one
    vector and one form to them (``_extend_reduced``).  The subspace
    criterion lives in GL; a translation's block matrix is a GL reflection
    but not an affine one, so in GA a tuple is reduced exactly when the
    affine length formula, already evaluated in ``formula``, gives k.
    """
    p = table.p
    gl = table.kind == GL
    pairs = [(refl[gid].v.entries, refl[gid].alpha.entries) for gid in cayley.gens]
    checks = failures = 0
    spans = None  # what a GA prefix carries
    prefixes = [(table.identity_id, ((), ()))]
    for k in range(1, up_to + 1):
        longer = []
        for prefix_id, prefix_spans in prefixes:
            for (v, alpha), pid in zip(pairs, cayley.products(prefix_id)):
                if gl:
                    spans = _extend_reduced(prefix_spans, v, alpha, p)
                    reduced = spans is not None
                else:
                    reduced = formula[pid] == k
                checks += 1
                if reduced != (lengths[pid] == k):
                    failures += 1
                if k < up_to:
                    longer.append((pid, spans))
        prefixes = longer
    return checks, failures


def _extend_reduced(spans, v, alpha, p):
    """The echelon rows over F_p of a reduced tuple's vectors and of its
    forms, ``spans``, extended by one more factor (v, alpha); None when the
    longer tuple is not reduced, or when ``spans`` is None.  A tuple whose
    prefix is not reduced is not reduced either, since each extra factor
    raises each dimension by at most 1.

    A row is (pivot column, entries), with entry 1 at its pivot and 0 at
    the pivots of the rows before it, so reducing by the rows in order
    clears every pivot column; what is left is nonzero exactly when the new
    vector is independent of the rows.
    """
    if spans is None:
        return None
    out = []
    for rows, vec in zip(spans, (v, alpha)):
        for c, row in rows:
            a = vec[c]
            if a:
                vec = [(x - a * y) % p for x, y in zip(vec, row)]
        for c, a in enumerate(vec):
            if a:
                break
        else:
            return None
        if a != 1:
            inv = pow(a, p - 2, p)
            vec = [x * inv % p for x in vec]
        out.append(rows + ((c, vec),))
    return tuple(out)


class CensusReport:
    __slots__ = (
        "kind", "n", "p", "total", "reflections", "length_counts",
        "class_counts", "translations", "nontranslation_hyperbolic",
        "kind_counts", "unreachable", "notes",
    )

    def __init__(self, kind, n, p, total, reflections, length_counts,
                 class_counts=None, translations=None,
                 nontranslation_hyperbolic=None, kind_counts=None,
                 unreachable=0, notes=()):
        self.kind = kind
        self.n = n
        self.p = p
        self.total = total
        self.reflections = reflections
        self.length_counts = length_counts
        self.class_counts = class_counts
        self.translations = translations
        self.nontranslation_hyperbolic = nontranslation_hyperbolic
        self.kind_counts = kind_counts
        self.unreachable = unreachable
        self.notes = tuple(notes)

    def records(self):
        lines = [
            ("group", "%s %d %d" % (self.kind, self.n, self.p)),
            ("elements", str(self.total)),
            ("reflections", str(self.reflections)),
        ]
        for length in sorted(self.length_counts):
            lines.append(("length_%d" % length, str(self.length_counts[length])))
        if self.unreachable:
            lines.append(("unreachable", str(self.unreachable)))
        if self.class_counts is not None:
            for name in (affine.ELLIPTIC, affine.PARABOLIC, affine.HYPERBOLIC):
                lines.append((name, str(self.class_counts.get(name, 0))))
            lines.append(("translations", str(self.translations)))
            lines.append(
                ("nontranslation_hyperbolic", str(self.nontranslation_hyperbolic))
            )
        if self.kind_counts is not None:
            for name in sorted(self.kind_counts):
                lines.append((name, str(self.kind_counts[name])))
        for i, note in enumerate(self.notes):
            lines.append(("note_%d" % i, note))
        return lines


def census(table):
    """Deterministic per-length and per-class counts from the BFS oracle."""
    refl = reflections_of(table)
    lt = bfs_lengths(table, refl)
    length_counts = {}
    unreachable = 0
    for eid in range(len(table)):
        ln = lt.length(eid)
        if ln == UNREACHED:
            unreachable += 1
        else:
            length_counts[ln] = length_counts.get(ln, 0) + 1
    notes = []
    if table.kind == GL:
        kind_counts = {"semisimple": 0, "transvection": 0}
        for r in refl.values():
            kind_counts[classify_reflection(r).name] += 1
        return CensusReport(
            table.kind, table.n, table.p, len(table), len(refl),
            length_counts, kind_counts=kind_counts, unreachable=unreachable,
            notes=notes,
        )
    class_counts = {affine.ELLIPTIC: 0, affine.PARABOLIC: 0, affine.HYPERBOLIC: 0}
    translations = 0
    nontrans_hyp = 0
    for eid in range(len(table)):
        gg = table.affine_map(eid)
        if gg.is_identity():
            class_counts[affine.ELLIPTIC] += 1
            continue
        kind = affine.classify(gg)
        class_counts[kind] += 1
        if kind == affine.HYPERBOLIC:
            if gg.is_translation():
                translations += 1
            else:
                nontrans_hyp += 1
    if table.p == 2 and table.n == 2:
        notes.append(
            "the eight order-3 elements fix a point, so they are counted "
            "elliptic here even though the S4 picture often labels the "
            "3-cycles parabolic"
        )
    return CensusReport(
        table.kind, table.n, table.p, len(table), len(refl), length_counts,
        class_counts=class_counts, translations=translations,
        nontranslation_hyperbolic=nontrans_hyp, unreachable=unreachable,
        notes=notes,
    )


def enumerate_reflections(field, n):
    """All reflections of GL_n(F_p), each once, as (v, alpha) pairs:
    canonical lines (leading entry 1) paired with every admissible form."""
    p = field.p
    lines = []
    for tup in iproduct(range(p), repeat=n):
        if any(tup):
            lead = next(i for i, e in enumerate(tup) if e)
            if tup[lead] == 1:
                lines.append(Vector(field, tup))
    for v in lines:
        for tup in iproduct(range(p), repeat=n):
            if not any(tup):
                continue
            alpha = LinearForm(field, tup)
            if alpha(v) != field.neg(field.one):
                yield make_reflection(v, alpha)


def is_product_of_two_reflections(g):
    """Exhaustive two-factor test: exists a reflection r with r^-1 g again a
    reflection.  Definition-level, no length formula involved."""
    field, n = g.field, g.rows
    for r in enumerate_reflections(field, n):
        residual = r.inverse().matrix().mul(g)
        if is_reflection_matrix(residual):
            return True
    return False
