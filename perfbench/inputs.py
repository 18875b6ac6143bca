"""Seeded inputs for the library workload, each with its answer known by
construction.

Every cell is a (field, n) pair.  A cell holds ROUNDS inputs of each kind:

- GL: g = h d h^-1 with h unimodular (so h^-1 is integral and g exists over
  every field) and d = I plus k Jordan or diagonal defects, so that
  rank(g - 1) = k.
- affine: elliptic (g from the GL recipe, fixing a seeded point), parabolic
  (d = 1 + d', translated along the eigenvalue-1 direction that im(d - 1)
  misses) or hyperbolic (a nonzero translation; over fields other than F_2
  these are the only hyperbolic maps).
- tuples: k reflections I + v alpha^T with v and alpha taken from
  unimodular matrices, so both families are independent and the tuple is
  reduced; every other tuple of length >= 2 repeats a direction (v or
  alpha) to make it non-reduced.

k runs over 1..n in the same stratified pattern on every seed, so the seed
changes the matrices but not the mix of lengths, and a cell's median latency
stays comparable across seeds.  Inputs are written in reflen's matrix text
format; the workload parses them during set-up.
"""

import math
import random
from fractions import Fraction

import exact

FIELDS = (("F7", 7), ("F65521", 65521), ("Q", None))
DIMS = (3, 6, 10)
ROUNDS = 10
CLASSES = ("elliptic", "parabolic", "hyperbolic")
# Small rationals other than 0 and 1, for eigenvalues over Q.
Q_EIGENVALUES = (-1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                 Fraction(-3, 2))


class Cell:
    __slots__ = ("field", "p", "n", "gl", "affine", "tuples")

    def __init__(self, field, p, n):
        self.field = field
        self.p = p
        self.n = n
        self.gl = []       # (text, length, matrix)
        self.affine = []   # (text, class, length, block matrix)
        self.tuples = []   # (text, reduced)

    @property
    def label(self):
        return "%s.n%d" % (self.field, self.n)


def stratified_k(n, i):
    """1..n spread evenly over the ROUNDS inputs of a cell."""
    return 1 + int((n - 1) * i / (ROUNDS - 1) + 0.5)


def _format_scalar(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def matrix_text(field, matrices):
    lines = ["field %s" % field]
    for m in matrices:
        lines.append("%d %d" % (len(m), len(m[0])))
        lines.extend(" ".join(_format_scalar(x) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def _nonzero(rng, p):
    return rng.randrange(1, p) if p else rng.choice((-3, -2, -1, 1, 2, 3))


def _eigenvalue(rng, p):
    return rng.randrange(2, p) if p else exact.scalar(rng.choice(Q_EIGENVALUES), None)


def _vector(rng, n, p):
    return [exact.scalar(rng.randint(-2, 2), p) for _ in range(n)]


def _conjugator(rng, n):
    """h and h^-1 for an integer matrix h of determinant +-1, so both exist
    over every field: random elementary column operations, then a row
    permutation, with the inverse operations applied to h^-1."""
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    h_inv = [list(row) for row in h]
    for _ in range(n * (n - 1) // 3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in h:
            row[j] += c * row[i]
        h_inv[i] = [x - c * y for x, y in zip(h_inv[i], h_inv[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    h = [h[k] for k in perm]
    h_inv = [[row[k] for k in perm] for row in h_inv]
    return h, h_inv


def _reduce(m, p):
    return [[exact.scalar(x, p) for x in row] for row in m]


def _defect_matrix(rng, n, k, p):
    """I + N with rank(N) = k: j unipotent 2x2 Jordan blocks, then k - j
    eigenvalues other than 0 and 1, then ones."""
    d = exact.identity(n, p)
    j = rng.randint(0, min(k, n - k))
    for b in range(j):
        d[2 * b][2 * b + 1] = exact.scalar(1, p)
    for i in range(2 * j, j + k):
        d[i][i] = _eigenvalue(rng, p)
    return d


def _conjugate(rng, d, p):
    """(h d h^-1, h), multiplied in integers over d's common denominator."""
    h, h_inv = _conjugator(rng, len(d))
    den = 1 if p else math.lcm(*(x.denominator for row in d for x in row))
    scaled = [[int(x * den) for x in row] for row in d]
    g = exact.matmul(exact.matmul(h, scaled, None), h_inv, None)
    return _reduce([[Fraction(x, den) for x in row] for row in g], p), _reduce(h, p)


def gl_input(rng, n, k, p):
    return _conjugate(rng, _defect_matrix(rng, n, k, p), p)[0]


def affine_input(rng, n, k, cls, p):
    """(linear part, translation, reflection length) of the given class."""
    if cls == "elliptic":
        g = gl_input(rng, n, k, p)
        a = _vector(rng, n, p)
        ga = exact.matvec(g, a, p)
        return g, [exact.scalar(x - y, p) for x, y in zip(a, ga)], k
    if cls == "parabolic":
        k = min(k, n - 1)
        inner = _defect_matrix(rng, n - 1, k, p)
        d = exact.identity(n, p)
        for i in range(n - 1):
            d[i + 1][1:] = inner[i]
        g, h = _conjugate(rng, d, p)
        # c * h e_0 lies outside im(g - 1) = h im(d - 1); adding (g - 1)u
        # moves the translation without creating a fixed point.
        c = _nonzero(rng, p)
        u = _vector(rng, n, p)
        gu = exact.matvec(g, u, p)
        t = [exact.scalar(c * h[i][0] + gu[i] - u[i], p) for i in range(n)]
        return g, t, k + 1
    t = _vector(rng, n, p)
    t[rng.randrange(n)] = _nonzero(rng, p)
    return exact.identity(n, p), t, 2


def _dot(a, b, p):
    return exact.scalar(sum(x * y for x, y in zip(a, b)), p)


def tuple_input(rng, n, k, reduced, p):
    """k reflection matrices I + v_i alpha_i^T; independent v's and alphas
    exactly when ``reduced``."""
    h = _reduce(_conjugator(rng, n)[0], p)
    m = _reduce(_conjugator(rng, n)[0], p)
    cols = rng.sample(range(n), k)
    rows = rng.sample(range(n), k)
    vs = [[h[i][c] for i in range(n)] for c in cols]
    alphas = [list(m[r]) for r in rows]
    if not reduced:
        c = _nonzero(rng, p)
        if rng.random() < 0.5:
            vs[-1] = [exact.scalar(c * x, p) for x in vs[0]]
        else:
            alphas[-1] = [exact.scalar(c * x, p) for x in alphas[0]]
    out = []
    minus_one = exact.scalar(-1, p)
    for v, alpha in zip(vs, alphas):
        # alpha(v) = -1 would make I + v alpha^T singular; rescale alpha.
        while _dot(alpha, v, p) == minus_one:
            c = _nonzero(rng, p)
            alpha = [exact.scalar(c * x, p) for x in alpha]
        out.append([[exact.scalar((i == j) + v[i] * alpha[j], p) for j in range(n)]
                    for i in range(n)])
    return out


def build_cells(seed, dims=DIMS, fields=FIELDS):
    cells = []
    for field, p in fields:
        for n in dims:
            rng = random.Random("%s:%s:%d" % (seed, field, n))
            cell = Cell(field, p, n)
            for i in range(ROUNDS):
                k = stratified_k(n, i)
                g = gl_input(rng, n, k, p)
                cell.gl.append((matrix_text(field, [g]), k, g))
                cls = CLASSES[i % 3]
                g, t, length = affine_input(rng, n, k, cls, p)
                b = exact.block(g, t, p)
                cell.affine.append((matrix_text(field, [b]), cls, length, b))
                reduced = k == 1 or i % 2 == 0
                cell.tuples.append(
                    (matrix_text(field, tuple_input(rng, n, k, reduced, p)), reduced))
            cells.append(cell)
    return cells
