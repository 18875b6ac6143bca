"""Exact matrix arithmetic written independently of reflen.

The benchmark builds its library inputs with these helpers and checks
reflen's answers against them, so a bug in reflen's own linear algebra
cannot hide itself.  A matrix is a list of rows.  Over F_p (``p`` an int)
entries are ints in [0, p); over Q (``p`` is None) they are Fractions.
"""

from fractions import Fraction


def scalar(x, p):
    return x % p if p else Fraction(x)


def inv(x, p):
    if p:
        return pow(x, -1, p)
    return 1 / Fraction(x)


def identity(n, p):
    return [[scalar(int(i == j), p) for j in range(n)] for i in range(n)]


def matmul(a, b, p):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if p:
        out = [[x % p for x in row] for row in out]
    return out


def matvec(a, v, p):
    return [scalar(sum(x * y for x, y in zip(row, v)), p) for row in a]


def sub_identity(a, p):
    return [[scalar(x - (i == j), p) for j, x in enumerate(row)]
            for i, row in enumerate(a)]


def rank(a, p):
    """Rank by Gaussian elimination on a copy of ``a``."""
    rows = [list(r) for r in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        s = inv(rows[r][c], p)
        rows[r] = [scalar(x * s, p) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c]
                rows[i] = [scalar(x - f * y, p) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def block(linear, translation, p):
    """The (n+1)x(n+1) block matrix [[linear, translation], [0, 1]]."""
    n = len(linear)
    rows = [list(linear[i]) + [translation[i]] for i in range(n)]
    rows.append([scalar(0, p)] * n + [scalar(1, p)])
    return rows


def is_gl_reflection(m, p):
    """Invertible with a fixed hyperplane: rank(m - 1) = 1."""
    return rank(sub_identity(m, p), p) == 1 and rank(m, p) == len(m)


def is_affine_reflection(linear, translation, p):
    """The fixed points {x : Lx + t = x} form an affine hyperplane: the
    system (L - 1)x = -t is consistent and rank(L - 1) = 1."""
    d = sub_identity(linear, p)
    aug = [row + [scalar(-t, p)] for row, t in zip(d, translation)]
    return rank(d, p) == 1 and rank(aug, p) == 1 and rank(linear, p) == len(linear)
