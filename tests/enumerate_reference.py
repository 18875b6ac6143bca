"""Reference enumeration of GL_n(F_p) and GA_n(F_p): every row's span is
built, including the last one, and every block goes through the public,
coercing ``Matrix`` constructor.

It shares no code with ``reflen.oracle.enumerate_group``, so the tests
cross-check the tables it builds, element by element and in order.
"""

from itertools import product as iproduct

from reflen import Matrix
from reflen.fields import PrimeField


def invertible_matrices(field, n):
    """All of GL_n(F_p), rows chosen lexicographically, each row outside the
    span of the previous ones, in lex order of the flattened entries."""
    p = field.p
    all_rows = list(iproduct(range(p), repeat=n))

    def rec(chosen, span):
        if len(chosen) == n:
            yield Matrix(field, chosen)
            return
        for row in all_rows:
            if row in span:
                continue
            new_span = set()
            for s in span:
                for c in range(p):
                    new_span.add(tuple((a + c * b) % p for a, b in zip(s, row)))
            yield from rec(chosen + [row], new_span)

    zero_span = {tuple([0] * n)}
    yield from rec([], zero_span)


def enumerate_elements(kind, n, p):
    """The elements of GL_n(F_p) ("GL") or of GA_n(F_p) ("GA", as
    (n+1) x (n+1) block matrices), sorted by their entries."""
    field = PrimeField(p)
    if kind == "GL":
        return list(invertible_matrices(field, n))
    blocks = []
    translations = list(iproduct(range(p), repeat=n))
    for g in invertible_matrices(field, n):
        for lam in translations:
            rows = [list(g.entries[i]) + [lam[i]] for i in range(n)]
            rows.append([0] * n + [1])
            blocks.append(Matrix(field, rows))
    blocks.sort(key=lambda m: m.entries)
    return blocks
