"""The benchmark's three closed-loop workloads.

One caller in one thread issues each operation after the previous one has
returned.  A workload is built from the seed during set-up and then yields
the operations of one pass; the runner repeats passes until its time is up.
Every operation has an untimed ``prepare`` (fresh input objects, so no
per-object cache carries over between calls), a timed ``run`` through
reflen's public API, and an untimed ``check`` against a reference computed
here, independently of reflen.
"""

import contextlib
import hashlib
import io

import exact
import inputs

# GL and GA, p = 2 (the special branch of affine.classify), sparse (GA_3(F_2):
# 42 reflections) and dense (GL_2(F_7): 328) Cayley graphs, diameters 2 and 3.
# Larger groups take from 16 s to minutes per pass on the pure-Python BFS.
ORACLE_LADDER = (("GL", 3, 2), ("GA", 2, 3), ("GL", 2, 5), ("GA", 3, 2), ("GL", 2, 7))
# (group, tuple length): 9,723 and 3,660 reducedness checks, many small
# Matrix products and reflection_from_matrix calls in the tuple loop.
TUPLE_RUNS = ((("GL", 3, 2), 3), (("GA", 2, 3), 2))
SMALL_LADDER = (("GL", 2, 3), ("GA", 2, 2))
SMALL_TUPLE_RUNS = ((("GL", 2, 3), 2), (("GA", 2, 2), 2))
# `reflen verify --seed` spot-checks this many factorizations.
SAMPLED_FACTORIZATIONS = 25

# (defining module, function, key of the inputs it takes, short name)
LIBRARY_CALLS = (
    ("factorization", "reflection_length_gl", "gl", "length_gl"),
    ("factorization", "factor_minimal_gl", "gl", "factor_gl"),
    ("factorization", "is_reduced", "tuples", "is_reduced"),
    ("affine", "reflection_length_affine", "affine", "length_affine"),
    ("affine", "factor_minimal_affine", "affine", "factor_affine"),
)


class Op:
    """One timed call.  ``kind`` groups calls whose latencies are comparable;
    ``work`` is what the call completes when it succeeds."""

    __slots__ = ("kind", "work", "prepare", "run", "check")

    def __init__(self, kind, work, prepare, run, check):
        self.kind = kind
        self.work = work
        self.prepare = prepare
        self.run = run
        self.check = check


class CliRefused(Exception):
    """The CLI exited non-zero with an error message and no report."""


def gl_order(n, q):
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def group_order(kind, n, q):
    return gl_order(n, q) * (q**n if kind == "GA" else 1)


def reflection_count(kind, n, q):
    """Closed-form number of reflections.  GL: transvections plus
    semisimple reflections.  GA: affine hyperplanes times the maps fixing
    one pointwise, which are fixed by the image of one point off it."""
    lines = (q**n - 1) // (q - 1)
    if kind == "GL":
        return lines * (q**(n - 1) - 1) + (q - 2) * q**(n - 1) * lines
    return q * lines * (q**n - q**(n - 1) - 1)


def _records(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _digest(parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class _CliWorkload:
    """In-process `reflen` CLI invocations with stdout and stderr
    captured."""

    def __init__(self, reflen, invocations):
        self.reflen = reflen
        # (kind, argv, work, expected records)
        self.invocations = invocations
        self.first_output = {}

    def digest(self):
        return _digest(self.invocations)

    def parse(self):
        """Nothing to parse: the inputs are argument lists."""

    def ops(self):
        return [Op(kind, work, tuple, self._caller(argv), self._checker(kind, expected))
                for kind, argv, work, expected in self.invocations]

    def _caller(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.reflen.cli.main(list(argv))
            if rc != 0 and not out.getvalue():
                raise CliRefused("exit %s: %s" % (rc, err.getvalue().strip()))
            return rc, out.getvalue()
        return run

    def _checker(self, kind, expected):
        def check(result):
            rc, text = result
            if rc != 0:
                return "%s: exit code %s" % (kind, rc)
            got = _records(text)
            for key, want in expected.items():
                if got.get(key) != str(want):
                    return "%s: %s=%s, expected %s" % (kind, key, got.get(key), want)
            if "unreachable" in got:
                return "%s: unreachable=%s" % (kind, got["unreachable"])
            lengths = [int(v) for k, v in got.items() if k.startswith("length_")]
            if lengths and sum(lengths) != int(got["elements"]):
                return "%s: length counts sum to %d" % (kind, sum(lengths))
            first = self.first_output.setdefault(kind, text)
            if text != first:
                return "%s: porcelain output differs between repetitions" % kind
            return None
        return check


def _group_label(kind, n, q):
    return "%s_%d_%d" % (kind, n, q)


def _verify_expectations(kind, n, q):
    order = group_order(kind, n, q)
    return {"elements": order, "agreements": order, "disagreements": 0,
            "sampled_factorizations": min(SAMPLED_FACTORIZATIONS, order),
            "sampled_failures": 0}


def oracle_workload(reflen, seed, small=False):
    """`reflen --porcelain verify K n p --seed s`, then `census K n p`, on
    every group of the ladder.  Work: group elements passed through."""
    invocations = []
    for kind, n, q in SMALL_LADDER if small else ORACLE_LADDER:
        group = [kind, str(n), str(q)]
        order = group_order(kind, n, q)
        label = _group_label(kind, n, q)
        invocations.append(("verify." + label,
                            ["--porcelain", "verify"] + group + ["--seed", str(seed)],
                            order, _verify_expectations(kind, n, q)))
        refl = reflection_count(kind, n, q)
        invocations.append(("census." + label, ["--porcelain", "census"] + group, order,
                            {"elements": order, "reflections": refl,
                             "length_0": 1, "length_1": refl}))
    return _CliWorkload(reflen, invocations)


def tuples_workload(reflen, seed, small=False):
    """`reflen --porcelain verify K n p --tuples t --seed s` on the tuple
    runs.  Work: reducedness checks of reflection tuples."""
    invocations = []
    for (kind, n, q), t in SMALL_TUPLE_RUNS if small else TUPLE_RUNS:
        refl = reflection_count(kind, n, q)
        checks = sum(refl**k for k in range(1, t + 1))
        expected = dict(_verify_expectations(kind, n, q), tuple_checks=checks,
                        tuple_failures=0)
        invocations.append(("tuples.%s.t%d" % (_group_label(kind, n, q), t),
                            ["--porcelain", "verify", kind, str(n), str(q),
                             "--tuples", str(t), "--seed", str(seed)],
                            checks, expected))
    return _CliWorkload(reflen, invocations)


class LibraryWorkload:
    """Single calls to reflection_length_gl, factor_minimal_gl, is_reduced,
    reflection_length_affine and factor_minimal_affine on every (field, n)
    cell.  One pass is every input of every cell, interleaved round by round
    so that each pass holds the same mix of fields, sizes and lengths."""

    def __init__(self, reflen, seed, small=False):
        self.reflen = reflen
        self.cells = inputs.build_cells(seed, dims=(3,) if small else inputs.DIMS)
        self.parse()

    def digest(self):
        return _digest([(c.label, c.gl, c.affine, c.tuples) for c in self.cells])

    def parse(self):
        """Turn every input text into reflen objects, with expectations."""
        r = self.reflen
        parse_matrix = r.matrixio.parse_matrix
        self.parsed = []
        for cell in self.cells:
            gl = [(parse_matrix(text)[1], k, rows) for text, k, rows in cell.gl]
            affine = [(r.AffineMap.from_block_matrix(parse_matrix(text)[1]), cls, length, rows)
                      for text, cls, length, rows in cell.affine]
            tuples = []
            for text, reduced in cell.tuples:
                field, matrices = r.matrixio.parse_matrices(text)
                factors = [r.reflection_from_matrix(m) for m in matrices]
                tuples.append((r.OrderedFactorization(field, cell.n, factors), reduced))
            self.parsed.append((cell, {"gl": gl, "affine": affine, "tuples": tuples}))

    def ops(self):
        ops = []
        for i in range(inputs.ROUNDS):
            for cell, data in self.parsed:
                for module, func, key, _ in LIBRARY_CALLS:
                    kind = "%s.%s.%s" % (module, func, cell.label)
                    ops.append(Op(kind, 1, *self._call(func, cell, data[key][i])))
        return ops

    def _call(self, func, cell, item):
        """(prepare, run, check) for one call of ``func`` on ``item``."""
        return getattr(self, "_" + func)(self.reflen, cell.p, item)

    @staticmethod
    def _reflection_length_gl(r, p, item):
        g, k, _ = item
        return ((lambda: (r.Matrix(g.field, g.entries),)),
                lambda m: r.reflection_length_gl(m),
                lambda got: None if got == k else "GL length %s, built %d" % (got, k))

    @staticmethod
    def _factor_minimal_gl(r, p, item):
        g, k, rows = item

        def check(S):
            mats = [[[exact.scalar((i == j) + f.v.entries[i] * f.alpha.entries[j], p)
                      for j in range(len(rows))] for i in range(len(rows))]
                    for f in S]
            if len(mats) != k:
                return "GL factor count %d, length %d" % (len(mats), k)
            if not all(exact.is_gl_reflection(m, p) for m in mats):
                return "GL factor is not a reflection"
            product = exact.identity(len(rows), p)
            for m in mats:
                product = exact.matmul(product, m, p)
            return None if product == rows else "GL factors do not multiply back"
        return ((lambda: (r.Matrix(g.field, g.entries),)),
                lambda m: r.factor_minimal_gl(m), check)

    @staticmethod
    def _is_reduced(r, p, item):
        S, reduced = item
        return ((lambda: (r.OrderedFactorization(S.field, S.dim, S.factors),)),
                lambda s: r.is_reduced(s),
                lambda got: None if got == reduced else
                "is_reduced=%s, built %s" % (got, reduced))

    @staticmethod
    def _fresh_affine(r, gg):
        f = gg.field
        return (r.AffineMap(r.Matrix(f, gg.linear.entries),
                            r.Vector(f, gg.translation.entries)),)

    @staticmethod
    def _reflection_length_affine(r, p, item):
        gg, cls, length, _ = item

        def check(got):
            if got != length:
                return "affine length %s, built %d" % (got, length)
            kind = r.classify(gg)
            return None if kind == cls else "class %s, built %s" % (kind, cls)
        return ((lambda: LibraryWorkload._fresh_affine(r, gg)),
                lambda a: r.reflection_length_affine(a), check)

    @staticmethod
    def _factor_minimal_affine(r, p, item):
        gg, cls, length, rows = item

        def check(factors):
            if len(factors) != length:
                return "affine factor count %d, length %d" % (len(factors), length)
            product = exact.identity(len(rows), p)
            for f in factors:
                lin = [list(row) for row in f.linear.entries]
                t = list(f.translation.entries)
                if not exact.is_affine_reflection(lin, t, p):
                    return "affine factor is not an affine reflection"
                product = exact.matmul(product, exact.block(lin, t, p), p)
            return None if product == rows else "affine factors do not compose back"
        return ((lambda: LibraryWorkload._fresh_affine(r, gg)),
                lambda a: r.factor_minimal_affine(a), check)


WORKLOADS = {
    "oracle": oracle_workload,
    "tuples": tuples_workload,
    "library": LibraryWorkload,
}
