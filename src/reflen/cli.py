"""Command-line surface: analyze, factor, check-reduced, classify, census,
verify.

Output is human text by default; --porcelain switches to stable key=value
records.  Exit codes: 0 success, 2 input error, 3 domain error.
"""

import argparse
import random
import sys

from . import affine, oracle
from .errors import ParseError, ReflenError
from .factorization import (
    INDETERMINATE,
    OrderedFactorization,
    factor_minimal_gl,
    factorization_report,
    reflection_length_gl,
)
from .linalg import image_basis, kernel_basis
from .matrixio import field_name, format_matrix, parse_matrices, parse_matrix
from .reflection import (
    classify_reflection,
    is_reflection_matrix,
    reflection_from_matrix,
)


class Report:
    """Ordered key/value records with a human and a porcelain rendering."""

    def __init__(self):
        self.records = []

    def add(self, key, value):
        self.records.append((key, str(value)))

    def extend(self, pairs):
        for k, v in pairs:
            self.add(k, v)

    def emit(self, porcelain):
        if porcelain:
            return "\n".join("%s=%s" % (k, v) for k, v in self.records)
        return "\n".join("%s: %s" % (k, v) for k, v in self.records)


def _basis_str(sub):
    if sub.dim == 0:
        return "0"
    return ";".join(
        ",".join(sub.field.format(e) for e in row) for row in sub.basis
    )


def _affine_subspace_str(sub):
    if sub.is_empty:
        return "empty"
    field = sub.base.field
    base = ",".join(field.format(e) for e in sub.base.entries)
    return "%s+%s" % (base, _basis_str(sub.directions))


def _vector_str(v):
    return ",".join(v.field.format(e) for e in v.entries)


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc))


def cmd_analyze(args):
    field, M = parse_matrix(_read_file(args.matrix_file))
    rep = Report()
    rep.add("field", field_name(field))
    if args.affine:
        gg = affine.AffineMap.from_block_matrix(M)
        rep.add("mode", "GA")
        rep.add("dim", gg.dim)
        rep.add("class", affine.classify(gg))
        rep.add("length", affine.reflection_length_affine(gg))
        rep.add("mov", _affine_subspace_str(affine.mov(gg)))
        rep.add("fix_aff", _affine_subspace_str(affine.fix_aff(gg)))
        rep.add("fix_lin", _basis_str(affine.fix_lin(gg)))
        rep.add("is_reflection", affine.is_affine_reflection(gg))
    else:
        rep.add("mode", "GL")
        rep.add("dim", M.rows)
        length = reflection_length_gl(M)
        rep.add("length", length)
        D = M.minus_identity()
        rep.add("fixed_space", _basis_str(kernel_basis(D)))
        rep.add("moved_space", _basis_str(image_basis(D)))
        rep.add("is_reflection", length == 1)
        if length == 1:
            kind = classify_reflection(reflection_from_matrix(M))
            rep.add("reflection_kind", kind.name)
            if kind.beta is not None:
                rep.add("beta", field.format(kind.beta))
    print(rep.emit(args.porcelain))
    return 0


def cmd_factor(args):
    field, M = parse_matrix(_read_file(args.matrix_file))
    rep = Report()
    rep.add("field", field_name(field))
    if args.affine:
        gg = affine.AffineMap.from_block_matrix(M)
        factors = affine.factor_minimal_affine(gg)
        rep.add("mode", "GA")
        rep.add("count", len(factors))
        blocks = [fmap.block_matrix() for fmap in factors]
        ok = affine.compose_all(factors, gg.field, gg.dim) == gg
    else:
        S = factor_minimal_gl(M)
        factors = list(S.factors)
        rep.add("mode", "GL")
        rep.add("count", len(factors))
        blocks = [r.matrix() for r in factors]
        ok = S.product() == M
    print(rep.emit(args.porcelain))
    for i, b in enumerate(blocks):
        if args.porcelain:
            flat = ";".join(
                ",".join(field.format(e) for e in row) for row in b.entries
            )
            print("factor_%d=%s" % (i, flat))
        else:
            print("factor %d:" % i)
            print(format_matrix(b))
    print("product check: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 3


def cmd_check_reduced(args):
    field, matrices = parse_matrices(_read_file(args.tuple_file))
    n = matrices[0].rows
    factors = [reflection_from_matrix(M) for M in matrices]
    S = OrderedFactorization(field, n, factors)
    fr = factorization_report(S)
    rep = Report()
    rep.add("field", field_name(field))
    rep.add("k", fr.k)
    rep.add("dim_moved_span", fr.vS_dim)
    rep.add("codim_fixed_intersection", fr.vS_codim)
    rep.add("reduced", fr.reduced)
    rep.add(
        "length_by_criterion",
        "indeterminate" if fr.length_by_criterion is INDETERMINATE
        else fr.length_by_criterion,
    )
    print(rep.emit(args.porcelain))
    return 0


def cmd_classify(args):
    field, M = parse_matrix(_read_file(args.matrix_file))
    gg = affine.AffineMap.from_block_matrix(M)
    kind = affine.classify(gg)
    rep = Report()
    rep.add("field", field_name(field))
    rep.add("class", kind)
    rep.add("offset", affine.CLASS_OFFSET[kind])
    print(rep.emit(args.porcelain))
    return 0


def _group_args(args):
    kind = args.kind.upper()
    return kind, args.n, args.p


def cmd_census(args):
    kind, n, p = _group_args(args)
    table = oracle.enumerate_group(kind, n, p, cap=args.cap)
    report = oracle.census(table)
    rep = Report()
    rep.extend(report.records())
    print(rep.emit(args.porcelain))
    return 0


def cmd_verify(args):
    kind, n, p = _group_args(args)
    table = oracle.enumerate_group(kind, n, p, cap=args.cap)
    report = oracle.verify_formulas(
        table, check_tuples_up_to=args.tuples, cap=args.cap
    )
    rep = Report()
    rep.extend(report.records())
    if args.seed is not None:
        rng = random.Random(args.seed)
        sample = rng.sample(range(len(table)), min(25, len(table)))
        failures = 0
        for eid in sample:
            if kind == oracle.GL:
                g = table.elements[eid]
                S = factor_minimal_gl(g)
                ok = (
                    S.product() == g
                    and len(S) == reflection_length_gl(g)
                    and all(is_reflection_matrix(r.matrix()) for r in S.factors)
                )
            else:
                gg = table.affine_map(eid)
                factors = affine.factor_minimal_affine(gg)
                ok = (
                    affine.compose_all(factors, gg.field, gg.dim) == gg
                    and len(factors) == affine.reflection_length_affine(gg)
                    and all(affine.is_affine_reflection(f) for f in factors)
                )
            if not ok:
                failures += 1
        rep.add("sampled_factorizations", len(sample))
        rep.add("sampled_failures", failures)
    print(rep.emit(args.porcelain))
    return 0 if report.ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflen",
        description="Reflection lengths and minimal reflection factorizations "
        "in GL and GA over prime fields and Q.",
    )
    parser.add_argument(
        "--porcelain", action="store_true",
        help="stable machine-readable key=value output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_cmd(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("matrix_file")
        p.add_argument("--affine", action="store_true",
                       help="treat input as an (n+1)x(n+1) affine block matrix")
        p.set_defaults(func=func)
        return p

    add_matrix_cmd("analyze", cmd_analyze,
                   "reflection length, fixed/moved spaces, classification")
    add_matrix_cmd("factor", cmd_factor,
                   "minimal reflection factorization with product check")

    p = sub.add_parser("check-reduced",
                       help="reducedness of an ordered reflection tuple")
    p.add_argument("tuple_file")
    p.set_defaults(func=cmd_check_reduced)

    p = sub.add_parser("classify",
                       help="elliptic/parabolic/hyperbolic class of an affine map")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_classify)

    for name, func, helptext in (
        ("census", cmd_census, "per-length and per-class counts on a small group"),
        ("verify", cmd_verify, "BFS oracle versus the closed-form formulas"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("kind", choices=["GL", "GA", "gl", "ga"])
        p.add_argument("n", type=int)
        p.add_argument("p", type=int)
        p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                       help="maximum group order to enumerate and, for "
                       "verify, maximum number of tuple checks")
        if name == "verify":
            p.add_argument("--tuples", type=int, default=0,
                           help="also check reducedness of all tuples up to this length")
            p.add_argument("--seed", type=int, default=None,
                           help="spot-check factorizations on a random sample")
        p.set_defaults(func=func)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ReflenError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
