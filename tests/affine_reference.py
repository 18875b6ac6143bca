"""Reference affine queries: the fundamental subspaces and the
elliptic/parabolic/hyperbolic rule, each from its own linear solve.

Every function here runs separate eliminations through ``reflen.linalg``
(``solve``, ``kernel_basis``, ``image_basis``) and shares no code with
``reflen.affine``'s single-echelon queries, so the tests cross-check those
against it.
"""

from reflen.affine import (
    CLASS_OFFSET,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    AffineSubspace,
)
from reflen.linalg import image_basis, kernel_basis, solve


def mov(gg):
    return AffineSubspace(gg.translation, image_basis(gg.linear.minus_identity()))


def fix_aff(gg):
    sol = solve(gg.linear.minus_identity(), gg.translation.neg())
    if sol.empty:
        return AffineSubspace.empty()
    return AffineSubspace(sol.particular, sol.kernel)


def fix_lin(gg):
    return kernel_basis(gg.linear.minus_identity())


def classify(gg):
    """Hyperbolic when gg fixes no point and its two linear-fixed-space
    cosets through a and gg(a) cover the space: a nontrivial translation, or
    over F_2 a glide whose mirror contains the moved line."""
    if not fix_aff(gg).is_empty:
        return ELLIPTIC
    L = fix_lin(gg)
    if L.is_full():
        return HYPERBOLIC
    f = gg.field
    if f.is_prime_field and f.p == 2 and L.codim == 1:
        moved_dirs = image_basis(gg.linear.minus_identity())
        inside = all(L.contains(v) for v in moved_dirs.vectors())
        if inside and not L.contains(gg.translation):
            return HYPERBOLIC
    return PARABOLIC


def reflection_length(gg):
    if gg.is_identity():
        return 0
    return mov(gg).dim + CLASS_OFFSET[classify(gg)]


def is_reflection(gg):
    fa = fix_aff(gg)
    return (not fa.is_empty) and fa.dim == gg.dim - 1
