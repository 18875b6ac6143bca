"""Reference finder of the reflections in a group table, straight from the
definition: the elements that fix a codimension-1 space pointwise.

It tests every element, by the rank of g - 1 for GL and by the affine
echelon for GA, and builds nothing from (v, alpha) pairs, so the tests
cross-check ``reflen.oracle.reflections_of`` against it.
"""

from reflen import affine
from reflen.linalg import rref


def reflection_ids(table):
    """The ids of the reflections in the table, in increasing order."""
    out = []
    for i, m in enumerate(table.elements):
        if table.kind == "GL":
            if rref(m.minus_identity())[1] == 1:
                out.append(i)
        elif affine.is_affine_reflection(table.affine_map(i)):
            out.append(i)
    return out
