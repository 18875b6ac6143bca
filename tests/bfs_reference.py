"""Reference BFS: word lengths over a generating set, by plain matrix
products.

Elements are flattened residue tuples of one fixed shape over F_p.  It shares
no code with ``reflen.oracle.bfs_lengths`` and expands every level, so the
tests cross-check the row-table BFS and its early exit against it.
"""

UNREACHED = -1


def _mat_mul_flat(a, b, dim, p):
    out = [0] * (dim * dim)
    for i in range(dim):
        row = i * dim
        for j in range(dim):
            acc = 0
            for k in range(dim):
                acc += a[row + k] * b[k * dim + j]
            out[row + j] = acc % p
    return tuple(out)


def bfs_lengths(elements, gen_ids, dim, p, identity_id):
    """Breadth-first word lengths from the identity.

    elements: list of flattened dim*dim residue tuples (the whole group).
    gen_ids: indices of the generators within `elements`.
    Returns a list of ints, UNREACHED for elements outside the generated
    subgroup.
    """
    index = {e: i for i, e in enumerate(elements)}
    lengths = [UNREACHED] * len(elements)
    lengths[identity_id] = 0
    frontier = [identity_id]
    gens = [elements[g] for g in gen_ids]
    while frontier:
        nxt = []
        for eid in frontier:
            cur = elements[eid]
            d = lengths[eid] + 1
            for g in gens:
                prod = _mat_mul_flat(cur, g, dim, p)
                j = index[prod]
                if lengths[j] == UNREACHED:
                    lengths[j] = d
                    nxt.append(j)
        frontier = nxt
    return lengths
