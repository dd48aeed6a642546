"""Reference helpers that only the tests use.

Brute-force and convenience routines kept out of the package: the
package computes what it certifies by other means, and these recompute
it directly (full scans of G x G, determinants, conjugation orbits) or
give the tests a shorter way to state an expectation.
"""

import numpy as np

from tsring.errors import BadLevel, BadOrder, ShapeMismatch
from tsring.exactarith import (
    ZZ,
    mat_inverse_over_field,
    mat_lift,
    mat_shape,
    nullspace_over_field,
)
from tsring.groupmodel import (
    canonical_coset,
    double_coset_partition,
    group_table,
    subgroup_diag_pe,
)
from tsring.tring import RingElement

# ------------------------------------------------------------ the group model


def pi(params, i, unit):
    """Restrict an automorphism (a unit) to level i: reduction mod p^i."""
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    if unit % params.p == 0:
        raise BadOrder(f"{unit} is not a unit (divisible by {params.p})")
    return unit % params.p**i


def coset_mul(params, a, b):
    if a.level != b.level:
        raise BadLevel("cosets at different levels")
    return canonical_coset(params, a.level, a.rep * b.rep % params.p**a.level)


def delta_g(params):
    """The plain diagonal of G."""
    return subgroup_diag_pe(params, params.n, 1)


def double_cosets(params, i, j):
    """Canonical representatives: identity's coset first, then least-first."""
    table = group_table(params)
    return [table.elems[block[0]] for block in double_coset_partition(params, i, j)]


def first_projection(sub):
    return frozenset(a for a, _ in sub.elements)


def left_kernel(sub):
    """k_1: elements g of G with (g, 1) in the subgroup."""
    ident = sub.params.identity
    return frozenset(a for a, b in sub.elements if b == ident)


def right_kernel(sub):
    """k_2: elements h of G with (1, h) in the subgroup."""
    ident = sub.params.identity
    return frozenset(b for a, b in sub.elements if a == ident)


def gg_generators(params):
    ident = params.identity
    gens = [((1, 1), ident), (ident, (1, 1))]
    if params.e > 1:
        gens += [((0, params.e_generator), ident), (ident, (0, params.e_generator))]
    return gens


def normalizer_bruteforce(params, sub):
    """All (s1, s2) in G x G normalizing the subgroup, by full scan."""
    table = group_table(params)
    order = len(table.elems)
    member = np.zeros((order, order), dtype=bool)
    for a, b in sub.elements:
        member[table.index[a], table.index[b]] = True
    mask = np.ones((order, order), dtype=bool)
    all_idx = np.arange(order, dtype=np.int32)
    for a, b in sub.elements:
        ga, gb = table.index[a], table.index[b]
        conj_a = table.mul[table.mul[all_idx, ga], table.inv[all_idx]]
        conj_b = table.mul[table.mul[all_idx, gb], table.inv[all_idx]]
        mask &= member[np.ix_(conj_a, conj_b)]
    out = set()
    for s1 in range(order):
        for s2 in np.nonzero(mask[s1])[0]:
            out.add((table.elems[s1], table.elems[int(s2)]))
    return out


def conjugate_subgroup_orbit(params, sub):
    """Orbit of the subgroup under G x G conjugation (generator closure)."""
    gens = gg_generators(params)
    start = frozenset(sub.elements)
    orbit = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for s1, s2 in gens:
            moved = frozenset(
                (params.g_conj(s1, a), params.g_conj(s2, b)) for a, b in cur
            )
            if moved not in orbit:
                orbit.add(moved)
                frontier.append(moved)
    return orbit


def are_conjugate_bruteforce(params, sub_a, sub_b):
    if len(sub_a) != len(sub_b):
        return False
    return frozenset(sub_b.elements) in conjugate_subgroup_orbit(params, sub_a)


# ----------------------------------------------------------- linear algebra


def det_over_field(a, K):
    rows, cols = mat_shape(a)
    if rows != cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    m = mat_lift(a, K)
    det = K.one
    for col in range(cols):
        pivot_row = next((i for i in range(col, rows) if not K.is_zero(m[i][col])), None)
        if pivot_row is None:
            return K.zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = K.neg(det)
        det = K.mul(det, m[col][col])
        inv = K.inv(m[col][col])
        for i in range(col + 1, rows):
            if not K.is_zero(m[i][col]):
                factor = K.mul(m[i][col], inv)
                m[i] = [K.sub(x, K.mul(factor, y)) for x, y in zip(m[i], m[col])]
    return det


def projective_identity(c, K):
    """Coefficient matrix of the identity of the projective ideal over K.

    This is C^{-1} for a general twist c: the element sum_{i,j} c'_ij P[i, j].
    Raises NotInvertible when det(C) vanishes in K.
    """
    return mat_inverse_over_field(c, K)


def projective_primitive_decomposition(c, K):
    """Row slices of C^{-1}: l orthogonal idempotents summing to C^{-1}."""
    size = mat_shape(c)[0]
    inverse = mat_inverse_over_field(c, K)
    out = []
    for i in range(size):
        piece = [[K.zero] * size for _ in range(size)]
        piece[i] = list(inverse[i])
        out.append(piece)
    return out


# ------------------------------------------------------------- ring elements


def trace_form_gram(ring, S):
    return [[S.from_int(x) for x in row] for row in ring.gram_int()]


def map_scalar(x, target):
    """Reinterpret the coefficients of x in another scalar ring, exactly."""
    conv = target.from_int if x.scalar is ZZ else target.from_fraction
    return RingElement(x.ring, target, {b: conv(v) for b, v in x.coeffs.items()})


def ga_add(S, x, y):
    out = dict(x)
    for g, v in y.items():
        w = S.add(out.get(g, S.zero), v)
        if S.is_zero(w):
            out.pop(g, None)
        else:
            out[g] = w
    return out


# ------------------------------------------- the dict-loop ring products


def _basis_product(ring, ia, ib):
    """(target index, coefficient) pairs of e_ia * e_ib, from the closed form."""
    prod = ring.mult_basis(ring.basis[ia], ring.basis[ib])
    return [(ring.index[c], v) for c, v in prod.items()]


def mult_reference(ring, x, y):
    """x * y by a loop over both supports, one scalar operation at a time."""
    S = x.scalar
    acc = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            w = S.mul(ca, cb)
            if S.is_zero(w):
                continue
            for ic, k in _basis_product(ring, ring.index[a], ring.index[b]):
                c = ring.basis[ic]
                acc[c] = S.add(acc.get(c, S.zero), S.mul(w, S.from_int(k)))
    return RingElement(ring, S, acc)


def gram_int_reference(ring):
    """Gram matrix of the regular trace form, entry by entry over Z."""
    d = len(ring.basis)
    traces = [
        sum(v for ix in range(d) for ic, v in _basis_product(ring, ia, ix) if ic == ix)
        for ia in range(d)
    ]
    return [
        [sum(v * traces[ic] for ic, v in _basis_product(ring, ia, ib)) for ib in range(d)]
        for ia in range(d)
    ]


def center_basis_reference(ring, S):
    """Center over the field S: kernel of the commutators with every class."""
    d = len(ring.basis)
    rows = []
    for j in range(d):
        comm = [[0] * d for _ in range(d)]
        for i in range(d):
            for ic, v in _basis_product(ring, i, j):
                comm[ic][i] += v
            for ic, v in _basis_product(ring, j, i):
                comm[ic][i] -= v
        rows.extend(row for row in comm if any(row))
    kernel = nullspace_over_field(rows or [[0] * d], S)
    return [RingElement(ring, S, dict(zip(ring.basis, vec))) for vec in kernel]
