"""Reference helpers that only the tests use.

Brute-force and convenience routines kept out of the package: the
package computes what it certifies by other means, and these recompute
it directly (full scans of G x G, determinants, conjugation orbits) or
give the tests a shorter way to state an expectation.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from tsring.errors import (
    BadLevel,
    BadOrder,
    CharacterIllDefined,
    ScalarMismatch,
    ShapeMismatch,
    UnrecognizedShape,
)
from tsring.blocks import _mobius, primitive_central_idempotents_q
from tsring.exactarith import (
    QQ,
    _inverse,
    _max_abs,
    exact_dtype,
    mat_inverse_over_field,
    nullspace_over_field,
    rank_over_field,
    residues,
)
from tsring.groupmodel import (
    TAG_DIAG_P,
    TAG_DIAG_PE,
    TAG_EXE,
    TAG_EXONE,
    TAG_ONEXE,
    SubgroupGG,
    _encode,
    _positions,
    _shape,
    canonical_coset,
    conj,
    double_cosets_in_d,
    group_table,
    recognize_shape,
    subgroup_diag_pe,
)
from tsring.model import NonProj, ProjPair, basis_label, basis_to_json
from tsring.tring import TRing, _segment_sum, tring

# ------------------------------------------------------------ the group model
#
# Elements of G as (x, r) pairs, x in Z/p^n and r in E, multiplied by the
# group law itself; the package works on the indices of GroupTable instead.


def g_mul(params, a, b):
    x, r = a
    y, s = b
    return ((x + r * y) % params.pn, r * s % params.pn)


def g_inv(params, a):
    x, r = a
    ri = pow(r, -1, params.pn)
    return (-ri * x % params.pn, ri)


def g_conj(params, s, a):
    return g_mul(params, g_mul(params, s, a), g_inv(params, s))


def die_elements(params, i):
    """Elements of D_i E in canonical (x, r) order; i = 0 gives E."""
    return tuple((x, r) for x in params.d_subgroup(i) for r in params.subgroup_E)


def char_value(params, lam, r):
    """Value (mod e) of the additive character lam on the unit r in E."""
    cur, k = 1, 0
    while cur != r:
        cur, k = cur * params.e_generator % params.pn, k + 1
    return lam * k % params.e


@lru_cache(maxsize=None)
def mul_table_reference(params):
    """The |G| x |G| multiplication table of GroupTable's indices, by g_mul."""
    table = group_table(params)
    return np.array(
        [[table.index[g_mul(params, a, b)] for b in table.elems] for a in table.elems],
        dtype=np.int32,
    )


@lru_cache(maxsize=None)
def inv_table_reference(params):
    table = group_table(params)
    return np.array([table.index[g_inv(params, a)] for a in table.elems], dtype=np.int32)


def subgroup_indices(params, level):
    """Indices of D_i E, sorted."""
    x = np.array(params.d_subgroup(level), dtype=np.int32)
    return (x[:, None] * params.e + np.arange(params.e, dtype=np.int32)).ravel()


@lru_cache(maxsize=None)
def double_coset_partition(params, i, j):
    """(D_i E, D_j E)-double cosets as index tuples, in order of least member,
    gathered from the reference multiplication table."""
    if not (0 <= i <= params.n and 0 <= j <= params.n):
        raise BadLevel("levels outside range")
    mul = mul_table_reference(params)
    left, right = subgroup_indices(params, i), subgroup_indices(params, j)
    seen = np.zeros(params.group_order, dtype=bool)
    cosets = []
    for g in range(params.group_order):
        if not seen[g]:
            member = np.zeros(params.group_order, dtype=bool)
            member[mul[np.ix_(mul[left, g], right)]] = True
            seen |= member
            cosets.append(tuple(np.flatnonzero(member).tolist()))
    return tuple(cosets)


# --------------------------------------- subgroups from explicit (g, h) pairs


def pairs_of(sub):
    """The subgroup's elements as (g, h) pairs of G-elements, in code order."""
    elems = group_table(sub.params).elems
    n = len(elems)
    return [(elems[c // n], elems[c % n]) for c in sub.codes.tolist()]


def elements_of(sub):
    return frozenset(pairs_of(sub))


def character_of(sub):
    """The character as a dict on (g, h) pairs, or None."""
    if sub.chars is None:
        return None
    return dict(zip(pairs_of(sub), sub.chars.tolist()))


def subgroup_from_pairs(params, tag, elements, character=None):
    """Encode explicit (g, h) pairs, checking closure and the character on
    the full |H| x |H| product table."""
    table = group_table(params)
    pairs = list(elements)
    codes = np.array(
        [table.index[a] * len(table.elems) + table.index[b] for a, b in pairs],
        dtype=np.int64,
    )
    codes, first = np.unique(codes, return_index=True)
    chars = None
    if character is not None:
        if set(character) != set(pairs):
            raise CharacterIllDefined("character not defined on every element")
        values = np.array([character[pair] for pair in pairs], dtype=np.int64)
        chars = values[first] % params.e
    sub = SubgroupGG(params, tag, codes, chars)
    check_subgroup(sub)
    if chars is not None:
        check_character(sub)
    return sub


def product_codes(sub):
    """Codes of all products a*b in the subgroup, as an |H| x |H| array."""
    table, mul = group_table(sub.params), mul_table_reference(sub.params)
    g, h = np.divmod(sub.codes, len(table.elems))
    return _encode(table, mul[np.ix_(g, g)], mul[np.ix_(h, h)])


def check_subgroup(sub):
    table = group_table(sub.params)
    if not len(sub.codes) or sub.codes[0] != 0:
        raise ValueError("subgroup misses the identity")
    g, h = np.divmod(sub.codes, len(table.elems))
    inv = inv_table_reference(sub.params)
    inverses = _encode(table, inv[g], inv[h])
    if (_positions(sub.codes, inverses) < 0).any():
        raise ValueError("subgroup not closed under inverses")
    if (_positions(sub.codes, product_codes(sub)) < 0).any():
        raise ValueError("subgroup not closed under products")


def check_character(sub):
    chi = sub.chars
    values = chi[_positions(sub.codes, product_codes(sub))]
    bad = np.argwhere(values != (chi[:, None] + chi[None, :]) % sub.params.e)
    if len(bad):
        a, b = (pairs_of(sub)[k] for k in bad[0])
        raise CharacterIllDefined(f"character is not a homomorphism at {a} * {b}")


def _tilde(params, i, unit, g):
    """The automorphism of D_i E extending multiplication by the unit."""
    x, r = g
    return (unit * x % params.pn, r)


def exe_reference(params, lam=None, mu=None):
    units = params.subgroup_E
    elements = [((0, r), (0, s)) for r in units for s in units]
    character = None
    if lam is not None:
        character = {
            ((0, r), (0, s)): char_value(params, lam, r) - char_value(params, mu, s)
            for r in units
            for s in units
        }
    return subgroup_from_pairs(params, (TAG_EXE,), elements, character)


def exone_reference(params, lam=None):
    elements = [((0, r), params.identity) for r in params.subgroup_E]
    character = None
    if lam is not None:
        character = {pair: char_value(params, lam, pair[0][1]) for pair in elements}
    return subgroup_from_pairs(params, (TAG_EXONE,), elements, character)


def onexe_reference(params, mu=None):
    elements = [(params.identity, (0, s)) for s in params.subgroup_E]
    character = None
    if mu is not None:
        character = {pair: char_value(params, mu, pair[1][1]) for pair in elements}
    return subgroup_from_pairs(params, (TAG_ONEXE,), elements, character)


def diag_p_reference(params, i, unit):
    elements = [((unit * y % params.pn, 1), (y, 1)) for y in params.d_subgroup(i)]
    return subgroup_from_pairs(params, (TAG_DIAG_P, i, unit % params.p**i), elements)


def diag_pe_reference(params, i, unit, lam=None):
    elements = [(_tilde(params, i, unit, g), g) for g in die_elements(params, i)]
    character = None
    if lam is not None:
        character = {pair: char_value(params, lam, pair[1][1]) for pair in elements}
    tag = (TAG_DIAG_PE, i, unit % params.p**i)
    return subgroup_from_pairs(params, tag, elements, character)


# E x 1, 1 x E and the twisted diagonals of D_i, which the package builds
# only to recognize them, through its certified shape constructor


def subgroup_exone(params, lam=None):
    return _shape(params, (TAG_EXONE,), None if lam is None else (lam, 0))


def subgroup_onexe(params, mu=None):
    return _shape(params, (TAG_ONEXE,), None if mu is None else (0, mu))


def subgroup_diag_p(params, i, unit):
    """Twisted diagonal of D_i: {(unit*y, y) : y in D_i}."""
    return _shape(params, (TAG_DIAG_P, i, unit % params.p**i))


def shape_tags_reference(params):
    """Code bytes -> tag of every shape, built from tuples with the |H|^2
    checks; the first built wins at e = 1."""
    shapes = [exe_reference(params), exone_reference(params), onexe_reference(params)]
    for i in range(params.n, 0, -1):
        for unit in range(1, params.p**i):
            if unit % params.p:
                shapes.append(diag_p_reference(params, i, unit))
                shapes.append(diag_pe_reference(params, i, unit))
    return {sub.codes.tobytes(): sub.tag for sub in reversed(shapes)}


def basis_subgroup_reference(params, b):
    """The oracle's inducing subgroup of a basis class, from tuples."""
    if isinstance(b, ProjPair):
        return exe_reference(params, b.lam, b.mu)
    return diag_pe_reference(params, b.level, b.alpha, b.lam)


def pi(params, i, unit):
    """Restrict an automorphism (a unit) to level i: reduction mod p^i."""
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    if unit % params.p == 0:
        raise BadOrder(f"{unit} is not a unit (divisible by {params.p})")
    return unit % params.p**i


def basis_reference(params):
    """The basis as the ring once built it: the projective pairs, then per
    level the sorted canonical_coset representatives of every unit."""
    basis = [ProjPair(lam, mu) for lam in range(params.e) for mu in range(params.e)]
    for i in range(1, params.n + 1):
        q = params.p**i
        reps = sorted({canonical_coset(params, i, u).rep for u in range(1, q) if u % params.p})
        basis.extend(NonProj(i, rep, lam) for rep in reps for lam in range(params.e))
    return basis


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
    return frozenset(a for a, _ in elements_of(sub))


def left_kernel(sub):
    """k_1: elements g of G with (g, 1) in the subgroup."""
    ident = sub.params.identity
    return frozenset(a for a, b in elements_of(sub) if b == ident)


def right_kernel(sub):
    """k_2: elements h of G with (1, h) in the subgroup."""
    ident = sub.params.identity
    return frozenset(b for a, b in elements_of(sub) if a == ident)


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
    for a, b in elements_of(sub):
        member[table.index[a], table.index[b]] = True
    mask = np.ones((order, order), dtype=bool)
    all_idx = np.arange(order, dtype=np.int32)
    mul, inv = mul_table_reference(params), inv_table_reference(params)
    for a, b in elements_of(sub):
        ga, gb = table.index[a], table.index[b]
        conj_a = mul[mul[all_idx, ga], inv[all_idx]]
        conj_b = mul[mul[all_idx, gb], inv[all_idx]]
        mask &= member[np.ix_(conj_a, conj_b)]
    out = set()
    for s1 in range(order):
        for s2 in np.nonzero(mask[s1])[0]:
            out.add((table.elems[s1], table.elems[int(s2)]))
    return out


def conjugate_subgroup_orbit(params, sub):
    """Orbit of the subgroup under G x G conjugation (generator closure)."""
    gens = gg_generators(params)
    start = frozenset(elements_of(sub))
    orbit = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for s1, s2 in gens:
            moved = frozenset(
                (g_conj(params, s1, a), g_conj(params, s2, b)) for a, b in cur
            )
            if moved not in orbit:
                orbit.add(moved)
                frontier.append(moved)
    return orbit


def are_conjugate_bruteforce(params, sub_a, sub_b):
    if len(sub_a) != len(sub_b):
        return False
    return frozenset(elements_of(sub_b)) in conjugate_subgroup_orbit(params, sub_a)


# ----------------------------------------------------------- linear algebra
#
# Matrices as lists of rows, the form the package once used; the package
# works on exact arrays (`tsring.exactarith.as_matrix`).


def mat_shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ShapeMismatch("matrix is not rectangular")
    return rows, cols


def _reduce_row(row: list, K) -> list:
    q = K.characteristic
    return [x % q for x in row] if q else row


def field_mat_mul_reference(a, b, K):
    """a * b over K on lists of rows, one Python sum per entry."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = list(zip(*b))
    return [
        _reduce_row([sum(x * y for x, y in zip(row, col)) for col in cols], K)
        for row in a
    ]


def matrix_units(l: int):
    """The l x l matrix units E_ij as lists of rows, E_ij at position i * l + j."""
    out = []
    for i in range(l):
        for j in range(l):
            m = [[0] * l for _ in range(l)]
            m[i][j] = 1
            out.append(m)
    return out


def rank_one_corner_reference(c, x) -> bool:
    """Q-rank of {x *_c E_ij *_c x : E_ij a matrix unit} equals 1, by the e^2 products."""
    c, x = (np.array(m, dtype=object).tolist() for m in (c, x))
    xc = field_mat_mul_reference(x, c, QQ)
    vectors = []
    for unit in matrix_units(len(c)):
        corner = field_mat_mul_reference(
            field_mat_mul_reference(field_mat_mul_reference(xc, unit, QQ), c, QQ), x, QQ
        )
        vectors.append([entry for row in corner for entry in row])
    return len(rref_reference(vectors, QQ)[1]) == 1


def actions_reference(ring, x):
    """Left and right multiplication by x as d x d integer matrices.

    Returns (left, right, den): column b of `left` is den * (x * e_b) and
    column b of `right` is den * (e_b * x), with den the denominator of x
    (residues over F_q).  Each matrix is one contraction of the support of
    x through the table, all of its terms gathered at once.
    """
    d = ring.dimension()
    ia = np.flatnonzero(x.vec)
    X, cols = x.vec[ia], np.arange(d)
    out = []
    # row i, column b: e_a e_b (left) or e_b e_a (right) for a = ia[i]
    for pairs in (ia[:, None] * d + cols, ia[:, None] + cols * d):
        owner, cls, val = ring.terms(pairs.ravel())
        vals = X.astype(exact_dtype(_max_abs(X) * _max_abs(val) * len(cls)))[owner // d] * val
        sums = _segment_sum(d * d, cls * d + owner % d, vals)
        out.append(residues(x.scalar, sums).reshape(d, d))
    return (*out, x.den)


def corner_rank_reference(ring, x) -> bool:
    """Q-rank of {x * b * x : b basis} equals 1: the rank of R_x L_x.

    x * e_b * x is column b of R_x L_x, with L_x, R_x the d x d actions of x.
    """
    left, right, _ = actions_reference(ring, x)
    return rank_over_field((right.astype(object) @ left.astype(object)).T, QQ) == 1


def rref_reference(a, K):
    """Row-reduce `a` over K on a list of rows, one row at a time.

    Returns (reduced matrix, pivot columns), as `exactarith._rref` does
    with an array and one outer product per pivot.
    """
    rows, cols = mat_shape(a)
    m = [_reduce_row(list(row), K) for row in a]
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _inverse(m[r][col], K)
        m[r] = _reduce_row([inv * x for x in m[r]], K)
        for i in range(rows):
            factor = m[i][col]
            if i != r and factor:
                m[i] = _reduce_row([x - factor * y for x, y in zip(m[i], m[r])], K)
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


def det_over_field(a, K):
    rows, cols = mat_shape(a)
    if rows != cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    q = K.characteristic

    def value(x):
        return x % q if q else Fraction(x)

    m = [[value(x) for x in row] for row in a]
    det = value(1)
    for col in range(cols):
        pivot_row = next((i for i in range(col, rows) if m[i][col]), None)
        if pivot_row is None:
            return value(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = value(-det)
        det = value(det * m[col][col])
        inv = pow(m[col][col], -1, q) if q else 1 / m[col][col]
        for i in range(col + 1, rows):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [value(x - factor * y) for x, y in zip(m[i], m[col])]
    return det


def projective_identity(c, K):
    """Coefficient matrix of the identity of the projective ideal over K.

    This is C^{-1} for a general twist c: the element sum_{i,j} c'_ij P[i, j].
    Raises NotInvertible when det(C) vanishes in K.
    """
    return mat_inverse_over_field(c, K)


def projective_primitive_decomposition(c, K):
    """Row slices of C^{-1}: l orthogonal idempotents summing to C^{-1}."""
    inverse = mat_inverse_over_field(c, K)
    out = []
    for i in range(len(inverse)):
        piece = np.zeros_like(inverse)
        piece[i] = inverse[i]
        out.append(piece)
    return out


# ------------------------------------------------------------- ring elements
#
# The sparse element the package once used: a dict from basis classes to
# the nonzero values of S, with Python's arithmetic on each value.  The
# dense `RingElement` is tested equal to it.


def _reduced(coeffs, S):
    """coeffs with each value reduced into S and the zeros dropped; over
    F_q a value num/den is num times the inverse of den mod q."""
    q = S.characteristic
    if q:
        coeffs = {b: v.numerator * pow(v.denominator, -1, q) % q for b, v in coeffs.items()}
    return {b: v for b, v in coeffs.items() if v}


class DictElement:
    """A ring element as a finite map from basis classes to scalars."""

    def __init__(self, ring, scalar, coeffs):
        self.ring = ring
        self.scalar = scalar
        self.coeffs = _reduced(coeffs, scalar)

    def coeff(self, b):
        return self.coeffs.get(b, 0)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, DictElement)
            and self.ring.params == other.ring.params
            and self.scalar == other.scalar
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        out = dict(self.coeffs)
        for b, v in other.coeffs.items():
            out[b] = out.get(b, 0) + v
        return DictElement(self.ring, self.scalar, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return DictElement(self.ring, self.scalar, {b: c * v for b, v in self.coeffs.items()})

    def __mul__(self, other):
        ring = self.ring
        acc = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                for ic, k in _basis_product(ring, ring.index[a], ring.index[b]):
                    c = ring.basis[ic]
                    acc[c] = acc.get(c, 0) + ca * cb * k
        return DictElement(ring, self.scalar, acc)

    def _terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.ring.index[kv[0]])

    def to_json(self):
        return [{"basis": basis_to_json(b), "coeff": str(v)} for b, v in self._terms()]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*{basis_label(b)}" for b, v in self._terms())


def as_dict(x):
    """The dense element x as a `DictElement`, read through `coeff`."""
    return DictElement(x.ring, x.scalar, {b: x.coeff(b) for b in x.ring.basis})


def agrees(x, ref):
    """Does the dense element x read exactly like the dict element ref?

    Coefficients, zero test, report text, and equality with the dense
    element built from ref's map: a second normal form of the same value
    fails the last.
    """
    ring = ref.ring
    return (
        all(x.coeff(b) == ref.coeff(b) for b in ring.basis)
        and x.is_zero() == ref.is_zero()
        and repr(x) == repr(ref)
        and x.to_json() == ref.to_json()
        and x == ring.element(ref.scalar, ref.coeffs)
    )


def map_scalar(x, target):
    """Reduce the coefficients of x, ints or Fractions, into F_q exactly."""
    q = target.characteristic
    coeffs = {}
    for b in x.ring.basis:
        v = x.coeff(b)
        coeffs[b] = v.numerator * pow(v.denominator, -1, q)
    return x.ring.element(target, coeffs)


# ------------------------------------------------------ the level label groups
#
# Elements of LevelGroup(i) as (alpha, lam) labels multiplied by the group
# law itself; the package works on the indices of the level's classes.


def level_labels(params, level):
    """The label (alpha, lam) of each level class M[level, alpha, lam], in basis order."""
    return [(b.alpha, b.lam) for b in tring(params).level_basis(level)]


def level_mul(params, level, g, h):
    """(alpha, lam) (beta, mu) = (canonical coset of alpha beta, lam + mu)."""
    (a, lam), (b, mu) = g, h
    rep = canonical_coset(params, level, a * b % params.p**level).rep
    return (rep, (lam + mu) % params.e)


def level_cyclic_subgroups(params, level):
    """The distinct <g>, as frozensets of labels, by powers under the tuple law."""
    out = set()
    for g in level_labels(params, level):
        powers = {(1, 0)}
        cur = g
        while cur != (1, 0):
            powers.add(cur)
            cur = level_mul(params, level, cur, g)
        out.add(frozenset(powers))
    return out


def level_generators(params, level):
    """The labels of `LevelGroup.generators`: each label, in basis order,
    that the closure of those before it under the tuple law misses."""
    gens, reached = [], {(1, 0)}
    for g in level_labels(params, level):
        if g in reached:
            continue
        gens.append(g)
        frontier = reached
        while frontier:
            frontier = {level_mul(params, level, x, s) for x in frontier for s in gens} - reached
            reached = reached | frontier
    return gens


def level_element(params, level, S, coeffs):
    """The ring element of a label-keyed map: label g is the class M[level, *g]."""
    return tring(params).element(S, {NonProj(level, *g): v for g, v in coeffs.items()})


def ga_mul_reference(params, level, S, x, y):
    """The product of two label-keyed maps in S[Gamma], by the tuple law."""
    out = {}
    for g, v in x.items():
        for h, w in y.items():
            key = level_mul(params, level, g, h)
            out[key] = out.get(key, 0) + v * w
    return _reduced(out, S)


def level_primitive_idempotents(params, level):
    """The label-keyed eps(Gamma, H) of `LevelGroup.primitive_rational_idempotents`.

    Every subgroup by products of cyclic subgroups under the tuple law,
    then the same Moebius sums of subgroup averages, in the same order.
    """
    labels = level_labels(params, level)
    index = {g: k for k, g in enumerate(labels)}
    cyclic = level_cyclic_subgroups(params, level)

    def product(a, b):
        return frozenset(level_mul(params, level, x, y) for x in a for y in b)

    subgroups = set(cyclic)
    frontier = subgroups
    while frontier:
        frontier = {product(a, c) for a in frontier for c in cyclic} - subgroups
        subgroups |= frontier
    everything = frozenset(labels)
    out = []
    for h in sorted(subgroups, key=lambda s: (-len(s), sorted(index[g] for g in s))):
        if all(product(h, c) != everything for c in cyclic):
            continue
        coeffs = {}
        for m in subgroups:
            mu = _mobius(len(m) // len(h)) if h <= m else 0
            for g in m if mu else ():
                coeffs[g] = coeffs.get(g, 0) + Fraction(mu, len(m))
        out.append({g: v for g, v in coeffs.items() if v})
    return out


def central_idempotent_scan_reference(params):
    """Bitmasks of the integral subset sums of the primitive central
    idempotents over Q, ascending, by enumerating all 2^k sums (k <= 20)."""
    prims = primitive_central_idempotents_q(params)
    k = len(prims)
    if k > 20:
        raise ValueError(f"2^{k} subset sums")
    integral = []

    def dfs(idx, acc, mask):
        if idx == k:
            if acc.den == 1:
                integral.append(mask)
            return
        dfs(idx + 1, acc, mask)
        dfs(idx + 1, acc + prims[idx], mask | (1 << idx))

    dfs(0, tring(params).zero(QQ), 0)
    return sorted(integral)


# ------------------------------------------- the dict-loop ring products


def structure_table_reference(ring):
    """(start, cls, val) from one `mult_basis` call per basis pair, terms in
    dict order."""
    basis, index = ring.basis, ring.index
    products = {
        (ia, ib): [(index[c], v) for c, v in ring.mult_basis(a, b).items()]
        for (ia, a), (ib, b) in product(enumerate(basis), repeat=2)
    }
    return table_of(len(basis), products)


def table_of(d, products):
    """(start, cls, val) of the products {(a, b): [(c, v), ...]}, pairs in
    order and terms in list order; every other product is 0, and terms
    with v = 0 are dropped."""
    sizes, classes, coeffs = [], [], []
    for pair in product(range(d), repeat=2):
        terms = products.get(pair, [])
        sizes.append(len(terms))
        classes.extend(c for c, _ in terms)
        coeffs.extend(v for _, v in terms)
    start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    return without_zero_terms(
        start, np.array(classes, dtype=np.int64), np.array(coeffs, dtype=np.int64)
    )


def without_zero_terms(start, cls, val):
    """The table with its terms of coefficient 0 dropped."""
    keep = val != 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    return kept[start], cls[keep], val[keep]


def padded_arrays(ring):
    """The table as two zero-padded d x d x J arrays K, V, J the most terms
    of any product: e_a e_b = sum_j V[a, b, j] e_{K[a, b, j]}."""
    start, cls, val = ring.structure_table()
    d = ring.dimension()
    sizes = np.diff(start)
    width = max(int(sizes.max()), 1)
    pair = np.repeat(np.arange(d * d), sizes)
    slot = np.arange(len(cls)) - start[pair]
    K, V = (np.zeros((d * d, width), dtype=np.int64) for _ in range(2))
    K[pair, slot], V[pair, slot] = cls, val
    return K.reshape(d, d, width), V.reshape(d, d, width)


def sort_key(b):
    """The order of the basis: projective pairs, then levels, cosets, characters."""
    if isinstance(b, ProjPair):
        return (0, b.lam, b.mu)
    return (1, b.level, b.alpha, b.lam)


def patch_mult_basis(monkeypatch, mult_basis):
    """Replace `TRing.mult_basis` and build the table from it, so that a
    mutated basis product reaches every product of the ring."""
    monkeypatch.setattr(TRing, "mult_basis", mult_basis)
    monkeypatch.setattr(TRing, "_rule_table", structure_table_reference)


def _basis_product(ring, ia, ib):
    """(target index, coefficient) pairs of e_ia * e_ib, from the closed form."""
    prod = ring.mult_basis(ring.basis[ia], ring.basis[ib])
    return [(ring.index[c], v) for c, v in prod.items()]


def mult_reference(ring, x, y):
    """x * y by a loop over both supports, one basis product at a time."""
    return ring.element(x.scalar, (as_dict(x) * as_dict(y)).coeffs)


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


def center_basis(ring, S):
    """Basis of the centralizer of the whole ring over the field S, by one
    exact linear solve over the live terms of the table."""
    if not S.is_field:
        raise ScalarMismatch("center computation needs a field")
    d = len(ring.basis)
    owner, cls, val = ring.terms(np.arange(d * d))
    a, b = np.divmod(owner, d)
    # row (j, c), column i: coefficient of e_c in e_i e_j - e_j e_i, so
    # a term v e_c of e_a e_b adds v to row (b, c), column a and -v to
    # row (a, c), column b; an entry takes at most one of each
    comm = np.zeros((d * d, d), dtype=exact_dtype(2 * _max_abs(val)))
    np.add.at(comm, (b * d + cls, a), val)
    np.add.at(comm, (a * d + cls, b), -val)
    kernel = nullspace_over_field(comm[comm.any(axis=1)], S)
    return [ring.from_vector(S, vec) for vec in kernel]


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
    return [ring.element(S, dict(zip(ring.basis, vec))) for vec in kernel]


# ------------------------------------------------------ the per-pair oracle


def star_reference(x, y):
    """The star product of two subgroups by one join, raising on a clash."""
    params = x.params
    table = group_table(params)
    xg, xh = np.divmod(x.codes, len(table.elems))
    yh, yk = np.divmod(y.codes, len(table.elems))
    lo = yh.searchsorted(xh, "left")
    counts = yh.searchsorted(xh, "right") - lo
    xi = np.repeat(np.arange(len(xh)), counts)
    yi = np.arange(len(xi)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    codes = _encode(table, xg[xi], yk[yi])
    order = codes.argsort(kind="stable")
    codes = codes[order]
    chars = ((x.chars[xi] + y.chars[yi]) % params.e)[order]
    repeat = codes[1:] == codes[:-1]
    clash = np.flatnonzero(repeat & (chars[1:] != chars[:-1]))
    if len(clash):
        g, k = divmod(int(codes[clash[0]]), len(table.elems))
        raise CharacterIllDefined(
            f"connecting elements disagree at {(table.elems[g], table.elems[k])}"
        )
    first = np.concatenate(([True], ~repeat))
    codes = codes[first]
    return SubgroupGG(params, None, codes, chars[first])


def _star_module_reference(x, y):
    """The star product with the tensor-product character, or None if zero."""
    order = x.params.group_order
    x_right = x.codes[: x.codes.searchsorted(order)]
    y_left = np.flatnonzero(y.codes % order == 0)
    ix = _positions(x_right, y.codes[y_left] // order)
    middle = ix >= 0
    if ((-x.chars[ix[middle]]) % x.params.e != y.chars[y_left[middle]]).any():
        return None
    return star_reference(x, y)


def canonicalize_reference(params, z):
    """z as one of the five shapes, tagged: its first conjugate, z itself
    first, by a pair of (D x D) Delta(E) that is literal.  That group
    normalizes every twisted diagonal, and the class of the induced module
    is unchanged, so any double-coset representatives may be used."""
    d = range(params.pn)
    for z1, z2, r in product(d, d, params.subgroup_E):
        moved = conj(((z1, r), (z2, r)), z)
        tag = recognize_shape(params, moved.codes)
        if tag is not None:
            return SubgroupGG(params, tag, moved.codes, moved.chars)
    raise UnrecognizedShape(f"subgroup of order {len(z)} fits no known shape")


def oracle_mult_reference(orc, a, b, reps=None):
    """a * b by the per-pair loop: conjugate, star module, canonicalize, classify.

    `reps` defaults to `double_cosets_in_d` of the two levels; any other
    representatives are brought back to the shapes by a conjugation search."""
    params = orc.params
    level = lambda c: 0 if isinstance(c, ProjPair) else c.level
    if reps is None:
        reps = double_cosets_in_d(params, level(a), level(b))
    x = orc.subgroup_of_basis(a)
    y = orc.subgroup_of_basis(b)
    out = {}
    for t in reps:
        summand = _star_module_reference(x, conj((t, params.identity), y))
        if summand is None:
            continue
        for c, m in orc.classify_induced(canonicalize_reference(params, summand)).items():
            out[c] = out.get(c, 0) + m
    return out


def check_oracle_reference(orc, ring):
    """Status and payload of the oracle check, one pair at a time."""
    compared = 0
    for a in ring.basis:
        for b in ring.basis:
            try:
                product = oracle_mult_reference(orc, a, b)
            except (UnrecognizedShape, CharacterIllDefined) as exc:
                return "inconclusive", {
                    "pair": [basis_label(a), basis_label(b)],
                    "error": str(exc),
                    "compared": str(compared),
                }
            if product != ring.mult_basis(a, b):
                return "violation", {
                    "pair": [basis_label(a), basis_label(b)],
                    "compared": str(compared),
                }
            compared += 1
    return "ok", {"compared": str(compared)}


def oracle_table(orc):
    """Every product as the oracle check reads it, transported from the
    representative pairs (`MackeyOracle.rows`), as {(a, b): {class:
    coefficient}}.  The first error is raised."""
    basis = tring(orc.params).basis
    errors, rows = orc.rows()
    if errors:
        raise errors[min(errors)]
    out = {}
    for a, (cols, cls, coeff) in enumerate(rows):
        for b, c, m in zip(cols.tolist(), cls.tolist(), coeff.tolist()):
            prod = out.setdefault((basis[a], basis[b]), {})
            prod[basis[c]] = prod.get(basis[c], 0) + m
    return out


# ------------------------------------------- the fully expanded assoc check


def _first_nonzero_sum_reference(keys, vals):
    """The least key whose values sum to nonzero, or None."""
    live = np.flatnonzero(vals)
    live = live[np.argsort(keys[live])]
    keys = keys[live]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    bad = np.flatnonzero(np.add.reduceat(vals[live], starts)) if len(keys) else ()
    return int(keys[starts[bad[0]]]) if len(bad) else None


def check_assoc_reference(K, V):
    """Status and payload of the assoc check with every slot of the padded
    arrays (K, V) (`padded_arrays`) expanded at both levels, zero or not,
    ten (a, b) rows at a time."""
    d, _, width = K.shape
    for start in range(0, d * d, 10):
        ab = np.arange(start, min(start + 10, d * d))
        a, b = np.divmod(ab, d)
        base = (np.arange(len(ab))[:, None, None, None] * d + np.arange(d)[:, None]) * d
        # (e_a e_b) e_c laid out (r, j, c, k); e_a (e_b e_c) laid out (r, c, j, k)
        left, right, a3 = K[a, b], K[b], a[:, None, None]
        keys = np.concatenate(
            ((base + K[left]).ravel(), (base.swapaxes(1, 2) + K[a3, right]).ravel())
        )
        vals = np.concatenate(
            (
                (V[a, b][..., None, None] * V[left]).ravel(),
                (-V[b][..., None] * V[a3, right]).ravel(),
            )
        )
        first = _first_nonzero_sum_reference(keys, vals)
        if first is not None:
            return "violation", {"checked": str(start * d + first // d)}
    return "ok", {"checked": str(d**3)}
