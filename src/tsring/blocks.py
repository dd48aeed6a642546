"""Central decomposition of the bimodule class ring over a field.

Over a coefficient field k whose characteristic is not p, the span of
classes with vertex order at most p^i has an identity element; the
successive differences of these chain idempotents are pairwise
orthogonal central idempotents summing to 1.  The bottom block is a
matrix algebra of size e; the block at level i >= 1 is the group algebra
of the abelian label group

    LevelGroup(i) = Aut(D_i) / image(E)  x  characters of E,

once the twist unit c_i = 1 + m_i * sum over characters is divided out
(its explicit inverse d_i exists whenever p is invertible).

This module also provides the integral primitive decomposition of 1, a
certificate that 0 and 1 are the only integral central idempotents,
and a certified semisimplicity decision procedure.  The sum lemma: over
Q, idempotents summing to an idempotent are pairwise orthogonal (trace =
rank in the left regular representation, so their images sum directly).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache

import numpy as np

from .cartan import (
    cartan_matrix,
    is_primitive_idempotent,
    matrix_to_projective_element,
    projective_element_to_matrix,
    projective_identity_element,
)
from .errors import BadLevel, CharIsP, ScanTooLarge, TheoremViolation
from .exactarith import (
    QQ,
    ZZ,
    _inverse,
    _max_abs,
    exact_dtype,
    field_mat_mul,
    field_of_characteristic,
    nullspace_over_field,
    order_components,
    rank_over_field,
    residues,
)
from .model import ModelParams, NonProj, ProjPair, prime_factors
from .tring import RingElement, TRing, _segment_sum, tring


# --------------------------------------------------------------------------
# the abelian label group at a level
# --------------------------------------------------------------------------


class LevelGroup:
    """U_i / image(E) x Z/e, U_i the units mod p^i, as pairs (coset, character).

    Element k is the k-th level-i class M[i, alpha, lam] in basis order
    (coset number k // e, character k % e); element 0 = M[i, 1, 0] is the
    identity.  An element of k[Gamma] is a ring element supported on the
    level, the basis positions `span`: labeling into and out of the group
    algebra is the identity on coefficient vectors.  The `coordinates` of
    element k are the exponents of its coset over the generating units (a
    primitive root, or -1 and 5 when p = 2), each modulo that unit's order
    in U_i / image(E) as read off the ring's `coset_index`, then lam mod e.
    The walk over every exponent vector reaches each level class once
    (checked), so products add coordinates.
    """

    def __init__(self, params: ModelParams, level: int):
        if not 1 <= level <= params.n:
            raise BadLevel(f"level {level} outside 1..{params.n}")
        self.params = params
        self.level = level
        ring = tring(params)
        self.span = ring.level_range(level)
        self.order = self.span.stop - self.span.start
        e, q, index = params.e, params.p**level, ring.coset_index[level]
        units, moduli = np.ones(1, dtype=np.int64), []
        for u in (-1, 5) if params.p == 2 else (params.primitive_root,):
            walk = [1]  # the powers of u mod q, up to the first in the identity's coset
            while index[walk[-1] * u % q] != index[1]:
                walk.append(walk[-1] * u % q)
            moduli.append(len(walk))
            units = np.outer(units, walk).ravel() % q  # the first unit's exponent slowest
        self.moduli = (*moduli, e)
        # the element of each exponent vector, numbered as `np.ravel_multi_index`
        # does; each of the p^(i-1)(p-1) level classes once, so prod(moduli) = |Gamma_i|
        self._by_code = (index[units, None] - self.span.start + np.arange(e)).ravel()
        if sorted(self._by_code.tolist()) != list(range(q // params.p * (params.p - 1))):
            raise TheoremViolation(f"Gamma_{level}: the walk over {self.moduli} misses a class")
        code = np.empty(self.order, dtype=np.int64)
        code[self._by_code] = np.arange(self.order)
        self.coordinates = np.unravel_index(code, self.moduli)

    # ------------------------------------------------------------ group law

    def _element(self, exponents):
        """The element of the exponent arrays, one per modulus, each reduced."""
        return self._by_code[np.ravel_multi_index(exponents, self.moduli, mode="wrap")]

    def product(self, a, b):
        """The index of element a times element b: its coordinates are the
        sums of theirs; index arrays broadcast."""
        return self._element([c[a] + c[b] for c in self.coordinates])

    def closure(self, gens) -> frozenset:
        """The subgroup generated by the element indices `gens`."""
        found = {0}
        frontier = found
        while frontier:
            products = self.product(np.array(sorted(frontier))[:, None], list(gens))
            frontier = set(products.ravel().tolist()) - found
            found |= frontier
        return frozenset(found)

    def generators(self) -> tuple:
        """Element indices generating the group, picked greedily in order."""
        gens = []
        reached = self.closure(gens)
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = self.closure(gens)
        return tuple(gens)

    # ---------------------------------------------------- rational idempotents

    def cyclic_subgroup_count(self) -> int:
        """The sum over element orders d of #{g : |g| = d} / phi(d)."""
        orders = np.lcm.reduce([m // np.gcd(c, m) for c, m in zip(self.coordinates, self.moduli)])
        counts = Counter(orders.tolist())
        return sum(n // sum(math.gcd(k, d) == 1 for k in range(d)) for d, n in counts.items())

    def primitive_rational_idempotents(self):
        """Primitive central idempotents of Q[Gamma], one per cyclic quotient.

        Gamma/H is cyclic exactly when H = ker chi.  chi_x(g), x an element,
        is the L-th root of unity of exponent sum_j x_j g_j L / m_j over the
        coordinates, L the lcm of the moduli m_j.  The characters with the
        kernel H of chi_x are its Galois conjugates chi_y, y generating <x>,
        and the sum of their e_chi is, with m = |x| and M_d = {g : chi_x(g)^d
        = 1} the subgroup with [M_d : H] = d,

            eps(Gamma, H) = sum over d | m of mu(d) * avg(M_d)
                          = |Gamma|^-1 sum over g of c_m(chi_x(g)) g,

        c_m the Ramanujan sum.  One per cyclic subgroup, the number of simple
        components of Q[Gamma] (Perlis-Walker), which
        `primitive_central_idempotents_q` checks.  Ordered by decreasing |H|,
        then by the element indices of H; numerators over |Gamma|.
        """
        ring, top, found = tring(self.params), math.lcm(*self.moduli), []
        seen = np.zeros(self.order, dtype=bool)  # the generators of each <x> done
        for x in range(self.order):
            if seen[x]:
                continue
            value = sum(c[x] * (top // m) * c for c, m in zip(self.coordinates, self.moduli))
            orders = top // np.gcd(value, top)  # of each chi_x(g), the largest m = |x|
            m = int(orders.max())
            k = np.flatnonzero(np.gcd(np.arange(m), m) == 1)  # x^k generates <x>
            seen[self._element([c[x] * k for c in self.coordinates])] = True
            nums = np.zeros(ring.dimension(), dtype=exact_dtype(self.order))
            for d in range(1, m + 1):
                if m % d == 0:  # M_d holds the g with d % orders[g] == 0
                    nums[self.span][d % orders == 0] += _mobius(d) * (m // d)
            kernel = np.flatnonzero(orders == 1).tolist()
            found.append(((-len(kernel), kernel), RingElement(ring, QQ, nums, self.order)))
        return [x for _, x in sorted(found, key=lambda item: item[0])]


def _mobius(d: int) -> int:
    """mu(d): 0 unless d is squarefree, else (-1)^(number of prime factors)."""
    primes = prime_factors(d)
    return 0 if len(set(primes)) < len(primes) else (-1) ** len(primes)


@lru_cache(maxsize=None)
def level_group(params: ModelParams, level: int) -> LevelGroup:
    return LevelGroup(params, level)


# --------------------------------------------------------------------------
# the group algebra k[Gamma_i] on the level-i coefficients
# --------------------------------------------------------------------------


def ga_mul(gamma: LevelGroup, x: RingElement, y: RingElement) -> RingElement:
    """x * y in k[Gamma], one contraction of the two supports through the law."""
    X, Y = x.vec[gamma.span], y.vec[gamma.span]
    ia, ib = np.flatnonzero(X), np.flatnonzero(Y)
    keys = gamma.span.start + gamma.product(ia[:, None], ib)  # its temporaries before the weights
    dtype = exact_dtype(_max_abs(X) * _max_abs(Y) * len(ia))
    weights = np.outer(X[ia].astype(dtype), Y[ib].astype(dtype))
    sums = _segment_sum(len(x.vec), keys, weights)
    return RingElement(x.ring, x.scalar, sums, x.den * y.den)


def _twist(gamma: LevelGroup, Y: np.ndarray, t) -> np.ndarray:
    """Y times 1 + t * s on its last axis, level-i coefficients; over t.denominator.

    s is the sum of the M[i, 1, lam]: times s puts the sum of each run of e
    coefficients of one coset on every one of them.  On the rows of a
    matrix this is the product with the (symmetric) twist matrix.
    """
    e = gamma.params.e
    dtype = exact_dtype(max(_max_abs(Y), 1) * (t.denominator + e * abs(t.numerator)))
    runs = Y.reshape(*Y.shape[:-1], -1, e).astype(dtype)
    sums = runs.sum(axis=-1, keepdims=True)
    runs *= t.denominator
    runs += sums * t.numerator
    return runs.reshape(Y.shape)


def _times_twist(gamma: LevelGroup, y: RingElement, t) -> RingElement:
    """The level-i part of y times 1 + t * s (`_twist`)."""
    twisted = _twist(gamma, y.vec[gamma.span], t)
    vec = np.zeros(len(y.vec), dtype=twisted.dtype)
    vec[gamma.span] = twisted
    return RingElement(y.ring, y.scalar, vec, y.den * t.denominator)


def _twist_inverse_coefficient(gamma: LevelGroup, S):
    """t with d_i = 1 + t * s: -m_i / p^(n-i) in S."""
    params = gamma.params
    if S.characteristic == params.p:
        raise CharIsP("the twist inverse needs p invertible")
    mi = params.nontrivial_coset_count(gamma.level)
    return -mi * _inverse(params.p ** (params.n - gamma.level), S)


def twist_unit(gamma: LevelGroup, S) -> RingElement:
    """c_i = 1 + m_i * sum over characters of M[i, 1, lam]."""
    one = tring(gamma.params).from_basis(S, NonProj(gamma.level, 1, 0))
    return _times_twist(gamma, one, gamma.params.nontrivial_coset_count(gamma.level))


def twist_unit_inverse(gamma: LevelGroup, S) -> RingElement:
    """d_i = 1 - m_i/p^(n-i) * sum over characters of M[i, 1, lam]."""
    one = tring(gamma.params).from_basis(S, NonProj(gamma.level, 1, 0))
    return _times_twist(gamma, one, _twist_inverse_coefficient(gamma, S))


# --------------------------------------------------------------------------
# chain idempotents
# --------------------------------------------------------------------------


def ideal_identity(params: ModelParams, S, i: int) -> RingElement:
    """The identity element of the vertex-order <= p^i ideal over S.

    e_0 is the projective identity (`projective_identity_element`); for
    i >= 1, e_i is the twist inverse d_i, which lies in the level-i span.
    """
    if S.characteristic == params.p:
        raise CharIsP("chain idempotents need p invertible")
    if not 0 <= i <= params.n:
        raise BadLevel(f"level {i} outside 0..{params.n}")
    if i == 0:
        return projective_identity_element(tring(params), S)
    return twist_unit_inverse(level_group(params, i), S)


# --------------------------------------------------------------------------
# the central decomposition
# --------------------------------------------------------------------------


class LevelBlockIso(
    namedtuple("LevelBlockIso", "ring scalar level gamma projector lifts lift_den")
):
    """Certified isomorphism between a level block and its group algebra.

    Column g of the lifts L over D is psi^-1(g) = (g d_i) f_i, g d_i the
    twist of g by d_i (`_level_lifts`), so `from_group_algebra` is L z / D;
    psi = `to_group_algebra` twists the level coefficients by c_i.  Checked:
    L_1 = f_i, psi(L_g / D) = g, and (s d_i) L_g = L_sg for each generator s
    and every g, with e live terms on the left.  By induction over the
    closure of the generators, L_g = w f_i for w a product of factors s d_i
    along a word for g; f_i being a central idempotent (`_decompose`),
    L_a L_b = w f_i w' f_i = w L_b = L_ab.  a -> a f_i is injective on the
    level span, so psi^-1 is bijective by the dimension count.

    Fields: the ring, the scalar ring, the level i, its label group gamma,
    the projector f_i (the central idempotent cutting out the block), the
    lifts L (column g is D psi^-1(g)) and lift_den, D.
    """

    __slots__ = ()

    def to_group_algebra(self, y: RingElement) -> RingElement:
        c = self.ring.params.nontrivial_coset_count(self.level)
        return _times_twist(self.gamma, y, c)

    def from_group_algebra(self, z: RingElement) -> RingElement:
        image = field_mat_mul(self.lifts, z.vec[self.gamma.span, None], self.scalar)
        return RingElement(self.ring, self.scalar, image[:, 0], self.lift_den * z.den)


class MatrixBlockIso(
    namedtuple("MatrixBlockIso", "ring scalar projector cartan cartan_inverse")
):
    """Certified isomorphism x -> X C between the bottom block and e x e matrices.

    X is the coefficient matrix of x on the P[a, b] and C the Cartan
    matrix.  The map is multiplicative exactly when P[a,b] P[c,d] =
    C_bc P[a,d], which is checked once per ring over Z and so holds over
    every field.  The inverse is Z -> Z C^-1, with C^-1 the coefficient
    matrix of f_0; the identity check to_matrix(f_0) = C^-1 C = I gives
    C C^-1 = I, the round trip.  The projector is f_0 = e_0.
    """

    __slots__ = ()

    def to_matrix(self, y: RingElement):
        proj = y.restrict(slice(0, self.ring.params.e ** 2))
        return field_mat_mul(projective_element_to_matrix(proj), self.cartan, self.scalar)

    def from_matrix(self, z) -> RingElement:
        S = self.scalar
        coeff = field_mat_mul(z, self.cartan_inverse, S)
        return matrix_to_projective_element(self.ring, S, coeff)


class BlockDecomposition(
    namedtuple("BlockDecomposition", "params scalar chain projectors dims isos")
):
    """Verified block data: the chain idempotents e_0 .. e_n, the projectors
    f_0 .. f_n, the block dimensions, and the isos, the `MatrixBlockIso`
    then one `LevelBlockIso` per level."""

    __slots__ = ()


def _violation(name, lhs, rhs):
    raise TheoremViolation(f"{name}: {lhs!r} != {rhs!r}")


def central_decomposition(params: ModelParams, S) -> BlockDecomposition:
    """Compute and verify the decomposition into central blocks.

    Checked: each chain element e_i is a two-sided identity on every class
    of its ideal I_i (vertex order <= p^i), commutes with every basis
    class and is supported inside I_i, and e_n = 1; then every block
    isomorphism (see `MatrixBlockIso` and `LevelBlockIso`).  Any failure
    raises TheoremViolation.

    What follows without recomputation: for i <= j, e_i lies in I_j, so
    e_j e_i = e_i = e_i e_j; the projectors f_i = e_i - e_(i-1) are
    therefore orthogonal central idempotents summing to e_n = 1.  So R is
    the direct sum of the blocks R f_i.  R f_0 contains the projective
    span (e^2 classes), and x -> x f_i is injective on the level-i span
    (p^(i-1)(p-1) classes) by the `block i projection` check; these lower
    bounds add up to d = dim R, so they are the block dimensions.

    The result is built once per ring and field and kept on the ring, so
    later calls return the same object; callers must not modify it.
    """
    if S.characteristic == params.p:
        raise CharIsP("the decomposition needs p invertible")
    ring = tring(params)
    key = f"decomposition over {S.name}"
    if key not in ring.block_memo:
        ring.block_memo[key] = _decompose(ring, S)
    return ring.block_memo[key]


def _decompose(ring: TRing, S) -> BlockDecomposition:
    params = ring.params
    n = params.n
    chain = [ideal_identity(params, S, i) for i in range(n + 1)]

    # the classes of the ideal I_i come first in basis order
    cuts = [len(ring.ideal_le(i)) for i in range(n + 1)]
    noncentral = []  # per e_i, the positions of the classes it fails to commute with
    identity = np.eye(len(ring.basis), dtype=np.int8)  # read for its nonzero entries
    for i, (ei, cut) in enumerate(zip(chain, cuts)):
        # e_i b = b = b e_i on the ideal: den e_b in column b of either side
        left, right = (ring.products(ei, identity, side) for side in ("left", "right"))
        wrong = _off_identity(left[:, :cut], ei.den) | _off_identity(right[:, :cut], ei.den)
        bad = np.flatnonzero(wrong)
        if bad.size:
            _violation(f"e_{i} identity on ideal", ring.basis[bad[0]], None)
        noncentral.append(np.flatnonzero((left != right).any(axis=0)))
        del left, right  # d x d each, before the next products
    for i, outside in enumerate(noncentral):
        if outside.size:
            _violation(f"e_{i} central at {ring.basis[outside[0]]}", None, None)
    for i, ei in enumerate(chain):
        stray = np.flatnonzero(ei.vec[cuts[i] :])
        if stray.size:
            _violation(f"e_{i} support", ring.basis[cuts[i] + stray[0]], None)
    if chain[n] != ring.one(S):
        _violation("e_n is the identity", chain[n], ring.one(S))
    # hence e_i e_j = e_min(i,j), and the f_i are orthogonal central
    # idempotents summing to 1 (see `central_decomposition`)
    projectors = [chain[0]] + [b - a for a, b in zip(chain, chain[1:])]
    isos = [_build_matrix_iso(ring, S, projectors[0])]
    isos += [_build_level_iso(ring, S, i, projectors[i]) for i in range(1, n + 1)]

    # R f_0 contains the level-0 span, x -> x f_i is injective on the
    # level-i span (certified in `_build_level_iso`), and the level sizes
    # add up to d: each block has exactly the dimension of its level, e^2
    # projective classes and p^(i-1)(p-1) at level i (`LevelGroup`)
    dims = [len(ring.level_basis(i)) for i in range(n + 1)]

    return BlockDecomposition(
        params=params,
        scalar=S,
        chain=chain,
        projectors=projectors,
        dims=dims,
        isos=isos,
    )


def _off_identity(m: np.ndarray, den) -> np.ndarray:
    """Mask of the columns j of m other than den times column j of the identity."""
    j = np.arange(m.shape[1])
    return (np.count_nonzero(m, axis=0) != 1) | (m[j, j] != den)


def _projective_products_match(ring: TRing, c) -> bool:
    """P[a,b] * P[c,d] = C_bc P[a,d] over Z in the table, for all e^4 products.

    One comparison of the terms of the P x P products, read from the table
    every product reads: one term each, as no entry of C is 0.  Checked
    once per ring; the answer holds over every field.
    """
    key = "projective products"
    if key not in ring.block_memo:
        e, d = ring.params.e, ring.dimension()
        # left factor P[a,b] and right factor P[x,y]: a, b = divmod(index, e)
        a, b = np.divmod(np.arange(e * e), e)
        owner, cls, val = ring.terms((np.arange(e * e)[:, None] * d + np.arange(e * e)).ravel())
        ring.block_memo[key] = bool(
            np.array_equal(owner, np.arange(e**4))
            and np.array_equal(cls, (a[:, None] * e + b).ravel())
            and np.array_equal(val, c[b[:, None], a].ravel())
        )
    return ring.block_memo[key]


def _projective_span_is_right_ideal(ring: TRing) -> bool:
    """P[a,b] * x lies in the projective span for every class x, in the table.

    Every term of a product P[a,b] * x names one of the first e^2 classes.
    Checked once per ring.
    """
    key = "projective right ideal"
    if key not in ring.block_memo:
        e2 = ring.params.e ** 2
        _, cls, _ = ring.terms(np.arange(e2 * ring.dimension()))
        ring.block_memo[key] = bool((cls < e2).all())
    return ring.block_memo[key]


def _build_matrix_iso(ring: TRing, S, f0: RingElement) -> MatrixBlockIso:
    c = cartan_matrix(ring.params)
    # f_0 = e_0, certified the identity on the projective span (the level-0
    # ideal) by `_decompose`, so the block is that span; its coefficient
    # matrix is C^-1 (`projective_identity_element`)
    iso = MatrixBlockIso(
        ring=ring,
        scalar=S,
        projector=f0,
        cartan=c,
        cartan_inverse=projective_element_to_matrix(f0),
    )
    if not _projective_products_match(ring, c):
        _violation("matrix block multiplicativity", None, None)
    if not np.array_equal(iso.to_matrix(f0), np.eye(ring.params.e, dtype=np.int64)):
        _violation("matrix block identity", iso.to_matrix(f0).tolist(), "identity matrix")
    # to_matrix(f_0) = C^-1 C = I, so C C^-1 = I as well and
    # from_matrix(to_matrix(x)) = X C C^-1 = X for every x
    return iso


def _level_lifts(ring: TRing, S, gamma: LevelGroup, fi: RingElement):
    """(L, D): column g of L over D is psi^-1(g) = (g d_i) f_i, d x |Gamma_i|.

    R, f_i on the right of the identity's level columns, is den I on the
    level span, so a -> a f_i is injective there; L is R times the twist
    matrix of d_i."""
    span = gamma.span
    level_columns = np.eye(ring.dimension(), gamma.order, -span.start, dtype=np.int8)
    right, den = ring.products(fi, level_columns, "right"), fi.den
    lost = np.flatnonzero(_off_identity(right[span], den))
    if lost.size:
        y = RingElement(ring, S, right[:, lost[0]], den).restrict(span)
        lost_class = ring.basis[span.start + lost[0]]
        _violation(f"block {gamma.level} projection", y, ring.from_basis(S, lost_class))
    t = _twist_inverse_coefficient(gamma, S)
    return residues(S, _twist(gamma, right, t)), den * t.denominator


def _build_level_iso(ring: TRing, S, i: int, fi: RingElement) -> LevelBlockIso:
    gamma = level_group(ring.params, i)
    # group element g is the level class of the same index
    one = ring.from_basis(S, ring.basis[gamma.span.start])
    # the twist unit and its closed-form inverse really are inverse
    cd = ga_mul(gamma, twist_unit(gamma, S), twist_unit_inverse(gamma, S))
    if cd != one:
        _violation(f"c_{i} d_{i}", cd, one)
    # x -> x f_i injective on the level span; `_decompose` counts dimensions
    lifts, lift_den = _level_lifts(ring, S, gamma, fi)
    gens = gamma.generators()
    reached = len(gamma.closure(gens))
    if reached != gamma.order:
        _violation(f"block {i} generators", reached, gamma.order)
    # the argument of `LevelBlockIso`: L_1 = f_i, then (s d_i) L_g = L_sg
    if RingElement(ring, S, lifts[:, 0], lift_den) != fi:
        _violation(f"block {i} multiplicativity", None, None)
    # row g of the twisted level rows is lift_den * psi(psi^-1(g))
    back = residues(S, _twist(gamma, lifts[gamma.span].T, ring.params.nontrivial_coset_count(i)))
    if (back != np.eye(gamma.order, dtype=exact_dtype(lift_den)) * lift_den).any():
        _violation(f"block {i} round trip", None, None)
    t, most = _twist_inverse_coefficient(gamma, S), _max_abs(lifts)
    for s in gens:
        # column g is den * (s d_i) L_g, with den the denominator of s d_i
        factor = _times_twist(gamma, ring.from_basis(S, ring.basis[gamma.span.start + s]), t)
        column = gamma.product(s, slice(None))
        expected = lifts[:, column].astype(exact_dtype(most * factor.den), copy=False)
        expected *= factor.den
        if (ring.products(factor, lifts, "left") != residues(S, expected)).any():
            _violation(f"block {i} multiplicativity", None, None)
        del expected  # d x |Gamma_i|, before the next products
    return LevelBlockIso(ring, S, i, gamma, fi, lifts, lift_den)


# --------------------------------------------------------------------------
# integral primitive decomposition of the identity
# --------------------------------------------------------------------------


def integral_primitive_decomposition(params: ModelParams) -> list[RingElement]:
    """e orthogonal idempotents over Z summing to 1; all but one projective.

    The e - 1 projective members P[i,i] - P[e-1,i] are certified primitive
    idempotents of the ring by `corner_rank_is_one`.  The residual 1 - sum
    of the members is checked idempotent with one ring product, and the
    family, summing to 1, is orthogonal by the sum lemma.  Its primitivity
    has no finite certificate and is not claimed here.
    """
    ring, e = tring(params), params.e
    eps = [ring.element(ZZ, {ProjPair(i, i): 1, ProjPair(e - 1, i): -1}) for i in range(e - 1)]
    for x in eps:
        if not corner_rank_is_one(ring, x):
            _violation("primitive projective idempotent", x, None)
    residual = ring.one(ZZ) - sum(eps, ring.zero(ZZ))
    if ring.mult(residual, residual) != residual:
        _violation("integral idempotent", ring.mult(residual, residual), residual)
    return eps + [residual]


def corner_rank_is_one(ring: TRing, x: RingElement) -> bool:
    """x is an idempotent with a corner {x * b * x : b basis} of Q-rank 1.

    Answered on the e x e coefficient matrix X of x by theorem-a's test
    (`cartan.is_primitive_idempotent`): X *_C X = X, and rank(XC) =
    rank(CX) = 1.  The answer is the ring's under three conditions:
    - x is supported on the projective span P; any other x answers False;
    - P is a right ideal in the table (`_projective_span_is_right_ideal`),
      so x b x = x (x b x) x lies in P and the corner is {x y x : y in P};
    - the P x P block of the table is the twisted product
      (`_projective_products_match`), so x x is X C X and x y x is
      X C Y C X: x is idempotent in the ring and its corner is the one
      theorem-a tests.
    The last two are certified once per ring; a failure is a violation.
    """
    e = ring.params.e
    c = cartan_matrix(ring.params)
    if not _projective_span_is_right_ideal(ring):
        _violation("projective span is a right ideal", None, None)
    if not _projective_products_match(ring, c):
        _violation("projective products", None, None)
    if x.vec[e * e :].any():
        return False
    return is_primitive_idempotent(c, projective_element_to_matrix(x))


# --------------------------------------------------------------------------
# the integral central idempotents
# --------------------------------------------------------------------------


class ScanReport(
    namedtuple("ScanReport", "primitive_count sums_checked integral_masks only_zero_and_one")
):
    """The scan's counts, and one bitmask per integral sum, ascending."""

    __slots__ = ()


def primitive_central_idempotents_q(params: ModelParams) -> list[RingElement]:
    """All primitive central idempotents of the ring over Q, verified.

    Theorem D (`central_decomposition`) certifies R as the direct sum of
    the blocks R f_i: f_0 .. f_n are orthogonal central idempotents summing
    to 1, R f_0 is a matrix algebra and psi^-1 maps Q[Gamma_i] onto R f_i
    isomorphically.  So f_0 is primitive, and each level's family is
    checked in Q[Gamma_i] at size |Gamma_i| (`ga_mul`): members nonzero and
    idempotent, orthogonal by the sum lemma as they sum to M[i,1,0], and
    central because the law of Gamma_i adds coordinates (`LevelGroup`;
    theorem D checks it against the table).  Q[Gamma_i] is a product of one
    field per cyclic subgroup of Gamma_i (Perlis-Walker), so a family that
    large is its primitive idempotents.  Through psi^-1 the members are
    orthogonal idempotents of R f_i, central in R as the f_i are.
    """
    decomp = central_decomposition(params, QQ)
    prims = [decomp.projectors[0]]
    for iso in decomp.isos[1:]:
        gamma, i = iso.gamma, iso.level
        idems, cyclic = gamma.primitive_rational_idempotents(), gamma.cyclic_subgroup_count()
        if len(idems) != cyclic:
            _violation(f"simple components of Q[Gamma_{i}]", len(idems), cyclic)
        for x in idems:
            if x.is_zero():
                _violation("primitive central idempotent is nonzero", x, None)
            if ga_mul(gamma, x, x) != x:
                _violation("primitive central idempotent", ga_mul(gamma, x, x), x)
        one, total = iso.ring.from_basis(QQ, NonProj(i, 1, 0)), sum(idems[1:], idems[0])
        if total != one:
            _violation(f"level {i} primitive idempotents sum to M[{i},1,0]", total, one)
        prims.extend(iso.from_group_algebra(x) for x in idems)
    return prims


def rational_central_idempotent_scan(
    params: ModelParams, bound: int = 20
) -> ScanReport:
    """Which central idempotents over Q, the subset sums of the k primitive
    f_j (checked to sum to 1), are integral; expected, 0 and 1.  With D their
    common denominator, the sum over S is integral iff 1_S lies in the order
    {x : D F x = 0 mod D} of F = (f_j), so the integral sums are the unions
    of its components (`order_components`); over `bound` of them are refused."""
    ring = tring(params)
    prims = primitive_central_idempotents_q(params)
    total = sum(prims, ring.zero(QQ))
    if total != ring.one(QQ):
        _violation("primitive central idempotents sum to 1", total, ring.one(QQ))
    den = math.lcm(*(f.den for f in prims))
    cols = [f.vec.astype(object) * (den // f.den) for f in prims]
    comps = order_components(np.stack(cols, axis=1), den)
    if len(comps) > bound:
        raise ScanTooLarge(f"component count {len(comps)} exceeds the bound {bound}")
    k, c = len(prims), len(comps)
    masks = sorted(sum(comps[j] for j in range(c) if t >> j & 1) for t in range(1 << c))
    return ScanReport(k, 1 << k, masks, masks == [0, (1 << k) - 1])


# --------------------------------------------------------------------------
# semisimplicity
# --------------------------------------------------------------------------


class SemisimplicityDecision(namedtuple("SemisimplicityDecision", "verdict method certificate")):
    """verdict is "semisimple", "not_semisimple" or "inconclusive"; a decision
    given no certificate gets a dict of its own."""

    __slots__ = ()

    def __new__(cls, verdict: str, method: str, certificate: dict | None = None):
        return super().__new__(cls, verdict, method, {} if certificate is None else certificate)


def stated_criterion(params: ModelParams, q: int) -> bool:
    """Is p^(n-1)(p-1), the automorphism group order, invertible mod q?

    For fields of characteristic q != p this is the paper's semisimplicity
    criterion: there the algebra is a matrix algebra times the group
    algebras of the level groups, of orders p^(i-1)(p-1), and Maschke's
    theorem applies to each.  At q = p it is no semisimplicity criterion:
    for n = 1 it says "invertible", yet the algebra is never semisimple in
    characteristic p (the sum of all projective classes is a nonzero
    central element with square zero).
    """
    if q == 0:
        return True
    return (params.p ** (params.n - 1) * (params.p - 1)) % q != 0


def _central_nilpotent_certificate(ring, z: RingElement):
    if z.is_zero() or not ring.mult(z, z).is_zero() or ring.noncommuting(z):
        return None
    return {"support": [repr(z)], "square_is_zero": True, "central": True}


def semisimplicity_decide(params: ModelParams, q: int) -> SemisimplicityDecision:
    """Certified semisimplicity decision over the field of characteristic q.

    The procedure never invokes the structure theory it is meant to test:
    (1) a nondegenerate regular trace form forces semisimplicity in any
    characteristic; (2) for q not in {0, p}, a block whose label group has
    order divisible by q yields an explicit central nilpotent; (3) for
    q = p, the top quotient R / I is searched for a nilpotent z via the
    additive p-power map, a certificate once z is central in R / I
    (`_central_in_top_quotient`), and failing that the sum of all
    projective classes is tested directly (its square carries a factor p^n).
    """
    S = field_of_characteristic(q)
    ring = tring(params)
    d = ring.dimension()
    gram = ring.gram_int()
    rank = rank_over_field(gram, S)
    if rank == d:
        return SemisimplicityDecision(
            verdict="semisimple",
            method="trace_form_nondegenerate",
            certificate={"gram_rank": rank, "dimension": d},
        )
    if q not in (0, params.p):
        for i in range(1, params.n + 1):
            block_order = params.p ** (i - 1) * (params.p - 1)
            if block_order % q != 0:
                continue
            fi = ideal_identity(params, S, i) - ideal_identity(params, S, i - 1)
            # psi^-1 of the sum of the group elements: the row sums of the lifts
            lifts, lift_den = _level_lifts(ring, S, level_group(params, i), fi)
            z = RingElement(ring, S, lifts.sum(axis=1), lift_den)
            cert = _central_nilpotent_certificate(ring, z)
            if cert is not None:
                cert["block_level"] = i
                cert["block_order"] = block_order
                return SemisimplicityDecision(
                    verdict="not_semisimple",
                    method="central_nilpotent_block",
                    certificate=cert,
                )
    if q == params.p:
        decision = _char_p_nilpotent(params, ring, S)
        if decision is not None:
            return decision
    return SemisimplicityDecision(
        verdict="inconclusive",
        method="none",
        certificate={"gram_rank": rank, "dimension": d},
    )


def _power(mult, x, k: int):
    """x^k for k >= 1 by square and multiply, with the product `mult`."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mult(out, x)
        k >>= 1
        if k:
            x = mult(x, x)
    return out


def _top_powers(ring, S, power: int) -> np.ndarray:
    """Row k: the power-th power of the k-th top-level class in the quotient
    by the lower levels, over F_q.

    All g top-level classes are raised together: each step of square and
    multiply is one pass over the terms of the top-level products e_a e_b
    with x[k, a] != 0, where a term at a lower level vanishes.
    """
    q = S.characteristic
    top = ring.level_range(ring.params.n)
    d, g = ring.dimension(), top.stop - top.start

    def mult(x, y):
        # row k, column c: x[k, a] y[k, b] v over the terms v e_c of e_a e_b
        k, a = np.nonzero(x)
        pairs = (a + top.start)[:, None] * d + np.arange(top.start, top.stop)
        owner, cls, val = ring.terms(pairs.ravel())
        i, b = np.divmod(owner, g)
        k, a = k[i], a[i]
        vals = (x[k, a] * y[k, b] % q).astype(exact_dtype(q * q * len(i))) * (val % q)
        return _segment_sum(g * d, k * d + cls, vals).reshape(g, d)[:, top] % q

    return _power(mult, np.eye(g, dtype=np.int64), power)


def _central_in_top_quotient(ring, z: RingElement) -> bool:
    """Is z central in R / I, I the span of the lower levels?  From the table:
    I is an ideal when no e_a e_b with a or b below the top has a top-level
    term, and then z e_b = e_b z on the top level for every top class e_b."""
    d, top = ring.dimension(), ring.level_range(ring.params.n)
    lower = (ring.terms(a * d + np.arange(d if a < top.start else top.start))[1] for a in range(d))
    if any((cls >= top.start).any() for cls in lower):
        return False
    columns = np.eye(d, top.stop - top.start, -top.start, dtype=np.int8)
    left, right = (ring.products(z, columns, side)[top] for side in ("left", "right"))
    return np.array_equal(left, right)


def _char_p_nilpotent(params, ring, S):
    p = params.p
    # the quotient by the vertex-order < p^n ideal
    g = len(ring.level_basis(params.n))
    s = 1
    while p**s < g:
        s += 1
    power = p**s
    kernel = nullspace_over_field(_top_powers(ring, S, power).T, S)
    if len(kernel):
        z = ring.from_vector(S, kernel[0], ring.level_range(params.n))
        zp = _power(lambda u, v: ring.quotient_mult(params.n - 1, u, v), z, power)
        if not z.is_zero() and zp.is_zero() and _central_in_top_quotient(ring, z):
            return SemisimplicityDecision(
                verdict="not_semisimple",
                method="quotient_nilpotent",
                certificate={
                    "quotient_dim": g,
                    "power": power,
                    "support": [repr(z)],
                },
            )
    # the sum of all projective classes squares to p^n * e times itself
    z = ring.element(S, {b: 1 for b in ring.level_basis(0)})
    cert = _central_nilpotent_certificate(ring, z)
    if cert is not None:
        return SemisimplicityDecision(
            verdict="not_semisimple",
            method="projective_sum_nilpotent",
            certificate=cert,
        )
    return None
