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
scan certifying that 0 and 1 are the only integral central idempotents,
and a certified semisimplicity decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cartan import (
    cartan_inverse,
    cartan_matrix,
    matrix_to_projective_element,
    projective_element_to_matrix,
)
from .errors import BadLevel, CharIsP, ScanTooLarge, TheoremViolation
from .exactarith import (
    QQ,
    ZZ,
    field_identity,
    field_mat_mul,
    field_of_characteristic,
    mat_lift,
    nullspace_over_field,
    rank_over_field,
)
from .groupmodel import ModelParams, canonical_coset
from .tring import NonProj, ProjPair, RingElement, TRing, exact_dtype, tring


# --------------------------------------------------------------------------
# the abelian label group at a level
# --------------------------------------------------------------------------


class LevelGroup:
    """Pairs (automorphism coset at level i, character of E), componentwise.

    Abelian of order p^(i-1)(p-1).  Element k of `elements` is (coset
    representative number k // e, character k % e); products are lookups
    in an index multiplication table.  Subgroups are frozensets of
    indices: the cyclic subgroups <g>, closed under products (AB is a
    subgroup because the group is abelian).
    """

    def __init__(self, params: ModelParams, level: int):
        if not 1 <= level <= params.n:
            raise BadLevel(f"level {level} outside 1..{params.n}")
        self.params = params
        self.level = level
        q = params.p**level
        reps = sorted(
            {canonical_coset(params, level, u).rep for u in range(1, q) if u % params.p}
        )
        self.elements = tuple(
            (rep, lam) for rep in reps for lam in range(params.e)
        )
        self.index = {g: k for k, g in enumerate(self.elements)}
        self.identity = (1, 0)
        self.order = len(self.elements)
        assert self.order == params.p ** (level - 1) * (params.p - 1)

    # ------------------------------------------------------------ group law

    @cached_property
    def _table(self):
        """elements[_table[a][b]] = elements[a] * elements[b].

        One canonical coset per pair of coset representatives; the
        characters add mod e.
        """
        params = self.params
        e = params.e
        q = params.p**self.level
        reps = [rep for rep, _ in self.elements[::e]]
        where = {rep: k * e for k, rep in enumerate(reps)}
        cosets = [
            [where[canonical_coset(params, self.level, r * s % q).rep] for s in reps]
            for r in reps
        ]
        return [
            [cosets[a // e][b // e] + (a + b) % e for b in range(self.order)]
            for a in range(self.order)
        ]

    def mul(self, a, b):
        index = self.index
        return self.elements[self._table[index[a]][index[b]]]

    def closure(self, gens) -> frozenset:
        """The subgroup generated by the element indices `gens`."""
        table = self._table
        found = {self.index[self.identity]}
        frontier = found
        while frontier:
            frontier = {table[x][s] for x in frontier for s in gens} - found
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

    # ------------------------------------------------------------ subgroups

    def _product(self, a, b):
        table = self._table
        return frozenset(table[x][y] for x in a for y in b)

    @cached_property
    def cyclic_subgroups(self):
        """The distinct subgroups <g>, as frozensets of element indices."""
        table = self._table
        one = self.index[self.identity]
        out = set()
        for g in range(self.order):
            powers = {one}
            cur = g
            while cur != one:
                powers.add(cur)
                cur = table[cur][g]
            out.add(frozenset(powers))
        return out

    @cached_property
    def _subgroups(self):
        """Every subgroup: products of cyclic subgroups."""
        found = set(self.cyclic_subgroups)
        frontier = found
        while frontier:
            frontier = {
                self._product(a, c) for a in frontier for c in self.cyclic_subgroups
            } - found
            found |= frontier
        return found

    def primitive_rational_idempotents(self):
        """Primitive central idempotents of Q[Gamma], one per cyclic quotient.

        For each subgroup H with Gamma/H cyclic of order m,

            eps(Gamma, H) = sum over squarefree d | m of mu(d) * avg(M_d),

        where M_d is the subgroup containing H with [M_d : H] = d and avg(M)
        is the average of the elements of M: the product of avg(H) - avg(M)
        over the M of prime index over H, expanded (Jespers-Leal-Paques
        2003; Olivieri-del Rio-Simon 2004).  There are as many as there are
        cyclic subgroups, the number of simple components of Q[Gamma]
        (Perlis-Walker); `primitive_central_idempotents_q` checks the count.
        Ordered by decreasing |H|, then by the element indices of H.
        """
        everything = frozenset(range(self.order))
        out = []
        for h in sorted(self._subgroups, key=lambda s: (-len(s), sorted(s))):
            if all(self._product(h, c) != everything for c in self.cyclic_subgroups):
                continue  # Gamma/H is not cyclic
            coeffs = {}
            for m in self._subgroups:
                mu = _mobius(len(m) // len(h)) if h <= m else 0
                if mu:
                    for g in m:
                        coeffs[g] = coeffs.get(g, 0) + Fraction(mu, len(m))
            out.append(
                {self.elements[g]: v for g, v in sorted(coeffs.items()) if v != 0}
            )
        return out


def _mobius(d: int) -> int:
    """mu(d): 0 unless d is squarefree, else (-1)^(number of prime factors)."""
    mu = 1
    q = 2
    while d > 1:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            mu = -mu
        q += 1
    return mu


@lru_cache(maxsize=None)
def level_group(params: ModelParams, level: int) -> LevelGroup:
    return LevelGroup(params, level)


# --------------------------------------------------------------------------
# group algebra helpers (elements are dicts group-element -> scalar)
# --------------------------------------------------------------------------


def ga_one(gamma, S):
    return {gamma.identity: S.one}


def ga_mul(gamma, S, x, y):
    out = {}
    for g, v in x.items():
        for h, w in y.items():
            key = gamma.mul(g, h)
            val = S.add(out.get(key, S.zero), S.mul(v, w))
            if S.is_zero(val):
                out.pop(key, None)
            else:
                out[key] = val
    return out


def ga_eq(S, x, y):
    return {g: v for g, v in x.items() if not S.is_zero(v)} == {
        g: v for g, v in y.items() if not S.is_zero(v)
    }


def twist_unit(gamma, S):
    """c = 1 + m_i * sum over characters of (1, lam)."""
    params = gamma.params
    mi = S.from_int(params.nontrivial_coset_count(gamma.level))
    out = {gamma.identity: S.add(S.one, mi)}
    for lam in range(1, params.e):
        out[(1, lam)] = mi
    return {g: v for g, v in out.items() if not S.is_zero(v)}


def twist_unit_inverse(gamma, S):
    """d = 1 - m_i/p^(n-i) * sum over characters of (1, lam)."""
    params = gamma.params
    if S.characteristic == params.p:
        raise CharIsP("the twist inverse needs p invertible")
    mi = params.nontrivial_coset_count(gamma.level)
    denom = params.p ** (params.n - gamma.level)
    shrink = S.neg(S.mul(S.from_int(mi), S.inv(S.from_int(denom))))
    out = {gamma.identity: S.add(S.one, shrink)}
    for lam in range(1, params.e):
        out[(1, lam)] = shrink
    return {g: v for g, v in out.items() if not S.is_zero(v)}


# --------------------------------------------------------------------------
# chain idempotents
# --------------------------------------------------------------------------


def ideal_identity(params: ModelParams, S, i: int) -> RingElement:
    """The identity element of the vertex-order <= p^i ideal over S."""
    if S.characteristic == params.p:
        raise CharIsP("chain idempotents need p invertible")
    if not 0 <= i <= params.n:
        raise BadLevel(f"level {i} outside 0..{params.n}")
    ring = tring(params)
    e = params.e
    if i == 0:
        return matrix_to_projective_element(ring, S, cartan_inverse(params, S))
    mi = params.nontrivial_coset_count(i)
    denom = params.p ** (params.n - i)
    shrink = S.neg(S.mul(S.from_int(mi), S.inv(S.from_int(denom))))
    coeffs = {NonProj(i, 1, 0): S.add(S.one, shrink)}
    for lam in range(1, e):
        coeffs[NonProj(i, 1, lam)] = shrink
    return RingElement(ring, S, coeffs)


# --------------------------------------------------------------------------
# labeling between level spans and group algebras
# --------------------------------------------------------------------------


def level_to_group_algebra(gamma: LevelGroup, x: RingElement):
    out = {}
    for b, v in x.coeffs.items():
        if not (isinstance(b, NonProj) and b.level == gamma.level):
            raise BadLevel("element not supported at the group's level")
        out[(b.alpha, b.lam)] = v
    return out


def group_algebra_to_level(ring: TRing, gamma: LevelGroup, S, z) -> RingElement:
    return RingElement(
        ring,
        S,
        {NonProj(gamma.level, g[0], g[1]): v for g, v in z.items()},
    )


def to_plain_group_algebra(gamma: LevelGroup, S, x: RingElement):
    """Label a level-i span element into k[Gamma_i] and divide out the twist."""
    return ga_mul(gamma, S, level_to_group_algebra(gamma, x), twist_unit(gamma, S))


def from_plain_group_algebra(ring: TRing, gamma: LevelGroup, S, z) -> RingElement:
    return group_algebra_to_level(
        ring, gamma, S, ga_mul(gamma, S, z, twist_unit_inverse(gamma, S))
    )


# --------------------------------------------------------------------------
# the central decomposition
# --------------------------------------------------------------------------


@dataclass
class LevelBlockIso:
    """Certified isomorphism between a level block and its group algebra.

    psi^-1 = `from_group_algebra` multiplies by the twist inverse d_i,
    labels into the level span and multiplies by f_i; psi =
    `to_group_algebra` projects to the level, labels and multiplies by
    the twist c_i.  Bijectivity is certified on the level basis and
    psi(psi^-1(g)) = g on every group element g.  The u with
    psi^-1(u v) = psi^-1(u) psi^-1(v) for all v form a subalgebra (the
    ring is associative) containing 1 = psi(f_i), so multiplicativity is
    checked on the pairs (s, g) of a certified generator s and a group
    element g only.
    """

    ring: TRing
    scalar: object
    level: int
    gamma: LevelGroup
    projector: RingElement  # f_i, central idempotent cutting out the block
    checks: dict = field(default_factory=dict)

    def embed(self, x: RingElement) -> RingElement:
        """The map a -> a * f_i from the level span onto the block."""
        return self.ring.mult(x, self.projector)

    def project_level(self, y: RingElement) -> RingElement:
        coeffs = {
            b: v
            for b, v in y.coeffs.items()
            if isinstance(b, NonProj) and b.level == self.level
        }
        return RingElement(self.ring, self.scalar, coeffs)

    def to_group_algebra(self, y: RingElement):
        return to_plain_group_algebra(self.gamma, self.scalar, self.project_level(y))

    def from_group_algebra(self, z) -> RingElement:
        lifted = from_plain_group_algebra(self.ring, self.gamma, self.scalar, z)
        return self.embed(lifted)


@dataclass
class MatrixBlockIso:
    """Certified isomorphism x -> X C between the bottom block and e x e matrices.

    X is the coefficient matrix of x on the P[a, b] and C the Cartan
    matrix.  The map is multiplicative exactly when P[a,b] P[c,d] =
    C_bc P[a,d], which is checked once per ring over Z and so holds over
    every field; the inverse is Z -> Z C^-1 with the closed-form
    C^-1 = I - (m/p^n) J, certified by C C^-1 = I over the field.
    """

    ring: TRing
    scalar: object
    projector: RingElement  # f_0 = e_0
    cartan: list
    cartan_inverse: list
    checks: dict = field(default_factory=dict)

    def to_matrix(self, y: RingElement):
        S = self.scalar
        proj = RingElement(
            self.ring,
            S,
            {b: v for b, v in y.coeffs.items() if isinstance(b, ProjPair)},
        )
        mat = projective_element_to_matrix(proj)
        return field_mat_mul(mat, mat_lift(self.cartan, S), S)

    def from_matrix(self, z) -> RingElement:
        S = self.scalar
        coeff = field_mat_mul(z, self.cartan_inverse, S)
        return matrix_to_projective_element(self.ring, S, coeff)


@dataclass
class BlockDecomposition:
    """Verified block data: chain idempotents, projectors, dimensions."""

    params: ModelParams
    scalar: object
    chain: list  # e_0 .. e_n
    projectors: list  # f_0 .. f_n
    dims: list
    isos: list  # MatrixBlockIso then LevelBlockIso per level


def _violation(name, lhs, rhs):
    raise TheoremViolation(f"{name}: {lhs!r} != {rhs!r}")


def central_decomposition(params: ModelParams, S) -> BlockDecomposition:
    """Compute and fully verify the decomposition into central blocks.

    Every claimed identity is recomputed: idempotency and the two-sided
    identity property of each chain element on both the level span and
    the full ideal, the product rule e_i e_j = e_min, centrality against
    every basis class, orthogonality and completeness of the projectors,
    block dimensions, and multiplicativity plus bijectivity of every
    block isomorphism (see `MatrixBlockIso` and `LevelBlockIso` for the
    certificates).  Any failure raises TheoremViolation.

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

    for i, ei in enumerate(chain):
        if ring.mult(ei, ei) != ei:
            _violation(f"e_{i} idempotent", ring.mult(ei, ei), ei)
        # e_i b = b = b e_i on every class b of the ideal: columns of the actions
        ideal = [ring.index[b] for b in ring.ideal_le(i)]
        left, right, den = ring.actions(ei)
        unit = np.eye(len(ring.basis), dtype=left.dtype)[:, ideal] * den
        wrong = (left[:, ideal] != unit) | (right[:, ideal] != unit)
        bad = np.flatnonzero(wrong.any(axis=0))
        if bad.size:
            _violation(f"e_{i} identity on ideal", ring.basis[ideal[bad[0]]], None)
    for i in range(n + 1):
        for j in range(n + 1):
            lhs = ring.mult(chain[i], chain[j])
            if lhs != chain[min(i, j)]:
                _violation(f"e_{i} e_{j}", lhs, chain[min(i, j)])
    for i, ei in enumerate(chain):
        outside = ring.noncommuting(ei)
        if outside:
            _violation(f"e_{i} central at {outside[0]}", None, None)
    if chain[n] != ring.one(S):
        _violation("e_n is the identity", chain[n], ring.one(S))

    projectors = [chain[0]]
    projectors += [chain[i] - chain[i - 1] for i in range(1, n + 1)]
    for i, fi in enumerate(projectors):
        for j, fj in enumerate(projectors):
            prod = ring.mult(fi, fj)
            expected = fi if i == j else ring.zero(S)
            if prod != expected:
                _violation(f"f_{i} f_{j}", prod, expected)
    total = projectors[0]
    for fi in projectors[1:]:
        total = total + fi
    if total != ring.one(S):
        _violation("sum of projectors", total, ring.one(S))

    dims = []
    for i, fi in enumerate(projectors):
        # the block is the image of right multiplication by f_i
        _, right, _ = ring.actions(fi)
        dim = rank_over_field(right.T.tolist(), S)
        expected = params.e**2 if i == 0 else params.p ** (i - 1) * (params.p - 1)
        if dim != expected:
            _violation(f"dim of block {i}", dim, expected)
        dims.append(dim)

    isos = [_build_matrix_iso(ring, S, projectors[0])]
    for i in range(1, n + 1):
        isos.append(_build_level_iso(ring, S, i, projectors[i]))

    return BlockDecomposition(
        params=params,
        scalar=S,
        chain=chain,
        projectors=projectors,
        dims=dims,
        isos=isos,
    )


def _projective_products_match(ring: TRing, c) -> bool:
    """P[a,b] * P[c,d] = C_bc P[a,d] over Z, for all e^4 closed-form products.

    Checked once per ring; the answer holds over every field.
    """
    key = "projective products"
    if key not in ring.block_memo:
        e = ring.params.e
        ring.block_memo[key] = all(
            ring.mult_basis(ProjPair(a, b), ProjPair(x, d)) == {ProjPair(a, d): c[b][x]}
            for a in range(e)
            for b in range(e)
            for x in range(e)
            for d in range(e)
        )
    return ring.block_memo[key]


def _build_matrix_iso(ring: TRing, S, f0: RingElement) -> MatrixBlockIso:
    params = ring.params
    c = cartan_matrix(params)
    inverse = cartan_inverse(params, S)
    iso = MatrixBlockIso(
        ring=ring, scalar=S, projector=f0, cartan=c, cartan_inverse=inverse
    )
    identity = field_identity(params.e, S)
    # f_0 = e_0, certified the identity on the projective span (the level-0
    # ideal) by `_decompose`, so the block is that span
    mult_ok = _projective_products_match(ring, c)
    if not mult_ok:
        _violation("matrix block multiplicativity", None, None)
    ident_ok = iso.to_matrix(f0) == identity
    if not ident_ok:
        _violation("matrix block identity", iso.to_matrix(f0), "identity matrix")
    # from_matrix(to_matrix(x)) = X C C^-1 for every x
    round_ok = field_mat_mul(mat_lift(c, S), inverse, S) == identity
    if not round_ok:
        _violation("matrix block round trip", None, None)
    iso.checks.update(
        {"multiplicative": mult_ok, "identity": ident_ok, "round_trip": round_ok}
    )
    return iso


def _build_level_iso(ring: TRing, S, i: int, fi: RingElement) -> LevelBlockIso:
    params = ring.params
    gamma = level_group(params, i)
    iso = LevelBlockIso(
        ring=ring, scalar=S, level=i, gamma=gamma, projector=fi
    )
    # the twist unit and its closed-form inverse really are inverse
    cd = ga_mul(gamma, S, twist_unit(gamma, S), twist_unit_inverse(gamma, S))
    if not ga_eq(S, cd, ga_one(gamma, S)):
        _violation(f"c_{i} d_{i}", cd, ga_one(gamma, S))
    level_basis = [ring.from_basis(S, b) for b in ring.level_basis(i)]
    images = [iso.embed(x) for x in level_basis]
    # injectivity: projecting the image back to the level recovers the input
    for x, y in zip(level_basis, images):
        if iso.project_level(y) != x:
            _violation(f"block {i} projection", iso.project_level(y), x)
    rows = [[img.coeff(b) for b in ring.basis] for img in images]
    if rank_over_field(rows, S) != len(level_basis):
        _violation(f"block {i} bijectivity", rank_over_field(rows, S), len(level_basis))
    gens = gamma.generators()
    reached = len(gamma.closure(gens))
    if reached != gamma.order:
        _violation(f"block {i} generators", reached, gamma.order)
    lifts = [iso.from_group_algebra({g: S.one}) for g in gamma.elements]
    table = gamma._table
    mult_ok = all(
        ring.mult(lifts[s], lifts[g]) == lifts[table[s][g]]
        for s in gens
        for g in range(gamma.order)
    )
    if not mult_ok:
        _violation(f"block {i} multiplicativity", None, None)
    if not ga_eq(S, iso.to_group_algebra(fi), ga_one(gamma, S)):
        _violation(f"block {i} unit image", iso.to_group_algebra(fi), ga_one(gamma, S))
    round_ok = all(
        ga_eq(S, iso.to_group_algebra(y), {g: S.one})
        for g, y in zip(gamma.elements, lifts)
    )
    if not round_ok:
        _violation(f"block {i} round trip", None, None)
    iso.checks.update({"multiplicative": mult_ok, "round_trip": round_ok})
    return iso


# --------------------------------------------------------------------------
# integral primitive decomposition of the identity
# --------------------------------------------------------------------------


def integral_primitive_decomposition(params: ModelParams) -> list[RingElement]:
    """e orthogonal idempotents over Z summing to 1; all but one projective.

    The projective members carry a rank-one-corner primitivity witness;
    the residual's primitivity has no finite certificate and is not
    claimed here.
    """
    ring = tring(params)
    e = params.e
    eps = []
    for i in range(e - 1):
        coeffs = {ProjPair(i, i): 1, ProjPair(e - 1, i): -1}
        eps.append(ring.from_int_coeffs(ZZ, coeffs))
    residual = ring.one(ZZ)
    for x in eps:
        residual = residual - x
    decomposition = eps + [residual]
    for x in decomposition:
        if ring.mult(x, x) != x:
            _violation("integral idempotent", ring.mult(x, x), x)
    for a_idx, x in enumerate(decomposition):
        for b_idx, y in enumerate(decomposition):
            if a_idx != b_idx and not ring.mult(x, y).is_zero():
                _violation("orthogonality", ring.mult(x, y), 0)
    total = ring.zero(ZZ)
    for x in decomposition:
        total = total + x
    if total != ring.one(ZZ):
        _violation("decomposition sum", total, ring.one(ZZ))
    for x in eps:
        if not corner_rank_is_one(ring, x):
            _violation("rank-one corner", x, None)
    outside = [
        x
        for x in decomposition
        if any(isinstance(b, NonProj) for b in x.coeffs)
    ]
    if len(outside) > 1:
        _violation("members outside the projective span", len(outside), 1)
    return decomposition


def corner_rank_is_one(ring: TRing, x: RingElement) -> bool:
    """Z-rank of the corner {x * b * x : b basis} equals 1.

    x * e_b * x is column b of R_x L_x, with L_x, R_x the actions of x.
    """
    left, right, _ = ring.actions(x)
    dtype = exact_dtype(len(ring.basis) * int(abs(left).max()) * int(abs(right).max()))
    corner = right.astype(dtype) @ left.astype(dtype)
    return rank_over_field(corner.T.tolist(), QQ) == 1


# --------------------------------------------------------------------------
# the rational central idempotent scan
# --------------------------------------------------------------------------


@dataclass
class ScanReport:
    params: ModelParams
    primitive_count: int
    sums_checked: int
    integral_masks: list  # bitmask per integral sum, ascending
    only_zero_and_one: bool


def primitive_central_idempotents_q(params: ModelParams) -> list[RingElement]:
    """All primitive central idempotents of the ring over Q, verified.

    The ring over Q is a matrix algebra times the Q[Gamma_i], and Q[Gamma_i]
    has one simple component per cyclic subgroup of Gamma_i (Perlis-Walker).
    A complete family of nonzero orthogonal central idempotents that large
    is therefore primitive; count, nonzeroness, idempotency, centrality,
    orthogonality and the sum are all checked.
    """
    ring = tring(params)
    decomp = central_decomposition(params, QQ)
    prims = [decomp.projectors[0]]
    for i in range(1, params.n + 1):
        iso = decomp.isos[i]
        idems = iso.gamma.primitive_rational_idempotents()
        cyclic = len(iso.gamma.cyclic_subgroups)
        if len(idems) != cyclic:
            _violation(f"simple components of Q[Gamma_{i}]", len(idems), cyclic)
        prims.extend(iso.from_group_algebra(idem) for idem in idems)
    for x in prims:
        if x.is_zero():
            _violation("primitive central idempotent is nonzero", x, None)
        if ring.mult(x, x) != x:
            _violation("primitive central idempotent", ring.mult(x, x), x)
        outside = ring.noncommuting(x)
        if outside:
            _violation("centrality of primitive idempotent", x, outside[0])
    for a_idx, x in enumerate(prims):
        for b_idx, y in enumerate(prims):
            if a_idx != b_idx and not ring.mult(x, y).is_zero():
                _violation("orthogonality of primitive idempotents", x, y)
    total = ring.zero(QQ)
    for x in prims:
        total = total + x
    if total != ring.one(QQ):
        _violation("primitive idempotent sum", total, ring.one(QQ))
    return prims


def _is_integral(x: RingElement) -> bool:
    return all(Fraction(v).denominator == 1 for v in x.coeffs.values())


def rational_central_idempotent_scan(
    params: ModelParams, bound: int = 20
) -> ScanReport:
    """Enumerate all central idempotents over Q; certify which are integral.

    Every central idempotent is a subset sum of the primitive central
    idempotents, so 2^k sums are checked; the expected outcome is that
    exactly 0 (empty sum) and 1 (full sum) have integer coordinates.
    """
    ring = tring(params)
    prims = primitive_central_idempotents_q(params)
    k = len(prims)
    if k > bound:
        raise ScanTooLarge(f"{k} primitive idempotents exceed the bound {bound}")
    integral = []

    def dfs(idx, acc, mask):
        if idx == k:
            if _is_integral(acc):
                integral.append((mask, acc))
            return
        dfs(idx + 1, acc, mask)
        dfs(idx + 1, acc + prims[idx], mask | (1 << idx))

    dfs(0, ring.zero(QQ), 0)
    integral.sort(key=lambda t: t[0])
    masks = [m for m, _ in integral]
    full = (1 << k) - 1
    only = (
        masks == [0, full]
        and integral[0][1].is_zero()
        and integral[1][1] == ring.one(QQ)
    )
    return ScanReport(
        params=params,
        primitive_count=k,
        sums_checked=1 << k,
        integral_masks=masks,
        only_zero_and_one=only,
    )


# --------------------------------------------------------------------------
# semisimplicity
# --------------------------------------------------------------------------


@dataclass
class SemisimplicityDecision:
    params: ModelParams
    field_char: int
    verdict: str  # "semisimple" | "not_semisimple" | "inconclusive"
    method: str
    certificate: dict = field(default_factory=dict)


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
    if z.is_zero():
        return None
    if not ring.mult(z, z).is_zero() or ring.noncommuting(z):
        return None
    return {"support": [repr(z)], "square_is_zero": True, "central": True}


def semisimplicity_decide(params: ModelParams, q: int) -> SemisimplicityDecision:
    """Certified semisimplicity decision over the field of characteristic q.

    The procedure never invokes the structure theory it is meant to test:
    (1) a nondegenerate regular trace form forces semisimplicity in any
    characteristic; (2) for q not in {0, p}, a block whose label group has
    order divisible by q yields an explicit central nilpotent; (3) for
    q = p, the commutative top quotient is searched for a nilpotent via
    the additive p-power map, and failing that the sum of all projective
    classes is tested directly (its square carries a factor p^n).
    """
    S = field_of_characteristic(q)
    ring = tring(params)
    d = ring.dimension()
    gram = ring.gram_int()
    rank = rank_over_field(gram, S)
    if rank == d:
        return SemisimplicityDecision(
            params=params,
            field_char=q,
            verdict="semisimple",
            method="trace_form_nondegenerate",
            certificate={"gram_rank": rank, "dimension": d},
        )
    if q not in (0, params.p):
        for i in range(1, params.n + 1):
            block_order = params.p ** (i - 1) * (params.p - 1)
            if block_order % q != 0:
                continue
            gamma = level_group(params, i)
            fi = ideal_identity(params, S, i) - ideal_identity(params, S, i - 1)
            iso = LevelBlockIso(
                ring=ring, scalar=S, level=i, gamma=gamma, projector=fi
            )
            ones = {g: S.one for g in gamma.elements}
            z = iso.from_group_algebra(ones)
            cert = _central_nilpotent_certificate(ring, z)
            if cert is not None:
                cert["block_level"] = i
                cert["block_order"] = block_order
                return SemisimplicityDecision(
                    params=params,
                    field_char=q,
                    verdict="not_semisimple",
                    method="central_nilpotent_block",
                    certificate=cert,
                )
    if q == params.p:
        decision = _char_p_nilpotent(params, ring, S)
        if decision is not None:
            decision.field_char = q
            return decision
    return SemisimplicityDecision(
        params=params,
        field_char=q,
        verdict="inconclusive",
        method="none",
        certificate={"gram_rank": rank, "dimension": d},
    )


def _char_p_nilpotent(params, ring, S):
    p = params.p
    # commutative quotient by the vertex-order < p^n ideal
    top = ring.level_basis(params.n)
    g = len(top)
    s = 1
    while p**s < g:
        s += 1
    power = p**s

    def quotient_power(x: RingElement, k: int) -> RingElement:
        out = None
        cur = x
        while k:
            if k & 1:
                out = cur if out is None else ring.quotient_mult(params.n - 1, out, cur)
            k >>= 1
            if k:
                cur = ring.quotient_mult(params.n - 1, cur, cur)
        return out

    columns = []
    for b in top:
        img = quotient_power(ring.from_basis(S, b), power)
        columns.append([img.coeff(c) for c in top])
    rows = [[columns[j][i] for j in range(g)] for i in range(g)]
    kernel = nullspace_over_field(rows, S)
    if kernel:
        vec = kernel[0]
        z = RingElement(ring, S, {b: v for b, v in zip(top, vec)})
        if not z.is_zero() and quotient_power(z, power).is_zero():
            return SemisimplicityDecision(
                params=params,
                field_char=p,
                verdict="not_semisimple",
                method="quotient_nilpotent",
                certificate={
                    "quotient_dim": g,
                    "power": power,
                    "support": [repr(z)],
                },
            )
    # the sum of all projective classes squares to p^n * e times itself
    z = RingElement(
        ring,
        S,
        {
            ProjPair(a, b): S.one
            for a in range(params.e)
            for b in range(params.e)
        },
    )
    cert = _central_nilpotent_certificate(ring, z)
    if cert is not None:
        return SemisimplicityDecision(
            params=params,
            field_char=p,
            verdict="not_semisimple",
            method="projective_sum_nilpotent",
            certificate=cert,
        )
    return None
