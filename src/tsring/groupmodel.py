"""Concrete model of G = D ⋊ E for cyclic D of order p^n.

D is written additively as Z/p^n and E as the unique subgroup of order e
of the unit group (Z/p^n)^*, acting by multiplication.  Group elements
are pairs (x, r) with x in Z/p^n and r a unit in E, multiplying by

    (x, r) * (y, s) = (x + r*y mod p^n, r*s mod p^n).

The module also implements the subgroup calculus of G x G needed for
bimodule computations: restriction of automorphisms between levels,
automorphism cosets modulo the image of E, E-hat characters (written
additively as Z/e), explicit subgroups of G x G with shape tags and
linear characters, double cosets, star products, and conjugation.

A subgroup of G x G is a sorted int64 array of pair codes g*|G| + h
(indices as in GroupTable) with an aligned int64 array of character
values mod e; construction, conjugation, star products and shape
recognition are numpy index arithmetic, gathers, joins and lookups on
them.  Only the named constructors certify a subgroup, from its closed-form
generators S (at most two): 1 lies in H, H*s lies in H and the orbit of 1
under right multiplication by S covers H, and the character satisfies
chi(1) = 0 and chi(h*s) = chi(h) + chi(s); that is |S|*|H| lookups.  Star
products and conjugates of subgroups are subgroups by construction, untagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadLevel,
    BadOrder,
    CharacterIllDefined,
    NotPrime,
    ParamsMismatch,
    TheoremViolation,
    TwoBlocked,
)
from .exactarith import as_matrix, is_prime, prime_factors

GElement = tuple  # (x, r) with x in Z/p^n and r a unit lying in E
GGPair = tuple  # (g, h) with g, h GElements


@dataclass(frozen=True)
class ModelParams:
    """The triple (p, n, e): |D| = p^n, |E| = e with e | p - 1."""

    p: int
    n: int
    e: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"p = {self.p} is not prime")
        if self.n < 1:
            raise BadOrder(f"n = {self.n} must be positive")
        if self.p == 2 and self.e > 1:
            raise TwoBlocked("p = 2 forces a trivial inertial subgroup")
        if self.e < 1 or (self.p - 1) % self.e != 0:
            raise BadOrder(f"e = {self.e} does not divide p - 1 = {self.p - 1}")

    # ---------------------------------------------------------------- sizes

    @cached_property
    def pn(self) -> int:
        return self.p**self.n

    @cached_property
    def group_order(self) -> int:
        return self.pn * self.e

    @cached_property
    def unit_group_order(self) -> int:
        return self.pn // self.p * (self.p - 1)

    @cached_property
    def multiplicity(self) -> int:
        """(p^n - 1)/e, the exceptional multiplicity of the model."""
        return (self.pn - 1) // self.e

    def nontrivial_coset_count(self, level: int) -> int:
        """(p^(n-level) - 1)/e; counts nontrivial double cosets at the level."""
        if not 0 <= level <= self.n:
            raise BadLevel(f"level {level} outside 0..{self.n}")
        return (self.p ** (self.n - level) - 1) // self.e

    # ------------------------------------------------------------- E and D

    @cached_property
    def primitive_root(self) -> int:
        """Smallest generator of the cyclic unit group (Z/p^n)^* (p odd)."""
        if self.p == 2:
            if self.pn <= 2:
                return 1
            if self.pn == 4:
                return 3
            raise BadOrder("the unit group mod 2^n is not cyclic for n >= 3")
        order = self.unit_group_order
        primes = set(prime_factors(order))
        for g in range(2, self.pn):
            if g % self.p == 0:
                continue
            if all(pow(g, order // q, self.pn) != 1 for q in primes):
                return g
        raise AssertionError("no primitive root found")

    @cached_property
    def e_generator(self) -> int:
        """Generator of E, the unique order-e subgroup of the units."""
        if self.e == 1:
            return 1
        return pow(self.primitive_root, self.unit_group_order // self.e, self.pn)

    @cached_property
    def subgroup_E(self) -> tuple[int, ...]:
        g = self.e_generator
        members = {1}
        cur = g
        while cur not in members:
            members.add(cur)
            cur = cur * g % self.pn
        if len(members) != self.e:
            raise BadOrder(f"{g} generates {len(members)} units, not e = {self.e}")
        return tuple(sorted(members))

    def d_subgroup(self, i: int) -> tuple[int, ...]:
        """Elements of D_i, the subgroup of D of order p^i."""
        if not 0 <= i <= self.n:
            raise BadLevel(f"level {i} outside 0..{self.n}")
        step = self.p ** (self.n - i)
        return tuple(range(0, self.pn, step))

    @property
    def identity(self) -> GElement:
        return (0, 1)


def make_params(p: int, n: int, e: int) -> ModelParams:
    return ModelParams(p, n, e)


# --------------------------------------------------------------------------
# restriction maps and automorphism cosets
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pi_e_image(params: ModelParams, i: int) -> tuple[int, ...]:
    return tuple(sorted({s % params.p**i for s in params.subgroup_E}))


@dataclass(frozen=True)
class AutCoset:
    """A coset of the image of E inside Aut(D_i), by its least representative."""

    level: int
    rep: int

    def members(self, params: ModelParams) -> tuple[int, ...]:
        q = params.p**self.level
        return tuple(sorted(self.rep * s % q for s in _pi_e_image(params, self.level)))


def canonical_coset(params: ModelParams, i: int, unit: int) -> AutCoset:
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    if unit % params.p == 0:
        raise BadOrder(f"{unit} is not a unit (divisible by {params.p})")
    q = params.p**i
    rep = min(unit * s % q for s in _pi_e_image(params, i))
    return AutCoset(level=i, rep=rep)


# --------------------------------------------------------------------------
# subgroups of G x G
# --------------------------------------------------------------------------

TAG_EXE = "ExE"
TAG_EXONE = "ExOne"
TAG_ONEXE = "OnexE"
TAG_DIAG_P = "TwistedDiagP"
TAG_DIAG_PE = "TwistedDiagPE"


class SubgroupGG:
    """A subgroup of G x G with a shape tag and optional linear character.

    `codes` and `chars` are the arrays of the module docstring (`chars` is
    None without a character); the named constructors certify them and
    set the tag, which is None on star products and conjugates.
    """

    def __init__(self, params, tag, codes, chars=None):
        self.params = params
        self.tag = tag
        self.codes = codes
        self.chars = chars

    def _char_at(self, a, b) -> int:
        """The character at the pair (a, b) of G-elements."""
        table = group_table(self.params)
        code = table.index[a] * len(table.elems) + table.index[b]
        pos = int(self.codes.searchsorted(code))
        if pos == len(self.codes) or self.codes[pos] != code:
            raise KeyError((a, b))
        return int(self.chars[pos])

    def __len__(self):
        return len(self.codes)

    def __repr__(self):
        return f"SubgroupGG(tag={self.tag}, order={len(self.codes)})"


def _encode(table, g, h) -> np.ndarray:
    """Pair codes g*|G| + h of index arrays g and h."""
    return g.astype(np.int64) * len(table.elems) + h


def _positions(codes, queries) -> np.ndarray:
    """Positions of the queries in the sorted code array, -1 where absent."""
    pos = np.minimum(codes.searchsorted(queries), len(codes) - 1)
    return np.where(codes[pos] == queries, pos, -1)


# ----------------------------------------------------------- constructors


def _shape(table, tag, g, h, chars, gens) -> SubgroupGG:
    """The subgroup of index pairs (g, h), certified to be generated by `gens`.

    `gens` are (g, h) index pairs; `chars`, aligned with g and h, is
    certified to be a homomorphism on the subgroup they generate.
    """
    codes = _encode(table, g, h)
    order = codes.argsort(kind="stable")
    codes = codes[order]
    if chars is not None:
        chars = chars[order]
    _certify(table, codes, chars, gens)
    return SubgroupGG(table.params, tag, codes, chars)


def _certify(table, codes, chars, gens):
    """Raise unless the sorted codes are the subgroup the generators generate.

    1 in H and H*s in H for each generator s put <S> inside H; the orbit of
    1 under right multiplication by S, closed by pointer doubling on the
    successor permutations h -> h*s, then covers H.  A character is a
    homomorphism once chi(1) = 0 and chi(h*s) = chi(h) + chi(s), by
    induction on the length of a word in S.
    """
    if not len(codes) or codes[0] != 0:
        raise ValueError("subgroup misses the identity")
    g, h = np.divmod(codes, len(table.elems))
    steps = []
    for s1, s2 in gens:
        step = _positions(codes, _encode(table, table.mul[g, s1], table.mul[h, s2]))
        if (step < 0).any():
            raise ValueError("subgroup not closed under its generators")
        steps.append(step)
    reached = np.zeros(len(codes), dtype=bool)
    reached[0] = True
    for step in steps:
        # after k rounds `reached` holds every x*s^j with j < 2^k
        for _ in range(len(codes).bit_length()):
            reached[step[reached]] = True
            step = step[step]
    if not reached.all():
        raise ValueError("generators miss part of the subgroup")
    if chars is None:
        return
    if chars[0] != 0:
        raise CharacterIllDefined("character is not 0 at the identity")
    elems, n = table.elems, len(table.elems)
    for (s1, s2), step in zip(gens, steps):
        wrong = np.flatnonzero(chars[step] != (chars + chars[step[0]]) % table.params.e)
        if len(wrong):
            g, h = divmod(int(codes[wrong[0]]), n)
            raise CharacterIllDefined(
                "character is not a homomorphism at "
                f"{(elems[g], elems[h])} * {(elems[s1], elems[s2])}"
            )


def subgroup_exe(params, lam=None, mu=None) -> SubgroupGG:
    """E x E; with characters, carries (rho, sigma) -> lam(rho) - mu(sigma)."""
    table = group_table(params)
    # (0, r) has index rank(r)
    g, h = np.divmod(np.arange(params.e * params.e), params.e)
    chars = None
    if lam is not None:
        chars = (lam * table.dlog[g] - mu * table.dlog[h]) % params.e
    return _shape(table, (TAG_EXE,), g, h, chars, [(table.eps, 0), (0, table.eps)])


def subgroup_exone(params, lam=None) -> SubgroupGG:
    table = group_table(params)
    g = np.arange(params.e)
    chars = None if lam is None else lam * table.dlog % params.e
    return _shape(table, (TAG_EXONE,), g, np.zeros_like(g), chars, [(table.eps, 0)])


def subgroup_onexe(params, mu=None) -> SubgroupGG:
    table = group_table(params)
    h = np.arange(params.e)
    chars = None if mu is None else mu * table.dlog % params.e
    return _shape(table, (TAG_ONEXE,), np.zeros_like(h), h, chars, [(0, table.eps)])


def subgroup_diag_p(params, i, unit) -> SubgroupGG:
    """Twisted diagonal of D_i: {(unit*y, y) : y in D_i}."""
    return _diagonal(params, (TAG_DIAG_P, i, unit % params.p**i), unit, [0], None)


def subgroup_diag_pe(params, i, unit, lam=None) -> SubgroupGG:
    """Twisted diagonal of D_i E; with a character it is lam on the E part."""
    tag = (TAG_DIAG_PE, i, unit % params.p**i)
    return _diagonal(params, tag, unit, np.arange(params.e), lam)


def _diagonal(params, tag, unit, ranks, lam) -> SubgroupGG:
    """{((unit*x, r), (x, r))} over x in D_i and r of the given ranks, generated
    by the image of the generator p^(n-i) of D_i and, if r runs over E, by
    (epsilon, epsilon)."""
    i = tag[1]
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    table, e, step = group_table(params), params.e, params.p ** (params.n - i)
    x = np.arange(0, params.pn, step)[:, None]
    g = (unit * x % params.pn * e + ranks).ravel()
    h = (x * e + ranks).ravel()
    chars = None if lam is None else np.tile(lam * table.dlog % e, len(x))
    gens = [(unit * step % params.pn * e, step * e)]
    if len(ranks) == e:
        gens.append((table.eps, table.eps))
    return _shape(table, tag, g, h, chars, gens)


# --------------------------------------------------------- shape recognition


def recognize_shape(params, codes) -> tuple | None:
    """The tag of the shape with exactly these sorted pair codes, else None."""
    return _shape_tags(params).get(codes.tobytes())


@lru_cache(maxsize=None)
def _shape_tags(params) -> dict:
    """Code bytes -> tag of every shape; the first built wins at e = 1."""
    shapes = [subgroup_exe(params), subgroup_exone(params), subgroup_onexe(params)]
    for i in range(params.n, 0, -1):
        for unit in range(1, params.p**i):
            if unit % params.p:
                shapes.append(subgroup_diag_p(params, i, unit))
                shapes.append(subgroup_diag_pe(params, i, unit))
    return {sub.codes.tobytes(): sub.tag for sub in reversed(shapes)}


# --------------------------------------------------------------- star, conj


def star(x: SubgroupGG, y: SubgroupGG) -> SubgroupGG:
    """The composition subgroup {(g, k) : (g, h) in X, (h, k) in Y}, in one
    sorted join: each (g, h) of X meets the run of Y's sorted codes over h.

    With characters on both sides the product carries the sum through any
    connecting element; CharacterIllDefined names the first pair that two
    connecting elements give different values.
    """
    if x.params != y.params:
        raise ParamsMismatch("star of subgroups over different params")
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
    first = np.concatenate(([True], codes[1:] != codes[:-1]))
    chars = None
    if x.chars is not None and y.chars is not None:
        chars = ((x.chars[xi] + y.chars[yi]) % params.e)[order]
        clash = np.flatnonzero(~first[1:] & (chars[1:] != chars[:-1]))
        if len(clash):
            g, k = divmod(int(codes[clash[0]]), len(table.elems))
            raise CharacterIllDefined(
                f"connecting elements disagree at {(table.elems[g], table.elems[k])}"
            )
        chars = chars[first]
    codes = codes[first]
    return SubgroupGG(params, None, codes, chars)


def conj(s: GGPair, x: SubgroupGG) -> SubgroupGG:
    """Conjugate a subgroup of G x G by the pair s, transporting characters."""
    table = group_table(x.params)
    # u g u^-1 for the indices g, two gathers
    inner = lambda u, g: table.mul[table.mul[table.index[u], g], table.inv[table.index[u]]]
    g, h = np.divmod(x.codes, len(table.elems))
    codes = _encode(table, inner(s[0], g), inner(s[1], h))
    order = codes.argsort()
    codes = codes[order]
    chars = None if x.chars is None else x.chars[order]
    return SubgroupGG(x.params, None, codes, chars)


# --------------------------------------------------------------------------
# index tables and double cosets
#
# Elements of G are indexed in lexicographic (x, r) order; index 0 is the
# identity.  The multiplication table lets the subgroup kernels above and
# the brute-force scans below run as numpy index arithmetic, which keeps
# them exact.
# --------------------------------------------------------------------------


# int64 entries per block of rows while the table is built: the block's
# temporaries stay at 64 KB whatever |G| is, never |G|^2 of them
_TABLE_BLOCK = 1 << 13


class GroupTable:
    """Multiplication and inversion of G on indices x*e + rank(r) of (x, r).

    rank(r) is the position of r in the sorted E and dlog[rank(r)] its
    discrete log to the base epsilon, the generator of E.  The product
    (x, r)*(y, s) = (x + r*y mod p^n, r*s) is computed on whole blocks of
    rows and written into the int32 table.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        pn, e, units = params.pn, params.e, params.subgroup_E
        self.elems = [(x, r) for x in range(pn) for r in units]
        self.index = {g: i for i, g in enumerate(self.elems)}
        self.rank = {r: k for k, r in enumerate(units)}
        self.eps = self.rank[params.e_generator]  # the index of (0, epsilon)
        rank_mul = as_matrix([[self.rank[r * s % pn] for s in units] for r in units])
        rank_inv = np.array([self.rank[pow(r, -1, pn)] for r in units])
        powers = [self.rank[pow(params.e_generator, j, pn)] for j in range(e)]
        self.dlog = np.argsort(powers)  # inverts j -> rank(epsilon^j)
        # r*y mod p^n by rank of r
        scaled = np.array(units, dtype=np.int64)[:, None] * np.arange(pn) % pn
        order = pn * e
        x, k = np.divmod(np.arange(order), e)
        self.mul = np.empty((order, order), dtype=np.int32)
        rows = max(1, _TABLE_BLOCK // order)
        for lo in range(0, order, rows):
            xa, ka = x[lo : lo + rows, None], k[lo : lo + rows, None]
            self.mul[lo : lo + rows] = (xa + scaled[ka, x]) % pn * e + rank_mul[ka, k]
        ki = rank_inv[k]
        self.inv = (-scaled[ki, x] % pn * e + ki).astype(np.int32)

    def subgroup_indices(self, level: int) -> np.ndarray:
        """Indices of D_i E, sorted."""
        x = np.array(self.params.d_subgroup(level), dtype=np.int32)
        e = self.params.e
        return (x[:, None] * e + np.arange(e, dtype=np.int32)).ravel()


@lru_cache(maxsize=None)
def group_table(params: ModelParams) -> GroupTable:
    return GroupTable(params)


@lru_cache(maxsize=None)
def double_coset_partition(params: ModelParams, i: int, j: int) -> tuple:
    """(D_i E, D_j E)-double cosets as index tuples, in order of least member."""
    if not (0 <= i <= params.n and 0 <= j <= params.n):
        raise BadLevel("levels outside range")
    table = group_table(params)
    left = table.subgroup_indices(i)
    right = table.subgroup_indices(j)
    order = len(table.elems)
    seen = np.zeros(order, dtype=bool)
    cosets = []
    for g in range(order):
        if seen[g]:
            continue
        # sorted members as a mask: np.unique would import numpy.ma here
        member = np.zeros(order, dtype=bool)
        member[table.mul[np.ix_(table.mul[left, g], right)]] = True
        seen |= member
        cosets.append(tuple(np.flatnonzero(member).tolist()))
    return tuple(cosets)


@lru_cache(maxsize=None)
def double_cosets_in_d(params: ModelParams, i: int, j: int) -> tuple[GElement, ...]:
    """One representative per double coset, chosen inside D."""
    table = group_table(params)
    reps = []
    for block in double_coset_partition(params, i, j):
        in_d = [table.elems[t] for t in block if table.elems[t][1] == 1]
        if not in_d:
            first = table.elems[block[0]]
            raise TheoremViolation(f"the double coset of {first} misses D")
        reps.append(min(in_d))
    return tuple(reps)
