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
values mod e; conjugation, star products and shape recognition are numpy
gathers, joins and lookups on them.  Only the named constructors verify
closure and characters, closure once per code array: star products and
conjugates of subgroups are subgroups by construction.

`star` takes a SubgroupStack, subgroups of one order as the rows of 2-D
arrays, and joins every row with one right factor in a single pass; a
row whose connecting elements disagree gets its CharacterIllDefined in
place of a subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

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
from .exactarith import is_prime

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
        prime_factors = set()
        t, d = order, 2
        while d * d <= t:
            while t % d == 0:
                prime_factors.add(d)
                t //= d
            d += 1
        if t > 1:
            prime_factors.add(t)
        for g in range(2, self.pn):
            if g % self.p == 0:
                continue
            if all(pow(g, order // q, self.pn) != 1 for q in prime_factors):
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

    @cached_property
    def e_dlog(self) -> dict[int, int]:
        """Discrete log on E with respect to its generator; values mod e."""
        table = {}
        cur = 1
        for k in range(self.e):
            table[cur] = k
            cur = cur * self.e_generator % self.pn
        return table

    def d_subgroup(self, i: int) -> tuple[int, ...]:
        """Elements of D_i, the subgroup of D of order p^i."""
        if not 0 <= i <= self.n:
            raise BadLevel(f"level {i} outside 0..{self.n}")
        step = self.p ** (self.n - i)
        return tuple(range(0, self.pn, step))

    def die_elements(self, i: int) -> tuple[GElement, ...]:
        """Elements of D_i E in canonical (x, r) order; i = 0 gives E."""
        return tuple(
            (x, r) for x in self.d_subgroup(i) for r in self.subgroup_E
        )

    # --------------------------------------------------------- element ops

    @property
    def identity(self) -> GElement:
        return (0, 1)

    def g_mul(self, a: GElement, b: GElement) -> GElement:
        x, r = a
        y, s = b
        return ((x + r * y) % self.pn, r * s % self.pn)

    def g_inv(self, a: GElement) -> GElement:
        x, r = a
        ri = pow(r, -1, self.pn)
        return (-ri * x % self.pn, ri)

    def g_conj(self, s: GElement, a: GElement) -> GElement:
        return self.g_mul(self.g_mul(s, a), self.g_inv(s))

    def g_elements(self) -> tuple[GElement, ...]:
        return tuple((x, r) for x in range(self.pn) for r in self.subgroup_E)

    def char_value(self, lam: int, r: int) -> int:
        """Value (mod e) of the additive character lam on the unit r in E."""
        return lam * self.e_dlog[r] % self.e if self.e > 1 else 0


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
TAG_EXPLICIT = "Explicit"


class SubgroupGG:
    """A subgroup of G x G with a shape tag and optional linear character.

    `codes` and `chars` are the arrays of the module docstring (`chars` is
    None without a character); `from_pairs` checks the subgroup laws.
    """

    def __init__(self, params, tag, codes, chars=None):
        self.params = params
        self.tag = tag
        self.codes = codes
        self.chars = chars

    @classmethod
    def from_pairs(cls, params, tag, elements, character=None) -> "SubgroupGG":
        """Encode explicit (g, h) pairs, verifying closure and the character."""
        sub = cls._encode(params, tag, elements, character)
        sub._check_subgroup()
        if sub.chars is not None:
            sub._check_character()
        return sub

    @classmethod
    def _encode(cls, params, tag, elements, character) -> "SubgroupGG":
        """Codes and aligned characters of explicit pairs, unchecked."""
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
        return cls(params, tag, codes, chars)

    # ------------------------------------------------------------- checks

    def _products(self) -> np.ndarray:
        """Codes of all products a*b, as an |H| x |H| array."""
        table = group_table(self.params)
        g, h = np.divmod(self.codes, len(table.elems))
        return _encode(table, table.mul[np.ix_(g, g)], table.mul[np.ix_(h, h)])

    def _check_subgroup(self):
        table = group_table(self.params)
        if not len(self.codes) or self.codes[0] != 0:
            raise ValueError("subgroup misses the identity")
        g, h = np.divmod(self.codes, len(table.elems))
        inverses = _encode(table, table.inv[g], table.inv[h])
        if (_positions(self.codes, inverses) < 0).any():
            raise ValueError("subgroup not closed under inverses")
        if (_positions(self.codes, self._products()) < 0).any():
            raise ValueError("subgroup not closed under products")

    def _check_character(self):
        chi = self.chars
        products = chi[_positions(self.codes, self._products())]
        bad = np.argwhere(products != (chi[:, None] + chi[None, :]) % self.params.e)
        if len(bad):
            a, b = (self._pairs()[k] for k in bad[0])
            raise CharacterIllDefined(f"character is not a homomorphism at {a} * {b}")

    # -------------------------------------------------------------- views

    def _pairs(self) -> list:
        """The elements as (g, h) pairs of G-elements, in code order."""
        elems = group_table(self.params).elems
        n = len(elems)
        return [(elems[c // n], elems[c % n]) for c in self.codes.tolist()]

    def _char_at(self, a, b) -> int:
        table = group_table(self.params)
        code = table.index[a] * len(table.elems) + table.index[b]
        pos = int(self.codes.searchsorted(code))
        if pos == len(self.codes) or self.codes[pos] != code:
            raise KeyError((a, b))
        return int(self.chars[pos])

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self._pairs())

    @cached_property
    def character(self):
        if self.chars is None:
            return None
        return MappingProxyType(dict(zip(self._pairs(), self.chars.tolist())))

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


def _shape(params, tag, elements, character) -> SubgroupGG:
    """A constructor's subgroup, its closure checked once per code array.

    A plain shape has its closure checked here, and `_shape_tags` builds
    each one once.  A shape with a character takes its closure from the
    plain shape with the same codes, which `_shape_tags` holds, so only
    its character is checked.
    """
    if character is None:
        return SubgroupGG.from_pairs(params, tag, elements)
    sub = SubgroupGG._encode(params, tag, elements, character)
    if sub.codes.tobytes() not in _shape_tags(params):
        sub._check_subgroup()
    sub._check_character()
    return sub


def _tilde(params, i, unit, g):
    """The automorphism of D_i E extending multiplication by the unit."""
    x, r = g
    return (unit * x % params.pn, r)


def subgroup_exe(params, lam=None, mu=None) -> SubgroupGG:
    """E x E; with characters, carries (rho, sigma) -> lam(rho) - mu(sigma)."""
    elements = [((0, r), (0, s)) for r in params.subgroup_E for s in params.subgroup_E]
    character = None
    if lam is not None:
        character = {
            ((0, r), (0, s)): (params.char_value(lam, r) - params.char_value(mu, s))
            % params.e
            for r in params.subgroup_E
            for s in params.subgroup_E
        }
    return _shape(params, (TAG_EXE,), elements, character)


def subgroup_exone(params, lam=None) -> SubgroupGG:
    elements = [((0, r), params.identity) for r in params.subgroup_E]
    character = None
    if lam is not None:
        character = {
            ((0, r), params.identity): params.char_value(lam, r)
            for r in params.subgroup_E
        }
    return _shape(params, (TAG_EXONE,), elements, character)


def subgroup_onexe(params, mu=None) -> SubgroupGG:
    elements = [(params.identity, (0, s)) for s in params.subgroup_E]
    character = None
    if mu is not None:
        character = {
            (params.identity, (0, s)): params.char_value(mu, s)
            for s in params.subgroup_E
        }
    return _shape(params, (TAG_ONEXE,), elements, character)


def subgroup_diag_p(params, i, unit) -> SubgroupGG:
    """Twisted diagonal of D_i: {(unit*y, y) : y in D_i}."""
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    elements = [((unit * y % params.pn, 1), (y, 1)) for y in params.d_subgroup(i)]
    return _shape(params, (TAG_DIAG_P, i, unit % params.p**i), elements, None)


def subgroup_diag_pe(params, i, unit, lam=None) -> SubgroupGG:
    """Twisted diagonal of D_i E; with a character it is lam on the E part."""
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    elements = []
    character = {} if lam is not None else None
    for g in params.die_elements(i):
        pair = (_tilde(params, i, unit, g), g)
        elements.append(pair)
        if character is not None:
            character[pair] = params.char_value(lam, g[1])
    return _shape(params, (TAG_DIAG_PE, i, unit % params.p**i), elements, character)


# --------------------------------------------------------- shape recognition


def recognize_shape(params, codes) -> tuple:
    """The tag of the shape with exactly these sorted pair codes, else Explicit."""
    return _shape_tags(params).get(codes.tobytes(), (TAG_EXPLICIT,))


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


class SubgroupStack:
    """Subgroups of G x G of one order, one per row of 2-D codes and chars.

    Rows are the subgroups' sorted code arrays; `chars` is None unless
    every subgroup carries a character.
    """

    def __init__(self, params, codes, chars):
        self.params = params
        self.codes = codes
        self.chars = chars

    @classmethod
    def of(cls, subgroups) -> "SubgroupStack":
        chars = None
        if all(x.chars is not None for x in subgroups):
            chars = np.stack([x.chars for x in subgroups])
        return cls(subgroups[0].params, np.stack([x.codes for x in subgroups]), chars)

    def __len__(self):
        return len(self.codes)


def star(xs: SubgroupStack, y: SubgroupGG) -> list:
    """The composition subgroups {(g, k) : (g, h) in X, (h, k) in Y}, X a row of xs.

    One join over all rows.  When both sides carry characters a row's
    result carries the sum through any connecting element; a row where
    two connecting elements disagree gets a CharacterIllDefined in place
    of its subgroup.
    """
    if xs.params != y.params:
        raise ParamsMismatch("star of subgroups over different params")
    params = y.params
    table = group_table(params)
    order = len(table.elems)
    x = xs.codes.ravel()
    xh, yh = x % order, y.codes // order
    # y is sorted by code, hence by its first coordinate: join on h
    lo = yh.searchsorted(xh, "left")
    counts = yh.searchsorted(xh, "right") - lo
    xi = np.repeat(np.arange(len(x)), counts)
    yi = np.arange(len(xi)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    # one sort by (row, code): row r's codes are offset by r * |G x G|
    row_g = xi // xs.codes.shape[1] * order + x[xi] // order
    keys = row_g * order + y.codes[yi] % order
    sort = keys.argsort(kind="stable")
    keys = keys[sort]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    chars = None
    if xs.chars is not None and y.chars is not None:
        chars = ((xs.chars.ravel()[xi] + y.chars[yi]) % params.e)[sort]
        clash = keys[np.flatnonzero(~first[1:] & (chars[1:] != chars[:-1]))]
        chars = chars[first]
    square = order * order
    row_of, codes = np.divmod(keys[first], square)
    bounds = row_of.searchsorted(np.arange(len(xs) + 1)).tolist()
    out = [
        SubgroupGG(
            params,
            recognize_shape(params, codes[start:stop]),
            codes[start:stop],
            None if chars is None else chars[start:stop],
        )
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    if chars is not None:
        # the first clash of each row, in code order
        for key in clash[::-1].tolist():
            row, code = divmod(key, square)
            g, k = divmod(code, order)
            out[row] = CharacterIllDefined(
                f"connecting elements disagree at {(table.elems[g], table.elems[k])}"
            )
    return out


def conj(s: GGPair, x: SubgroupGG) -> SubgroupGG:
    """Conjugate a subgroup of G x G by the pair s, transporting characters."""
    table = group_table(x.params)
    s1, s2 = table.index[s[0]], table.index[s[1]]
    g, h = np.divmod(x.codes, len(table.elems))
    codes = _encode(
        table,
        table.mul[table.mul[s1, g], table.inv[s1]],
        table.mul[table.mul[s2, h], table.inv[s2]],
    )
    order = codes.argsort()
    codes = codes[order]
    chars = x.chars[order] if x.chars is not None else None
    return SubgroupGG(x.params, recognize_shape(x.params, codes), codes, chars)


# --------------------------------------------------------------------------
# index tables and double cosets
#
# Elements of G are indexed in lexicographic (x, r) order; index 0 is the
# identity.  The multiplication table lets the subgroup kernels above and
# the brute-force scans below run as numpy index arithmetic, which keeps
# them exact.
# --------------------------------------------------------------------------


class GroupTable:
    def __init__(self, params: ModelParams):
        self.params = params
        self.elems = list(params.g_elements())
        self.index = {g: i for i, g in enumerate(self.elems)}
        self.mul = np.array(
            [[self.index[params.g_mul(a, b)] for b in self.elems] for a in self.elems],
            dtype=np.int32,
        )
        self.inv = np.array(
            [self.index[params.g_inv(a)] for a in self.elems], dtype=np.int32
        )

    def subgroup_indices(self, level: int) -> np.ndarray:
        members = self.params.die_elements(level)
        return np.array(sorted(self.index[g] for g in members), dtype=np.int32)


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
