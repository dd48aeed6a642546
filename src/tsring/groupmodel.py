"""The group G = D ⋊ E of `tsring.model` and the subgroup calculus of G x G.

Group elements are pairs (x, r) with x in Z/p^n and r a unit in E,
multiplying by

    (x, r) * (y, s) = (x + r*y mod p^n, r*s mod p^n).

The module implements what bimodule computations need: canonical
automorphism cosets, E-hat characters (written additively as Z/e),
explicit subgroups of G x G with shape tags and linear characters, double
cosets, star products, and conjugation.

Products and conjugates run on index arrays in closed form
(GroupTable); conjugation is one affine map per coordinate,
(a, rho)(y, r)(a, rho)^-1 = (rho*y + (1 - r)*a, r).

A subgroup of G x G is a sorted int64 array of pair codes g*|G| + h
(indices as in GroupTable) with an aligned int64 array of character
values mod e; construction, conjugation, star products and shape
recognition are numpy index arithmetic, gathers, joins and lookups on
them.  Each shape's code set is certified once per process, from its
closed-form generators S (at most two): 1 lies in H, H*s lies in H and
the orbit of 1 under right multiplication by S covers H.  Each character
on it is certified by chi(1) = 0 and chi(h*s) = chi(h) + chi(s); that is
|S|*|H| lookups.  Star products and conjugates of subgroups are
subgroups by construction, untagged.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadLevel, BadOrder, CharacterIllDefined, ParamsMismatch
from .exactarith import as_matrix
from .model import AutCoset, ModelParams, _pi_e_image

GElement = tuple  # (x, r) with x in Z/p^n and r a unit lying in E
GGPair = tuple  # (g, h) with g, h GElements


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


def _closed_form(table, tag) -> tuple:
    """Index arrays (g, h) of the shape's pairs, and its closed-form generators.

    A twisted diagonal {((unit*x, r), (x, r))} runs over x in D_i and r in E
    (TAG_DIAG_PE) or r = 1 (TAG_DIAG_P); it is generated by the image of the
    generator p^(n-i) of D_i and, with E, by (epsilon, epsilon).
    """
    params, e, eps = table.params, table.params.e, table.eps
    # (0, r) has index rank(r)
    if tag[0] == TAG_EXE:
        g, h = np.divmod(np.arange(e * e), e)
        return g, h, [(eps, 0), (0, eps)]
    if tag[0] == TAG_EXONE:
        return np.arange(e), np.zeros(e, dtype=np.int64), [(eps, 0)]
    if tag[0] == TAG_ONEXE:
        return np.zeros(e, dtype=np.int64), np.arange(e), [(0, eps)]
    kind, i, unit = tag
    if not 1 <= i <= params.n:
        raise BadLevel(f"level {i} outside 1..{params.n}")
    step = params.p ** (params.n - i)
    ranks = np.arange(e if kind == TAG_DIAG_PE else 1)
    x = np.arange(0, params.pn, step)[:, None]
    g = (unit * x % params.pn * e + ranks).ravel()
    h = (x * e + ranks).ravel()
    gens = [(unit * step % params.pn * e, step * e)]
    if kind == TAG_DIAG_PE:
        gens.append((eps, eps))
    return g, h, gens


@lru_cache(maxsize=None)
def _certified(params, tag) -> tuple:
    """Sorted codes of the shape, its generators and their successor
    positions; certified once per process, shared by its characters."""
    table = group_table(params)
    g, h, gens = _closed_form(table, tag)
    codes = np.sort(_encode(table, g, h))
    codes.flags.writeable = False
    return codes, gens, _certify(table, codes, gens)


def _certify(table, codes, gens) -> list:
    """Raise unless the sorted codes are the subgroup the generators
    generate; return the successor positions h -> h*s of each generator s.

    1 in H and H*s in H for each generator s put <S> inside H; the orbit of
    1 under right multiplication by S, closed by pointer doubling on the
    successor permutations, then covers H.
    """
    if not len(codes) or codes[0] != 0:
        raise ValueError("subgroup misses the identity")
    g, h = np.divmod(codes, len(table.elems))
    steps = []
    for s1, s2 in gens:
        step = _positions(codes, _encode(table, table.product(g, s1), table.product(h, s2)))
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
    return steps


def _check_character(table, codes, chars, gens, steps):
    """Raise unless chi(1) = 0 and chi(h*s) = chi(h) + chi(s) for each
    generator s; then chi is a homomorphism, by induction on the length of
    a word in S."""
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


def _shape(params, tag, weights=None) -> SubgroupGG:
    """The shape of the tag; with weights (a, b), the character
    a*dlog(r) + b*dlog(s) mod e at ((x, r), (y, s)), certified on it."""
    codes, gens, steps = _certified(params, tag)
    chars = None
    if weights is not None:
        table = group_table(params)
        (a, b), e = weights, params.e
        g, h = np.divmod(codes, len(table.elems))
        chars = (a * table.dlog[g % e] + b * table.dlog[h % e]) % e
        _check_character(table, codes, chars, gens, steps)
    return SubgroupGG(params, tag, codes, chars)


def subgroup_exe(params, lam=None, mu=None) -> SubgroupGG:
    """E x E; with characters, carries (rho, sigma) -> lam(rho) - mu(sigma)."""
    return _shape(params, (TAG_EXE,), None if lam is None else (lam, -mu))


def subgroup_diag_pe(params, i, unit, lam=None) -> SubgroupGG:
    """Twisted diagonal of D_i E; with a character it is lam on the E part."""
    return _shape(params, (TAG_DIAG_PE, i, unit % params.p**i), None if lam is None else (0, lam))


# --------------------------------------------------------- shape recognition


def recognize_shape(params, codes) -> tuple | None:
    """The tag of the shape with exactly these sorted pair codes, else None;
    a tag is certified the first time it is returned."""
    tag = _shape_tags(params).get(codes.tobytes())
    if tag is not None:
        _certified(params, tag)
    return tag


@lru_cache(maxsize=None)
def _shape_tags(params) -> dict:
    """Code bytes -> tag of every shape, from the closed forms; the first
    listed wins at e = 1.  recognize_shape certifies a tag it returns."""
    table = group_table(params)
    tags = [(TAG_EXE,), (TAG_EXONE,), (TAG_ONEXE,)]
    for i in range(params.n, 0, -1):
        for unit in range(1, params.p**i):
            if unit % params.p:
                tags += [(TAG_DIAG_P, i, unit), (TAG_DIAG_PE, i, unit)]
    codes = lambda tag: np.sort(_encode(table, *_closed_form(table, tag)[:2]))
    return {codes(tag).tobytes(): tag for tag in reversed(tags)}


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
    g, h = np.divmod(x.codes, len(table.elems))
    codes = _encode(table, table.conjugate(s[0], g), table.conjugate(s[1], h))
    order = codes.argsort()
    codes = codes[order]
    chars = None if x.chars is None else x.chars[order]
    return SubgroupGG(x.params, None, codes, chars)


# --------------------------------------------------------------------------
# index tables and double cosets
#
# Elements of G are indexed in lexicographic (x, r) order; index 0 is the
# identity.  The law (x, r)(y, s) = (x + r*y mod p^n, r*s) runs on index
# arrays from tables of O(|G|) entries, so the subgroup kernels above are
# exact numpy index arithmetic and no |G| x |G| table is built.
#
# The double cosets need no table either.  (a, r)(x, 1)(b, s) lies in D
# only when s = r^-1, and then it is a + r*x + r*b.  So the part of
# D_i E (x, 1) D_j E inside D is E*x + D_m, m = max(i, j), and its
# x-coordinates are those of the whole double coset.  Every double coset
# meets D, as (y, r) = (y, 1)(0, r).  The double cosets are therefore the
# E-orbits on D/D_m, of order q = p^(n - m).
# --------------------------------------------------------------------------


class GroupTable:
    """G on indices x*e + rank(r) of (x, r), with the law in closed form.

    rank(r) is the position of r in the sorted E and dlog[rank(r)] its
    discrete log to the base epsilon, the generator of E.  `scaled` holds
    r*y mod p^n by rank of r and `rank_mul` the product of ranks.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        pn, e, units = params.pn, params.e, params.subgroup_E
        self.elems = [(x, r) for x in range(pn) for r in units]
        self.index = {g: i for i, g in enumerate(self.elems)}
        self.rank = {r: k for k, r in enumerate(units)}
        self.eps = self.rank[params.e_generator]  # the index of (0, epsilon)
        self.rank_mul = as_matrix([[self.rank[r * s % pn] for s in units] for r in units])
        powers = [self.rank[pow(params.e_generator, j, pn)] for j in range(e)]
        self.dlog = np.argsort(powers)  # inverts j -> rank(epsilon^j)
        self.units = np.array(units, dtype=np.int64)
        self.scaled = self.units[:, None] * np.arange(pn) % pn

    def product(self, g, h) -> np.ndarray:
        """Indices of g*h, elementwise: (x, r)(y, s) = (x + r*y, r*s)."""
        e = self.params.e
        (x, k), (y, l) = np.divmod(g, e), np.divmod(h, e)
        return (x + self.scaled[k, y]) % self.params.pn * e + self.rank_mul[k, l]

    def conjugate(self, u: GElement, g) -> np.ndarray:
        """Indices of u*g*u^-1 for the indices g, one affine map:
        (a, rho)(y, r)(a, rho)^-1 = (rho*y + (1 - r)*a, r)."""
        if u == self.params.identity:
            return g
        (a, rho), e = u, self.params.e
        y, k = np.divmod(g, e)
        return (self.scaled[self.rank[rho], y] + (1 - self.units[k]) * a) % self.params.pn * e + k


@lru_cache(maxsize=None)
def group_table(params: ModelParams) -> GroupTable:
    return GroupTable(params)


@lru_cache(maxsize=None)
def double_cosets_in_d(params: ModelParams, i: int, j: int) -> tuple[GElement, ...]:
    """The least in-D member of each (D_i E, D_j E) double coset, ascending:
    (x, 1) for the x in [0, q) with x = min over u in E of u*x mod q."""
    if not (0 <= i <= params.n and 0 <= j <= params.n):
        raise BadLevel("levels outside range")
    q = params.p ** (params.n - max(i, j))
    x = np.arange(q)
    least = (np.array(params.subgroup_E)[:, None] * x % q).min(axis=0)
    return tuple((t, 1) for t in np.flatnonzero(least == x).tolist())
