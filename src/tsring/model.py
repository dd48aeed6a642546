"""The numpy-free part of the model G = D ⋊ E: its parameters, the
automorphism cosets of the levels and the canonical basis with its labels.

D is Z/p^n, written additively, and E the unique subgroup of order e of the
units (Z/p^n)^*, acting by multiplication.  The basis is pure combinatorics,
so `tsring basis` needs nothing else: this module imports only the standard
library and `tsring.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import BadLevel, BadOrder, NotPrime, TwoBlocked


def prime_factors(n: int) -> list:
    """The prime factors of n >= 1 with multiplicity, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + [n] if n > 1 else out


def is_prime(q: int) -> bool:
    return q >= 2 and prime_factors(q) == [q]


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
    def identity(self) -> tuple:
        return (0, 1)


def make_params(p: int, n: int, e: int) -> ModelParams:
    return ModelParams(p, n, e)


# --------------------------------------------------------------------------
# automorphism cosets
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


# --------------------------------------------------------------------------
# the canonical basis and its labels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjPair:
    """Class of the projective cover pair indexed by two characters."""

    lam: int
    mu: int


@dataclass(frozen=True)
class NonProj:
    """Non-projective indecomposable class at a level, coset, character."""

    level: int
    alpha: int  # canonical coset representative at this level
    lam: int


def build_basis(params: ModelParams) -> list:
    """P[lam, mu] in lexicographic order, then level by level the classes
    M[i, alpha, lam], alpha ascending over the least member of each coset.

    The units of a level are walked in order, skipping the members of
    cosets already listed, so each unit kept is the least of its coset.
    """
    e = params.e
    basis = [ProjPair(lam, mu) for lam in range(e) for mu in range(e)]
    for i in range(1, params.n + 1):
        listed = set()
        for unit in range(1, params.p**i):
            if unit % params.p and unit not in listed:
                listed.update(AutCoset(i, unit).members(params))
                basis.extend(NonProj(i, unit, lam) for lam in range(e))
    return basis


def basis_label(b) -> str:
    if isinstance(b, ProjPair):
        return f"P[{b.lam},{b.mu}]"
    return f"M[{b.level},{b.alpha},{b.lam}]"


def basis_from_label(text: str):
    kind, rest = text[0], text[1:]
    nums = [int(x) for x in rest.strip("[]").split(",")]
    if kind == "P":
        return ProjPair(*nums)
    if kind == "M":
        return NonProj(*nums)
    raise ValueError(f"bad basis label {text!r}")


def basis_to_json(b) -> dict:
    if isinstance(b, ProjPair):
        return {"type": "P", "lambda": str(b.lam), "mu": str(b.mu)}
    return {
        "type": "M",
        "i": str(b.level),
        "alpha": str(b.alpha),
        "lambda": str(b.lam),
    }


def basis_from_json(obj: dict):
    if obj["type"] == "P":
        return ProjPair(int(obj["lambda"]), int(obj["mu"]))
    if obj["type"] == "M":
        return NonProj(int(obj["i"]), int(obj["alpha"]), int(obj["lambda"]))
    raise ValueError(f"bad basis object {obj!r}")
