"""Independent multiplication oracle via induced-module composition.

Products of standard basis classes are recomputed from first principles:
each factor is the class induced from an explicit subgroup of G x G with
a one-dimensional character, and the product decomposes as a sum over
double cosets of induced star-product modules.  Every multiplicity here
arises from actual coset enumeration; the closed-form counts used by
tsring.tring are never consulted, so agreement of the two paths is a
genuine cross-check.

Subgroups are the pair-code arrays of tsring.groupmodel: the kernel
intersection, conjugation, star products and character lookups below are
numpy searches and gathers, and only the named constructors check laws.

The subgroups met along the way all canonicalize into five shapes:
E x E, E x 1, 1 x E, and the twisted diagonals of D_k and of D_k E.
Anything else raises UnrecognizedShape, which is a hard failure worth
surfacing rather than papering over.

One subtlety: the star-product module is a tensor product over the
connecting subgroup k(X, Y) = k_2(X) ∩ k_1(Y).  When the two characters
restrict differently to that subgroup the tensor product collapses to
zero and the double coset contributes nothing; this is what makes the
projective-times-projective count come out one lower when the middle
characters disagree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import UnrecognizedShape
from .groupmodel import (
    TAG_DIAG_P,
    TAG_DIAG_PE,
    TAG_EXE,
    TAG_EXONE,
    TAG_EXPLICIT,
    TAG_ONEXE,
    ModelParams,
    SubgroupGG,
    _positions,
    canonical_coset,
    conj,
    double_cosets_in_d,
    star,
    subgroup_diag_pe,
    subgroup_exe,
)
from .tring import NonProj, ProjPair


class MackeyOracle:
    """Per-model caches for the oracle computation."""

    def __init__(self, params: ModelParams):
        self.params = params
        self._subgroups: dict = {}

    # ------------------------------------------------------------- factors

    def subgroup_of_basis(self, b) -> SubgroupGG:
        """The inducing subgroup of G x G, with its linear character."""
        if b not in self._subgroups:
            params = self.params
            if isinstance(b, ProjPair):
                sub = subgroup_exe(params, lam=b.lam, mu=b.mu)
            else:
                sub = subgroup_diag_pe(params, b.level, b.alpha, lam=b.lam)
            self._subgroups[b] = sub
        return self._subgroups[b]

    @staticmethod
    def _level_of(b) -> int:
        return 0 if isinstance(b, ProjPair) else b.level

    # -------------------------------------------------------- star modules

    def star_module(self, x: SubgroupGG, y: SubgroupGG):
        """Star product with the tensor-product character, or None if zero.

        The middle subgroup k(X, Y) acts on the left factor through its
        second coordinate (inverted) and on the right factor through its
        first coordinate; the tensor product over it vanishes unless the
        two scalar actions agree.
        """
        order = self.params.group_order
        # (1, h) in X are the codes below |G|; (h, 1) in Y the multiples of |G|
        x_right = x.codes[: x.codes.searchsorted(order)]
        y_left = np.flatnonzero(y.codes % order == 0)
        ix = _positions(x_right, y.codes[y_left] // order)
        middle = ix >= 0
        left_action = (-x.chars[ix[middle]]) % self.params.e
        if (left_action != y.chars[y_left[middle]]).any():
            return None
        return star(x, y)

    # ----------------------------------------------------- canonicalization

    def canonicalize(self, z: SubgroupGG) -> SubgroupGG:
        """Bring a star-product subgroup into one of the five shapes.

        Literal recognition is the fast path.  Otherwise search for a
        conjugating pair inside (D x D) Delta(E), which normalizes every
        twisted diagonal; the class of the induced module is unchanged.
        """
        if z.tag[0] != TAG_EXPLICIT:
            return z
        d = range(self.params.pn)
        for z1, z2, r in product(d, d, self.params.subgroup_E):
            moved = conj(((z1, r), (z2, r)), z)
            if moved.tag[0] != TAG_EXPLICIT:
                return moved
        raise UnrecognizedShape(
            f"subgroup of order {len(z)} fits no known shape"
        )

    # ------------------------------------------------------- classification

    def classify_induced(self, z: SubgroupGG) -> dict:
        """Decompose the class induced from a recognized-shape subgroup."""
        params = self.params
        e = params.e
        chi = z._char_at
        rho = (0, params.e_generator)
        ident = params.identity
        tag = z.tag[0]
        if tag == TAG_EXE:
            lam = chi(rho, ident) if e > 1 else 0
            kappa = chi(ident, rho) if e > 1 else 0
            return {ProjPair(lam, (-kappa) % e): 1}
        if tag == TAG_EXONE:
            lam = chi(rho, ident) if e > 1 else 0
            return {ProjPair(lam, nu): 1 for nu in range(e)}
        if tag == TAG_ONEXE:
            kappa = chi(ident, rho) if e > 1 else 0
            return {ProjPair(nu, (-kappa) % e): 1 for nu in range(e)}
        if tag == TAG_DIAG_PE:
            _, level, unit = z.tag
            step = params.p ** (params.n - level)
            if chi((unit * step % params.pn, 1), (step, 1)) != 0:
                raise UnrecognizedShape("nontrivial character on a p-element")
            lam = chi(rho, rho) if e > 1 else 0
            rep = canonical_coset(params, level, unit).rep
            return {NonProj(level, rep, lam): 1}
        if tag == TAG_DIAG_P:
            _, level, unit = z.tag
            if z.chars.any():
                raise UnrecognizedShape("nontrivial character on a p-group")
            rep = canonical_coset(params, level, unit).rep
            return {NonProj(level, rep, nu): 1 for nu in range(e)}
        raise UnrecognizedShape(f"cannot classify tag {z.tag}")

    # ------------------------------------------------------------- product

    def oracle_mult(self, a, b) -> dict:
        """Structure constants of a * b recomputed by coset enumeration."""
        reps = double_cosets_in_d(
            self.params, self._level_of(a), self._level_of(b)
        )
        return self.oracle_mult_with_reps(a, b, reps)

    def oracle_mult_with_reps(self, a, b, reps) -> dict:
        """Same as oracle_mult but with caller-chosen coset representatives."""
        params = self.params
        x = self.subgroup_of_basis(a)
        y = self.subgroup_of_basis(b)
        out: dict = {}
        for t in reps:
            y_t = conj((t, params.identity), y)
            summand = self.star_module(x, y_t)
            if summand is None:
                continue
            for basis_elem, mult in self.classify_induced(
                self.canonicalize(summand)
            ).items():
                out[basis_elem] = out.get(basis_elem, 0) + mult
        return out


@lru_cache(maxsize=None)
def oracle(params: ModelParams) -> MackeyOracle:
    return MackeyOracle(params)

