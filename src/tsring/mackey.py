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

`oracle_mult` enumerates one pair: for each double-coset representative
t, the right factor's subgroup is conjugated by (t, 1), and the star
module with the left factor's is zero-tested, joined, clash-checked and
classified (memoised) once `canonicalize` has recognized its shape.

`rows` gives every product from (e + n)^2 enumerated pairs.  Twisting one
side of a bimodule commutes with the tensor product over kG, for an
automorphism theta of G and for a linear character chi of G/D alike.  On
an inducing subgroup a left twist maps the first coordinates by theta, or
adds chi of the first coordinate to the character; the double cosets and
connecting subgroups stay.  With theta_u(x, r) = (u x, r), u generating
the units mod p^n, and chi(x, r) = dlog(r), each side has e + n orbits,
and every product is a representative pair's moved by a composite twist.
The oracle finds each twist's basis permutation by twisting and
classifying every inducing subgroup, and checks a sample of twisted
products by enumerating them.

Every summand is literally one of five shapes: E x E, E x 1, 1 x E, and
the twisted diagonals of D_k and of D_k E.  The inducing subgroups are
literal shapes, and at t = 0 their star products are too: twisted
diagonals compose to a twisted diagonal, and E x E absorbs the others.
The representative t from `double_cosets_in_d` is the least in-D member
of its (D_i E, D_j E) double coset, so t = 0 or t lies outside
D_max(i,j).  Conjugating by (t, 1) moves (y, s) to (y + (1 - s) t, s),
so a pair of the star product through some s != 1 needs (1 - s) t in
D_max(i,j); as 1 - s is a unit mod p, that forces t = 0.  For t != 0
only s = 1 joins, which leaves literal shapes again.  A twist moves a
literal shape to a literal shape.  So `canonicalize` only looks a
summand up, and one that fits no shape raises UnrecognizedShape, which
the check reports as inconclusive.

One subtlety: the star-product module is a tensor product over the
connecting subgroup k(X, Y) = k_2(X) ∩ k_1(Y).  When the two characters
restrict differently to that subgroup the tensor product collapses to
zero and the double coset contributes nothing; this is what makes the
projective-times-projective count come out one lower when the middle
characters disagree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CharacterIllDefined, TransportFailed, UnrecognizedShape
from .groupmodel import (
    TAG_DIAG_P,
    TAG_DIAG_PE,
    TAG_EXE,
    TAG_EXONE,
    TAG_ONEXE,
    SubgroupGG,
    _positions,
    canonical_coset,
    conj,
    double_cosets_in_d,
    group_table,
    recognize_shape,
    star,
    subgroup_diag_pe,
    subgroup_exe,
)
from .model import ModelParams, NonProj, ProjPair, basis_label
from .tring import tring

# what an enumeration or a twist may raise; the check reports it inconclusive
ORACLE_ERRORS = (UnrecognizedShape, CharacterIllDefined, TransportFailed)


class MackeyOracle:
    """Per-model caches for the oracle computation."""

    def __init__(self, params: ModelParams):
        self.params = params
        # the basis only, for class indices; never its multiplication
        self._ring = tring(params)
        self._subgroups: dict = {}
        self._classified: dict = {}  # (tag, char bytes) -> terms
        self._char_dtype = np.min_scalar_type(params.e - 1)

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

    # -------------------------------------------------------- star modules

    def star_module(self, x: SubgroupGG, y: SubgroupGG):
        """Star product of x and y with the tensor-product character, or
        None when the module is zero.

        The middle subgroup k(X, Y) acts on the left factor through its
        second coordinate (inverted) and on the right factor through its
        first coordinate; the tensor product over it vanishes unless the
        two scalar actions agree.
        """
        e, order = self.params.e, self.params.group_order
        # (1, h) in X are the codes below |G|; (h, 1) in Y the multiples of it
        y_left = np.flatnonzero(y.codes % order == 0)
        ix = _positions(x.codes[: x.codes.searchsorted(order)], y.codes[y_left] // order)
        middle = ix >= 0
        if ((-x.chars[ix[middle]]) % e != y.chars[y_left[middle]]).any():
            return None
        return star(x, y)

    # ----------------------------------------------------- canonicalization

    def canonicalize(self, z: SubgroupGG) -> SubgroupGG:
        """z tagged with its literal shape, or UnrecognizedShape.

        The package's one shape recognition: every summand is literally a
        shape (module docstring), so no conjugate of z is searched.
        """
        tag = recognize_shape(self.params, z.codes)
        if tag is None:
            raise UnrecognizedShape(f"subgroup of order {len(z)} fits no known shape")
        return SubgroupGG(self.params, tag, z.codes, z.chars)

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

    def _terms(self, z: SubgroupGG) -> list:
        """(basis index, multiplicity) of the class induced from a summand."""
        z = self.canonicalize(z)
        key = (z.tag, z.chars.astype(self._char_dtype).tobytes())
        terms = self._classified.get(key)
        if terms is None:
            index = self._ring.index
            terms = [(index[c], m) for c, m in self.classify_induced(z).items()]
            self._classified[key] = terms
        return terms

    def oracle_mult(self, a, b) -> dict:
        """Structure constants of a * b recomputed by coset enumeration.

        For each representative t of `double_cosets_in_d` of the two levels,
        the star module of X_a with (t, 1) Y_b (t, 1)^-1 is classified; the
        UnrecognizedShape or CharacterIllDefined of the first failing
        representative is raised.
        """
        params = self.params
        level = lambda c: 0 if isinstance(c, ProjPair) else c.level
        x, y = self.subgroup_of_basis(a), self.subgroup_of_basis(b)
        basis = self._ring.basis
        out: dict = {}
        for t in double_cosets_in_d(params, level(a), level(b)):
            z = self.star_module(x, conj((t, params.identity), y))
            if z is not None:
                for c, m in self._terms(z):
                    out[basis[c]] = out.get(basis[c], 0) + m
        return out

    # ------------------------------------------------------------ transport

    def twists(self) -> list:
        """The generating twists of either side, as (image of G, character
        shift), each an array over the indices of G or None.

        theta_u(x, r) = (u x, r) for u generating the units mod p^n: a
        primitive root, or -1 and 5 when p = 2 and n >= 3, where the units
        are not cyclic; none when u = 1.  chi(x, r) = dlog(r) when e > 1.
        """
        params = self.params
        x, k = np.divmod(np.arange(params.group_order), params.e)
        units = (-1, 5) if params.p == 2 and params.n >= 3 else (params.primitive_root,)
        out = [((u * x) % params.pn * params.e + k, None) for u in units if u % params.pn != 1]
        if params.e > 1:
            out.append((None, group_table(params).dlog[k]))
        return out

    def _twisted(self, z: SubgroupGG, side: int, image, shift) -> SubgroupGG:
        """z with coordinate `side` (0 left, 1 right) moved by `image` and
        the character at it added to z's."""
        order = self.params.group_order
        pair = list(np.divmod(z.codes, order))
        chars = z.chars
        if shift is not None:
            chars = (chars + shift[pair[side]]) % self.params.e
        if image is not None:
            pair[side] = image[pair[side]]
        codes = pair[0] * order + pair[1]
        at = codes.argsort()
        codes = codes[at]
        return SubgroupGG(self.params, None, codes, chars[at])

    def permutation(self, side: int, image, shift, errors: dict):
        """The basis permutation of one generating twist of one side, or None.

        Each inducing subgroup is twisted and classified; its image must be
        one class of multiplicity 1, and no two classes may share one.  A
        class that fails is recorded in `errors` at the least pair of its
        row (left) or column (right), and the twist is not used.
        """
        basis = self._ring.basis
        d = len(basis)
        sigma = np.full(d, -1)
        for c, b in enumerate(basis):
            try:
                terms = self._terms(self._twisted(self.subgroup_of_basis(b), side, image, shift))
                if len(terms) != 1 or terms[0][1] != 1:
                    raise TransportFailed(f"a twist of {basis_label(b)} is not one class")
                sigma[c] = terms[0][0]
            except ORACLE_ERRORS as exc:
                errors.setdefault(c if side else c * d, exc)
        at = sigma.argsort(kind="stable")
        repeats = at[1:][np.diff(sigma[at]) == 0]
        for c in repeats[sigma[repeats] >= 0].tolist():
            exc = TransportFailed(f"a twist of {basis_label(basis[c])} repeats an image")
            errors.setdefault(c if side else c * d, exc)
        return None if (sigma < 0).any() or len(repeats) else sigma

    def _orbits(self, perms):
        """rep[c], the least class of the orbit of c under the permutations,
        and twist[c], a composite of them that maps rep[c] to c, as a
        permutation of the classes."""
        d = len(self._ring.basis)
        rep = np.full(d, -1)
        twist = np.empty((d, d), dtype=np.int32)
        for c in range(d):
            if rep[c] >= 0:
                continue
            rep[c], twist[c], queue = c, np.arange(d), [c]
            for m in queue:
                for sigma in perms:
                    k = sigma[m]
                    if rep[k] < 0:
                        rep[k], twist[k] = c, sigma[twist[m]]
                        queue.append(k)
        return rep, twist

    def rows(self):
        """Every product e_a e_b, transported from representative pairs.

        Returns (errors, rows): errors maps a pair a * d + b to what makes
        it inconclusive, and rows yields, for a = 0, 1, ..., d - 1, the
        terms (b, class, coefficient) of the products e_a e_b.  A class
        whose twist fails is an error at the least pair of its row (left)
        or column (right); a representative pair that fails, at itself,
        the least pair of its two orbits, whose products it leaves out.
        The sample enumerates each twist of each representative against
        the first representative of the other side; a product that is not
        the twisted representative's is an error at that pair.
        """
        basis, index = self._ring.basis, self._ring.index
        d = len(basis)
        errors: dict = {}
        perms = [[self.permutation(side, *t, errors) for t in self.twists()] for side in (0, 1)]
        left, right = ([s for s in side if s is not None] for side in perms)
        (left_rep, left_twist), (right_rep, right_twist) = self._orbits(left), self._orbits(right)
        a_reps, b_reps = (np.flatnonzero(r == np.arange(d)).tolist() for r in (left_rep, right_rep))

        def product(a, b):
            """{class: coefficient} of e_a e_b by enumeration, or None with the error kept."""
            try:
                return {index[c]: m for c, m in self.oracle_mult(basis[a], basis[b]).items()}
            except ORACLE_ERRORS as exc:
                errors.setdefault(a * d + b, exc)

        # the pairs of two orbits past an earlier error cannot change the report
        found = {
            (a, b): product(a, b)
            for a in a_reps
            for b in b_reps
            if not errors or min(errors) > a * d + b
        }
        samples = [(sigma, a, b_reps[0], sigma[a], b_reps[0]) for sigma in left for a in a_reps]
        samples += [(sigma, a_reps[0], b, a_reps[0], sigma[b]) for sigma in right for b in b_reps]
        for sigma, a, b, ta, tb in samples:
            rep = found.get((a, b))
            got = None if rep is None else product(ta, tb)
            if got is not None and got != {int(sigma[c]): m for c, m in rep.items()}:
                pair = f"{basis_label(basis[a])} * {basis_label(basis[b])}"
                errors.setdefault(ta * d + tb, TransportFailed(f"a twist moves {pair} wrongly"))

        def rep_row(a):
            """(b, class, coefficient) of the terms of e_a e_b over all b, for a
            left representative a: the product with b's representative, moved
            by b's twist."""
            terms = [
                (b, c, m)
                for b, r in enumerate(right_rep.tolist())
                for c, m in (found.get((a, r)) or {}).items()
            ]
            cols, cls, coeff = np.array(terms, dtype=np.int64).reshape(-1, 3).T
            return cols, right_twist[cols, cls], coeff

        def transported():
            rows = {a: rep_row(a) for a in a_reps}
            for a, r in enumerate(left_rep.tolist()):
                cols, cls, coeff = rows[r]
                yield cols, left_twist[a, cls], coeff

        return errors, transported()


@lru_cache(maxsize=None)
def oracle(params: ModelParams) -> MackeyOracle:
    return MackeyOracle(params)
