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

There is one path, stacked in both factors.  `products` takes left
factors a at one level and right factors b at one level, and runs the
(double-coset representative t, b) pairs in blocks: each y_b of a block
is conjugated by its (t, 1), one gather per t, and the connecting-
character test and the star join of all a with the whole block are one
`star_module` call.  The join rests on the equal-fibre fact of
`groupmodel.star`.  Each resulting summand is still zero-tested,
clash-checked, recognized literally, canonicalized when Explicit and
classified (memoised per shape tag and character), once per distinct
(codes, chars) summand of a block.  `sweep` runs every pair in chunks of
left rows, in basis order; `oracle_mult` is a one-row call.  Products
leave as flat int arrays, never per-pair dicts.

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

from .errors import CharacterIllDefined, UnrecognizedShape
from .groupmodel import (
    TAG_DIAG_P,
    TAG_DIAG_PE,
    TAG_EXE,
    TAG_EXONE,
    TAG_EXPLICIT,
    TAG_ONEXE,
    ModelParams,
    SubgroupGG,
    SubgroupStack,
    _positions,
    canonical_coset,
    conj,
    double_cosets_in_d,
    star,
    subgroup_diag_pe,
    subgroup_exe,
)
from .tring import NonProj, ProjPair, tring

# stacked left-factor codes per chunk of `MackeyOracle.sweep`, and matches
# sorted at a time where `groupmodel.star` sorts; (3,4,2)'s largest level,
# 54 rows of 162 codes, takes four chunks
ORACLE_CHUNK_ENTRIES = 2304

# entries of the (a row, (t, b) pair, a code) table of one join in
# `products`.  Each int64 temporary then stays under 128 KB, glibc's
# default mmap threshold, so it reuses freed heap and leaves the peak RSS
# of the check where it was.
ORACLE_JOIN_ENTRIES = 6 * ORACLE_CHUNK_ENTRIES


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

    @staticmethod
    def _level_of(b) -> int:
        return 0 if isinstance(b, ProjPair) else b.level

    # -------------------------------------------------------- star modules

    def star_module(self, xs: SubgroupStack, ys: SubgroupStack):
        """Star product of each row of xs with each row of ys, with the
        tensor-product character.

        The middle subgroup k(X, Y) acts on the left factor through its
        second coordinate (inverted) and on the right factor through its
        first coordinate; the tensor product over it vanishes unless the
        two scalar actions agree.  Returns None when every module is zero,
        else (live, products): the products q = x * len(ys) + y whose
        module is not zero, and `star` of the two stacks for those.
        """
        params = self.params
        order = params.group_order
        # (h, 1) in Y are the multiples of |G|; (1, h) in X has code h
        y_row, y_at = np.nonzero(ys.codes % order == 0)
        offsets = np.arange(len(xs))[:, None] * (order * order)
        h = ys.codes[y_row, y_at] // order
        ix = _positions((xs.codes + offsets).ravel(), h + offsets)
        left_action = (-xs.chars.ravel()[ix]) % params.e
        disagree = (ix >= 0) & (left_action != ys.chars[y_row, y_at])
        # every row of Y holds (1, 1), so each row owns a run of columns
        runs = np.flatnonzero(np.diff(y_row, prepend=-1))
        wanted = ~np.logical_or.reduceat(disagree, runs, axis=1)
        live = np.flatnonzero(wanted)
        if not live.size:
            return None
        return live, star(xs, ys, wanted, ORACLE_CHUNK_ENTRIES)

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

    def _terms(self, z: SubgroupGG) -> list:
        """(basis index, multiplicity) of the class induced from a summand."""
        if z.tag[0] == TAG_EXPLICIT:
            z = self.canonicalize(z)
        key = (z.tag, z.chars.astype(self._char_dtype).tobytes())
        terms = self._classified.get(key)
        if terms is None:
            index = self._ring.index
            terms = [(index[c], m) for c, m in self.classify_induced(z).items()]
            self._classified[key] = terms
        return terms

    def _block_terms(self, xs, ys):
        """Terms of the nonzero star modules of xs and ys, or None if there
        are none: (live, row, cls, coeff) arrays and {row: error}.

        Rows index `live`, the products q = x * len(ys) + y with a nonzero
        module.  Each distinct (codes, chars) summand is recognized,
        canonicalized and classified once; a clash or an UnrecognizedShape
        makes the row an error with no terms.
        """
        module = self.star_module(xs, ys)
        if module is None:
            return None
        live, summands = module
        clashes, data = summands.clashes, summands.values.tobytes()
        lo, hi = (summands.bounds[live + k] * summands.values.itemsize for k in (0, 1))
        # the bytes of its code * e + char name a summand; a clash is its own
        ids: dict = {}
        which = np.array(
            [
                ids.setdefault(clashes.get(q) or data[a:b], len(ids))
                for q, a, b in zip(live.tolist(), lo.tolist(), hi.tolist())
            ]
        )
        # the first row of each distinct summand
        first = np.empty(len(ids), dtype=np.int64)
        first[which[::-1]] = np.arange(len(which))[::-1]
        found = []
        for q in live[first].tolist():
            z = summands[q]
            try:
                found.append(z if isinstance(z, CharacterIllDefined) else self._terms(z))
            except UnrecognizedShape as exc:
                found.append(exc)
        failed = np.array([isinstance(t, Exception) for t in found])
        errors = {row: found[which[row]] for row in np.flatnonzero(failed[which]).tolist()}
        # distinct summand u owns the terms flat[offset[u]:offset[u] + size[u]]
        size = np.array([0 if bad else len(t) for t, bad in zip(found, failed)])
        offset = np.cumsum(size) - size
        flat = np.array(
            [term for t, bad in zip(found, failed) if not bad for term in t], dtype=np.int64
        ).reshape(-1, 2)
        n = size[which]
        rows = np.repeat(np.arange(len(which)), n)
        at = np.repeat(offset[which] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return live, rows, flat[at, 0], flat[at, 1], errors

    def products(self, left, right, reps=None):
        """Products e_a * e_b by coset enumeration, a in `left`, b in `right`.

        `left` and `right` are basis indices, each list inside one level;
        `reps` defaults to `double_cosets_in_d` of the two levels.  The
        (representative t, b) pairs run in blocks, t by t; each y_b of a
        block is conjugated by its (t, 1), one gather per t, and the block
        is joined with the stacked subgroups of all a in one `star` call.
        Returns (pair, cls, coeff, errors): one entry per term of one
        summand, with pair = a * d + b and cls a basis index, unsummed;
        errors maps a pair to the UnrecognizedShape or CharacterIllDefined
        of its first failing representative.
        """
        params = self.params
        basis = self._ring.basis
        d = len(basis)
        if reps is None:
            reps = double_cosets_in_d(
                params, self._level_of(basis[left[0]]), self._level_of(basis[right[0]])
            )
        xs = SubgroupStack.of([self.subgroup_of_basis(basis[a]) for a in left])
        ys = [self.subgroup_of_basis(basis[b]) for b in right]
        n = len(right)
        # the join's (a row, (t, b) pair, a code) table stays under the bound
        step = max(1, ORACLE_JOIN_ENTRIES // xs.codes.size)
        left, right = np.asarray(left), np.asarray(right)
        parts, errors = [], {}
        for lo in range(0, len(reps) * n, step):
            hi = min(lo + step, len(reps) * n)
            cols = right[np.arange(lo, hi) % n]
            stacks = []
            for t in range(lo // n, (hi - 1) // n + 1):
                # pairs t * n + k of the block, k from first to last
                first, last = max(lo - t * n, 0), min(hi - t * n, n)
                stacks.append(
                    conj((reps[t], params.identity), SubgroupStack.of(ys[first:last]))
                )
            block = SubgroupStack(
                params,
                np.concatenate([y.codes for y in stacks]),
                np.concatenate([y.chars for y in stacks]),
            )
            part = self._block_terms(xs, block)
            if part is None:
                continue
            live, rows, cls, coeff, failed = part
            pair = left[live // len(cols)] * d + cols[live % len(cols)]
            # rows run representative by representative for each pair
            for row, exc in failed.items():
                errors.setdefault(int(pair[row]), exc)
            parts.append((pair[rows], cls, coeff))
        if not parts:
            return (*(np.zeros(0, dtype=np.int64) for _ in range(3)), errors)
        return (*(np.concatenate(arrays) for arrays in zip(*parts)), errors)

    def sweep(self):
        """All d^2 products, one chunk of left factors at a time, in basis order.

        Yields (start, stop, products) for the basis rows start..stop-1
        against every column, products as `products` returns them.  A chunk
        holds at most ORACLE_CHUNK_ENTRIES stacked codes.
        """
        ring = self._ring
        levels = [
            [ring.index[b] for b in ring.level_basis(i)]
            for i in range(self.params.n + 1)
        ]
        for left in levels:
            order = len(self.subgroup_of_basis(ring.basis[left[0]]))
            step = max(1, ORACLE_CHUNK_ENTRIES // order)
            for lo in range(0, len(left), step):
                chunk = left[lo : lo + step]
                parts = [self.products(chunk, right) for right in levels]
                errors = {}
                for part in parts:
                    errors.update(part[3])
                arrays = (np.concatenate([part[k] for part in parts]) for k in range(3))
                yield chunk[0], chunk[-1] + 1, (*arrays, errors)

    def oracle_mult(self, a, b) -> dict:
        """Structure constants of a * b recomputed by coset enumeration."""
        return self.oracle_mult_with_reps(a, b, None)

    def oracle_mult_with_reps(self, a, b, reps) -> dict:
        """Same as oracle_mult but with caller-chosen coset representatives."""
        index = self._ring.index
        _, classes, coeffs, errors = self.products([index[a]], [index[b]], reps)
        if errors:
            raise next(iter(errors.values()))
        basis = self._ring.basis
        out: dict = {}
        for c, m in zip(classes.tolist(), coeffs.tolist()):
            out[basis[c]] = out.get(basis[c], 0) + m
        return out


@lru_cache(maxsize=None)
def oracle(params: ModelParams) -> MackeyOracle:
    return MackeyOracle(params)

