"""The bimodule class ring of the model G = D ⋊ E.

The standard basis has two kinds of classes: projective pairs P[lam, mu]
indexed by two additive characters of E, and non-projective classes
M[i, alpha, lam] indexed by a level 1 <= i <= n, a canonical coset of
automorphisms of D_i modulo the image of E, and one character.

Multiplication of basis elements is given by four closed-form rules whose
only inputs are the counts m_j = (p^(n-j) - 1)/e, addition of characters
mod e, and multiplication of automorphism cosets at the minimum level:

    P[a,b] * P[c,d]   = (m + [b == c]) P[a,d]
    P[a,b] * M[j,B,c] = P[a, b-c] + m_j * sum_nu P[a, nu]
    M[i,A,a] * P[c,d] = P[a+c, d]  + m_i * sum_nu P[nu, d]
    M[i,A,a] * M[j,B,b] = M[k, AB, a+b] + m_max(i,j) * sum_nu M[k, AB, nu]

with k = min(i, j) and AB the canonicalized product coset at level k.
M[n, 1, 0] is the two-sided identity.  Coefficients are computed from the
closed-form counts only; enumeration lives in the independent oracle
(tsring.mackey).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArithmeticBound, BadLevel, ParamsMismatch, ScalarMismatch
from .exactarith import _inverse, _max_abs, as_matrix, exact_dtype, residues
from .groupmodel import canonical_coset
from .model import AutCoset, ModelParams, NonProj, ProjPair, basis_label, basis_to_json, build_basis


class RingElement:
    """Element of the ring: one exact integer vector over a denominator.

    vec[k] / den is the coefficient of basis class k, in basis order, which
    is also the report order.  vec is an int64 array, or an array of Python
    ints when an operation's bound reaches 2^62 (`exact_dtype`); it returns
    to int64 once its entries fit.  Over Q, den > 0 is coprime to the
    entries (1 for zero), so equal elements have equal vec and den; over Z
    and F_q den = 1, and F_q entries are residues in [0, q).  The
    constructor normalises; a denominator over F_q is inverted mod q.
    Fractions appear only at the edges: `coeff`, `repr` and `to_json`.
    """

    __slots__ = ("ring", "scalar", "vec", "den")

    def __init__(self, ring, scalar, vec: np.ndarray, den=1):
        q = scalar.characteristic
        if q:
            vec = vec % q
            if den != 1:
                vec = vec.astype(exact_dtype(q * q)) * _inverse(den, scalar) % q
                den = 1
        elif den != 1:
            g = math.gcd(den, int(np.gcd.reduce(vec)))
            vec, den = vec // g, den // g
        if vec.dtype == object:
            vec = vec.astype(exact_dtype(_max_abs(vec)))
        self.ring = ring
        self.scalar = scalar
        self.vec = vec
        self.den = den

    def _require_compatible(self, other):
        if self.ring.params != other.ring.params:
            raise ParamsMismatch("elements over different model parameters")
        if self.scalar != other.scalar:
            raise ScalarMismatch(
                f"scalars {self.scalar.name} and {other.scalar.name}"
            )

    def coeff(self, b):
        v = int(self.vec[self.ring.index[b]])
        return Fraction(v, self.den) if self.den != 1 else v

    def is_zero(self) -> bool:
        return not self.vec.any()

    def restrict(self, positions: slice) -> RingElement:
        """The element with every coefficient outside `positions` set to 0."""
        vec = np.zeros_like(self.vec)
        vec[positions] = self.vec[positions]
        return RingElement(self.ring, self.scalar, vec, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring.params == other.ring.params
            and self.scalar == other.scalar
            and self.den == other.den
            and bool((self.vec == other.vec).all())
        )

    def __add__(self, other):
        self._require_compatible(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        # the multipliers a, b must fit the dtype too, also on a zero vector
        bound = max(_max_abs(self.vec), 1) * a + max(_max_abs(other.vec), 1) * b
        dtype = exact_dtype(bound)
        vec = self.vec.astype(dtype) * a + other.vec.astype(dtype) * b
        return RingElement(self.ring, self.scalar, vec, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """c * x for an int c, or a Fraction c over Q."""
        dtype = exact_dtype(max(_max_abs(self.vec), 1) * abs(c.numerator))
        vec = self.vec.astype(dtype) * c.numerator
        return RingElement(self.ring, self.scalar, vec, self.den * c.denominator)

    def __mul__(self, other):
        return self.ring.mult(self, other)

    def _terms(self):
        """(basis class, coefficient) of the nonzero coefficients, in basis order."""
        live = np.flatnonzero(self.vec)
        basis, den = self.ring.basis, self.den
        return [
            (basis[k], Fraction(v, den) if den != 1 else v)
            for k, v in zip(live.tolist(), self.vec[live].tolist())
        ]

    def to_json(self) -> list:
        return [{"basis": basis_to_json(b), "coeff": str(v)} for b, v in self._terms()]

    def __repr__(self):
        terms = [f"{v}*{basis_label(b)}" for b, v in self._terms()]
        return " + ".join(terms) if terms else "0"


class TRing:
    """Basis, multiplication table and derived structure for one model.

    The table of live terms (`structure_table`) is the only multiplication
    table: products, an element times the columns of a matrix (`products`)
    and the trace form are exact integer contractions over its terms, in
    int64 under a bound on the sums and in Python ints past it.
    They read an element's integer vector directly, and its denominator
    multiplies through.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.basis = build_basis(params)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.one_elem = NonProj(params.n, 1, 0)
        levels = [b.level if isinstance(b, NonProj) else 0 for b in self.basis]
        self._bounds = [bisect_left(levels, i) for i in range(params.n + 2)]
        self._structure_table = None
        self._int_gram = None
        # certified block data, built once per ring by tsring.blocks
        self.block_memo: dict = {}

    # ------------------------------------------------------------ structure

    def dimension(self) -> int:
        return len(self.basis)

    def level_range(self, i: int) -> slice:
        """Positions of the level-i classes (0: the projective pairs), in order."""
        if not 0 <= i <= self.params.n:
            raise BadLevel(f"level {i} outside 0..{self.params.n}")
        return slice(self._bounds[i], self._bounds[i + 1])

    def level_basis(self, i: int):
        return self.basis[self.level_range(i)]

    def ideal_le(self, i: int):
        """Basis of the ideal spanned by classes with vertex order <= p^i."""
        return self.basis[: self.level_range(i).stop]

    # ------------------------------------------------------- multiplication

    def mult_basis(self, a, b) -> dict:
        """Structure constants of a * b as a basis-to-int map, from the four
        rules one pair at a time: the reference the table is checked against."""
        params = self.params
        e = params.e
        out: dict = {}
        if isinstance(a, ProjPair) and isinstance(b, ProjPair):
            m = params.multiplicity
            coeff = m + 1 if a.mu == b.lam else m
            out[ProjPair(a.lam, b.mu)] = coeff
        elif isinstance(a, ProjPair) and isinstance(b, NonProj):
            mj = params.nontrivial_coset_count(b.level)
            out[ProjPair(a.lam, (a.mu - b.lam) % e)] = 1
            if mj:
                for nu in range(e):
                    key = ProjPair(a.lam, nu)
                    out[key] = out.get(key, 0) + mj
        elif isinstance(a, NonProj) and isinstance(b, ProjPair):
            mi = params.nontrivial_coset_count(a.level)
            out[ProjPair((a.lam + b.lam) % e, b.mu)] = 1
            if mi:
                for nu in range(e):
                    key = ProjPair(nu, b.mu)
                    out[key] = out.get(key, 0) + mi
        else:
            k = min(a.level, b.level)
            ml = params.nontrivial_coset_count(max(a.level, b.level))
            prod = canonical_coset(params, k, a.alpha * b.alpha % params.p**k)
            out[NonProj(k, prod.rep, (a.lam + b.lam) % e)] = 1
            if ml:
                for nu in range(e):
                    key = NonProj(k, prod.rep, nu)
                    out[key] = out.get(key, 0) + ml
        return {key: v for key, v in out.items() if v}

    def structure_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All structure constants as one table of live terms (start, cls, val).

        e_a * e_b = sum_s val[s] e_{cls[s]} over start[a * d + b] <= s <
        start[a * d + b + 1]: the nonzero terms of each basis product, the
        pairs a * d + b in order and each pair's terms in `mult_basis` order.
        Built once from the four rules of the module docstring and read
        through `terms`: the ring's only multiplication table.
        """
        if self._structure_table is None:
            self._structure_table = self._rule_table()
        return self._structure_table

    def terms(self, pairs: np.ndarray):
        """The live terms of the basis products numbered `pairs` (a * d + b).

        Returns (owner, cls, val), one entry per term: val[s] e_{cls[s]} is
        a term of the product numbered pairs[owner[s]], in the order of
        `pairs` and, within a pair, in `mult_basis` order.
        """
        start, cls, val = self.structure_table()
        lo = start[pairs]
        n = start[pairs + 1] - lo
        owner = np.repeat(np.arange(len(n)), n)
        at = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(n) - n), n)
        return owner, cls[at], val[at]

    def term_counts(self) -> np.ndarray:
        """counts[a, b]: the number of live terms of e_a e_b, read off the table."""
        d = len(self.basis)
        return np.diff(self.structure_table()[0]).reshape(d, d)

    @cached_property
    def coset_index(self) -> np.ndarray:
        """coset_index[i, u]: the index of M[i, coset of the unit u mod p^i, 0]."""
        params = self.params
        coset = np.zeros((params.n + 1, params.pn), dtype=np.int64)
        for b in self.basis[params.e**2 :: params.e]:  # M[i, alpha, 0], one per coset
            coset[b.level, AutCoset(b.level, b.alpha).members(params)] = self.index[b]
        return coset

    def _rule_table(self):
        """(start, cls, val) of the four rules, one left factor at a time.

        A product is t_lead + f * sum_nu t_nu over a family of e classes
        t_nu = base + stride * nu: t_lead with 1 + f first, then when f > 0
        the other nu in increasing order with f, as `mult_basis` lists
        them.  P * P is the one term m + [b == c].  A left factor's
        products fill one d x e row, whose nonzero coefficients are its
        live terms.  Lookup tables do the arithmetic mod e and on levels,
        and a row's temporaries are d x e: freed d x d temporaries and the
        first use of further numpy kernels both showed up in the peak RSS
        of small runs.
        """
        params = self.params
        e, d, basis = params.e, len(self.basis), self.basis
        P, M = slice(0, e * e), slice(e * e, d)
        # (0, lam, mu) of P[lam, mu] and (level, alpha, lam) of M[level, alpha, lam]
        rows = [(0, b.lam, b.mu) for b in basis[P]]
        rows += [(b.level, b.alpha, b.lam) for b in basis[M]]
        level, one, two = (np.array(col) for col in zip(*rows))
        chars, levels = range(e), range(params.n + 1)
        add = as_matrix([[(x + y) % e for y in chars] for x in chars])
        sub = as_matrix([[(x - y) % e for y in chars] for x in chars])
        pp = as_matrix([[params.multiplicity + (x == y) for y in chars] for x in chars])
        # column j of a family holds nu = order[j, lead]: the lead, then the
        # other nu in increasing order; only the lead's coefficient has the 1
        order = as_matrix([[x if j == 0 else j - 1 + (j > x) for x in chars] for j in chars])
        first = as_matrix([[int(j == 0)] for j in chars])
        count = [params.nontrivial_coset_count(j) for j in levels]
        high = as_matrix([[count[max(i, j)] for j in levels] for i in levels])
        low = as_matrix([[min(i, j) for j in levels] for i in levels])
        modulus = np.array([params.p**i for i in levels])
        cls, val = (np.zeros((d, e), dtype=np.int64) for _ in range(2))
        # start[1:] holds the term counts, row by row, until the running sum
        start = np.zeros(d * d + 1, dtype=np.int64)
        sizes = start[1:].reshape(d, d)
        classes, coeffs = [], []

        def put(cols, base, stride, lead, fam):
            cls[cols] = (base + stride * order[:, lead]).T
            val[cols] = (fam + first).T

        right = level[M]
        for a, (i, x, c) in enumerate(rows):
            if i == 0:
                # P[x,c] * P[y,z] = (m + [c == y]) P[x,z]; the P rows come
                # first, so the other columns of P still hold 0
                cls[P, 0] = x * e + two[P]
                val[P, 0] = pp[c, one[P]]
                # P[x,c] * M[j,B,z] = P[x, c-z] + m_j sum_nu P[x, nu]
                put(M, x * e, 1, sub[c, two[M]], high[0, right])
            else:
                # M[i,A,c] * P[y,z] = P[c+y, z] + m_i sum_nu P[nu, z]
                put(P, two[P], e, add[c, one[P]], count[i])
                # M[i,A,c] * M[j,B,z] = M[k, AB, c+z] + m_max(i,j) sum_nu M[k, AB, nu]
                k = low[i, right]
                base = self.coset_index[k, x * one[M] % modulus[k]]
                put(M, base, 1, add[c, two[M]], high[i, right])
            live = val != 0
            sizes[a] = np.count_nonzero(live, axis=1)
            classes.append(cls[live])
            coeffs.append(val[live])
        np.cumsum(start, out=start)
        return start, np.concatenate(classes), np.concatenate(coeffs)

    def mult(self, x: RingElement, y: RingElement) -> RingElement:
        """x * y as one contraction of the two supports through the table."""
        x._require_compatible(y)
        d = len(self.basis)
        ia, ib = np.flatnonzero(x.vec), np.flatnonzero(y.vec)
        owner, cls, val = self.terms((ia[:, None] * d + ib).ravel())
        dtype = exact_dtype(_max_abs(x.vec) * _max_abs(y.vec) * _max_abs(val) * len(cls))
        vals = np.outer(x.vec[ia].astype(dtype), y.vec[ib].astype(dtype)).ravel()[owner]
        vals *= val
        return RingElement(self, x.scalar, _segment_sum(d, cls, vals), x.den * y.den)

    def products(self, x: RingElement, Y: np.ndarray, side: str) -> np.ndarray:
        """den * (x * y_j) (side "left") or den * (y_j * x) ("right") in column j.

        y_j is column j of the integer d x k matrix Y, den the denominator of
        x; residues over F_q.  One gather per class a of the support of x,
        against the nonzero entries of Y: a term v e_c of e_a e_b (left) or
        e_b e_a (right) adds x_a Y[b, j] v at (c, j), in int64 under a running
        `exact_dtype` bound and in Python ints past it.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side {side!r} is not left or right")
        d, k = Y.shape
        rows, cols = np.nonzero(Y)
        entries = Y[rows, cols]
        out, bound = np.zeros(d * k, dtype=np.int64), 0
        for a in np.flatnonzero(x.vec).tolist():
            owner, cls, val = self.terms(a * d + rows if side == "left" else rows * d + a)
            xa = int(x.vec[a])
            bound += abs(xa) * _max_abs(entries) * _max_abs(val) * len(cls)
            out = out.astype(exact_dtype(bound), copy=False)
            np.add.at(out, cls * k + cols[owner], entries.astype(out.dtype)[owner] * val * xa)
        return residues(x.scalar, out).reshape(d, k)

    def noncommuting(self, x: RingElement) -> list:
        """The basis classes b with x * b != b * x, in basis order."""
        identity = np.eye(len(self.basis), dtype=np.int8)
        left, right = (self.products(x, identity, side) for side in ("left", "right"))
        return [self.basis[j] for j in np.flatnonzero((left != right).any(axis=0))]

    def quotient_mult(self, i: int, x: RingElement, y: RingElement) -> RingElement:
        """Product in the quotient by the vertex-order <= p^i ideal.

        The ideal's classes come first in basis order, so the quotient
        drops a prefix of the coefficients.
        """
        cut = self.level_range(i).stop
        if x.vec[:cut].any() or y.vec[:cut].any():
            raise ValueError("operands must be supported outside the ideal")
        return self.mult(x, y).restrict(slice(cut, None))

    # ----------------------------------------------------------- elements

    def zero(self, S) -> RingElement:
        return RingElement(self, S, np.zeros(len(self.basis), dtype=np.int64))

    def from_basis(self, S, b, coeff=None) -> RingElement:
        return self.element(S, {b: 1 if coeff is None else coeff})

    def one(self, S) -> RingElement:
        return self.from_basis(S, self.one_elem)

    def element(self, S, coeffs: dict) -> RingElement:
        """The element with coefficients, ints or Fractions, on basis classes."""
        return self.from_vector(S, list(coeffs.values()), [self.index[b] for b in coeffs])

    def from_vector(self, S, values, positions=slice(None)) -> RingElement:
        """The element with the coefficients `values`, ints or Fractions, at
        the basis positions `positions` (all of them by default), else 0."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        den = math.lcm(*(v.denominator for v in values))
        nums = [int(v.numerator) * (den // v.denominator) for v in values]
        vec = np.zeros(len(self.basis), dtype=exact_dtype(_max_abs(nums)))
        vec[positions] = nums
        return RingElement(self, S, vec, den)

    # ------------------------------------------------------ center and trace

    def gram_int(self) -> np.ndarray:
        """Gram matrix tr(L_a L_b) of the regular trace form, a read-only array."""
        if self._int_gram is None:
            d = len(self.basis)
            owner, cls, val = self.terms(np.arange(d * d))
            a, x = np.divmod(owner, d)
            vmax, most = _max_abs(val), _max_abs(self.term_counts())
            # tr L_a sums the v of the terms v e_x of the products e_a e_x
            diagonal = cls == x
            dtype = exact_dtype(d * most * vmax)
            traces = _segment_sum(d, a[diagonal], val[diagonal].astype(dtype))
            dtype = exact_dtype(_max_abs(traces) * vmax * most)
            gram = _segment_sum(d * d, owner, traces.astype(dtype)[cls] * val.astype(dtype))
            self._int_gram = gram.reshape(d, d)
            self._int_gram.setflags(write=False)
        return self._int_gram


def _segment_sum(size: int, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """out[k] = sum of vals over keys == k, exact in the dtype of vals."""
    out = np.zeros(size, dtype=vals.dtype)
    np.add.at(out, keys.ravel(), vals.ravel())
    return out


# ------------------------------------------------------------ associativity

# (key, value) pairs of one chunk of the associativity checks, both sides
# together; a chunk's temporaries then stay near 0.25 MB
ASSOC_CHUNK_ENTRIES = 1 << 12


def _first_nonzero_sum(keys, vals):
    """The least key whose values sum to nonzero, or None."""
    order = keys.argsort(kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    bad = np.flatnonzero(np.add.reduceat(vals, starts)) if len(keys) else ()
    return int(keys[starts[bad[0]]]) if len(bad) else None


def _require_int64_assoc(ring):
    """Refuse a table whose associator sums could overflow int64: a key sums
    at most 2 * most^2 products of two coefficients."""
    most = _max_abs(ring.term_counts())
    vmax = _max_abs(ring.structure_table()[2])
    if most * most * vmax * vmax >= 1 << 62:
        raise ArithmeticBound(f"{most} terms of coefficients up to {vmax} may overflow int64 sums")


def _first_nonassociative(ring, ab, cols):
    """First failing triple among (a, b, c), ab = a * d + b and c in the
    ascending `cols`, or None.

    The triple (a, b, c) is numbered ab * d + c.  Both sides of each
    triple expand, over the live terms of the table, into (key, value)
    pairs with key = number * d + basis index, the right side negated; a
    nonzero sum over equal keys is a failure.
    """
    d = ring.dimension()
    a, b = np.divmod(ab, d)
    # the triple (ab[r], cols[j]) is number ab[0] * d + triple[r, j]
    triple = (ab - ab[0])[:, None] * d + cols
    # (e_a e_b) e_c: each term v e_m of e_a e_b times e_c for every c, the
    # pairs m * d + c
    r, m, v = ring.terms(ab)
    left = (m[:, None] * d + cols).ravel()
    left_triple, left_v = triple[r].ravel(), np.repeat(v, len(cols))
    # e_a (e_b e_c): e_a times each term v e_m of e_b e_c, the pair a * d + m
    rc, m, right_v = ring.terms((b[:, None] * d + cols).ravel())
    right = a[rc // len(cols)] * d + m
    owner, cls, val = ring.terms(np.concatenate((left, right)))
    keys = np.concatenate((left_triple, triple.ravel()[rc]))[owner] * d + cls
    val *= np.concatenate((left_v, -right_v))[owner]
    first = _first_nonzero_sum(keys, val)
    return None if first is None else ab[0] * d + first // d


def _cut(rows, entries):
    """The ascending rows `rows` cut into chunks of about
    ASSOC_CHUNK_ENTRIES of their `entries`: a chunk starts with each row
    that begins past a multiple of the bound."""
    chunk = (np.cumsum(entries) - entries) // ASSOC_CHUNK_ENTRIES
    return np.split(rows, np.flatnonzero(np.diff(chunk)) + 1)


def _assoc_chunks(ring, rows, cols):
    """The ascending (a, b) rows `rows` over the columns `cols`, cut into
    chunks of about ASSOC_CHUNK_ENTRIES entries.

    (a, b) expands on the left into the terms of e_m e_c over the terms
    e_m of e_a e_b and c in `cols`, counted exactly, and on the right into
    no more than the terms of e_b e_c over c in `cols` times the most terms
    of any e_a e_m.
    """
    d = ring.dimension()
    counts = ring.term_counts()
    per_row = counts[:, cols].sum(axis=1)
    owner, m, _ = ring.terms(rows)
    entries = _segment_sum(len(rows), owner, per_row[m])
    a, b = np.divmod(rows, d)
    entries += counts.max(axis=1)[a] * per_row[b]
    return _cut(rows, entries)


def _first_failure(ring, rows, cols):
    """The number of the first failing triple (a, b, c) over the ascending
    (a, b) rows `rows` and the ascending classes `cols`, or None; chunk by
    chunk, in order."""
    for chunk in _assoc_chunks(ring, rows, cols):
        first = _first_nonassociative(ring, chunk, cols)
        if first is not None:
            return first
    return None


def _twist_permutations(ring):
    """The basis permutations of the generating twists, (left, right), read
    off the labels.

    theta_u for u generating the units mod p^n (a primitive root, or -1
    and 5 when p = 2 and n >= 3; none when u = 1) fixes the P classes and
    sends M[i, alpha, lam] to M[i, coset of w alpha, lam], w = u on the
    left and u^-1 on the right.  chi, when e > 1, adds 1 to lam on
    M[i, alpha, lam] on either side, and sends P[lam, mu] to
    P[lam + 1, mu] on the left and to P[lam, mu - 1] on the right.
    """
    params = ring.params
    e, pn = params.e, params.pn
    lam, mu = np.divmod(np.arange(e * e), e)
    M = [(b.level, b.alpha, b.lam) for b in ring.basis[e * e :]]
    level, alpha, char = (np.array(col) for col in zip(*M))
    units = (-1, 5) if params.p == 2 and params.n >= 3 else (params.primitive_root,)
    left, right = [], []
    for u in (u for u in units if u % pn != 1):
        for side, w in ((left, u), (right, pow(u, -1, pn))):
            moved = ring.coset_index[level, w * alpha % params.p**level] + char
            side.append(np.concatenate((lam * e + mu, moved)))
    if e > 1:
        moved = np.arange(e * e, ring.dimension()) - char + (char + 1) % e
        left.append(np.concatenate(((lam + 1) % e * e + mu, moved)))
        right.append(np.concatenate((lam * e + (mu - 1) % e, moved)))
    return left, right


def _equivariant(ring, sigma, side, chunks):
    """Whether e_sigma(a) e_b = sigma(e_a e_b) (side "left") or e_a
    e_sigma(b) = sigma(e_a e_b) ("right") on every pair, one chunk of rows
    a at a time."""
    d = ring.dimension()
    cols = np.arange(d)
    for rows in chunks:
        owner, cls, val = ring.terms((rows[:, None] * d + cols).ravel())
        if side == "left":
            moved = sigma[rows][:, None] * d + cols
        else:
            moved = rows[:, None] * d + sigma
        image_owner, image_cls, image_val = ring.terms(moved.ravel())
        keys = np.concatenate((owner * d + sigma[cls], image_owner * d + image_cls))
        if _first_nonzero_sum(keys, np.concatenate((val, -image_val))) is not None:
            return False
    return True


def _orbit_representatives(perms, d):
    """The least class of each orbit of the permutations `perms`, ascending:
    each label falls to its preimages' and to its label's label until none
    moves, when it is constant on each orbit and a member of it."""
    rep, old = np.arange(d), None
    while old is None or (rep != old).any():
        old = rep.copy()
        for sigma in perms:
            rep[sigma] = np.minimum(rep[sigma], rep)
        rep = rep[rep]
    return np.flatnonzero(rep == np.arange(d))


def _transported(ring) -> bool:
    """Whether every twist permutation is bijective and equivariant, and
    no triple (a, b, c) with a least in its left orbit and c least in its
    right orbit fails."""
    d = ring.dimension()
    chunks = _cut(np.arange(d), 2 * ring.term_counts().sum(axis=1))
    sides = _twist_permutations(ring)
    for side, perms in zip(("left", "right"), sides):
        for sigma in perms:
            bijective = np.array_equal(np.sort(sigma), np.arange(d))
            if not (bijective and _equivariant(ring, sigma, side, chunks)):
                return False
    a_reps, c_reps = (_orbit_representatives(perms, d) for perms in sides)
    return _first_failure(ring, (a_reps[:, None] * d + np.arange(d)).ravel(), c_reps) is None


@lru_cache(maxsize=None)
def tring(params: ModelParams) -> TRing:
    return TRing(params)
