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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BadLevel, ParamsMismatch, ScalarMismatch
from .exactarith import nullspace_over_field
from .groupmodel import ModelParams, canonical_coset


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


BasisElement = object  # ProjPair | NonProj


def sort_key(b):
    if isinstance(b, ProjPair):
        return (0, b.lam, b.mu)
    return (1, b.level, b.alpha, b.lam)


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


class RingElement:
    """Sparse element: finite map from basis elements to scalars.

    Values are ints over Z, residues in [0, q) over F_q and Fractions over
    Q; `TRing.mult` converts them to exact integer arrays and back.
    """

    __slots__ = ("ring", "scalar", "coeffs")

    def __init__(self, ring, scalar, coeffs):
        self.ring = ring
        self.scalar = scalar
        self.coeffs = {b: v for b, v in coeffs.items() if not scalar.is_zero(v)}

    def _require_compatible(self, other):
        if self.ring.params != other.ring.params:
            raise ParamsMismatch("elements over different model parameters")
        if not (self.scalar is other.scalar or self.scalar == other.scalar):
            raise ScalarMismatch(
                f"scalars {self.scalar.name} and {other.scalar.name}"
            )

    def coeff(self, b):
        return self.coeffs.get(b, self.scalar.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring.params == other.ring.params
            and self.scalar == other.scalar
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._require_compatible(other)
        S = self.scalar
        out = dict(self.coeffs)
        for b, v in other.coeffs.items():
            out[b] = S.add(out.get(b, S.zero), v)
        return RingElement(self.ring, S, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        S = self.scalar
        return RingElement(self.ring, S, {b: S.neg(v) for b, v in self.coeffs.items()})

    def scale(self, c):
        S = self.scalar
        return RingElement(
            self.ring, S, {b: S.mul(c, v) for b, v in self.coeffs.items()}
        )

    def __mul__(self, other):
        self._require_compatible(other)
        return self.ring.mult(self, other)

    def to_json(self) -> list:
        S = self.scalar
        return [
            {"basis": basis_to_json(b), "coeff": S.to_str(v)}
            for b, v in sorted(self.coeffs.items(), key=lambda kv: sort_key(kv[0]))
        ]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        S = self.scalar
        terms = [
            f"{S.to_str(v)}*{basis_label(b)}"
            for b, v in sorted(self.coeffs.items(), key=lambda kv: sort_key(kv[0]))
        ]
        return " + ".join(terms)


class TRing:
    """Basis, multiplication table and derived structure for one model.

    The structure arrays (K, V) are the only multiplication table: products,
    the actions of an element, the trace form and the center are exact
    integer contractions over them, in int64 under an up-front bound on the
    sums and in Python ints past it.  Over Q an element enters as integer
    numerators over one common denominator.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.basis = self._build_basis()
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.one_elem = NonProj(params.n, 1, 0)
        self._structure_arrays = None
        self._int_gram = None
        # certified block data, built once per ring by tsring.blocks
        self.block_memo: dict = {}

    def _build_basis(self):
        params = self.params
        basis = [
            ProjPair(lam, mu) for lam in range(params.e) for mu in range(params.e)
        ]
        for i in range(1, params.n + 1):
            q = params.p**i
            reps = sorted(
                {canonical_coset(params, i, u).rep for u in range(1, q) if u % params.p}
            )
            basis.extend(
                NonProj(i, rep, lam) for rep in reps for lam in range(params.e)
            )
        return basis

    # ------------------------------------------------------------ structure

    def dimension(self) -> int:
        return len(self.basis)

    def level_basis(self, i: int):
        if not 0 <= i <= self.params.n:
            raise BadLevel(f"level {i} outside 0..{self.params.n}")
        if i == 0:
            return [b for b in self.basis if isinstance(b, ProjPair)]
        return [b for b in self.basis if isinstance(b, NonProj) and b.level == i]

    def ideal_le(self, i: int):
        """Basis of the ideal spanned by classes with vertex order <= p^i."""
        if not 0 <= i <= self.params.n:
            raise BadLevel(f"level {i} outside 0..{self.params.n}")
        return [
            b
            for b in self.basis
            if isinstance(b, ProjPair) or b.level <= i
        ]

    # ------------------------------------------------------- multiplication

    def mult_basis(self, a, b) -> dict:
        """Structure constants of a * b as a basis-to-int map."""
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

    def structure_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All structure constants as two zero-padded int64 arrays K, V.

        e_a * e_b = sum_j V[a, b, j] e_{K[a, b, j]} over j < J, the largest
        number of terms of any basis product; unused slots hold K = V = 0.
        Built once from `mult_basis`; the ring's only multiplication table.
        """
        if self._structure_arrays is None:
            d = len(self.basis)
            rows, slots, targets, coeffs = [], [], [], []
            for row, (a, b) in enumerate(product(self.basis, repeat=2)):
                for j, (c, v) in enumerate(self.mult_basis(a, b).items()):
                    rows.append(row)
                    slots.append(j)
                    targets.append(self.index[c])
                    coeffs.append(v)
            width = max(slots) + 1
            K = np.zeros((d * d, width), dtype=np.int64)
            V = np.zeros((d * d, width), dtype=np.int64)
            K[rows, slots] = targets
            V[rows, slots] = coeffs
            self._structure_arrays = (K.reshape(d, d, width), V.reshape(d, d, width))
            self._vmax = int(np.abs(V).max())
        return self._structure_arrays

    def _numerators(self, x: RingElement):
        """(support indices, integer numerators, common denominator) of x.

        Residues over F_q; over Q the lcm of the denominators, else 1.
        """
        S = x.scalar
        support = np.array([self.index[b] for b in x.coeffs], dtype=np.intp)
        vals = list(x.coeffs.values())
        den = 1
        if S.characteristic:
            vals = [v % S.characteristic for v in vals]
        elif S.is_field:
            den = math.lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (den // v.denominator) for v in vals]
        return support, vals, den

    def mult(self, x: RingElement, y: RingElement) -> RingElement:
        """x * y as one contraction of the two supports through (K, V)."""
        if x.ring.params != y.ring.params:
            raise ParamsMismatch("elements over different model parameters")
        if not (x.scalar is y.scalar or x.scalar == y.scalar):
            raise ScalarMismatch(f"scalars {x.scalar.name} and {y.scalar.name}")
        S = x.scalar
        ia, X, dx = self._numerators(x)
        ib, Y, dy = self._numerators(y)
        if not (X and Y):
            return RingElement(self, S, {})
        K, V = self.structure_arrays()
        keys = K[ia[:, None], ib]
        dtype = exact_dtype(_max_abs(X) * _max_abs(Y) * self._vmax * keys.size)
        weights = np.outer(np.array(X, dtype=dtype), np.array(Y, dtype=dtype))
        sums = _segment_sum(
            len(self.basis), keys, weights[..., None] * V[ia[:, None], ib].astype(dtype)
        )
        sums = _residues(S, sums)
        live = np.flatnonzero(sums)
        vals = sums[live].tolist()
        if not S.characteristic and S.is_field:
            vals = [Fraction(v, dx * dy) for v in vals]
        basis = self.basis
        return RingElement(self, S, {basis[i]: v for i, v in zip(live.tolist(), vals)})

    def actions(self, x: RingElement):
        """Left and right multiplication by x as d x d integer matrices.

        Returns (left, right, den): column b of `left` is den * (x * e_b)
        and column b of `right` is den * (e_b * x), with den the common
        denominator of x over Q and 1 otherwise (residues over F_q).  Each
        matrix is one contraction of the support of x through (K, V).
        """
        S = x.scalar
        ia, X, den = self._numerators(x)
        K, V = self.structure_arrays()
        d, _, width = K.shape
        dtype = exact_dtype(_max_abs(X) * self._vmax * len(X) * width)
        X = np.array(X, dtype=dtype)
        cols = np.arange(d)
        # left[c, b] sums X_a V[a, b, j] over K[a, b, j] = c
        left = _segment_sum(
            d * d, K[ia] * d + cols[:, None], X[:, None, None] * V[ia].astype(dtype)
        )
        # right[c, b] sums X_a V[b, a, j] over K[b, a, j] = c
        right = _segment_sum(
            d * d,
            K[:, ia] * d + cols[:, None, None],
            X[:, None] * V[:, ia].astype(dtype),
        )
        return _residues(S, left).reshape(d, d), _residues(S, right).reshape(d, d), den

    def noncommuting(self, x: RingElement) -> list:
        """The basis classes b with x * b != b * x, in basis order."""
        left, right, _ = self.actions(x)
        return [self.basis[j] for j in np.flatnonzero((left != right).any(axis=0))]

    def quotient_mult(self, i: int, x: RingElement, y: RingElement) -> RingElement:
        """Product in the quotient by the vertex-order <= p^i ideal."""
        if not 0 <= i <= self.params.n:
            raise BadLevel(f"level {i} outside 0..{self.params.n}")
        killed = set(self.ideal_le(i))
        if any(b in killed for b in x.coeffs) or any(b in killed for b in y.coeffs):
            raise ValueError("operands must be supported outside the ideal")
        prod = self.mult(x, y)
        return RingElement(
            self,
            x.scalar,
            {b: v for b, v in prod.coeffs.items() if b not in killed},
        )

    # ----------------------------------------------------------- elements

    def zero(self, S) -> RingElement:
        return RingElement(self, S, {})

    def from_basis(self, S, b, coeff=None) -> RingElement:
        return RingElement(self, S, {b: S.one if coeff is None else coeff})

    def one(self, S) -> RingElement:
        return self.from_basis(S, self.one_elem)

    def element(self, S, coeffs: dict) -> RingElement:
        return RingElement(self, S, coeffs)

    def from_int_coeffs(self, S, coeffs: dict) -> RingElement:
        return RingElement(self, S, {b: S.from_int(v) for b, v in coeffs.items()})

    # ------------------------------------------------------ center and trace

    def regular_trace_int(self) -> list[int]:
        """tr of left multiplication by each basis element, over Z."""
        K, V = self.structure_arrays()
        d, _, width = K.shape
        diagonal = K == np.arange(d)[:, None]  # K[a, x, j] = x: a term on e_x
        V = V.astype(exact_dtype(d * width * self._vmax))
        return (V * diagonal).sum(axis=(1, 2)).tolist()

    def gram_int(self) -> list[list[int]]:
        """Integer Gram matrix of the regular trace form on the basis."""
        if self._int_gram is None:
            K, V = self.structure_arrays()
            traces = self.regular_trace_int()
            dtype = exact_dtype(_max_abs(traces) * self._vmax * K.shape[2])
            traces = np.array(traces, dtype=dtype)
            self._int_gram = (traces[K] * V.astype(dtype)).sum(axis=2).tolist()
        return self._int_gram

    def center_basis(self, S) -> list[RingElement]:
        """Basis of the centralizer of the whole ring, by exact linear solve."""
        if not S.is_field:
            raise ScalarMismatch("center computation needs a field")
        K, V = self.structure_arrays()
        d, _, width = K.shape
        a, b, _ = np.indices(K.shape)
        # row (j, c), column i: coefficient of e_c in e_i e_j - e_j e_i, so
        # e_a e_b adds V to row (b, c), column a and -V to row (a, c), column b
        comm = np.zeros((d * d, d), dtype=exact_dtype(2 * width * self._vmax))
        np.add.at(comm, (b * d + K, a), V)
        np.add.at(comm, (a * d + K, b), -V)
        rows = comm[comm.any(axis=1)].tolist() or [[0] * d]
        return [
            RingElement(self, S, dict(zip(self.basis, vec)))
            for vec in nullspace_over_field(rows, S)
        ]


def exact_dtype(bound: int):
    """int64 for sums bounded in magnitude by `bound` < 2^62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _max_abs(values) -> int:
    return max(map(abs, values), default=0)


def _residues(S, sums):
    """Integer sums as values of S: residues over F_q, else unchanged."""
    return sums % S.characteristic if S.characteristic else sums


def _segment_sum(size: int, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """out[k] = sum of vals over keys == k, exact in the dtype of vals."""
    out = np.zeros(size, dtype=vals.dtype)
    np.add.at(out, keys.ravel(), vals.ravel())
    return out


@lru_cache(maxsize=None)
def tring(params: ModelParams) -> TRing:
    return TRing(params)
