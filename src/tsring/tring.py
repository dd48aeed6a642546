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

from dataclasses import dataclass
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
    """Sparse element: finite map from basis elements to scalars."""

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
    """Basis, multiplication table and derived structure for one model."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.basis = self._build_basis()
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.one_elem = NonProj(params.n, 1, 0)
        self._pair_table: dict = {}
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
        Built once from `mult_basis`.
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
        return self._structure_arrays

    def _table_entry(self, ia: int, ib: int):
        key = (ia, ib)
        entry = self._pair_table.get(key)
        if entry is None:
            prod = self.mult_basis(self.basis[ia], self.basis[ib])
            entry = tuple((self.index[c], v) for c, v in prod.items())
            self._pair_table[key] = entry
        return entry

    def mult(self, x: RingElement, y: RingElement) -> RingElement:
        if x.ring.params != y.ring.params:
            raise ParamsMismatch("elements over different model parameters")
        if not (x.scalar is y.scalar or x.scalar == y.scalar):
            raise ScalarMismatch(f"scalars {x.scalar.name} and {y.scalar.name}")
        S = x.scalar
        acc: dict = {}
        for a, ca in x.coeffs.items():
            ia = self.index[a]
            for b, cb in y.coeffs.items():
                w = S.mul(ca, cb)
                if S.is_zero(w):
                    continue
                for ic, k in self._table_entry(ia, self.index[b]):
                    c = self.basis[ic]
                    acc[c] = S.add(acc.get(c, S.zero), S.mul(w, S.from_int(k)))
        return RingElement(self, S, acc)

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

    def _full_int_table(self):
        for ia in range(len(self.basis)):
            for ib in range(len(self.basis)):
                self._table_entry(ia, ib)

    def regular_trace_int(self) -> list[int]:
        """tr of left multiplication by each basis element, over Z."""
        self._full_int_table()
        d = len(self.basis)
        traces = []
        for ia in range(d):
            t = 0
            for ix in range(d):
                for ic, v in self._pair_table[(ia, ix)]:
                    if ic == ix:
                        t += v
            traces.append(t)
        return traces

    def gram_int(self) -> list[list[int]]:
        """Integer Gram matrix of the regular trace form on the basis."""
        if self._int_gram is None:
            traces = self.regular_trace_int()
            d = len(self.basis)
            gram = [[0] * d for _ in range(d)]
            for ia in range(d):
                for ib in range(d):
                    gram[ia][ib] = sum(
                        v * traces[ic] for ic, v in self._pair_table[(ia, ib)]
                    )
            self._int_gram = gram
        return self._int_gram

    def center_basis(self, S) -> list[RingElement]:
        """Basis of the centralizer of the whole ring, by exact linear solve."""
        if not S.is_field:
            raise ScalarMismatch("center computation needs a field")
        self._full_int_table()
        d = len(self.basis)
        rows = []
        for j in range(d):
            # commutator of the unknown with basis j, one row per coordinate
            comm = [[0] * d for _ in range(d)]
            for i in range(d):
                for ic, v in self._pair_table[(i, j)]:
                    comm[ic][i] += v
                for ic, v in self._pair_table[(j, i)]:
                    comm[ic][i] -= v
            rows.extend(row for row in comm if any(row))
        if not rows:
            rows = [[0] * d]
        kernel = nullspace_over_field(rows, S)
        out = []
        for vec in kernel:
            coeffs = {self.basis[i]: vec[i] for i in range(d)}
            out.append(RingElement(self, S, coeffs))
        return out


@lru_cache(maxsize=None)
def tring(params: ModelParams) -> TRing:
    return TRing(params)
