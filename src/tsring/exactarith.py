"""Exact scalar arithmetic and integer matrix normal forms.

Everything here is exact: arbitrary-precision integers, reduced
rationals and prime fields F_q.  No floating point occurs anywhere in
the package.

A scalar ring is a record of its name, characteristic and whether it is
a field; its values are plain Python numbers: ints over Z, residues in
[0, q) over F_q, and ints or Fractions over Q.  Arithmetic is Python's
operators, and reduction mod q happens once per matrix product or row
operation.  Ring elements (`tsring.tring.RingElement`) keep no per-value
scalars: one integer vector over a common denominator, reduced mod q as
a whole.

Matrices follow the rule of ring elements: a matrix is an exact 2-D
numpy array, int64 while an up-front `exact_dtype` bound holds and
otherwise an object array of Python ints (and Fractions over Q).  Lists
of rows enter through `as_matrix`, one Python int at a time; a ragged
list raises ShapeMismatch.  `field_mat_mul` is the package's one matrix
product and `residues` its one reduction mod q.  Rank, kernel and inverse
over a field share one elimination.  The Smith normal form routine
returns transformation certificates (d, u, v) with d = u*c*v, u and v
unimodular, and the diagonal of d a nonnegative divisibility chain; the
components of an order in Z^k are read off a basis it gives, certified on residues.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import NotInvertible, NotPrime, ShapeMismatch, TheoremViolation
from .model import is_prime, prime_factors


# --------------------------------------------------------------------------
# scalar rings
# --------------------------------------------------------------------------


class ScalarRing(namedtuple("ScalarRing", "name characteristic is_field")):
    """Z, Q or F_q, known by its characteristic and whether it is a field."""

    __slots__ = ()


ZZ = ScalarRing("Z", 0, False)
QQ = ScalarRing("Q", 0, True)


def GF(q: int) -> ScalarRing:
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    return ScalarRing(f"F{q}", q, True)


def scalar_ring(spec: str):
    """Parse "Z", "Q" or "F<q>" into a scalar ring."""
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    if spec.startswith("F") and spec[1:].isdigit():
        return GF(int(spec[1:]))
    raise ValueError(f"unknown scalar ring {spec!r}")


def field_of_characteristic(q: int):
    """Q for q = 0, F_q for prime q."""
    return QQ if q == 0 else GF(q)


def exact_dtype(bound: int):
    """int64 for sums bounded in magnitude by `bound` < 2^62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _inverse(a, K):
    """1/a in K; raises NotInvertible for zero, and over Z for non-units."""
    q = K.characteristic
    if q:
        if a % q == 0:
            raise NotInvertible(f"{a} is not invertible in {K.name}")
        return pow(a, -1, q)
    if a == 0 or not (K.is_field or a in (1, -1)):
        raise NotInvertible(f"{a} is not invertible in {K.name}")
    return Fraction(1, a) if K.is_field else a


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


def _max_abs(values) -> int:
    """The largest magnitude in a list or an integer array, as a Python int."""
    if isinstance(values, np.ndarray):
        if values.dtype != object:
            return max(int(values.max()), -int(values.min())) if values.size else 0
        values = values.ravel().tolist()
    return max(map(abs, values), default=0)


def _exact(x):
    """x as an exact scalar: a Python int, or a Fraction that is not one."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    return operator.index(x)


def as_matrix(a) -> np.ndarray:
    """a as an exact 2-D array: int64 when its entries are ints below 2^62.

    An int64 array passes through.  Other arrays and lists of rows are read
    entry by entry as Python ints and Fractions, so no value passes through
    numpy's uint64 or float64 guess; a float raises TypeError, a ragged
    list ShapeMismatch.
    """
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ShapeMismatch(f"a matrix has 2 axes, not {a.ndim}")
        if a.dtype == np.int64:
            return a
        shape, values = a.shape, a.ravel().tolist()
    else:
        rows = [list(row) for row in a]
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape[1] for row in rows):
            raise ShapeMismatch("matrix is not rectangular")
        values = [x for row in rows for x in row]
    values = [_exact(x) for x in values]
    out = np.empty(len(values), dtype=object)
    out[:] = values
    if not any(isinstance(x, Fraction) for x in values):
        out = out.astype(exact_dtype(_max_abs(values)))
    return out.reshape(shape)


def residues(K, m):
    """Integer values as values of K: residues mod q over F_q, else unchanged."""
    return m % K.characteristic if K.characteristic else m


def field_mat_mul(a, b, K):
    """a * b over K, reduced into K; the entries may be any ints or Fractions.

    The one matrix product: np.dot in int64 when max|a| * max|b| times the
    inner dimension stays below 2^62, on Python numbers otherwise, then one
    reduction mod q.
    """
    a, b = as_matrix(a), as_matrix(b)
    (ra, ca), (rb, cb) = a.shape, b.shape
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    if object in (a.dtype, b.dtype):
        dtype = object
    else:
        dtype = exact_dtype(_max_abs(a) * _max_abs(b) * ca)
    return residues(K, np.dot(a.astype(dtype, copy=False), b.astype(dtype, copy=False)))


def det_int(a) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss); 1 if 0 x 0."""
    m = as_matrix(a).astype(object)
    n, cols = m.shape
    if n != cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    sign = prev = 1
    for k in range(n):
        below = np.flatnonzero(m[k:, k])
        if not below.size:
            return 0
        if below[0]:
            m[[k, k + below[0]]] = m[[k + below[0], k]]
            sign = -sign
        rest = slice(k + 1, n)
        m[rest, rest] = (m[rest, rest] * m[k, k] - m[rest, k, None] * m[k, rest]) // prev
        prev = m[k, k]
    return sign * prev


def is_unimodular(a) -> bool:
    return abs(det_int(a)) == 1


class SnfResult:
    """Smith normal form certificate: d = u * c * v with u, v unimodular."""

    def __init__(self, d: np.ndarray, u: np.ndarray, v: np.ndarray):
        self.d, self.u, self.v = d, u, v

    def diagonal(self) -> list:
        return np.diagonal(as_matrix(self.d)).tolist()

    def check(self, c) -> bool:
        """Recompute every SnfResult invariant against the input matrix."""
        d = as_matrix(self.d)
        if not np.array_equal(d, field_mat_mul(field_mat_mul(self.u, c, ZZ), self.v, ZZ)):
            return False
        if not (is_unimodular(self.u) and is_unimodular(self.v)):
            return False
        diag = self.diagonal()
        if np.count_nonzero(d) != np.count_nonzero(diag):  # an off-diagonal entry
            return False
        if any(x < 0 for x in diag):
            return False
        for x, y in zip(diag, diag[1:]):
            if x == 0 and y != 0:
                return False
            if x != 0 and y % x != 0:
                return False
        return True


def snf(c) -> SnfResult:
    """Smith normal form with accumulated unimodular transformations.

    Pivoting picks the nonzero entry of minimal absolute value in the
    remaining block, ties broken in row-major order; this keeps the
    computation deterministic and bounds intermediate growth.  The work
    runs on Python ints; d, u and v are returned as `as_matrix` arrays.
    """
    m = as_matrix(c).astype(object)
    rows, cols = m.shape
    u, v = np.eye(rows, dtype=object), np.eye(cols, dtype=object)
    t = 0
    while t < min(rows, cols):
        size = np.abs(m[t:, t:]).ravel()
        live = np.flatnonzero(size)
        if not live.size:
            break
        bi, bj = (t + k for k in divmod(int(live[np.argmin(size[live])]), cols - t))
        m[[t, bi]], u[[t, bi]] = m[[bi, t]], u[[bi, t]]
        m[:, [t, bj]], v[:, [t, bj]] = m[:, [bj, t]], v[:, [bj, t]]
        if m[t, t] < 0:
            m[t], u[t] = -m[t], -u[t]
        piv = m[t, t]
        # reduce column t below the pivot by row operations, then row t by
        # column operations; a remainder left becomes a smaller pivot
        quot = m[t + 1 :, t, None] // piv
        m[t + 1 :] -= quot * m[t]
        u[t + 1 :] -= quot * u[t]
        quot = m[t, t + 1 :] // piv
        m[:, t + 1 :] -= m[:, t, None] * quot
        v[:, t + 1 :] -= v[:, t, None] * quot
        if m[t + 1 :, t].any() or m[t, t + 1 :].any():
            continue
        # the pivot must divide the rest: else add the first row that it
        # does not divide to row t
        bad = np.flatnonzero((m[t + 1 :, t + 1 :] % piv != 0).any(axis=1))
        if bad.size:
            m[t] += m[t + 1 + bad[0]]
            u[t] += u[t + 1 + bad[0]]
            continue
        t += 1
    return SnfResult(d=as_matrix(m), u=as_matrix(u), v=as_matrix(v))


def order_components(a, den: int) -> list[int]:
    """Components of O = {x in Z^k : a x = 0 mod den} as column bitmasks,
    each checked to lie in O: the 0/1 vectors of O are exactly their unions.

    Only the distinct nonzero rows A of a mod den matter.  With d = u A v
    (`snf`), B = v diag(den / gcd(den, d_ii)), d_ii = 0 past d, spans O over
    Z_(l) for each prime l | den, given u A v = d diagonal, v invertible mod
    l and A B = 0, all checked mod den: y = v^-1 x is in Z_(l)^k for x in O,
    and d y = u A x = 0.  i ~ j when rows i and j of B agree mod some l; for
    1_S = B z in O, (1_S)_i = (1_S)_j mod l, both 0 or 1: only unions lie in O.
    """
    k = a.shape[1]
    rows = sorted({tuple(row) for row in (a % den).tolist() if any(row)})
    residue = np.array(rows, dtype=object).reshape(len(rows), k)
    result = snf(residue)
    d, u, v = (m % den for m in (result.d, result.u, result.v))
    diagonal, primes = np.diagonal(d).tolist(), set(prime_factors(den))
    basis = v * ([den // math.gcd(den, x) for x in diagonal] + [1] * (k - len(diagonal))) % den
    if (
        np.count_nonzero(d) != np.count_nonzero(diagonal)
        or ((field_mat_mul(field_mat_mul(u, residue, ZZ), v, ZZ) - d) % den).any()
        or any(rank_over_field(v, GF(ell)) < k for ell in primes)
        or (field_mat_mul(residue, basis, ZZ) % den).any()
    ):
        raise TheoremViolation(f"order basis mod {den} of the residue rows {residue.tolist()}")
    label = list(range(k))
    for ell in primes:
        first = {}
        for i, row in enumerate((basis % ell).tolist()):
            old, new = label[i], label[first.setdefault(tuple(row), i)]
            label = [new if x == old else x for x in label]
    comps = [sum(1 << i for i, x in enumerate(label) if x == c) for c in set(label)]
    for mask in comps:
        if (a[:, [j for j in range(k) if mask >> j & 1]].sum(axis=1) % den).any():
            raise TheoremViolation(f"component {mask} outside the order")
    return comps


# --------------------------------------------------------------------------
# linear algebra over a field
#
# These take matrices of ints or Fractions and reduce them into the field.
# --------------------------------------------------------------------------


def _rref(a, K):
    """Row-reduce `a` over K; returns (reduced array, pivot columns).

    Gauss-Jordan, clearing each pivot column with one outer product: over
    F_q on residues in the dtype of `exact_dtype(q * q)`, over Q on ints
    and Fractions in an object array.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    q = K.characteristic
    m = a if q and a.dtype == np.int64 else a.astype(object)
    if q:
        m = (m % q).astype(exact_dtype(q * q), copy=False)
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = np.flatnonzero(m[r:, col])
        if not below.size:
            continue
        m[[r, r + below[0]]] = m[[r + below[0], r]]
        m[r] *= _inverse(int(m[r, col]) if q else m[r, col], K)
        if q:
            m[r] %= q
        factor = m[:, col].copy()
        factor[r] = 0
        # row r is 0 left of col; whole rows avoid slice temporaries; over Q only rows that change
        live = slice(None) if q else np.flatnonzero(factor)
        m[live] -= factor[live, None] * m[r]
        if q:
            m %= q
        pivots.append(col)
    return m, pivots


def rank_over_field(a, K) -> int:
    _, pivots = _rref(a, K)
    return len(pivots)


def mat_inverse_over_field(c, K):
    """Exact two-sided inverse over the field K; raises NotInvertible."""
    c = as_matrix(c)
    n, cols = c.shape
    if n != cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    red, pivots = _rref(np.hstack((c, np.eye(n, dtype=c.dtype))), K)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular over " + K.name)
    return as_matrix(red[:, n:])


def nullspace_over_field(a, K):
    """Canonical basis of the right kernel, as rows (rref back-substitution)."""
    red, pivots = _rref(a, K)
    free = [j for j in range(red.shape[1]) if j not in pivots]
    basis = np.eye(red.shape[1], dtype=red.dtype)[free]
    basis[:, pivots] = -red[: len(pivots), free].T
    return residues(K, basis)
