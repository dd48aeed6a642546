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

Matrices are lists of rows or integer arrays; rank, kernel and inverse
over a field share one elimination on an array.  The Smith normal form
routine returns transformation certificates (d, u, v) with d = u*c*v, u
and v unimodular, and the diagonal of d a nonnegative divisibility chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotInvertible, NotPrime, ShapeMismatch


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


# --------------------------------------------------------------------------
# scalar rings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarRing:
    """Z, Q or F_q, known by its characteristic and whether it is a field."""

    name: str
    characteristic: int
    is_field: bool


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


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_shape(a):
    if isinstance(a, np.ndarray):
        return a.shape
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ShapeMismatch("matrix is not rectangular")
    return rows, cols


def field_mat_mul(a, b, K):
    """a * b over K, reduced into K; the entries may be any ints or Fractions."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = list(zip(*b))
    return [
        _reduce_row([sum(x * y for x, y in zip(row, col)) for col in cols], K)
        for row in a
    ]


def _reduce_row(row: list, K) -> list:
    q = K.characteristic
    return [x % q for x in row] if q else row


def det_int(a) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    rows, cols = mat_shape(a)
    if rows != cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = rows
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a) -> bool:
    return abs(det_int(a)) == 1


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form certificate: d = u * c * v with u, v unimodular."""

    d: tuple
    u: tuple
    v: tuple

    def diagonal(self):
        rows = len(self.d)
        cols = len(self.d[0]) if rows else 0
        return [self.d[i][i] for i in range(min(rows, cols))]

    def check(self, c) -> bool:
        """Recompute every SnfResult invariant against the input matrix."""
        d = [list(r) for r in self.d]
        if d != field_mat_mul(field_mat_mul(self.u, c, ZZ), self.v, ZZ):
            return False
        if not (is_unimodular(self.u) and is_unimodular(self.v)):
            return False
        rows, cols = mat_shape(d)
        for i in range(rows):
            for j in range(cols):
                if i != j and d[i][j] != 0:
                    return False
        diag = self.diagonal()
        if any(x < 0 for x in diag):
            return False
        for x, y in zip(diag, diag[1:]):
            if x == 0 and y != 0:
                return False
            if x != 0 and y % x != 0:
                return False
        return True


def _freeze(m):
    return tuple(tuple(row) for row in m)


def snf(c) -> SnfResult:
    """Smith normal form with accumulated unimodular transformations.

    Pivoting picks the nonzero entry of minimal absolute value in the
    remaining block, ties broken in row-major order; this keeps the
    computation deterministic and bounds intermediate growth.
    """
    rows, cols = mat_shape(c)
    m = [list(row) for row in c]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, k):
        # row_i += k * row_j
        mi, mj = m[i], m[j]
        for t in range(cols):
            mi[t] += k * mj[t]
        ui, uj = u[i], u[j]
        for t in range(rows):
            ui[t] += k * uj[t]

    def col_addmul(i, j, k):
        # col_i += k * col_j
        for row in m:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    bound = min(rows, cols)
    while t < bound:
        best = None
        best_abs = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = m[i][j]
                if a != 0 and (best is None or abs(a) < best_abs):
                    best = (i, j)
                    best_abs = abs(a)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if m[t][t] < 0:
            row_negate(t)
        piv = m[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                row_addmul(i, t, -(m[i][t] // piv))
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                col_addmul(j, t, -(m[t][j] // piv))
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        viol = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % piv != 0:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            row_addmul(t, viol, 1)
            continue
        t += 1

    return SnfResult(d=_freeze(m), u=_freeze(u), v=_freeze(v))


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
    rows, cols = mat_shape(a)
    q = K.characteristic
    m = a if q and getattr(a, "dtype", None) == np.int64 else np.array(a, dtype=object)
    if q:
        m = (m % q).astype(exact_dtype(q * q), copy=False)
    m = m.reshape(rows, cols)
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
        m[live] -= np.dot(factor[live, None], m[r : r + 1])
        if q:
            m %= q
        pivots.append(col)
    return m, pivots


def rank_over_field(a, K) -> int:
    _, pivots = _rref(a, K)
    return len(pivots)


def mat_inverse_over_field(c, K):
    """Exact two-sided inverse over the field K; raises NotInvertible."""
    n, cols = mat_shape(c)
    if n != cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    red, pivots = _rref([list(row) + ident for row, ident in zip(c, identity_matrix(n))], K)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular over " + K.name)
    return red[:, n:].tolist()


def nullspace_over_field(a, K):
    """Canonical basis of the right kernel (rref back-substitution)."""
    red, pivots = _rref(a, K)
    free = [j for j in range(red.shape[1]) if j not in pivots]
    basis = np.eye(red.shape[1], dtype=red.dtype)[free]
    basis[:, pivots] = -red[: len(pivots), free].T
    return (basis % K.characteristic if K.characteristic else basis).tolist()
