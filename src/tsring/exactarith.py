"""Exact scalar arithmetic and integer matrix normal forms.

Everything here is exact: arbitrary-precision integers, reduced
rationals and prime fields F_q.  No floating point occurs anywhere in
the package.

Matrices are plain lists of rows.  The Smith normal form routine
returns transformation certificates (d, u, v) with d = u*c*v, u and v
unimodular, and the diagonal of d a nonnegative divisibility chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
#
# A scalar ring is a small object exposing exact arithmetic on its own value
# type: python int for Z and F_q, Fraction for Q.  Ring elements are ordinary
# values; the ring object knows how to combine them.
# --------------------------------------------------------------------------


class IntegerRing:
    """The rational integers."""

    name = "Z"
    characteristic = 0
    is_field = False

    zero = 0
    one = 1

    def from_int(self, a):
        return int(a)

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator != 1:
            raise NotInvertible(f"{q} is not an integer")
        return q.numerator

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertible(f"{a} is not a unit in Z")

    def div(self, a, b):
        if b != 0 and a % b == 0:
            return a // b
        raise NotInvertible(f"{a}/{b} is not an integer")

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "IntegerRing()"


class RationalField:
    """The rational numbers, always stored reduced."""

    name = "Q"
    characteristic = 0
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, a):
        return Fraction(a)

    def from_fraction(self, q):
        return Fraction(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not invertible")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise NotInvertible("division by zero")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field F_q for a prime q; values are residues in [0, q)."""

    is_field = True

    def __init__(self, q: int):
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q
        self.name = f"F{q}"
        self.characteristic = q
        self.zero = 0
        self.one = 1 % q

    def from_int(self, a):
        return a % self.q

    def from_fraction(self, q):
        q = Fraction(q)
        return self.mul(q.numerator % self.q, self.inv(q.denominator % self.q))

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise NotInvertible(f"0 is not invertible in F_{self.q}")
        return pow(a, -1, self.q)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.q == 0

    def to_str(self, a):
        return str(a % self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


ZZ = IntegerRing()
QQ = RationalField()

_prime_fields: dict[int, PrimeField] = {}


def GF(q: int) -> PrimeField:
    if q not in _prime_fields:
        _prime_fields[q] = PrimeField(q)
    return _prime_fields[q]


def scalar_ring(spec: str):
    """Parse "Z", "Q" or "F<q>" into a scalar ring object."""
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


# --------------------------------------------------------------------------
# integer matrices
# --------------------------------------------------------------------------


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ShapeMismatch("matrix is not rectangular")
    return rows, cols


def mat_mul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for i in range(ra):
        row_a = a[i]
        out_row = []
        for j in range(cb):
            s = 0
            for k in range(ca):
                s += row_a[k] * b[k][j]
            out_row.append(s)
        out.append(out_row)
    return out


def mat_eq(a, b):
    return mat_shape(a) == mat_shape(b) and all(
        a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0]))
    )


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
        u = [list(r) for r in self.u]
        v = [list(r) for r in self.v]
        if not mat_eq(d, mat_mul(mat_mul(u, c), v)):
            return False
        if not (is_unimodular(u) and is_unimodular(v)):
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
# These take either integer matrices (lifted entrywise) or matrices whose
# entries already live in the field's value type.
# --------------------------------------------------------------------------


def mat_lift(a, K):
    return [[K.from_int(x) if isinstance(x, int) else x for x in row] for row in a]


def field_mat_mul(a, b, K):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for i in range(ra):
        out_row = []
        for j in range(cb):
            s = K.zero
            for k in range(ca):
                s = K.add(s, K.mul(a[i][k], b[k][j]))
            out_row.append(s)
        out.append(out_row)
    return out


def field_identity(n, K):
    return [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]


def _rref(a, K):
    """Row-reduce in place; returns (matrix, pivot columns)."""
    rows, cols = mat_shape(a)
    m = [list(row) for row in a]
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not K.is_zero(m[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = K.inv(m[r][col])
        m[r] = [K.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not K.is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [K.sub(x, K.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank_over_field(a, K) -> int:
    _, pivots = _rref(mat_lift(a, K), K)
    return len(pivots)


def mat_inverse_over_field(c, K):
    """Exact two-sided inverse over the field K; raises NotInvertible."""
    rows, cols = mat_shape(c)
    if rows != cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n = rows
    m = [row + ident for row, ident in zip(mat_lift(c, K), field_identity(n, K))]
    red, pivots = _rref(m, K)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular over " + K.name)
    return [row[n:] for row in red]


def nullspace_over_field(a, K):
    """Canonical basis of the right kernel (rref back-substitution)."""
    rows, cols = mat_shape(a)
    red, pivots = _rref(mat_lift(a, K), K)
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for j in free:
        vec = [K.zero] * cols
        vec[j] = K.one
        for r, pcol in enumerate(pivots):
            vec[pcol] = K.neg(red[r][j])
        basis.append(vec)
    return basis
