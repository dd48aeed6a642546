"""Twisted matrix rings and idempotents in the projective ideal.

The projective classes P[i, j] multiply through the Cartan matrix C:
identifying P[i, j] with the matrix unit E_ij turns the projective ideal
into Mat_l(Z) with the twisted product a *_C b = a C b.  Pulling the
matrix units back through a Smith-normal-form change of basis produces
integer idempotents, one for each elementary divisor equal to 1, each
certified primitive by a rank-one-corner witness.  Over a field whose
characteristic does not divide det(C), the twist is invertible and the
ideal becomes a genuine matrix algebra with identity given by C^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ShapeMismatch
from .exactarith import (
    QQ,
    ZZ,
    field_mat_mul,
    mat_eq,
    mat_inverse_over_field,
    mat_lift,
    mat_mul,
    mat_shape,
    rank_over_field,
    snf,
)
from .tring import ProjPair, RingElement, TRing


def cartan_matrix(params) -> list[list[int]]:
    """The model's Cartan matrix: m+1 on the diagonal, m elsewhere."""
    m = params.multiplicity
    e = params.e
    return [[m + 1 if i == j else m for j in range(e)] for i in range(e)]


def cartan_inverse(params, K) -> list[list]:
    """C^{-1} = I - (m/p^n) J over a field K of characteristic != p.

    C = I + m J with J the all-ones matrix, J^2 = e J and 1 + m e = p^n.
    """
    shift = K.neg(K.div(K.from_int(params.multiplicity), K.from_int(params.pn)))
    e = params.e
    return [[K.add(K.one, shift) if i == j else shift for j in range(e)] for i in range(e)]


class TwistedMatRing:
    """Square matrices with the product a *_c b = a c b."""

    def __init__(self, size: int, twist, scalar=ZZ):
        rows, cols = mat_shape(twist)
        if rows != size or cols != size:
            raise ShapeMismatch(f"twist must be {size}x{size}")
        self.size = size
        self.twist = [list(r) for r in twist]
        self.scalar = scalar

    def mult(self, a, b):
        if mat_shape(a) != (self.size, self.size) or mat_shape(b) != (
            self.size,
            self.size,
        ):
            raise ShapeMismatch("operands must match the ring size")
        if self.scalar is ZZ:
            return mat_mul(mat_mul(a, self.twist), b)
        K = self.scalar
        return field_mat_mul(
            field_mat_mul(mat_lift(a, K), mat_lift(self.twist, K), K),
            mat_lift(b, K),
            K,
        )

    def is_idempotent(self, a) -> bool:
        return mat_eq(self.mult(a, a), a)

    def are_orthogonal(self, a, b) -> bool:
        zero = [[self.scalar.zero] * self.size for _ in range(self.size)]
        if self.scalar is ZZ:
            zero = [[0] * self.size for _ in range(self.size)]
        return mat_eq(self.mult(a, b), zero) and mat_eq(self.mult(b, a), zero)


def matrix_units(l: int):
    out = []
    for i in range(l):
        for j in range(l):
            m = [[0] * l for _ in range(l)]
            m[i][j] = 1
            out.append(m)
    return out


@dataclass
class IdempotentCertificate:
    """An element together with recomputable primitivity evidence."""

    element: list
    checks: dict = field(default_factory=dict)


def _rank_one_corner(ring: TwistedMatRing, e) -> bool:
    """Z-rank of {e *_C X *_C e : X a matrix unit} equals 1."""
    vectors = []
    for x in matrix_units(ring.size):
        corner = ring.mult(ring.mult(e, x), e)
        vectors.append([entry for row in corner for entry in row])
    return rank_over_field(vectors, QQ) == 1


def certify_projective_idempotent(c, element) -> IdempotentCertificate:
    """Recompute idempotency and the rank-one-corner witness from scratch."""
    size = mat_shape(c)[0]
    ring = TwistedMatRing(size, c)
    cert = IdempotentCertificate(element=[list(r) for r in element])
    cert.checks["idempotent"] = ring.is_idempotent(element)
    cert.checks["rank_one_corner"] = _rank_one_corner(ring, element)
    return cert


def orthogonal_projective_idempotents(c) -> list[IdempotentCertificate]:
    """A maximal family of orthogonal primitive idempotents over Z.

    One idempotent per elementary divisor equal to 1: pull the matrix
    units E_ii back through the Smith-normal-form change of basis.  Each
    certificate records idempotency, pairwise orthogonality, and the
    rank-one-corner primitivity witness.
    """
    size = mat_shape(c)[0]
    result = snf(c)
    assert result.check(c)
    diag = result.diagonal()
    r = sum(1 for x in diag if x == 1)
    ring = TwistedMatRing(size, c)
    u = [list(row) for row in result.u]
    v = [list(row) for row in result.v]
    elements = []
    for i in range(r):
        unit = [[0] * size for _ in range(size)]
        unit[i][i] = 1
        elements.append(mat_mul(mat_mul(v, unit), u))
    certs = []
    for i, elem in enumerate(elements):
        cert = certify_projective_idempotent(c, elem)
        cert.checks["orthogonal_to"] = [
            j
            for j, other in enumerate(elements)
            if j != i and ring.are_orthogonal(elem, other)
        ]
        certs.append(cert)
    return certs


def projective_identity(c, K):
    """Coefficient matrix of the identity of the projective ideal over K.

    This is C^{-1}: the element sum_{i,j} c'_ij P[i, j].  Raises
    NotInvertible when det(C) vanishes in K.
    """
    return mat_inverse_over_field(c, K)


def matrix_to_projective_element(ring: TRing, S, mat) -> RingElement:
    """Interpret a coefficient matrix as an element of the projective span."""
    e = ring.params.e
    rows, cols = mat_shape(mat)
    if rows != e or cols != e:
        raise ShapeMismatch(f"expected {e}x{e} coefficients")
    coeffs = {}
    for lam in range(e):
        for mu in range(e):
            val = mat[lam][mu]
            coeffs[ProjPair(lam, mu)] = (
                S.from_int(val) if isinstance(val, int) else val
            )
    return RingElement(ring, S, coeffs)


def projective_element_to_matrix(x: RingElement):
    e = x.ring.params.e
    mat = [[x.scalar.zero] * e for _ in range(e)]
    for b, val in x.coeffs.items():
        if not isinstance(b, ProjPair):
            raise ShapeMismatch("element is not supported on projectives")
        mat[b.lam][b.mu] = val
    return mat


def projective_identity_element(ring: TRing, K) -> RingElement:
    return matrix_to_projective_element(ring, K, projective_identity(
        cartan_matrix(ring.params), K
    ))


def projective_identity_is_central(ring: TRing, K) -> bool:
    """Does the projective identity commute with every basis class?"""
    ident = projective_identity_element(ring, K)
    for b in ring.basis:
        x = ring.from_basis(K, b)
        if ring.mult(ident, x) != ring.mult(x, ident):
            return False
    return True
