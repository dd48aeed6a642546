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
from fractions import Fraction

from .errors import ShapeMismatch, TheoremViolation
from .exactarith import (
    QQ,
    ZZ,
    _inverse,
    _reduce_row,
    field_mat_mul,
    identity_matrix,
    mat_shape,
    rank_over_field,
    snf,
)
from .tring import RingElement, TRing


def cartan_matrix(params) -> list[list[int]]:
    """The model's Cartan matrix: m+1 on the diagonal, m elsewhere."""
    m = params.multiplicity
    e = params.e
    return [[m + 1 if i == j else m for j in range(e)] for i in range(e)]


def cartan_inverse(params, K) -> list[list]:
    """C^{-1} = I - (m/p^n) J over a field K of characteristic != p.

    C = I + m J with J the all-ones matrix, J^2 = e J and 1 + m e = p^n.
    """
    shift = -params.multiplicity * _inverse(params.pn, K)
    e = params.e
    return [_reduce_row([int(i == j) + shift for j in range(e)], K) for i in range(e)]


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
        K = self.scalar
        return field_mat_mul(field_mat_mul(a, self.twist, K), b, K)

    def is_idempotent(self, a) -> bool:
        """a *_c a == a, with a reduced into the scalars first."""
        return self.mult(a, a) == [_reduce_row(list(row), self.scalar) for row in a]

    def are_orthogonal(self, a, b) -> bool:
        zero = [[0] * self.size for _ in range(self.size)]
        return self.mult(a, b) == zero and self.mult(b, a) == zero


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
    if not result.check(c):
        raise TheoremViolation(
            "Smith normal form d = u C v with u, v unimodular and d a diagonal"
            " divisibility chain"
        )
    diag = result.diagonal()
    r = sum(1 for x in diag if x == 1)
    ring = TwistedMatRing(size, c)
    elements = []
    for i in range(r):
        unit = [[0] * size for _ in range(size)]
        unit[i][i] = 1
        elements.append(field_mat_mul(field_mat_mul(result.v, unit, ZZ), result.u, ZZ))
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


def matrix_to_projective_element(ring: TRing, S, mat) -> RingElement:
    """The element whose first e^2 coefficients, the P[lam, mu], are `mat` row by row."""
    e = ring.params.e
    rows, cols = mat_shape(mat)
    if rows != e or cols != e:
        raise ShapeMismatch(f"expected {e}x{e} coefficients")
    return ring.element(S, dict(zip(ring.basis, (v for row in mat for v in row))))


def projective_element_to_matrix(x: RingElement):
    """The first e^2 coefficients of x, the P[lam, mu], as an e x e matrix."""
    e = x.ring.params.e
    if x.vec[e * e :].any():
        raise ShapeMismatch("element is not supported on projectives")
    mat = x.vec[: e * e].reshape(e, e).tolist()
    if x.den != 1:
        mat = [[Fraction(v, x.den) for v in row] for row in mat]
    return mat


def projective_identity_element(ring: TRing, K) -> RingElement:
    """The identity sum_{i,j} c'_ij P[i, j] of the projective span over K.

    C^{-1} = (c'_ij) is the closed form `cartan_inverse`, certified by
    C C^{-1} = I over K.  Built once per ring and field.
    """
    key = f"projective identity over {K.name}"
    if key not in ring.block_memo:
        c = cartan_matrix(ring.params)
        inverse = cartan_inverse(ring.params, K)
        if field_mat_mul(c, inverse, K) != identity_matrix(len(c)):
            raise TheoremViolation(f"C C^-1 = I over {K.name}")
        ring.block_memo[key] = matrix_to_projective_element(ring, K, inverse)
    return ring.block_memo[key]


def projective_identity_is_central(ring: TRing, K) -> bool:
    """Does the projective identity commute with every basis class?"""
    return not ring.noncommuting(projective_identity_element(ring, K))
