"""Twisted matrix rings and idempotents in the projective ideal.

The projective classes P[i, j] multiply through the Cartan matrix C:
identifying P[i, j] with the matrix unit E_ij turns the projective ideal
into Mat_l(Z) with the twisted product a *_C b = a C b.  Pulling the
matrix units back through a Smith-normal-form change of basis produces
integer idempotents, one for each elementary divisor equal to 1.

Each is certified primitive by a rank-one corner.  The corner element
X *_C E_ij *_C X = (X C e_i)(e_j^T C X) is column i of XC times row j of
CX, so the Q-span of the corner is col(XC) (x) row(CX), of rank
rank(XC) * rank(CX).  The corner has rank one exactly when
rank_Q(XC) = rank_Q(CX) = 1 (`_rank_one_corner`).  Theorems A and C
(`blocks.corner_rank_is_one`) share one e x e certificate,
`is_primitive_idempotent`.  Neither multiplies two distinct members:
orthogonality follows from one idempotent sum by the sum lemma (`blocks`).

Over a field whose characteristic does not divide det(C), the twist is
invertible and the ideal becomes a genuine matrix algebra with identity
given by C^{-1}.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ShapeMismatch, TheoremViolation
from .exactarith import (
    QQ,
    ZZ,
    _inverse,
    as_matrix,
    exact_dtype,
    field_mat_mul,
    rank_over_field,
    residues,
    snf,
)
from .tring import RingElement, TRing


def cartan_matrix(params) -> np.ndarray:
    """The model's Cartan matrix: m+1 on the diagonal, m elsewhere."""
    m, e = params.multiplicity, params.e
    dtype = exact_dtype(m + 1)
    return np.full((e, e), m, dtype=dtype) + np.eye(e, dtype=dtype)


def cartan_inverse(params, K) -> np.ndarray:
    """C^{-1} = I - (m/p^n) J over a field K of characteristic != p.

    C = I + m J with J the all-ones matrix, J^2 = e J and 1 + m e = p^n.
    """
    shift = -params.multiplicity * _inverse(params.pn, K)
    return as_matrix(residues(K, np.eye(params.e, dtype=object) + shift))


class TwistedMatRing:
    """Square matrices with the product a *_c b = a c b."""

    def __init__(self, size: int, twist, scalar=ZZ):
        self.twist = as_matrix(twist)
        if self.twist.shape != (size, size):
            raise ShapeMismatch(f"twist must be {size}x{size}")
        self.size = size
        self.scalar = scalar

    def mult(self, a, b):
        a, b = as_matrix(a), as_matrix(b)
        if a.shape != self.twist.shape or b.shape != self.twist.shape:
            raise ShapeMismatch("operands must match the ring size")
        K = self.scalar
        return field_mat_mul(field_mat_mul(a, self.twist, K), b, K)

    def is_idempotent(self, a) -> bool:
        """a *_c a == a, with a reduced into the scalars first."""
        return np.array_equal(self.mult(a, a), residues(self.scalar, as_matrix(a)))


def _rank_one_corner(c, x) -> bool:
    """The corner {x *_c E_ij *_c x} has Q-rank 1: rank(xc) = rank(cx) = 1.

    The corner spans col(xc) (x) row(cx) (module docstring), for any x.
    """
    return (
        rank_over_field(field_mat_mul(x, c, ZZ), QQ)
        == rank_over_field(field_mat_mul(c, x, ZZ), QQ)
        == 1
    )


def is_primitive_idempotent(c, x) -> bool:
    """x is an idempotent of the twisted ring on c with a rank-one corner.

    One twisted square and two e x e ranks; x may hold Fractions.
    """
    c = as_matrix(c)
    return TwistedMatRing(len(c), c, QQ).is_idempotent(x) and _rank_one_corner(c, x)


def orthogonal_projective_idempotents(c) -> list[np.ndarray]:
    """A maximal family of orthogonal primitive idempotents over Z.

    One idempotent per elementary divisor equal to 1: pull the matrix
    units E_ii back through the Smith-normal-form change of basis, so
    idempotent i is v E_ii u, column i of v times row i of u.  Each member
    passes `is_primitive_idempotent`, and their sum v[:, :r] u[:r] is
    checked idempotent: the twisted ring is an associative Q-algebra
    (adjoin a unit if c is singular), so the members are pairwise
    orthogonal by the sum lemma.  Any failure raises TheoremViolation.
    """
    c = as_matrix(c)
    result = snf(c)
    if not result.check(c):
        raise TheoremViolation(
            "Smith normal form d = u C v with u, v unimodular and d a diagonal"
            " divisibility chain"
        )
    r = result.diagonal().count(1)
    members = [field_mat_mul(result.v[:, i : i + 1], result.u[i : i + 1], ZZ) for i in range(r)]
    if not all(is_primitive_idempotent(c, x) for x in members):
        raise TheoremViolation("a Smith member is not a primitive idempotent")
    total = field_mat_mul(result.v[:, :r], result.u[:r], ZZ)
    if not TwistedMatRing(len(c), c).is_idempotent(total):
        raise TheoremViolation("the Smith members do not sum to an idempotent")
    return members


def matrix_to_projective_element(ring: TRing, S, mat) -> RingElement:
    """The element whose first e^2 coefficients, the P[lam, mu], are `mat` row by row."""
    e = ring.params.e
    mat = as_matrix(mat)
    if mat.shape != (e, e):
        raise ShapeMismatch(f"expected {e}x{e} coefficients")
    return ring.from_vector(S, mat.ravel(), slice(0, e * e))


def projective_element_to_matrix(x: RingElement) -> np.ndarray:
    """The first e^2 coefficients of x, the P[lam, mu], as an e x e matrix."""
    e = x.ring.params.e
    if x.vec[e * e :].any():
        raise ShapeMismatch("element is not supported on projectives")
    mat = x.vec[: e * e].reshape(e, e).copy()
    return mat if x.den == 1 else mat.astype(object) * Fraction(1, x.den)


def projective_identity_element(ring: TRing, K) -> RingElement:
    """The identity sum_{i,j} c'_ij P[i, j] of the projective span over K.

    C^{-1} = (c'_ij) is the closed form `cartan_inverse`, certified by
    C C^{-1} = I over K.  Built once per ring and field.
    """
    key = f"projective identity over {K.name}"
    if key not in ring.block_memo:
        c = cartan_matrix(ring.params)
        inverse = cartan_inverse(ring.params, K)
        if not np.array_equal(field_mat_mul(c, inverse, K), np.eye(len(c), dtype=np.int64)):
            raise TheoremViolation(f"C C^-1 = I over {K.name}")
        ring.block_memo[key] = matrix_to_projective_element(ring, K, inverse)
    return ring.block_memo[key]


def projective_identity_is_central(ring: TRing, K) -> bool:
    """Does the projective identity commute with every basis class?"""
    return not ring.noncommuting(projective_identity_element(ring, K))
