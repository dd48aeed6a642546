"""Exact scalar arithmetic and Smith normal form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import det_over_field

from tsring.errors import NotInvertible
from tsring.exactarith import (
    GF,
    QQ,
    ZZ,
    det_int,
    field_mat_mul,
    field_identity,
    identity_matrix,
    is_prime,
    mat_inverse_over_field,
    mat_lift,
    mat_mul,
    nullspace_over_field,
    rank_over_field,
    scalar_ring,
    snf,
)


# ----------------------------------------------------------------- scalars


def test_prime_field_basics():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.from_fraction(Fraction(1, 2)) == 4
    with pytest.raises(NotInvertible):
        F.inv(0)
    with pytest.raises(NotInvertible):
        F.from_fraction(Fraction(1, 7))


def test_integer_ring_rejects_fractions():
    assert ZZ.from_fraction(Fraction(6, 3)) == 2
    with pytest.raises(NotInvertible):
        ZZ.from_fraction(Fraction(1, 2))


def test_scalar_ring_parser():
    assert scalar_ring("Q") is QQ
    assert scalar_ring("F5").q == 5
    assert scalar_ring("Z") is ZZ
    with pytest.raises(ValueError):
        scalar_ring("R")


def test_rational_to_str():
    assert QQ.to_str(Fraction(-4, 9)) == "-4/9"
    assert QQ.to_str(Fraction(6, 3)) == "2"


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_prime_field_is_a_field(a, b):
    F = GF(13)
    x, y = F.from_int(a), F.from_int(b)
    assert F.add(x, y) == (a + b) % 13
    assert F.mul(x, y) == (a * b) % 13
    if x != 0:
        assert F.mul(x, F.inv(x)) == 1


# ----------------------------------------------------------------- the SNF


def test_snf_symmetric_example():
    result = snf([[3, 2], [2, 3]])
    assert result.diagonal() == [1, 5]
    assert result.check([[3, 2], [2, 3]])


def test_snf_identity_stays_identity():
    ident = identity_matrix(4)
    result = snf(ident)
    assert result.diagonal() == [1, 1, 1, 1]
    assert result.check(ident)


def test_snf_special_cartan_shape():
    # by-hand row/column elimination: subtract the last row from the others,
    # clear, and the corner picks up det = m*l + 1
    result = snf([[5, 4], [4, 5]])
    assert result.diagonal() == [1, 9]
    assert result.check([[5, 4], [4, 5]])


def test_snf_deterministic():
    mat = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
    first = snf(mat)
    second = snf(mat)
    assert first == second


def test_snf_handles_zero_and_rectangular():
    assert snf([[0, 0], [0, 0]]).check([[0, 0], [0, 0]])
    rect = [[2, 4, 6], [4, 6, 8]]
    result = snf(rect)
    assert result.check(rect)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=5),
        min_size=2,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_invariants_random(rows):
    assert snf(rows).check(rows)


def test_snf_random_seeded_matrices():
    rng = random.Random(20240811)
    for _ in range(60):
        size = rng.choice([2, 3, 4, 5])
        mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert snf(mat).check(mat)


# ------------------------------------------------------- field linear algebra


def test_inverse_of_special_shape_over_q():
    # (I + m E)^(-1) = I - m/(m*l+1) E
    m, l = 4, 2
    mat = [[m + 1 if i == j else m for j in range(l)] for i in range(l)]
    inv = mat_inverse_over_field(mat, QQ)
    scale = Fraction(m, m * l + 1)
    expected = [
        [Fraction(1) - scale if i == j else -scale for j in range(l)]
        for i in range(l)
    ]
    assert inv == expected


def test_inverse_identity():
    assert mat_inverse_over_field(identity_matrix(3), QQ) == field_identity(3, QQ)


def _bruteforce_inverse_f2(mat):
    # independent oracle: enumerate all 2x2 matrices over F_2
    F = GF(2)
    for bits in range(16):
        cand = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        left = field_mat_mul(mat_lift(mat, F), cand, F)
        right = field_mat_mul(cand, mat_lift(mat, F), F)
        ident = field_identity(2, F)
        if left == ident and right == ident:
            return cand
    return None


def test_inverse_over_f2_matches_bruteforce():
    mat = [[3, 2], [2, 3]]  # det 5, a unit mod 2
    inv = mat_inverse_over_field(mat, GF(2))
    assert inv == _bruteforce_inverse_f2(mat)
    assert inv == field_identity(2, GF(2))


def test_inverse_not_invertible():
    with pytest.raises(NotInvertible):
        mat_inverse_over_field([[5, 0], [0, 5]], GF(5))


def test_two_sided_inverse_exact():
    rng = random.Random(7)
    for K in (QQ, GF(11)):
        for _ in range(20):
            mat = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            try:
                inv = mat_inverse_over_field(mat, K)
            except NotInvertible:
                continue
            lifted = mat_lift(mat, K)
            ident = field_identity(3, K)
            assert field_mat_mul(lifted, inv, K) == ident
            assert field_mat_mul(inv, lifted, K) == ident


def test_rank_and_nullspace():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_over_field(mat, QQ) == 2
    kernel = nullspace_over_field(mat, QQ)
    assert len(kernel) == 1
    vec = kernel[0]
    for row in mat_lift(mat, QQ):
        assert sum(r * v for r, v in zip(row, vec)) == 0


def test_det_int_matches_field_det():
    rng = random.Random(99)
    for _ in range(25):
        mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        assert Fraction(det_int(mat)) == det_over_field(mat, QQ)


def test_is_prime_small():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_mat_mul_int():
    assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
