"""Exact scalar arithmetic and Smith normal form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import det_over_field, field_mat_mul_reference, rref_reference

from tsring import exactarith
from tsring.errors import NotInvertible, NotPrime, ShapeMismatch, TheoremViolation
from tsring.exactarith import (
    GF,
    QQ,
    ZZ,
    SnfResult,
    _inverse,
    _rref,
    det_int,
    field_mat_mul,
    mat_inverse_over_field,
    nullspace_over_field,
    order_components,
    rank_over_field,
    scalar_ring,
    snf,
)
from tsring.model import ProjPair, is_prime, make_params, prime_factors
from tsring.tring import tring


# ----------------------------------------------------------------- scalars


def test_prime_field_basics():
    # values are residues: containers reduce sums and products mod 7
    F = GF(7)
    assert field_mat_mul([[5, 3]], [[1], [6]], F).tolist() == [[2]]  # 5 + 18 = 23
    assert field_mat_mul([[-1]], [[1]], F).tolist() == [[6]]
    assert _inverse(3, F) == 5
    assert _inverse(2, F) == 4  # 1/2 in F_7
    with pytest.raises(NotInvertible):
        _inverse(0, F)
    with pytest.raises(NotInvertible):
        _inverse(7, F)  # the denominator of 1/7 vanishes in F_7
    ring = tring(make_params(3, 1, 1))
    x = ring.element(F, {ProjPair(0, 0): 9, ring.one_elem: -7})
    assert (x.vec.tolist(), x.den) == ([2, 0, 0], 1)


def test_integer_ring_rejects_fractions():
    # Z inverts only its units; 1/2 would be a fraction
    assert _inverse(1, ZZ) == 1
    assert _inverse(-1, ZZ) == -1
    for a in (0, 2, -3):
        with pytest.raises(NotInvertible):
            _inverse(a, ZZ)
    assert _inverse(-2, QQ) == Fraction(-1, 2)
    assert _inverse(Fraction(2, 3), QQ) == Fraction(3, 2)
    with pytest.raises(NotInvertible):
        _inverse(0, QQ)


def test_scalar_ring_parser():
    assert scalar_ring("Q") is QQ
    assert scalar_ring("F5") == GF(5)
    assert scalar_ring("F5").characteristic == 5
    assert scalar_ring("F5").name == "F5" and scalar_ring("F5").is_field
    assert scalar_ring("Z") is ZZ and not ZZ.is_field
    assert QQ.characteristic == ZZ.characteristic == 0 and QQ != ZZ
    assert GF(5) != GF(7) and hash(GF(5)) == hash(GF(5))
    with pytest.raises(ValueError):
        scalar_ring("R")
    with pytest.raises(NotPrime):
        scalar_ring("F4")


def test_rational_to_str():
    # report coefficients are str() of the value: "num/den" over Q
    assert str(Fraction(-4, 9)) == "-4/9"
    assert str(Fraction(6, 3)) == "2"
    ring = tring(make_params(3, 1, 1))
    x = ring.element(QQ, {ProjPair(0, 0): Fraction(-4, 9), ring.one_elem: Fraction(6, 3)})
    assert [t["coeff"] for t in x.to_json()] == ["-4/9", "2"]
    assert repr(x) == "-4/9*P[0,0] + 2*M[1,1,0]"


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_prime_field_is_a_field(a, b):
    F = GF(13)
    assert field_mat_mul([[a]], [[1]], F).tolist() == [[a % 13]]
    assert field_mat_mul([[a, 1]], [[1], [b]], F).tolist() == [[(a + b) % 13]]
    assert field_mat_mul([[a]], [[b]], F).tolist() == [[(a * b) % 13]]
    if a % 13:
        assert a * _inverse(a, F) % 13 == 1
    else:
        with pytest.raises(NotInvertible):
            _inverse(a, F)


# ----------------------------------------------------------------- the SNF


def test_snf_symmetric_example():
    result = snf([[3, 2], [2, 3]])
    assert result.diagonal() == [1, 5]
    assert result.check([[3, 2], [2, 3]])


def test_snf_identity_stays_identity():
    ident = np.eye(4, dtype=np.int64)
    result = snf(ident)
    assert result.diagonal() == [1, 1, 1, 1]
    assert result.check(ident)


def test_order_components():
    # x_0 + x_1 and x_2 + x_3 even: components {0, 1} and {2, 3}; x_0 = x_1
    # mod 3 and x_1 = x_2 mod 2 chain three columns across two primes
    assert sorted(order_components(np.array([[1, 1, 0, 0], [0, 0, 1, 1]]), 2)) == [3, 12]
    assert order_components(np.array([[2, 4, 0], [0, 3, 3]]), 6) == [7]
    # x_0 + x_1 + x_2 = 0 mod 3 holds no single column and is no ring: its
    # components are not in the order, which is refused, not assumed
    with pytest.raises(TheoremViolation, match="component 1 outside the order"):
        order_components(np.array([[1, 1, 1]]), 3)


# x_0 = x_1 mod 12 and x_2 = x_3 mod 3, the third row twice the second: the
# components are {0, 1} and {2, 3}; the Smith form has the diagonal entry
# 12 = 0 mod 12 and a column past the diagonal, which the forgeries use
ORDER_ROWS, ORDER_DEN = np.array([[1, 11, 0, 0], [0, 0, 4, 8], [0, 0, 8, 4]]), 12


def _v_column_times(ell):
    def forge(result):
        # the column past the diagonal: u A v = d and A B = 0 still hold
        v = result.v.astype(object)
        v[:, 3] *= ell
        return SnfResult(result.d, result.u, v)

    return forge


def _off_diagonal(result):
    # row 1 added to row 0 of u and of d: u A v = d still holds
    u, d = result.u.astype(object), result.d.astype(object)
    u[0] += u[1]
    d[0] += d[1]
    return SnfResult(d, u, result.v)


def _wrong_diagonal(result):
    # 12 read as 1: the column of B it scales becomes 0, so A B = 0 holds
    d = result.d.astype(object)
    (j,) = [j for j in range(len(d)) if d[j, j] == ORDER_DEN]
    d[j, j] = 1
    return SnfResult(d, result.u, result.v)


def _zero_row(result):
    # the row of the entry 4 zeroed in u and in d: u A v = d holds, but the
    # column of B it scaled becomes a column of v outside the order
    u, d = result.u.astype(object), result.d.astype(object)
    (j,) = [j for j in range(len(d)) if d[j, j] == 4]
    u[j] = d[j, j] = 0
    return SnfResult(d, u, result.v)


@pytest.mark.parametrize(
    "forge",
    [_v_column_times(2), _v_column_times(3), _off_diagonal, _wrong_diagonal, _zero_row],
    ids=["v-times-2", "v-times-3", "off-diagonal", "u-A-v-not-d", "A-B-not-0"],
)
def test_order_basis_refuses_a_forged_smith_form(monkeypatch, forge):
    # each forgery breaks exactly one of the checks mod D: v invertible mod
    # every prime of D, d diagonal, u A v = d, A B = 0
    assert sorted(order_components(ORDER_ROWS, ORDER_DEN)) == [3, 12]
    monkeypatch.setattr(exactarith, "snf", lambda c: forge(snf(c)))
    with pytest.raises(TheoremViolation, match="order basis"):
        order_components(ORDER_ROWS, ORDER_DEN)


def _order_with_blocks(rng, den, k):
    """(a, masks): rows mod den whose 0/1 solutions are exactly the unions of
    a random partition of range(k), the partition's blocks as bitmasks.

    A block is chained by rows (den / q) c (x_i - x_j), q a prime power
    exactly dividing den and c a unit mod q, each forcing x_i = x_j mod q;
    random combinations of the rows follow, then a shuffle."""
    primes = prime_factors(den)
    powers = [ell ** primes.count(ell) for ell in set(primes)]
    label = [rng.randrange(k) if powers else i for i in range(k)]
    blocks = [[i for i in range(k) if label[i] == x] for x in sorted(set(label))]
    rows = []
    for members in blocks:
        for i, j in zip(members, members[1:]):
            q = rng.choice(powers)
            c = rng.choice([u for u in range(1, q) if math.gcd(u, q) == 1]) * (den // q)
            rows.append([c if t == i else -c if t == j else 0 for t in range(k)])
    for _ in range(rng.randrange(2 * k) if rows else rng.randrange(3)):
        r = [rng.randrange(den + 1) for _ in rows]
        rows.append([sum(x * row[t] for x, row in zip(r, rows)) % den for t in range(k)])
    rng.shuffle(rows)
    a = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    return a, sorted(sum(1 << i for i in members) for members in blocks)


def test_order_components_match_subset_sums():
    # D with two primes, one repeated, and D = 1; the integral 0/1 vectors by
    # brute force over all 2^k subsets, against the unions of the components
    rng = random.Random(20261020)
    shapes = set()
    for den in (54, 20, 1):
        for _ in range(25):
            k = rng.randint(1, 12)
            a, masks = _order_with_blocks(rng, den, k)
            comps = sorted(order_components(a, den))
            assert comps == masks
            bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
            integral = np.flatnonzero(~((bits @ a.T) % den).any(axis=1)).tolist()
            unions = sorted(
                sum(c for j, c in enumerate(comps) if t >> j & 1) for t in range(1 << len(comps))
            )
            assert integral == unions
            m = len({tuple(row) for row in (a % den).tolist() if any(row)})
            shapes.add((den, (m > k) - (m < k)))
    assert {(54, -1), (54, 1), (20, -1), (20, 1), (1, -1)} <= shapes


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
    for x, y in ((first.d, second.d), (first.u, second.u), (first.v, second.v)):
        assert np.array_equal(x, y)


def test_snf_handles_zero_and_rectangular():
    assert snf([[0, 0], [0, 0]]).check([[0, 0], [0, 0]])
    rect = [[2, 4, 6], [4, 6, 8]]
    result = snf(rect)
    assert result.check(rect)
    # no entries at all: the 0 x 0 transformation has determinant 1
    assert det_int([]) == 1
    for empty in ([], np.zeros((0, 3), dtype=np.int64), [[], [], []]):
        result = snf(empty)
        assert result.check(empty)
        assert result.diagonal() == []
    assert snf([[], [], []]).u.shape == (3, 3) and snf([[], [], []]).v.shape == (0, 0)


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
    assert inv.tolist() == expected


def test_inverse_identity():
    ident = np.eye(3, dtype=np.int64)
    assert np.array_equal(mat_inverse_over_field(ident, QQ), ident)


def _bruteforce_inverse_f2(mat):
    # independent oracle: enumerate all 2x2 matrices over F_2
    F = GF(2)
    for bits in range(16):
        cand = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        left = field_mat_mul(mat, cand, F).tolist()
        right = field_mat_mul(cand, mat, F).tolist()
        ident = [[1, 0], [0, 1]]
        if left == ident and right == ident:
            return cand
    return None


def test_inverse_over_f2_matches_bruteforce():
    mat = [[3, 2], [2, 3]]  # det 5, a unit mod 2
    inv = mat_inverse_over_field(mat, GF(2))
    assert inv.tolist() == _bruteforce_inverse_f2(mat)
    assert inv.tolist() == [[1, 0], [0, 1]]


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
            ident = np.eye(3, dtype=np.int64)
            assert np.array_equal(field_mat_mul(mat, inv, K), ident)
            assert np.array_equal(field_mat_mul(inv, mat, K), ident)


def test_rank_and_nullspace():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_over_field(mat, QQ) == 2
    kernel = nullspace_over_field(mat, QQ)
    assert len(kernel) == 1
    vec = kernel[0]
    for row in mat:
        assert sum(r * v for r, v in zip(row, vec)) == 0


# F2147483659 is the least prime above 2^31: products of two of its
# residues overflow int64, so its elimination runs on Python ints
RREF_FIELDS = [GF(2), GF(3), GF(13), GF(2147483659), QQ]


def matrices(K):
    """Lists of rows: empty, zero, wide, tall and square, small and huge entries."""
    if K is QQ:
        entry = st.one_of(st.integers(-3, 3), st.fractions(-9, 9, max_denominator=7))
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))
    shape = st.tuples(st.integers(0, 6), st.integers(0, 6))
    zero = shape.map(lambda rc: [[0] * rc[1] for _ in range(rc[0])])
    full = shape.flatmap(
        lambda rc: st.lists(
            st.lists(entry, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
    )
    # a repeated row makes a rank drop likely over every field
    repeated = full.filter(bool).map(lambda rows: rows + rows[-1:])
    return st.one_of(zero, full, repeated)


@pytest.mark.parametrize("K", RREF_FIELDS, ids=lambda K: K.name)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_array_elimination_matches_row_reference(K, data):
    a = data.draw(matrices(K))
    red, pivots = _rref(a, K)
    assert (red.tolist(), pivots) == rref_reference(a, K)
    q = K.characteristic
    assert red.dtype == (object if q in (0, 2147483659) else np.int64)


def test_array_elimination_keeps_the_columns_of_an_empty_array():
    assert nullspace_over_field(np.zeros((0, 3), dtype=np.int64), GF(5)).tolist() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert rank_over_field(np.zeros((2, 0), dtype=np.int64), QQ) == 0


def test_det_int_matches_field_det():
    rng = random.Random(99)
    for _ in range(25):
        mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        assert Fraction(det_int(mat)) == det_over_field(mat, QQ)


def test_is_prime_small():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_factors_multiply_back():
    for n in range(1, 2001):
        factors = prime_factors(n)
        assert factors == sorted(factors)
        assert all(q > 1 and all(q % r for r in range(2, math.isqrt(q) + 1)) for q in factors)
        assert math.prod(factors) == n


def test_mat_mul_int():
    assert field_mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]], ZZ).tolist() == [[2, 1], [4, 3]]
    assert field_mat_mul([[-7, 9]], [[5], [8]], ZZ).tolist() == [[37]]  # not reduced over Z


MUL_RINGS = [ZZ, QQ, GF(13), GF(2147483659)]


def factor_pairs(K):
    """(a, b), lists of rows with a's columns as b's rows; small entries,
    entries past 2^62 and entries in [2^63, 2^64), which numpy would read
    as uint64; Fractions over Q."""
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-(1 << 70), 1 << 70),
        st.integers(1 << 63, (1 << 64) - 1),
    )
    if K is QQ:
        entry = st.one_of(entry, st.fractions(-9, 9, max_denominator=7))

    def rows(r, c):
        return st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)

    # a list with no rows has no columns either
    dims = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).map(
        lambda d: (d[0], d[1] * bool(d[0]), d[2] * bool(d[0] and d[1]))
    )
    return dims.flatmap(lambda d: st.tuples(rows(d[0], d[1]), rows(d[1], d[2])))


@pytest.mark.parametrize("K", MUL_RINGS, ids=lambda K: K.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_mat_mul_matches_list_reference(K, data):
    a, b = data.draw(factor_pairs(K))
    product = field_mat_mul(a, b, K)
    assert product.tolist() == field_mat_mul_reference(a, b, K)
    # int64 exactly while both factors are int64 (integral entries below
    # 2^62) and max|a| max|b| times the inner dimension is below 2^62
    entries = [x for m in (a, b) for row in m for x in row]
    if all(Fraction(x).denominator == 1 and abs(x) < 1 << 62 for x in entries):
        size = max((abs(x) for row in a for x in row), default=0)
        size *= max((abs(x) for row in b for x in row), default=0) * len(b)
        assert product.dtype == (np.int64 if size < 1 << 62 else object)
    else:
        assert product.dtype == object


@pytest.mark.parametrize("K", MUL_RINGS, ids=lambda K: K.name)
def test_field_mat_mul_refuses_mismatched_and_ragged_lists(K):
    with pytest.raises(ShapeMismatch):
        field_mat_mul([[1, 2]], [[1, 2]], K)
    with pytest.raises(ShapeMismatch):
        field_mat_mul([[1, 2], [3]], [[1], [2]], K)
    with pytest.raises(ShapeMismatch):
        field_mat_mul([[1]], [[1, 2], [3]], K)
    with pytest.raises(ShapeMismatch):
        field_mat_mul(np.zeros(3, dtype=np.int64), [[1]], K)
