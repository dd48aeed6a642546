"""Twisted matrix rings and idempotents in the projective span."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    matrix_units,
    projective_identity,
    projective_primitive_decomposition,
    rank_one_corner_reference,
)

from tsring import cartan
from tsring.errors import NotInvertible, ShapeMismatch, TheoremViolation
from tsring.exactarith import (
    GF,
    QQ,
    ZZ,
    SnfResult,
    field_mat_mul,
    mat_inverse_over_field,
    rank_over_field,
    snf,
)
from tsring.model import ProjPair, make_params
from tsring.tring import tring


def identity_matrix(n):
    return np.eye(n, dtype=np.int64)


def _orthogonal(ring, a, b):
    """a *_c b = 0 = b *_c a, by brute force."""
    return not (ring.mult(a, b).any() or ring.mult(b, a).any())


def _int_inverse(mat):
    """Exact integer inverse of a unimodular matrix."""
    inv = mat_inverse_over_field(mat, QQ)
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------- Cartan matrices


def test_cartan_matrix_shapes():
    assert cartan.cartan_matrix(make_params(3, 2, 2)).tolist() == [[5, 4], [4, 5]]
    assert cartan.cartan_matrix(make_params(3, 1, 1)).tolist() == [[3]]
    mat = cartan.cartan_matrix(make_params(5, 1, 4))
    assert all(mat[i][i] == 2 for i in range(4))
    assert all(mat[i][j] == 1 for i in range(4) for j in range(4) if i != j)


def test_cartan_snf_is_elementary_divisor_chain(any_params):
    params = any_params
    mat = cartan.cartan_matrix(params)
    diag = snf(mat).diagonal()
    assert diag == [1] * (params.e - 1) + [params.pn]


# -------------------------------------------------------- twisted mat rings


def test_twisted_mult_identity_twist_is_ordinary():
    ring = cartan.TwistedMatRing(2, identity_matrix(2))
    a, b = [[1, 2], [3, 4]], [[0, 1], [1, 1]]
    assert np.array_equal(ring.mult(a, b), field_mat_mul(a, b, ZZ))


def test_twisted_rank_one_idempotents_only_zero():
    ring = cartan.TwistedMatRing(1, [[3]])
    sols = [a for a in range(-30, 31) if ring.mult([[a]], [[a]]).tolist() == [[a]]]
    assert sols == [0]


def test_twisted_corner_is_square_scalar():
    diag = [[2, 0], [0, 6]]
    ring = cartan.TwistedMatRing(2, diag)
    e11 = [[1, 0], [0, 0]]
    assert ring.mult(e11, e11).tolist() == [[2, 0], [0, 0]]
    # the corner e *_D x *_D e picks up the square of the diagonal entry
    assert ring.mult(ring.mult(e11, e11), e11).tolist() == [[4, 0], [0, 0]]


def test_twisted_is_idempotent_reduces_its_input():
    # 6 = 1 in F_5, and 1 * 1 * 1 = 1
    assert cartan.TwistedMatRing(1, [[1]], GF(5)).is_idempotent([[6]])
    assert not cartan.TwistedMatRing(1, [[1]], GF(5)).is_idempotent([[2]])
    assert not cartan.TwistedMatRing(1, [[1]]).is_idempotent([[6]])


def test_twisted_shape_mismatch():
    ring = cartan.TwistedMatRing(2, identity_matrix(2))
    with pytest.raises(ShapeMismatch):
        ring.mult([[1, 2, 3]], [[1], [2], [3]])


# --------------------------------------------------- integral idempotents


def test_orthogonal_idempotents_special_cartan():
    c = [[5, 4], [4, 5]]
    members = cartan.orthogonal_projective_idempotents(c)
    assert len(members) == 1
    assert cartan.TwistedMatRing(2, c).is_idempotent(members[0])
    assert rank_one_corner_reference(c, members[0])


def test_known_difference_form_certifies():
    assert cartan.is_primitive_idempotent([[5, 4], [4, 5]], [[1, 0], [-1, 0]])


def test_orthogonal_idempotents_identity_cartan():
    members = cartan.orthogonal_projective_idempotents(identity_matrix(3))
    assert len(members) == 3
    units = matrix_units(3)
    ring = cartan.TwistedMatRing(3, identity_matrix(3))
    for i, x in enumerate(members):
        assert x.tolist() == units[i * 3 + i]
        assert all(_orthogonal(ring, x, y) for j, y in enumerate(members) if j != i)


def test_orthogonal_idempotents_defect_full():
    assert cartan.orthogonal_projective_idempotents([[3]]) == []


def test_idempotent_images_under_snf_iso_are_units(any_params):
    params = any_params
    c = cartan.cartan_matrix(params)
    result = snf(c)
    members = cartan.orthogonal_projective_idempotents(c)
    u = [list(r) for r in result.u]
    v_inv = _int_inverse([list(r) for r in result.v])
    u_inv = _int_inverse(u)
    for i, x in enumerate(members):
        image = field_mat_mul(field_mat_mul(v_inv, x, ZZ), u_inv, ZZ)
        expected = [[0] * params.e for _ in range(params.e)]
        expected[i][i] = 1
        assert image.tolist() == expected


def test_maximality_rank_witness(any_params):
    # the count of unit elementary divisors equals the mod-p rank of the
    # normal form, the obstruction to any larger orthogonal family
    params = any_params
    c = cartan.cartan_matrix(params)
    result = snf(c)
    r = sum(1 for x in result.diagonal() if x == 1)
    assert rank_over_field([list(row) for row in result.d], GF(params.p)) == r
    assert r == params.e - 1


def test_random_spd_idempotent_families():
    import random

    rng = random.Random(424242)
    for _ in range(30):
        size = rng.choice([2, 3])
        a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        c = field_mat_mul(a, [list(r) for r in zip(*a)], ZZ)
        for i in range(size):
            c[i][i] += 1  # makes it positive definite
        ring = cartan.TwistedMatRing(size, c)
        members = cartan.orthogonal_projective_idempotents(c)
        for i, x in enumerate(members):
            assert ring.is_idempotent(x)
            assert rank_one_corner_reference(c, x)
            for y in members[i + 1 :]:
                assert _orthogonal(ring, x, y)


@pytest.mark.parametrize("pne", [(3, 2, 2), (5, 1, 4), (13, 2, 12), (29, 1, 28)])
def test_theorem_a_makes_at_most_r_plus_one_twisted_products(monkeypatch, pne):
    # one square per member and one of their sum: no pair is multiplied
    c = cartan.cartan_matrix(make_params(*pne))
    mult, calls = cartan.TwistedMatRing.mult, []

    def counted(self, a, b):
        calls.append(1)
        return mult(self, a, b)

    monkeypatch.setattr(cartan.TwistedMatRing, "mult", counted)
    r = len(cartan.orthogonal_projective_idempotents(c))
    assert r == pne[2] - 1
    assert len(calls) <= r + 1


def test_duplicated_smith_member_is_refused_by_the_sum(monkeypatch):
    # member 1 made equal to member 0: each member is still a primitive
    # idempotent, but their sum 2 x_0 + x_2 is not idempotent
    c = cartan.cartan_matrix(make_params(5, 1, 4))
    result = snf(c)
    u, v = result.u.copy(), result.v.copy()
    u[1], v[:, 1] = u[0], v[:, 0]
    forged = SnfResult(d=result.d, u=u, v=v)
    monkeypatch.setattr(cartan, "snf", lambda _c: forged)
    monkeypatch.setattr(SnfResult, "check", lambda self, _c: True)
    members = [field_mat_mul(v[:, i : i + 1], u[i : i + 1], ZZ) for i in range(3)]
    assert all(cartan.is_primitive_idempotent(c, x) for x in members)
    with pytest.raises(TheoremViolation, match="sum to an idempotent"):
        cartan.orthogonal_projective_idempotents(c)


def test_non_idempotent_smith_member_is_refused(monkeypatch):
    c = cartan.cartan_matrix(make_params(5, 1, 4))
    result = snf(c)
    forged = SnfResult(d=result.d, u=result.u * 2, v=result.v)
    monkeypatch.setattr(cartan, "snf", lambda _c: forged)
    monkeypatch.setattr(SnfResult, "check", lambda self, _c: True)
    with pytest.raises(TheoremViolation, match="not a primitive idempotent"):
        cartan.orthogonal_projective_idempotents(c)


def _unimodular(e):
    """L U, with L unit lower and U unit upper triangular: det 1."""
    entries = st.lists(st.integers(-2, 2), min_size=e * e, max_size=e * e)

    def build(pair):
        lower, upper = (np.array(x, dtype=object).reshape(e, e) for x in pair)
        lower, upper = np.tril(lower, -1), np.triu(upper, 1)
        np.fill_diagonal(lower, 1)
        np.fill_diagonal(upper, 1)
        return field_mat_mul(lower, upper, ZZ)

    return st.tuples(entries, entries).map(build)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sum_lemma_in_twisted_rings(data):
    # idempotents x_k = A E_kk A^-1 C^-1 of the twisted ring on C, from one
    # or two bases A: their sum is idempotent exactly when they are
    # pairwise orthogonal, checked by brute force
    e = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        m = data.draw(st.integers(1, 6))
        c = np.full((e, e), m, dtype=np.int64) + np.eye(e, dtype=np.int64)
    else:
        a = np.array(data.draw(_square(e)), dtype=np.int64)
        c = field_mat_mul(a, a.T, ZZ) + np.eye(e, dtype=np.int64)  # positive definite
    c_inv = mat_inverse_over_field(c, QQ)
    ring = cartan.TwistedMatRing(e, c, QQ)
    members = []
    for _ in range(data.draw(st.integers(1, 2))):
        basis = data.draw(_unimodular(e))
        inverse = mat_inverse_over_field(basis, QQ)
        for k in data.draw(st.lists(st.integers(0, e - 1), max_size=e)):
            unit = np.zeros((e, e), dtype=np.int64)
            unit[k, k] = 1
            members.append(field_mat_mul(field_mat_mul(basis, unit, ZZ), inverse, QQ))
    members = [field_mat_mul(x, c_inv, QQ) for x in members]
    assert all(ring.is_idempotent(x) for x in members)
    total = sum(members, np.zeros((e, e), dtype=object))
    orthogonal = all(
        _orthogonal(ring, x, y) for i, x in enumerate(members) for y in members[i + 1 :]
    )
    assert ring.is_idempotent(total) == orthogonal


# ------------------------------------------------------ rank-one corners


def _square(e):
    return st.lists(st.lists(st.integers(-3, 3), min_size=e, max_size=e), min_size=e, max_size=e)


def _outer(e):
    vec = st.lists(st.integers(-3, 3), min_size=e, max_size=e)
    return st.tuples(vec, vec).map(lambda uv: [[a * b for b in uv[1]] for a in uv[0]])


def _corner_operands(e):
    """X: zero, arbitrary (mostly not idempotent), rank one, a sum of two
    rank-one matrices (rank two when e >= 2), or with a repeated row."""
    return st.one_of(
        st.just([[0] * e for _ in range(e)]),
        _square(e),
        _outer(e),
        st.tuples(_outer(e), _outer(e)).map(
            lambda xy: [[a + b for a, b in zip(*rows)] for rows in zip(*xy)]
        ),
        _square(e).map(lambda m: m[:-1] + m[:1]),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_one_corner_matches_the_e2_products(data):
    e = data.draw(st.integers(1, 4))
    c = data.draw(st.one_of(_square(e), _outer(e)))
    x = data.draw(_corner_operands(e))
    assert cartan._rank_one_corner(c, x) == rank_one_corner_reference(c, x)


def test_identity_corner_has_rank_four():
    # X = C = I_2: the corner is every E_ij, of rank 4
    ident = [[1, 0], [0, 1]]
    assert not rank_one_corner_reference(ident, ident)
    assert not cartan._rank_one_corner(ident, ident)
    assert not cartan.is_primitive_idempotent(ident, ident)


def test_theorem_a_corners_match_the_e2_products(any_params):
    params = any_params
    c = cartan.cartan_matrix(params)
    for x in cartan.orthogonal_projective_idempotents(c):
        assert cartan._rank_one_corner(c, x) == rank_one_corner_reference(c, x)
        assert cartan._rank_one_corner(c, x)


# -------------------------------------------------- identities over fields


def test_projective_identity_special_shape():
    params = make_params(3, 2, 2)
    c = cartan.cartan_matrix(params)
    ident = projective_identity(c, QQ)
    m, size = Fraction(4), 2
    expected = [
        [
            (1 if i == j else 0) - m / 9
            for j in range(size)
        ]
        for i in range(size)
    ]
    assert ident.tolist() == [[Fraction(x) for x in row] for row in expected]


def test_projective_identity_311():
    c = cartan.cartan_matrix(make_params(3, 1, 1))
    assert projective_identity(c, QQ).tolist() == [[Fraction(1, 3)]]


def test_projective_identity_identity_cartan():
    assert np.array_equal(projective_identity(identity_matrix(2), QQ), identity_matrix(2))


def test_projective_identity_char_p_fails():
    c = cartan.cartan_matrix(make_params(3, 2, 2))
    with pytest.raises(NotInvertible):
        projective_identity(c, GF(3))


def test_projective_identity_is_idempotent_and_unit():
    params = make_params(3, 2, 2)
    c = cartan.cartan_matrix(params)
    for K in (QQ, GF(2), GF(5)):
        ident = projective_identity(c, K)
        ring = cartan.TwistedMatRing(params.e, c, scalar=K)
        assert np.array_equal(ring.mult(ident, ident), ident)
        for unit in matrix_units(params.e):
            assert ring.mult(ident, unit).tolist() == unit
            assert ring.mult(unit, ident).tolist() == unit


def test_primitive_decomposition_over_q():
    params = make_params(3, 2, 2)
    c = cartan.cartan_matrix(params)
    pieces = projective_primitive_decomposition(c, QQ)
    assert len(pieces) == 2
    assert pieces[0][0].tolist() == [Fraction(5, 9), Fraction(-4, 9)]
    ring = cartan.TwistedMatRing(2, c, scalar=QQ)
    for i, x in enumerate(pieces):
        assert np.array_equal(ring.mult(x, x), x)
        for j, y in enumerate(pieces):
            if i != j:
                assert _orthogonal(ring, x, y)
        # rank-one image in the plain matrix algebra
        image = field_mat_mul(x, c, QQ)
        assert rank_over_field(image, QQ) == 1
    total = [
        [sum(p[i][j] for p in pieces) for j in range(2)] for i in range(2)
    ]
    assert total == projective_identity(c, QQ).tolist()


def test_primitive_decomposition_identity_cartan():
    pieces = projective_primitive_decomposition(identity_matrix(2), QQ)
    units = matrix_units(2)
    assert pieces[0].tolist() == units[0]
    assert pieces[1].tolist() == units[3]


def test_integrality_criterion():
    # integral identity exactly when every elementary divisor is 1
    ident = projective_identity(identity_matrix(3), QQ)
    assert all(x.denominator == 1 for row in ident for x in row)
    special = projective_identity([[5, 4], [4, 5]], QQ)
    assert any(x.denominator != 1 for row in special for x in row)


# ---------------------------------------------------- centrality in the ring


@pytest.mark.parametrize(
    "p,n,e,K",
    [
        (3, 1, 1, QQ),
        (3, 2, 2, GF(5)),
        (3, 2, 2, GF(2)),
        (5, 1, 2, QQ),
        (2, 3, 1, GF(3)),
    ],
)
def test_projective_identity_central(p, n, e, K):
    ring = tring(make_params(p, n, e))
    assert cartan.projective_identity_is_central(ring, K)


def test_projective_element_conversion_roundtrip():
    params = make_params(3, 2, 2)
    ring = tring(params)
    mat = [[Fraction(5, 9), Fraction(-4, 9)], [Fraction(0), Fraction(1)]]
    elem = cartan.matrix_to_projective_element(ring, QQ, mat)
    assert elem.coeff(ProjPair(0, 0)) == Fraction(5, 9)
    assert cartan.projective_element_to_matrix(elem).tolist() == mat
