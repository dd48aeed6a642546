"""Twisted matrix rings and idempotents in the projective span."""

from fractions import Fraction

import pytest
from reference import projective_identity, projective_primitive_decomposition

from tsring import cartan
from tsring.errors import NotInvertible, ShapeMismatch
from tsring.exactarith import (
    GF,
    QQ,
    field_identity,
    field_mat_mul,
    identity_matrix,
    mat_inverse_over_field,
    mat_lift,
    mat_mul,
    rank_over_field,
    snf,
)
from tsring.groupmodel import make_params
from tsring.tring import ProjPair, tring


def _int_inverse(mat):
    """Exact integer inverse of a unimodular matrix."""
    inv = mat_inverse_over_field(mat, QQ)
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------- Cartan matrices


def test_cartan_matrix_shapes():
    assert cartan.cartan_matrix(make_params(3, 2, 2)) == [[5, 4], [4, 5]]
    assert cartan.cartan_matrix(make_params(3, 1, 1)) == [[3]]
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
    assert ring.mult(a, b) == mat_mul(a, b)


def test_twisted_rank_one_idempotents_only_zero():
    ring = cartan.TwistedMatRing(1, [[3]])
    sols = [a for a in range(-30, 31) if ring.mult([[a]], [[a]]) == [[a]]]
    assert sols == [0]


def test_twisted_corner_is_square_scalar():
    diag = [[2, 0], [0, 6]]
    ring = cartan.TwistedMatRing(2, diag)
    e11 = [[1, 0], [0, 0]]
    assert ring.mult(e11, e11) == [[2, 0], [0, 0]]
    # the corner e *_D x *_D e picks up the square of the diagonal entry
    assert ring.mult(ring.mult(e11, e11), e11) == [[4, 0], [0, 0]]


def test_twisted_shape_mismatch():
    ring = cartan.TwistedMatRing(2, identity_matrix(2))
    with pytest.raises(ShapeMismatch):
        ring.mult([[1, 2, 3]], [[1], [2], [3]])


# --------------------------------------------------- integral idempotents


def test_orthogonal_idempotents_special_cartan():
    certs = cartan.orthogonal_projective_idempotents([[5, 4], [4, 5]])
    assert len(certs) == 1
    assert certs[0].checks["idempotent"]
    assert certs[0].checks["rank_one_corner"]


def test_known_difference_form_certifies():
    cert = cartan.certify_projective_idempotent([[5, 4], [4, 5]], [[1, 0], [-1, 0]])
    assert cert.checks["idempotent"] and cert.checks["rank_one_corner"]


def test_orthogonal_idempotents_identity_cartan():
    certs = cartan.orthogonal_projective_idempotents(identity_matrix(3))
    assert len(certs) == 3
    units = cartan.matrix_units(3)
    for i, cert in enumerate(certs):
        assert cert.element == units[i * 3 + i]
        assert cert.checks["orthogonal_to"] == [j for j in range(3) if j != i]


def test_orthogonal_idempotents_defect_full():
    assert cartan.orthogonal_projective_idempotents([[3]]) == []


def test_idempotent_images_under_snf_iso_are_units(any_params):
    params = any_params
    c = cartan.cartan_matrix(params)
    result = snf(c)
    certs = cartan.orthogonal_projective_idempotents(c)
    u = [list(r) for r in result.u]
    v_inv = _int_inverse([list(r) for r in result.v])
    u_inv = _int_inverse(u)
    for i, cert in enumerate(certs):
        image = mat_mul(mat_mul(v_inv, cert.element), u_inv)
        expected = [[0] * params.e for _ in range(params.e)]
        expected[i][i] = 1
        assert image == expected


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
        c = mat_mul(a, [list(r) for r in zip(*a)])
        for i in range(size):
            c[i][i] += 1  # makes it positive definite
        ring = cartan.TwistedMatRing(size, c)
        certs = cartan.orthogonal_projective_idempotents(c)
        for i, cert in enumerate(certs):
            assert cert.checks["idempotent"]
            assert cert.checks["rank_one_corner"]
            for j in cert.checks["orthogonal_to"]:
                assert ring.are_orthogonal(cert.element, certs[j].element)


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
    assert ident == [[Fraction(x) for x in row] for row in expected]


def test_projective_identity_311():
    c = cartan.cartan_matrix(make_params(3, 1, 1))
    assert projective_identity(c, QQ) == [[Fraction(1, 3)]]


def test_projective_identity_identity_cartan():
    assert projective_identity(identity_matrix(2), QQ) == field_identity(2, QQ)


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
        assert ring.mult(ident, ident) == ident
        for unit in cartan.matrix_units(params.e):
            lifted = mat_lift(unit, K)
            assert ring.mult(ident, lifted) == lifted
            assert ring.mult(lifted, ident) == lifted


def test_primitive_decomposition_over_q():
    params = make_params(3, 2, 2)
    c = cartan.cartan_matrix(params)
    pieces = projective_primitive_decomposition(c, QQ)
    assert len(pieces) == 2
    assert pieces[0][0] == [Fraction(5, 9), Fraction(-4, 9)]
    ring = cartan.TwistedMatRing(2, c, scalar=QQ)
    for i, x in enumerate(pieces):
        assert ring.mult(x, x) == x
        for j, y in enumerate(pieces):
            if i != j:
                assert ring.are_orthogonal(x, y)
        # rank-one image in the plain matrix algebra
        image = field_mat_mul(x, mat_lift(c, QQ), QQ)
        assert rank_over_field(image, QQ) == 1
    total = [
        [sum(p[i][j] for p in pieces) for j in range(2)] for i in range(2)
    ]
    assert total == projective_identity(c, QQ)


def test_primitive_decomposition_identity_cartan():
    pieces = projective_primitive_decomposition(identity_matrix(2), QQ)
    units = cartan.matrix_units(2)
    assert pieces[0] == mat_lift(units[0], QQ)
    assert pieces[1] == mat_lift(units[3], QQ)


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
    assert cartan.projective_element_to_matrix(elem) == mat
