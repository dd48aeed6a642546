"""Property tests on random elements, beyond the basis-level checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    center_basis,
    delta_g,
    elements_of,
    level_mul,
    map_scalar,
    subgroup_diag_p,
    subgroup_exone,
)

from tsring import groupmodel as gm
from tsring.exactarith import GF, QQ, ZZ
from tsring.model import make_params
from tsring.tring import tring

PARAMS = make_params(3, 2, 2)
RING = tring(PARAMS)


def elements(scalar, coeff_strategy):
    """Random sparse ring elements over the fixed (3,2,2) model."""

    def build(pairs):
        return RING.element(scalar, {RING.basis[i]: c for i, c in pairs})

    index = st.integers(0, RING.dimension() - 1)
    return st.builds(
        build,
        st.lists(st.tuples(index, coeff_strategy), max_size=5).map(
            lambda ps: dict(ps).items()
        ),
    )


int_elements = elements(ZZ, st.integers(-9, 9))
# denominators must stay invertible mod 5 for the scalar-extension test
rational_elements = elements(
    QQ, st.fractions(min_value=-5, max_value=5, max_denominator=4)
)


@settings(max_examples=80, deadline=None)
@given(int_elements, int_elements, int_elements)
def test_ring_axioms_random_integer_elements(x, y, z):
    assert RING.mult(RING.mult(x, y), z) == RING.mult(x, RING.mult(y, z))
    assert RING.mult(x, y + z) == RING.mult(x, y) + RING.mult(x, z)
    assert RING.mult(x + y, z) == RING.mult(x, z) + RING.mult(y, z)
    assert RING.mult(RING.one(ZZ), x) == x == RING.mult(x, RING.one(ZZ))


@settings(max_examples=40, deadline=None)
@given(rational_elements, rational_elements)
def test_scalar_extension_commutes_with_multiplication(x, y):
    # reducing mod 5 after multiplying over Q agrees with multiplying mod 5
    F = GF(5)
    lhs = map_scalar(RING.mult(x, y), F)
    rhs = RING.mult(map_scalar(x, F), map_scalar(y, F))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(int_elements, int_elements)
def test_projective_span_absorbs_products(x, y):
    # the projective classes, the level-0 ideal, come first in basis order
    cut = len(RING.ideal_le(0))
    proj = RING.element(ZZ, {b: x.coeff(b) for b in RING.ideal_le(0)})
    prod = RING.mult(proj, y)
    assert not prod.vec[cut:].any()


# ------------------------------------------------------- star associativity


@pytest.mark.parametrize("p,n,e", [(3, 2, 2), (2, 3, 1), (5, 1, 2)])
def test_star_is_associative_on_shapes(p, n, e):
    params = make_params(p, n, e)
    shapes = [
        gm.subgroup_exe(params),
        subgroup_exone(params),
        delta_g(params),
        gm.subgroup_diag_pe(params, 1, 1),
        subgroup_diag_p(params, 1, 1),
    ]
    for x in shapes:
        for y in shapes:
            for z in shapes:
                left = gm.star(gm.star(x, y), z)
                right = gm.star(x, gm.star(y, z))
                assert elements_of(left) == elements_of(right)


# ----------------------------------------------- center size cross-check


def test_center_dimension_matches_block_structure():
    # one central line from the matrix block plus a full group algebra per
    # level: 1 + sum p^(i-1)(p-1) = p^n central dimensions over Q
    for p, n, e in [(3, 1, 1), (3, 2, 2), (5, 1, 2)]:
        ring = tring(make_params(p, n, e))
        assert len(center_basis(ring, QQ)) == p**n


def test_center_dimension_over_prime_field():
    ring = tring(make_params(3, 2, 2))
    assert len(center_basis(ring, GF(5))) == 9


def test_center_elements_really_commute():
    ring = tring(make_params(3, 2, 2))
    for center_elem in center_basis(ring, QQ):
        for b in ring.basis:
            x = ring.from_basis(QQ, b)
            assert ring.mult(center_elem, x) == ring.mult(x, center_elem)


def test_quotient_by_top_ideal_is_group_algebra_sized():
    # the quotient by the next-to-top ideal is commutative with the same
    # law as the top label group
    from tsring import blocks

    params = make_params(3, 2, 2)
    ring = tring(params)
    gamma = blocks.level_group(params, 2)
    top = ring.level_basis(2)
    assert len(top) == gamma.order
    for a in top:
        for b in top:
            prod = ring.quotient_mult(
                1, ring.from_basis(ZZ, a), ring.from_basis(ZZ, b)
            )
            expected_label = level_mul(params, 2, (a.alpha, a.lam), (b.alpha, b.lam))
            expected = type(a)(2, expected_label[0], expected_label[1])
            assert prod.den == 1
            assert prod.vec.tolist() == [int(c == expected) for c in ring.basis]
            assert gamma.product(top.index(a), top.index(b)) == top.index(expected)


def test_fraction_coefficients_stay_reduced():
    ring = tring(make_params(3, 2, 2))
    x = ring.element(QQ, {ring.basis[0]: Fraction(2, 4), ring.basis[1]: Fraction(6, 4)})
    assert x.coeff(ring.basis[0]) == Fraction(1, 2)
    # one vector over the least common denominator, coprime to its entries
    assert (x.vec[:2].tolist(), x.den) == ([1, 3], 2)
