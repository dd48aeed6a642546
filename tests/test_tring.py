"""The class ring: basis, multiplication rules, ideals, trace form."""

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, EDGE_INSTANCES, INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    basis_reference,
    center_basis,
    det_over_field,
    sort_key,
    structure_table_reference,
)

from tsring.cli import _check_assoc
from tsring.errors import BadLevel, ParamsMismatch, ScalarMismatch
from tsring.exactarith import GF, QQ, ZZ, rank_over_field
from tsring.groupmodel import canonical_coset
from tsring.model import (
    NonProj,
    ProjPair,
    basis_from_json,
    basis_from_label,
    basis_label,
    basis_to_json,
    build_basis,
    make_params,
)
from tsring.tring import TRing, tring


# ------------------------------------------------------------------- basis


def test_basis_311():
    ring = tring(make_params(3, 1, 1))
    assert ring.basis == [ProjPair(0, 0), NonProj(1, 1, 0), NonProj(1, 2, 0)]


def test_basis_322():
    ring = tring(make_params(3, 2, 2))
    assert ring.dimension() == 12
    assert len(ring.level_basis(0)) == 4
    assert len(ring.level_basis(1)) == 2
    assert len(ring.level_basis(2)) == 6


def test_basis_231():
    ring = tring(make_params(2, 3, 1))
    assert ring.dimension() == 8


def test_basis_count_formula(any_params):
    params = any_params
    ring = tring(params)
    assert ring.dimension() == params.e**2 + params.pn - 1
    for i in range(1, params.n + 1):
        assert len(ring.level_basis(i)) == params.p ** (i - 1) * (params.p - 1)
    assert ring.basis == sorted(ring.basis, key=sort_key)


@pytest.mark.parametrize(
    "pne", INSTANCES + BEYOND_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}"
)
def test_basis_walk_matches_the_canonical_cosets(pne):
    # the walk over the units keeps the least member of each coset; the
    # reference canonicalizes every unit and sorts the representatives
    params = make_params(*pne)
    basis = build_basis(params)
    assert basis == basis_reference(params)
    for b in basis[params.e**2 :]:
        assert canonical_coset(params, b.level, b.alpha).rep == b.alpha


# ---------------------------------------------------------- multiplication


def test_mult_projective_pair_rule():
    ring = tring(make_params(3, 2, 2))
    assert ring.mult_basis(ProjPair(0, 1), ProjPair(1, 0)) == {ProjPair(0, 0): 5}
    assert ring.mult_basis(ProjPair(0, 1), ProjPair(0, 0)) == {ProjPair(0, 0): 4}


def test_mult_nonproj_rule():
    ring = tring(make_params(3, 2, 2))
    assert ring.mult_basis(NonProj(1, 1, 0), NonProj(1, 1, 0)) == {
        NonProj(1, 1, 0): 2,
        NonProj(1, 1, 1): 1,
    }


def test_mult_mixed_rule():
    ring = tring(make_params(3, 2, 2))
    assert ring.mult_basis(ProjPair(0, 1), NonProj(1, 1, 1)) == {
        ProjPair(0, 0): 2,
        ProjPair(0, 1): 1,
    }
    assert ring.mult_basis(NonProj(1, 1, 1), ProjPair(0, 1)) == {
        ProjPair(1, 1): 2,
        ProjPair(0, 1): 1,
    }


def test_identity_element(any_params):
    params = any_params
    ring = tring(params)
    one = ring.one_elem
    assert one == NonProj(params.n, 1, 0)
    for b in ring.basis:
        assert ring.mult_basis(one, b) == {b: 1}
        assert ring.mult_basis(b, one) == {b: 1}


def test_all_coefficients_nonnegative(any_params):
    ring = tring(any_params)
    for a in ring.basis:
        for b in ring.basis:
            for v in ring.mult_basis(a, b).values():
                assert isinstance(v, int) and v > 0


def test_composite_coset_representative_independence():
    params = make_params(3, 2, 2)
    ring = tring(params)
    # 7 represents the same coset as 2 at level 2
    canonical = ring.mult_basis(NonProj(2, 2, 0), NonProj(2, 4, 1))
    alternate = ring.mult_basis(NonProj(2, 7, 0), NonProj(2, 4, 1))
    assert canonical == alternate


def test_element_arithmetic_and_errors():
    params = make_params(3, 2, 2)
    ring = tring(params)
    x = ring.from_basis(ZZ, ProjPair(0, 0))
    zero = ring.zero(ZZ)
    assert ring.mult(x, zero).is_zero()
    assert ring.mult(ring.one(ZZ), x) == x
    other_ring = tring(make_params(3, 1, 1))
    with pytest.raises(ParamsMismatch):
        ring.mult(x, other_ring.one(ZZ))
    with pytest.raises(ScalarMismatch):
        ring.mult(x, ring.one(QQ))


def test_idempotent_expansion_over_q():
    # ((2/3) A - (1/3) B)^2 = (2/3) A - (1/3) B with A, B the level-1 classes
    ring = tring(make_params(3, 2, 2))
    x = ring.element(
        QQ,
        {NonProj(1, 1, 0): Fraction(2, 3), NonProj(1, 1, 1): Fraction(-1, 3)},
    )
    assert ring.mult(x, x) == x


# ------------------------------------------------------------------ ideals


def test_ideal_le_extremes(any_params):
    params = any_params
    ring = tring(params)
    assert ring.ideal_le(0) == ring.level_basis(0)
    assert len(ring.ideal_le(0)) == params.e**2
    assert ring.ideal_le(params.n) == ring.basis
    with pytest.raises(BadLevel):
        ring.ideal_le(params.n + 1)


def test_level_ranges_match_the_class_scan(any_params):
    # levels, ideals and the quotient cut are read off the level boundaries
    ring = tring(any_params)
    n = any_params.n
    level = {b: b.level if isinstance(b, NonProj) else 0 for b in ring.basis}
    for i in range(n + 1):
        assert ring.level_basis(i) == [b for b in ring.basis if level[b] == i]
        assert ring.ideal_le(i) == [b for b in ring.basis if level[b] <= i]
    top = ring.one(ZZ)
    for i in (-1, n + 1):
        with pytest.raises(BadLevel):
            ring.level_range(i)
        with pytest.raises(BadLevel):
            ring.quotient_mult(i, top, top)


def test_ideal_le_322_level_one():
    ring = tring(make_params(3, 2, 2))
    assert len(ring.ideal_le(1)) == 6


def test_ideal_is_two_sided(any_params):
    ring = tring(any_params)
    for i in range(any_params.n + 1):
        ideal = set(ring.ideal_le(i))
        for b in ideal:
            for x in ring.basis:
                assert set(ring.mult_basis(x, b)) <= ideal
                assert set(ring.mult_basis(b, x)) <= ideal


def test_grading_product_levels(any_params):
    ring = tring(any_params)
    for a in ring.basis:
        for b in ring.basis:
            prod = ring.mult_basis(a, b)
            if isinstance(a, NonProj) and isinstance(b, NonProj):
                k = min(a.level, b.level)
                assert all(
                    isinstance(c, NonProj) and c.level == k for c in prod
                )
            else:
                assert all(isinstance(c, ProjPair) for c in prod)


def test_nonproj_products_commute(any_params):
    ring = tring(any_params)
    nonproj = [b for b in ring.basis if isinstance(b, NonProj)]
    for a in nonproj:
        for b in nonproj:
            assert ring.mult_basis(a, b) == ring.mult_basis(b, a)


# ---------------------------------------------------------------- quotient


def test_quotient_mult_requires_outside_support():
    ring = tring(make_params(3, 2, 2))
    x = ring.from_basis(ZZ, ProjPair(0, 0))
    with pytest.raises(ValueError):
        ring.quotient_mult(0, x, x)


def test_quotient_commutators_vanish(small_params):
    ring = tring(small_params)
    nonproj = [ring.from_basis(ZZ, b) for b in ring.basis if isinstance(b, NonProj)]
    for x in nonproj:
        for y in nonproj:
            ab = ring.quotient_mult(0, x, y)
            ba = ring.quotient_mult(0, y, x)
            assert ab == ba


def test_quotient_level_one_example():
    ring = tring(make_params(3, 2, 2))
    x = ring.from_basis(ZZ, NonProj(2, 2, 0))
    prod = ring.quotient_mult(1, x, x)
    assert prod == ring.from_basis(ZZ, NonProj(2, 4, 0))


# ----------------------------------------------------------- associativity


def test_associativity_small(small_params):
    ring = tring(small_params)
    elems = [ring.from_basis(ZZ, b) for b in ring.basis]
    for x in elems:
        for y in elems:
            xy = ring.mult(x, y)
            for z in elems:
                assert ring.mult(xy, z) == ring.mult(x, ring.mult(y, z))


def test_structure_arrays_match_mult_basis(small_params):
    ring = tring(small_params)
    d = ring.dimension()
    for ia, a in enumerate(ring.basis):
        for ib, b in enumerate(ring.basis):
            _, cls, val = ring.terms(np.array([ia * d + ib]))
            terms = {ring.basis[c]: v for c, v in zip(cls.tolist(), val.tolist())}
            assert terms == ring.mult_basis(a, b)


def _structure_mismatch(ring, table):
    """The first (a, b, term) where the table (start, cls, val) differs
    from the one built from `mult_basis`, or None: (a, b, "count") when the
    term counts of e_a e_b differ."""
    start, cls, val = table
    start0, cls0, val0 = structure_table_reference(ring)
    d = ring.dimension()
    counts = np.flatnonzero(np.diff(start) != np.diff(start0))
    if len(counts):
        return (*divmod(int(counts[0]), d), "count")
    bad = np.flatnonzero((cls != cls0) | (val != val0))
    if not len(bad):
        return None
    pair = int(np.searchsorted(start, bad[0], side="right")) - 1
    return (*divmod(pair, d), int(bad[0] - start[pair]))


@pytest.mark.parametrize(
    "pne",
    INSTANCES + EDGE_INSTANCES + [(3, 5, 2), (13, 2, 12)],
    ids=lambda t: "p{}n{}e{}".format(*t),
)
def test_structure_arrays_equal_mult_basis_slot_for_slot(pne):
    ring = TRing(make_params(*pne))
    table = ring.structure_table()
    assert all(x.dtype == np.int64 for x in table)
    assert _structure_mismatch(ring, table) is None


def test_structure_arrays_check_sees_one_coefficient_off():
    ring = TRing(make_params(7, 2, 3))
    d = ring.dimension()
    start, cls, val = (x.copy() for x in ring.structure_table())
    rng = random.Random(0)
    for _ in range(20):
        a, b = rng.randrange(d), rng.randrange(d)
        j = rng.randrange(start[a * d + b + 1] - start[a * d + b])
        val[start[a * d + b] + j] += 1
        assert _structure_mismatch(ring, (start, cls, val)) == (a, b, j)
        val[start[a * d + b] + j] -= 1
    cls[start[3 * d + 4]] += 1
    assert _structure_mismatch(ring, (start, cls, val)) == (3, 4, 0)
    start[5 * d + 1 :] += 1
    assert _structure_mismatch(ring, (start, cls, val)) == (5, 0, "count")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES))
def test_ring_axioms_beyond_instances(pne):
    params = make_params(*pne)
    ring = tring(params)
    d = ring.dimension()
    assert _check_assoc(params, ring) == ("ok", {"checked": str(d**3)})
    one = NonProj(params.n, 1, 0)
    for b in ring.basis:
        assert ring.mult_basis(one, b) == {b: 1}
        assert ring.mult_basis(b, one) == {b: 1}
        for x in ring.basis:
            for v in ring.mult_basis(b, x).values():
                assert type(v) is int and v > 0, (pne, b, x, v)


# ------------------------------------------------------- center, trace form


def test_center_311_is_everything():
    ring = tring(make_params(3, 1, 1))
    center = center_basis(ring, QQ)
    assert len(center) == 3


def test_center_contains_identity():
    ring = tring(make_params(3, 2, 2))
    center = center_basis(ring, QQ)
    # the identity must lie in the span: solve by checking it commutes
    one = ring.one(QQ)
    for b in ring.basis:
        x = ring.from_basis(QQ, b)
        assert ring.mult(one, x) == ring.mult(x, one)
    assert 1 <= len(center) < ring.dimension()


def test_gram_symmetric(small_params):
    ring = tring(small_params)
    gram = ring.gram_int()
    d = ring.dimension()
    for i in range(d):
        for j in range(d):
            assert gram[i][j] == gram[j][i]


def test_gram_311_nondegenerate_over_q():
    ring = tring(make_params(3, 1, 1))
    assert det_over_field(ring.gram_int(), QQ) != 0


def test_gram_322_degenerate_over_f3():
    ring = tring(make_params(3, 2, 2))
    assert rank_over_field(ring.gram_int(), GF(3)) < 12


# ------------------------------------------------------------ serialization


def test_basis_serialization_roundtrip(any_params):
    ring = tring(any_params)
    for b in ring.basis:
        assert basis_from_json(basis_to_json(b)) == b
        assert basis_from_label(basis_label(b)) == b


def test_element_serialization():
    ring = tring(make_params(3, 2, 2))
    x = ring.element(
        QQ, {ProjPair(0, 1): Fraction(-4, 9), NonProj(1, 1, 0): Fraction(2)}
    )
    assert x.to_json() == [
        {"basis": {"type": "P", "lambda": "0", "mu": "1"}, "coeff": "-4/9"},
        {
            "basis": {"type": "M", "i": "1", "alpha": "1", "lambda": "0"},
            "coeff": "2",
        },
    ]
