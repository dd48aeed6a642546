"""Dense elements and the exact product kernel against the dict loops.

A `RingElement` is one integer vector over a denominator; `TRing.mult`,
`TRing.products` and `gram_int` contract the live terms of the structure
table in int64, or in Python ints past the overflow bound.
`tests/reference.py` keeps the dict elements, the scalar-by-scalar loops
they replace, the dense d x d actions and `center_basis`, one solve over
the live terms that only the tests call.
"""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, INSTANCES, SMALL_INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    DictElement,
    actions_reference,
    agrees,
    as_dict,
    center_basis,
    center_basis_reference,
    gram_int_reference,
    mult_reference,
)

from tsring import blocks
from tsring.exactarith import GF, QQ, ZZ, _max_abs, field_mat_mul
from tsring.model import make_params
from tsring.tring import RingElement, tring

# the module; the package namespace binds `tsring.tring` to the ring cache
tring_module = importlib.import_module("tsring.tring")

SCALARS = [ZZ, QQ, GF(2), GF(5), GF(7)]


def random_element(ring, S, rng, size=None, big=False):
    """A sparse element: small values, or numerators past 2^31 and denominators to 2^45."""
    top = 1 << 70 if big else 9
    support = rng.sample(ring.basis, size or rng.randint(1, min(6, len(ring.basis))))
    coeffs = {}
    for b in support:
        num = rng.randint(-top, top)
        if S is QQ:
            coeffs[b] = Fraction(num, rng.randint(1, 1 << 45 if big else 12))
        else:
            coeffs[b] = num
    return ring.element(S, coeffs)


def column(ring, S, matrix, den, j):
    """Column j of an action matrix as an element of the ring over S."""
    vals = matrix[:, j].tolist()
    if S is QQ:
        vals = [Fraction(v, den) for v in vals]
    return ring.element(S, dict(zip(ring.basis, vals)))


def assert_kernel_agrees(ring, S, x, y):
    assert ring.mult(x, y) == mult_reference(ring, x, y)
    identity = np.eye(ring.dimension(), dtype=np.int64)
    left, right = (ring.products(x, identity, side) for side in ("left", "right"))
    den = x.den
    assert left.shape == right.shape == (ring.dimension(),) * 2
    outside = []  # classes that do not commute with x
    for j, b in enumerate(ring.basis):
        e_b = ring.from_basis(S, b)
        assert column(ring, S, left, den, j) == mult_reference(ring, x, e_b)
        assert column(ring, S, right, den, j) == mult_reference(ring, e_b, x)
        if mult_reference(ring, x, e_b) != mult_reference(ring, e_b, x):
            outside.append(b)
    assert ring.noncommuting(x) == outside


@pytest.mark.parametrize("S", SCALARS, ids=lambda S: S.name)
def test_kernel_matches_dict_loops(small_params, S):
    ring = tring(small_params)
    rng = random.Random(f"{small_params}-{S.name}")
    for _ in range(4):
        x, y = random_element(ring, S, rng), random_element(ring, S, rng)
        assert_kernel_agrees(ring, S, x, y)
    one = ring.one(S)
    assert ring.mult(one, x) == x == ring.mult(x, one)
    assert ring.mult(ring.zero(S), x).is_zero()


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(BEYOND_INSTANCES),
    st.sampled_from(SCALARS),
    st.integers(min_value=0, max_value=2**32),
)
def test_kernel_matches_dict_loops_beyond_instances(pne, S, seed):
    ring = tring(make_params(*pne))
    rng = random.Random(seed)
    assert_kernel_agrees(ring, S, random_element(ring, S, rng), random_element(ring, S, rng))


@pytest.fixture
def dtypes(monkeypatch):
    """The dtypes the kernel picks, in call order."""
    picked = []
    original = tring_module.exact_dtype

    def recorded(bound):
        picked.append(original(bound))
        return picked[-1]

    monkeypatch.setattr(tring_module, "exact_dtype", recorded)
    return picked


def random_scalar(S, rng, big=False):
    top = 1 << 70 if big else 9
    if S is QQ:
        return Fraction(rng.randint(-top, top), rng.randint(1, 1 << 45 if big else 12))
    return rng.randint(-top, top)


def assert_arithmetic_agrees(x, y, c):
    """Every element operation on dense x, y against the dict elements."""
    rx, ry = as_dict(x), as_dict(y)
    assert agrees(x, rx) and agrees(y, ry)
    assert agrees(x + y, rx + ry)
    assert agrees(x - y, rx - ry)
    assert agrees(-x, -rx)
    assert agrees(x.scale(c), rx.scale(c))
    assert agrees(x * y, rx * ry)
    assert agrees(x - x, rx - rx) and (x - x).is_zero()
    assert (x == y) == (rx == ry)
    assert x + y - y == x


@pytest.mark.parametrize("S", SCALARS, ids=lambda S: S.name)
def test_dense_elements_match_dict_elements(small_params, S):
    ring = tring(small_params)
    rng = random.Random(f"dense-{small_params}-{S.name}")
    for big in (False, True):
        for _ in range(3):
            x = random_element(ring, S, rng, big=big)
            y = random_element(ring, S, rng, big=big)
            assert_arithmetic_agrees(x, y, random_scalar(S, rng, big))
    # the dict map gives the same element, and a second normal form of it
    # is told apart
    last = Fraction(1, 2) if S is QQ else 4
    ref = DictElement(ring, S, {ring.basis[0]: 3, ring.basis[-1]: last})
    x = ring.element(S, ref.coeffs)
    assert agrees(x, ref)
    bad = object.__new__(RingElement)
    bad.ring, bad.scalar = ring, S
    if S.characteristic:
        bad.vec, bad.den = x.vec + S.characteristic, 1  # a residue out of [0, q)
    else:
        bad.vec, bad.den = x.vec * 2, x.den * 2  # a denominator not in lowest terms
    assert not agrees(bad, ref)


@pytest.mark.parametrize("S", [ZZ, QQ], ids=lambda S: S.name)
def test_large_values_take_the_python_int_path(dtypes, S):
    ring = tring(make_params(3, 2, 2))
    identity = np.eye(ring.dimension(), dtype=np.int64)
    rng = random.Random(7)
    for _ in range(3):
        x = random_element(ring, S, rng, size=5, big=True)
        y = random_element(ring, S, rng, size=5, big=True)
        # numerators past 2^63 over one common denominator
        assert max(map(abs, x.vec.tolist())) > 1 << 63
        assert x.vec.dtype == object
        assert_kernel_agrees(ring, S, x, y)
        dtypes.clear()
        ring.mult(x, y)
        assert dtypes[0] is object  # the product's sums
        dtypes.clear()
        ring.products(x, identity, "left")
        assert dtypes[-1] is object  # the running bound passed 2^62
        dtypes.clear()
        assert_arithmetic_agrees(x, y, random_scalar(S, rng, big=True))
        assert object in dtypes
    small = ring.from_basis(S, ring.basis[0])
    dtypes.clear()
    ring.mult(small, small)
    ring.products(small, identity, "left")
    ring.products(small, identity, "right")
    assert set(dtypes) == {np.int64}
    assert small.vec.dtype == np.int64


def test_exact_dtype_bound():
    assert tring_module.exact_dtype((1 << 62) - 1) is np.int64
    assert tring_module.exact_dtype(1 << 62) is object


@pytest.mark.parametrize("pne", INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_gram_and_center_match_dict_loops(pne):
    ring = tring(make_params(*pne))
    assert ring.gram_int().tolist() == gram_int_reference(ring)
    S = QQ if pne in SMALL_INSTANCES else GF(5 if pne[0] != 5 else 7)
    assert center_basis(ring, S) == center_basis_reference(ring, S)


@pytest.mark.parametrize("S", SCALARS, ids=lambda S: S.name)
def test_one_sided_actions_are_the_sides_of_both(small_params, S):
    # the products with the identity are the dense actions, side by side
    ring = tring(small_params)
    identity = np.eye(ring.dimension(), dtype=np.int64)
    rng = random.Random(7)
    for _ in range(3):
        x = random_element(ring, S, rng)
        left, right, den = actions_reference(ring, x)
        assert den == x.den
        for side, matrix in (("left", left), ("right", right)):
            assert np.array_equal(ring.products(x, identity, side), matrix)
    with pytest.raises(ValueError, match="side"):
        ring.products(x, identity, "middle")


def random_sparse_matrix(ring, S, rng, k, big=False):
    """A d x k integer matrix with one to four entries per column, residues over F_q."""
    d = ring.dimension()
    Y = np.zeros((d, k), dtype=object if big else np.int64)
    for j in range(k):
        for b in rng.sample(range(d), rng.randint(1, min(4, d))):
            Y[b, j] = rng.randint(-(1 << 70), 1 << 70) if big else rng.randint(-9, 9)
    return Y % S.characteristic if S.characteristic else Y


def assert_products_are_reference_times(ring, S, x, Y):
    left, right, _ = actions_reference(ring, x)
    for side, action in (("left", left), ("right", right)):
        product = ring.products(x, Y, side)
        assert product.shape == Y.shape
        assert np.array_equal(product, field_mat_mul(action, Y, S))


PRODUCT_SCALARS = [ZZ, QQ, GF(5), GF(7)]


@pytest.mark.parametrize("S", PRODUCT_SCALARS, ids=lambda S: S.name)
def test_products_are_the_reference_action_times_y(small_params, S):
    ring = tring(small_params)
    rng = random.Random(f"products-{small_params}-{S.name}")
    for _ in range(3):
        x = random_element(ring, S, rng)
        assert_products_are_reference_times(ring, S, x, random_sparse_matrix(ring, S, rng, 5))
    # no column, and a zero factor
    empty = np.zeros((ring.dimension(), 0), dtype=np.int64)
    assert ring.products(x, empty, "left").shape == empty.shape
    Y = random_sparse_matrix(ring, S, rng, 3)
    assert not ring.products(ring.zero(S), Y, "right").any()


LIFT_CASES = [
    ((3, 4, 2), QQ),
    ((3, 4, 2), GF(5)),
    ((3, 4, 2), GF(7)),
    ((7, 2, 3), QQ),
    ((7, 2, 3), GF(5)),
]


@pytest.mark.parametrize(
    "pne,S", LIFT_CASES, ids=[f"p{t[0]}n{t[1]}e{t[2]}-{S.name}" for t, S in LIFT_CASES]
)
def test_products_on_the_level_lifts(pne, S):
    # the matrices the level certificate multiplies: the lifts of every level
    params = make_params(*pne)
    ring = tring(params)
    rng = random.Random(f"lifts-{pne}-{S.name}")
    for iso in blocks.central_decomposition(params, S).isos[1:]:
        x = random_element(ring, S, rng)
        assert_products_are_reference_times(ring, S, x, iso.lifts)


@pytest.mark.parametrize("S", [ZZ, QQ], ids=lambda S: S.name)
def test_products_past_int64_take_the_python_int_path(S):
    ring = tring(make_params(3, 2, 2))
    rng = random.Random(23)
    for big_x, big_y in ((True, False), (False, True), (True, True)):
        x = random_element(ring, S, rng, size=4, big=big_x)
        Y = random_sparse_matrix(ring, S, rng, 4, big=big_y)
        assert _max_abs(x.vec) * _max_abs(Y) > 1 << 63
        assert ring.products(x, Y, "left").dtype == object
        assert_products_are_reference_times(ring, S, x, Y)



@pytest.mark.parametrize("S", SCALARS, ids=lambda S: S.name)
def test_vector_constructor_matches_the_dict_constructor(small_params, S):
    # ints, Fractions over Q, lists and arrays, all classes or a slice of them
    ring = tring(small_params)
    d = len(ring.basis)
    rng = random.Random(11)
    for _ in range(4):
        lo = rng.randrange(d)
        hi = rng.randrange(lo, d) + 1
        values = [rng.randint(-9, 9) for _ in range(hi - lo)]
        if S is QQ:
            values = [Fraction(v, rng.randint(1, 12)) for v in values]
        expected = ring.element(S, dict(zip(ring.basis[lo:hi], values)))
        assert ring.from_vector(S, values, slice(lo, hi)) == expected
        as_array = np.array(values, dtype=object if S is QQ else np.int64)
        assert ring.from_vector(S, as_array, slice(lo, hi)) == expected
    values = list(range(1, d + 1))
    assert ring.from_vector(S, values) == ring.element(S, dict(zip(ring.basis, values)))
