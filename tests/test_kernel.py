"""The exact product kernel on the structure arrays against the dict loops.

`TRing.mult`, `TRing.actions`, `gram_int` and `center_basis` contract the
structure arrays (K, V) in int64, or in Python ints past the overflow
bound; `tests/reference.py` keeps the scalar-by-scalar loops they replace.
"""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, INSTANCES, SMALL_INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import center_basis_reference, gram_int_reference, mult_reference

from tsring.exactarith import GF, QQ, ZZ
from tsring.groupmodel import make_params
from tsring.tring import tring

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
            coeffs[b] = S.from_int(num)
    return ring.element(S, coeffs)


def column(ring, S, matrix, den, j):
    """Column j of an action matrix as an element of the ring over S."""
    vals = matrix[:, j].tolist()
    if S is QQ:
        vals = [Fraction(v, den) for v in vals]
    return ring.element(S, dict(zip(ring.basis, vals)))


def assert_kernel_agrees(ring, S, x, y):
    assert ring.mult(x, y) == mult_reference(ring, x, y)
    left, right, den = ring.actions(x)
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


@pytest.mark.parametrize("S", [ZZ, QQ], ids=lambda S: S.name)
def test_large_values_take_the_python_int_path(dtypes, S):
    ring = tring(make_params(3, 2, 2))
    rng = random.Random(7)
    for _ in range(3):
        x = random_element(ring, S, rng, size=5, big=True)
        y = random_element(ring, S, rng, size=5, big=True)
        assert max(abs(Fraction(v).numerator) for v in x.coeffs.values()) > 1 << 31
        dtypes.clear()
        assert_kernel_agrees(ring, S, x, y)
        assert dtypes[:2] == [object, object]  # mult, then actions
    small = ring.from_basis(S, ring.basis[0])
    dtypes.clear()
    ring.mult(small, small)
    ring.actions(small)
    assert dtypes == [np.int64, np.int64]


def test_exact_dtype_bound():
    assert tring_module.exact_dtype((1 << 62) - 1) is np.int64
    assert tring_module.exact_dtype(1 << 62) is object


@pytest.mark.parametrize("pne", INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_gram_and_center_match_dict_loops(pne):
    ring = tring(make_params(*pne))
    assert ring.gram_int() == gram_int_reference(ring)
    S = QQ if pne in SMALL_INSTANCES else GF(5 if pne[0] != 5 else 7)
    assert ring.center_basis(S) == center_basis_reference(ring, S)
