"""Shared fixtures: the standard instance set and small helpers."""

import pytest

from tsring.blocks import level_group
from tsring.mackey import oracle
from tsring.model import is_prime, make_params
from tsring.tring import tring

# the full verification instance set
INSTANCES = [
    (3, 1, 1),
    (2, 2, 1),
    (2, 3, 1),
    (3, 2, 2),
    (5, 1, 2),
    (5, 1, 4),
    (5, 2, 4),
    (7, 1, 6),
    (7, 2, 3),
    (13, 1, 4),
]

# small models at the edges: p = 2, e = 1 and e = p - 1
EDGE_INSTANCES = [(2, 1, 1), (3, 1, 2), (7, 1, 2), (5, 2, 1)]

SMALL_INSTANCES = [t for t in INSTANCES if t[0] ** t[1] * t[2] <= 24]

# every admissible (p, n, e) with d = e^2 + p^n - 1 <= 60 outside INSTANCES
BEYOND_INSTANCES = [
    (p, n, e)
    for p in range(2, 61)
    if is_prime(p)
    for n in range(1, 6)
    for e in range(1, p)
    if (p - 1) % e == 0 and e * e + p**n - 1 <= 60 and (p, n, e) not in INSTANCES
]


@pytest.fixture
def fresh_rings():
    """Empty the ring, level group and oracle caches before and after the test.

    A mutated ring or oracle must not leak into the caches other tests
    share, and one cached earlier must not hand a mutation test the block
    data, the level coordinates or the classifications it found before the
    mutation.
    """
    caches = (tring, level_group, oracle)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture(params=INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def any_params(request):
    return make_params(*request.param)


@pytest.fixture(params=SMALL_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def small_params(request):
    return make_params(*request.param)
