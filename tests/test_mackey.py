"""The coset-enumeration oracle against the closed-form multiplication."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import BEYOND_INSTANCES, EDGE_INSTANCES, INSTANCES, SMALL_INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    character_of,
    check_character,
    check_oracle_reference,
    delta_g,
    elements_of,
    oracle_mult_reference,
    oracle_table,
    patch_mult_basis,
    subgroup_from_pairs,
)

from tsring import cli, mackey
from tsring import groupmodel as gm
from tsring.errors import UnrecognizedShape
from tsring.groupmodel import make_params
from tsring.mackey import MackeyOracle, oracle
from tsring.tring import NonProj, ProjPair, TRing, basis_label, tring

# -------------------------------------------------------- inducing subgroups


def test_subgroup_of_projective_pair():
    params = make_params(3, 2, 2)
    sub = oracle(params).subgroup_of_basis(ProjPair(0, 0))
    assert sub.tag == (gm.TAG_EXE,)
    assert all(v == 0 for v in character_of(sub).values())
    check_character(sub)


def test_subgroup_of_identity_class_is_full_diagonal():
    params = make_params(3, 2, 2)
    sub = oracle(params).subgroup_of_basis(NonProj(2, 1, 0))
    assert sub.tag == (gm.TAG_DIAG_PE, 2, 1)
    assert elements_of(sub) == elements_of(delta_g(params))
    assert all(v == 0 for v in character_of(sub).values())


def test_subgroup_characters_are_homomorphisms(small_params):
    orc = oracle(small_params)
    ring = tring(small_params)
    for b in ring.basis:
        check_character(orc.subgroup_of_basis(b))


# -------------------------------------------------------------- classifier


def test_classify_full_diagonal_gives_identity():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    sub = gm.subgroup_diag_pe(params, 2, 1, lam=0)
    assert orc.classify_induced(sub) == {NonProj(2, 1, 0): 1}


def test_classify_e_times_one():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    sub = gm.subgroup_exone(params, lam=1)
    assert orc.classify_induced(sub) == {ProjPair(1, 0): 1, ProjPair(1, 1): 1}


def test_classify_untwisted_level_one_diagonal():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    sub = gm.subgroup_diag_p(params, 1, 1)
    plain = subgroup_from_pairs(
        params, sub.tag, elements_of(sub), {g: 0 for g in elements_of(sub)}
    )
    assert orc.classify_induced(plain) == {NonProj(1, 1, 0): 1, NonProj(1, 1, 1): 1}


def test_classify_rejects_alien_subgroup():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    # 1 x D_1 has no twisted-diagonal shape and no conjugate that does
    elements = {(params.identity, (y, 1)) for y in params.d_subgroup(1)}
    alien = subgroup_from_pairs(
        params, (gm.TAG_EXPLICIT,), elements, {g: 0 for g in elements}
    )
    with pytest.raises(UnrecognizedShape):
        orc.classify_induced(orc.canonicalize(alien))


# ------------------------------------------------------------ oracle values


def test_oracle_projective_square_311():
    params = make_params(3, 1, 1)
    assert oracle(params).oracle_mult(ProjPair(0, 0), ProjPair(0, 0)) == {
        ProjPair(0, 0): 3
    }


def test_oracle_level_one_square_322():
    params = make_params(3, 2, 2)
    assert oracle(params).oracle_mult(NonProj(1, 1, 0), NonProj(1, 1, 0)) == {
        NonProj(1, 1, 0): 2,
        NonProj(1, 1, 1): 1,
    }


def test_oracle_identity_law(small_params):
    params = small_params
    orc = oracle(params)
    ring = tring(params)
    one = NonProj(params.n, 1, 0)
    for b in ring.basis:
        assert orc.oracle_mult(one, b) == {b: 1}
        assert orc.oracle_mult(b, one) == {b: 1}


def _assert_matches_rules(params):
    """The block sweep against the closed form, every pair compared."""
    ring = tring(params)
    table = oracle_table(oracle(params))
    for a in ring.basis:
        for b in ring.basis:
            assert table.get((a, b), {}) == ring.mult_basis(a, b), (params, a, b)


def test_oracle_matches_rules_small(small_params):
    _assert_matches_rules(small_params)


def test_oracle_matches_rules_322():
    _assert_matches_rules(make_params(3, 2, 2))


# ------------------------------------------- representative independence


def _alternate_reps(params, i, j):
    """Per double coset, the largest member (usually outside D)."""
    table = gm.group_table(params)
    reps = []
    for block in gm.double_coset_partition(params, i, j):
        reps.append(table.elems[block[-1]])
    return reps


@pytest.mark.parametrize(
    "p,n,e,a,b",
    [
        (3, 2, 2, ProjPair(0, 1), ProjPair(1, 0)),
        (3, 2, 2, ProjPair(0, 1), NonProj(1, 1, 1)),
        (3, 2, 2, NonProj(1, 1, 0), NonProj(2, 2, 1)),
        (3, 2, 2, NonProj(2, 2, 0), NonProj(2, 4, 1)),
        (5, 1, 2, NonProj(1, 1, 1), ProjPair(1, 0)),
        (2, 3, 1, NonProj(2, 3, 0), NonProj(3, 5, 0)),
    ],
)
def test_representative_independence(p, n, e, a, b):
    params = make_params(p, n, e)
    orc = oracle(params)
    level = lambda x: 0 if isinstance(x, ProjPair) else x.level
    alt = _alternate_reps(params, level(a), level(b))
    assert orc.oracle_mult_with_reps(a, b, alt) == orc.oracle_mult(a, b)


# ----------------------------------------------------------- coset plumbing


def test_oracle_never_consults_count_formula():
    # the multiplicity of the all-characters tail equals the enumerated
    # number of nontrivial cosets, not a formula lookup: delete a coset
    # representative and the oracle's answer must change
    params = make_params(3, 2, 2)
    orc = oracle(params)
    full = gm.double_cosets_in_d(params, 0, 0)
    truncated = full[:-1]
    a = ProjPair(0, 0)
    assert orc.oracle_mult_with_reps(a, a, truncated) != orc.oracle_mult(a, a)


@pytest.mark.parametrize("p,n,e", [(3, 1, 1), (2, 2, 1), (5, 1, 2)])
def test_representative_independence_all_pairs(p, n, e):
    # worst-case representatives (largest member of each coset, usually
    # outside D) must reproduce every closed-form product via the
    # conjugation-search canonicalization
    params = make_params(p, n, e)
    ring = tring(params)
    orc = oracle(params)
    level = lambda x: 0 if isinstance(x, ProjPair) else x.level
    for a in ring.basis:
        for b in ring.basis:
            alt = _alternate_reps(params, level(a), level(b))
            assert orc.oracle_mult_with_reps(a, b, alt) == ring.mult_basis(a, b)


@pytest.mark.parametrize("p,n,e", EDGE_INSTANCES)
def test_oracle_equivalence_edge_instances(p, n, e):
    _assert_matches_rules(make_params(p, n, e))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES))
def test_oracle_matches_rules_beyond_instances(pne):
    _assert_matches_rules(make_params(*pne))


# ------------------------------------------- the block routine, pair by pair


def _assert_block_matches_reference(params, alternate, sample=None):
    # one `products` call per pair of levels against the per-pair loop,
    # with least-in-D or worst-case representatives; every pair, or a
    # random sample of pairs when the loop would be slow
    orc = oracle(params)
    ring = tring(params)
    level = lambda x: 0 if isinstance(x, ProjPair) else x.level
    reps_of = (lambda i, j: _alternate_reps(params, i, j)) if alternate else (
        lambda i, j: gm.double_cosets_in_d(params, i, j)
    )
    table = oracle_table(orc, reps_of)
    pairs = [(a, b) for a in ring.basis for b in ring.basis]
    if sample is not None:
        pairs = sample.sample(pairs, min(len(pairs), 300))
    for a, b in pairs:
        reps = reps_of(level(a), level(b))
        assert table.get((a, b), {}) == oracle_mult_reference(orc, a, b, reps), (a, b)


@pytest.mark.parametrize("alternate", [False, True], ids=["least", "largest"])
@pytest.mark.parametrize(
    "pne", SMALL_INSTANCES + EDGE_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t)
)
def test_block_routine_matches_reference_loop(pne, alternate):
    _assert_block_matches_reference(make_params(*pne), alternate)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES), st.booleans(), st.randoms(use_true_random=False))
def test_block_routine_matches_reference_beyond_instances(pne, alternate, sample):
    # the whole table from the block routine, 300 of its pairs through the loop
    _assert_block_matches_reference(make_params(*pne), alternate, sample)


def test_oracle_mult_is_a_one_row_block():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    ring = tring(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == oracle_mult_reference(orc, a, b)


# ---------------------------------------- the stacked sweep at every block size


@lru_cache(maxsize=None)
def _reference_table(params):
    orc, ring = oracle(params), tring(params)
    return {(a, b): oracle_mult_reference(orc, a, b) for a in ring.basis for b in ring.basis}


@pytest.mark.parametrize(
    "entries", [1, None, 1 << 40], ids=["one_right_row", "default", "whole_level"]
)
@pytest.mark.parametrize(
    "pne", INSTANCES + EDGE_INSTANCES + [(3, 4, 2)], ids=lambda t: "p{}n{}e{}".format(*t)
)
def test_sweep_matches_reference_at_every_block_bound(pne, entries, monkeypatch):
    # blocks of one right row, the default blocks, and a whole level per
    # block give the per-pair loop's products, so no block edge moves one
    if entries is not None:
        monkeypatch.setattr(mackey, "ORACLE_JOIN_ENTRIES", entries)
    params = make_params(*pne)
    expected = _reference_table(params)
    table = oracle_table(oracle(params))
    assert set(table) <= set(expected)
    for pair, product in expected.items():
        assert table.get(pair, {}) == product, pair


def _star_calls(params, monkeypatch):
    """(left rows, right rows) of each `star` call of one oracle check."""
    calls = []
    join = gm.star

    def star(xs, ys, *args):
        calls.append((xs.codes.shape, len(ys)))
        return join(xs, ys, *args)

    monkeypatch.setattr(mackey, "star", star)
    ring = tring(params)
    assert cli._check_oracle(params, ring) == ("ok", {"compared": str(ring.dimension() ** 2)})
    return calls


def test_star_runs_once_per_left_chunk_and_block(monkeypatch):
    # (3,4,2) made 948 star calls, one per left chunk, representative and
    # right factor; now one call joins a left chunk with a block of
    # (representative, right factor) pairs, as many as the bound allows
    params = make_params(3, 4, 2)
    calls = _star_calls(params, monkeypatch)
    assert len(calls) < 400
    for (rows, size), right in calls:
        assert right == 1 or rows * size * right <= mackey.ORACLE_JOIN_ENTRIES
    ring, orc = tring(params), oracle(params)
    levels = [ring.level_basis(i) for i in range(params.n + 1)]
    expected = 0
    for i, level in enumerate(levels):
        size = len(orc.subgroup_of_basis(level[0]))
        chunk = max(1, mackey.ORACLE_CHUNK_ENTRIES // size)
        for lo in range(0, len(level), chunk):
            step = max(1, mackey.ORACLE_JOIN_ENTRIES // (min(chunk, len(level) - lo) * size))
            for j, right in enumerate(levels):
                pairs = len(gm.double_cosets_in_d(params, i, j)) * len(right)
                expected += -(-pairs // step)
    assert len(calls) == expected


def test_crosscheck_star_calls_stay_under_500(monkeypatch):
    calls = _star_calls(make_params(7, 2, 3), monkeypatch)
    calls += _star_calls(make_params(3, 4, 2), monkeypatch)
    assert len(calls) < 500


# ------------------------------------- mutations: the check against the loop


@pytest.fixture(params=[None, 1, 1 << 40], ids=["chunked", "row_by_row", "whole_levels"])
def chunk_entries(request, monkeypatch):
    """The default sweep chunks and blocks; one left row per chunk and one
    right row per block; and each level in one chunk and one block."""
    if request.param is not None:
        monkeypatch.setattr(mackey, "ORACLE_CHUNK_ENTRIES", request.param)
        monkeypatch.setattr(mackey, "ORACLE_JOIN_ENTRIES", request.param)


def _both_reports(params):
    ring = tring(params)
    block = cli._check_oracle(params, ring)
    reference = check_oracle_reference(oracle(params), ring)
    return block, reference


def _first_pair_with(ring, target):
    """Lexicographic rank of the first pair whose product contains the class."""
    d = len(ring.basis)
    return next(
        ia * d + ib
        for ia, a in enumerate(ring.basis)
        for ib, b in enumerate(ring.basis)
        if target in ring.mult_basis(a, b)
    )


def test_injected_unrecognized_shape_matches_reference(
    fresh_rings, chunk_entries, monkeypatch
):
    # a summand whose class includes M[1,1,1] cannot be classified: the
    # first pair with such a summand is inconclusive, in both paths
    params = make_params(3, 2, 2)
    target = NonProj(1, 1, 1)
    classify = MackeyOracle.classify_induced

    def refuse(self, z):
        out = classify(self, z)
        if target in out:
            raise UnrecognizedShape("injected: no shape")
        return out

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    block, reference = _both_reports(params)
    assert block == reference
    assert block[0] == "inconclusive"
    ring = tring(params)
    assert block[1]["compared"] == str(_first_pair_with(ring, target)) == "52"
    assert block[1]["error"] == "injected: no shape"


def test_first_failing_representative_names_the_error(
    fresh_rings, chunk_entries, monkeypatch
):
    # every twisted-diagonal summand is refused, naming its tag: the first
    # such pair, M[1,1,0] * M[1,1,0], reports the summand of its first
    # representative (TwistedDiagPE), not of a later one (TwistedDiagP)
    classify = MackeyOracle.classify_induced

    def refuse(self, z):
        if z.tag[0] in (gm.TAG_DIAG_P, gm.TAG_DIAG_PE):
            raise UnrecognizedShape(f"injected: {z.tag}")
        return classify(self, z)

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    params = make_params(3, 2, 2)
    block, reference = _both_reports(params)
    assert block == reference
    assert block == (
        "inconclusive",
        {
            "pair": ["M[1,1,0]", "M[1,1,0]"],
            "error": f"injected: {(gm.TAG_DIAG_PE, 1, 1)}",
            "compared": "52",
        },
    )


def test_injected_character_clash_matches_reference(fresh_rings, chunk_entries, monkeypatch):
    # raise the character of P[1,0] on the pairs with both coordinates
    # outside the identity: it stops being a homomorphism, the zero test
    # (which reads only (h, 1)) still passes against P[0,1], and the star
    # product's connecting elements disagree there
    params = make_params(3, 2, 2)
    order = params.group_order
    target = ProjPair(1, 0)
    subgroup_of_basis = MackeyOracle.subgroup_of_basis

    def corrupt(self, b):
        sub = subgroup_of_basis(self, b)
        if b != target:
            return sub
        inner = (sub.codes // order != 0) & (sub.codes % order != 0)
        return gm.SubgroupGG(params, sub.tag, sub.codes, (sub.chars + inner) % params.e)

    monkeypatch.setattr(MackeyOracle, "subgroup_of_basis", corrupt)
    block, reference = _both_reports(params)
    assert block == reference
    assert block[0] == "inconclusive"
    assert block[1]["pair"] == ["P[0,1]", "P[1,0]"]
    assert block[1]["error"].startswith("connecting elements disagree at ")


@pytest.mark.parametrize("pair", [(0, 0), (5, 7), (11, 10)])
def test_raised_closed_form_coefficient_matches_reference(
    fresh_rings, chunk_entries, monkeypatch, pair
):
    params = make_params(3, 2, 2)
    basis = tring(params).basis
    chosen = (basis[pair[0]], basis[pair[1]])
    mult_basis = TRing.mult_basis

    def raised(self, a, b):
        out = mult_basis(self, a, b)
        if (a, b) == chosen:
            first = next(iter(out))
            out[first] += 1
        return out

    patch_mult_basis(monkeypatch, raised)
    block, reference = _both_reports(params)
    assert block == reference
    assert block == (
        "violation",
        {
            "pair": [basis_label(c) for c in chosen],
            "compared": str(pair[0] * len(basis) + pair[1]),
        },
    )


# ------------------------------------------------------------- memory guard

# tracemalloc peak of `cli._check_oracle` at (3,4,2) in a fresh interpreter,
# the ring's table built beforehand (the assoc check shares it).
# The per-pair loop it replaced measured 2_186_626 bytes (about 2.19 MB) on
# Python 3.11.7 and numpy 2.4.6; the sweep may add at most 0.25 MB.  The
# sweep stacked in both factors, compared with the table of live terms,
# reads about 1.41 MB, and 1.61 MB with the table built inside.
ORACLE_PEAK_BOUND = 2_186_626 + 250_000

_PEAK_SCRIPT = """
import tracemalloc
from tsring import cli
from tsring.groupmodel import make_params
from tsring.tring import tring
params = make_params(3, 4, 2)
ring = tring(params)
ring.structure_table()
tracemalloc.start()
status, payload = cli._check_oracle(params, ring)
assert (status, payload) == ("ok", {"compared": "7056"}), (status, payload)
print(tracemalloc.get_traced_memory()[1])
"""


def test_oracle_check_memory_peak():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(out.stdout) <= ORACLE_PEAK_BOUND
