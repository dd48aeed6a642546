"""The coset-enumeration oracle against the closed-form multiplication."""

import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, EDGE_INSTANCES, INSTANCES, SMALL_INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    canonicalize_reference,
    character_of,
    check_character,
    check_oracle_reference,
    delta_g,
    double_coset_partition,
    elements_of,
    oracle_mult_reference,
    oracle_table,
    patch_mult_basis,
    subgroup_diag_p,
    subgroup_exone,
    subgroup_from_pairs,
)

from tsring import cli, mackey
from tsring import groupmodel as gm
from tsring.errors import UnrecognizedShape
from tsring.mackey import ORACLE_ERRORS, MackeyOracle, oracle
from tsring.model import NonProj, ProjPair, basis_label, make_params
from tsring.tring import TRing, tring

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
    sub = subgroup_exone(params, lam=1)
    assert orc.classify_induced(sub) == {ProjPair(1, 0): 1, ProjPair(1, 1): 1}


def test_classify_untwisted_level_one_diagonal():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    sub = subgroup_diag_p(params, 1, 1)
    plain = subgroup_from_pairs(
        params, sub.tag, elements_of(sub), {g: 0 for g in elements_of(sub)}
    )
    assert orc.classify_induced(plain) == {NonProj(1, 1, 0): 1, NonProj(1, 1, 1): 1}


def test_classify_rejects_alien_subgroup():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    # 1 x D_1 has no twisted-diagonal shape and no conjugate that does
    elements = {(params.identity, (y, 1)) for y in params.d_subgroup(1)}
    alien = subgroup_from_pairs(params, None, elements, {g: 0 for g in elements})
    with pytest.raises(UnrecognizedShape, match="fits no known shape"):
        orc.canonicalize(alien)
    with pytest.raises(UnrecognizedShape, match="fits no known shape"):
        canonicalize_reference(params, alien)


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
    """The transported table against the closed form, every pair compared."""
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
    for block in double_coset_partition(params, i, j):
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
    assert oracle_mult_reference(orc, a, b, alt) == orc.oracle_mult(a, b)


# ----------------------------------------------------------- coset plumbing


def test_oracle_never_consults_count_formula(monkeypatch):
    # the multiplicity of the all-characters tail equals the enumerated
    # number of nontrivial cosets, not a formula lookup: delete a coset
    # representative and the oracle's answer must change
    params = make_params(3, 2, 2)
    orc = oracle(params)
    a = ProjPair(0, 0)
    full = orc.oracle_mult(a, a)
    monkeypatch.setattr(
        mackey, "double_cosets_in_d", lambda *args: gm.double_cosets_in_d(*args)[:-1]
    )
    assert orc.oracle_mult(a, a) != full


@pytest.mark.parametrize("p,n,e", [(3, 1, 1), (2, 2, 1), (5, 1, 2)])
def test_representative_independence_all_pairs(p, n, e):
    # worst-case representatives (largest member of each coset, usually
    # outside D) must reproduce every product of the least representatives
    # via the reference's conjugation-search canonicalization
    params = make_params(p, n, e)
    ring = tring(params)
    orc = oracle(params)
    level = lambda x: 0 if isinstance(x, ProjPair) else x.level
    for a in ring.basis:
        for b in ring.basis:
            alt = _alternate_reps(params, level(a), level(b))
            assert oracle_mult_reference(orc, a, b, alt) == orc.oracle_mult(a, b)


@pytest.mark.parametrize("p,n,e", EDGE_INSTANCES)
def test_oracle_equivalence_edge_instances(p, n, e):
    _assert_matches_rules(make_params(p, n, e))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES))
def test_oracle_matches_rules_beyond_instances(pne):
    _assert_matches_rules(make_params(*pne))


# ------------------------------------------ the enumeration, pair by pair


def _assert_block_matches_reference(params, alternate, sample=None):
    # `oracle_mult` against the per-pair reference loop, the reference with
    # least-in-D or worst-case representatives; every pair, or a random
    # sample of pairs when the loop would be slow
    orc = oracle(params)
    ring = tring(params)
    level = lambda x: 0 if isinstance(x, ProjPair) else x.level
    reps_of = (lambda i, j: _alternate_reps(params, i, j)) if alternate else (
        lambda i, j: gm.double_cosets_in_d(params, i, j)
    )
    pairs = [(a, b) for a in ring.basis for b in ring.basis]
    if sample is not None:
        pairs = sample.sample(pairs, min(len(pairs), 300))
    for a, b in pairs:
        reps = reps_of(level(a), level(b))
        assert orc.oracle_mult(a, b) == oracle_mult_reference(orc, a, b, reps), (a, b)


@pytest.mark.parametrize("alternate", [False, True], ids=["least", "largest"])
@pytest.mark.parametrize(
    "pne", SMALL_INSTANCES + EDGE_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t)
)
def test_block_routine_matches_reference_loop(pne, alternate):
    _assert_block_matches_reference(make_params(*pne), alternate)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES), st.booleans(), st.randoms(use_true_random=False))
def test_block_routine_matches_reference_beyond_instances(pne, alternate, sample):
    # 300 pairs of `oracle_mult` through the reference loop
    _assert_block_matches_reference(make_params(*pne), alternate, sample)


def test_oracle_mult_is_a_one_row_block():
    # `oracle_mult` with its default representatives, every pair
    params = make_params(3, 2, 2)
    orc = oracle(params)
    ring = tring(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == oracle_mult_reference(orc, a, b)


# ------------------------------------------------ transport along twists

TRANSPORT_INSTANCES = INSTANCES + EDGE_INSTANCES + [(3, 4, 2), (5, 3, 2), (2, 4, 1), (2, 5, 1)]


@pytest.mark.parametrize("pne", TRANSPORT_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t))
def test_transported_check_matches_reference(pne):
    # the check from (e + n)^2 representative pairs reports what the
    # per-pair loop over all d^2 pairs reports
    params = make_params(*pne)
    ring = tring(params)
    assert cli._check_oracle(params, ring) == check_oracle_reference(oracle(params), ring)


def _use_before(orc, how):
    """Fill the oracle's memo before the products under test are read: not
    at all (None), by enumerating every pair alone in basis order
    ("pairs"), or by transporting the whole table once ("table").  A failing
    enumeration is passed over; the memo keeps classes, never failures."""
    if how == "pairs":
        basis = tring(orc.params).basis
        for a in basis:
            for b in basis:
                try:
                    orc.oracle_mult(a, b)
                except ORACLE_ERRORS:
                    pass
    elif how == "table":
        for _ in orc.rows()[1]:
            pass


@lru_cache(maxsize=None)
def _reference_table(params):
    orc, ring = oracle(params), tring(params)
    return {(a, b): oracle_mult_reference(orc, a, b) for a in ring.basis for b in ring.basis}


@pytest.mark.parametrize(
    "before", ["pairs", None, "table"], ids=["one_right_row", "default", "whole_level"]
)
@pytest.mark.parametrize(
    "pne", INSTANCES + EDGE_INSTANCES + [(3, 4, 2)], ids=lambda t: "p{}n{}e{}".format(*t)
)
def test_sweep_matches_reference_at_every_block_bound(pne, before):
    # the whole transported table is the per-pair loop's, pair by pair, read
    # from a fresh oracle (default), from one that first enumerated every
    # pair one right factor at a time (one_right_row), and from one that
    # first transported the whole table (whole_level)
    params = make_params(*pne)
    orc = MackeyOracle(params)
    _use_before(orc, before)
    expected = _reference_table(params)
    table = oracle_table(orc)
    assert set(table) <= set(expected)
    for pair, product in expected.items():
        assert table.get(pair, {}) == product, pair


def _counted_enumerations(params, monkeypatch):
    """The pairs `oracle_mult` enumerates in one oracle check."""
    calls = []
    enumerate_pair = MackeyOracle.oracle_mult

    def counted(self, a, b):
        calls.append((a, b))
        return enumerate_pair(self, a, b)

    monkeypatch.setattr(MackeyOracle, "oracle_mult", counted)
    ring = tring(params)
    assert cli._check_oracle(params, ring) == ("ok", {"compared": str(ring.dimension() ** 2)})
    return calls


@pytest.mark.parametrize(
    "pne", TRANSPORT_INSTANCES + [(13, 2, 12)], ids=lambda t: "p{}n{}e{}".format(*t)
)
def test_twist_orbits_leave_e_plus_n_representatives(pne, fresh_rings, monkeypatch):
    # e orbits of projective pairs (by the character the twists keep) and
    # one orbit per level, on each side; (e + n)^2 representative pairs,
    # plus each generating twist of each representative in the sample
    params = make_params(*pne)
    orc = oracle(params)
    ring = tring(params)
    d, reps = ring.dimension(), params.e + params.n
    for side in (0, 1):
        perms = [orc.permutation(side, *twist, {}) for twist in orc.twists()]
        rep, twist = orc._orbits(perms)
        assert len(np.flatnonzero(rep == np.arange(d))) == reps
        # twist[c] moves the representative to c, and is a permutation
        assert (twist[np.arange(d), rep] == np.arange(d)).all()
        assert (np.sort(twist, axis=1) == np.arange(d)).all()
    calls = _counted_enumerations(params, monkeypatch)
    assert len(calls) == reps * reps + 2 * len(orc.twists()) * reps


def test_one_shape_lookup_per_summand(monkeypatch):
    # `canonicalize` is the one recognition site: star products, conjugates
    # and twists stay untagged, so one oracle check looks up one shape per
    # classified summand, 1044 on (3,4,2)
    params = make_params(3, 4, 2)
    calls = {"recognize": 0, "terms": 0}
    recognize, terms = gm.recognize_shape, MackeyOracle._terms

    def counted_recognize(*args):
        calls["recognize"] += 1
        return recognize(*args)

    def counted_terms(self, z):
        calls["terms"] += 1
        return terms(self, z)

    for module in (gm, mackey):
        monkeypatch.setattr(module, "recognize_shape", counted_recognize)
    monkeypatch.setattr(MackeyOracle, "_terms", counted_terms)
    assert cli._check_oracle(params, tring(params)) == ("ok", {"compared": "7056"})
    assert calls == {"recognize": 1044, "terms": 1044}


def test_oracle_check_13_2_12():
    # 196 representative pairs and 56 samples stand for 97344 pairs
    params = make_params(13, 2, 12)
    assert cli._check_oracle(params, tring(params)) == ("ok", {"compared": "97344"})


# --------------------------------------------------- mutations of the check


@pytest.fixture(params=[None, "pairs", "table"], ids=["chunked", "row_by_row", "whole_levels"])
def prior_use(request):
    """How the oracle was used before the check under test, the mutation in
    place: not at all, as `verify --which oracle` runs it cold (chunked);
    every pair enumerated alone, row by row (row_by_row); or the whole table
    transported once (whole_levels).  The report must not change."""
    return request.param


def _both_reports(params, before=None):
    ring = tring(params)
    _use_before(oracle(params), before)
    block = cli._check_oracle(params, ring)
    reference = check_oracle_reference(oracle(params), ring)
    return block, reference


def test_injected_unrecognized_shape_matches_reference(fresh_rings, prior_use, monkeypatch):
    # a summand whose class includes M[1,1,1] cannot be classified.  The
    # character twist of M[1,1,0] is M[1,1,1], so it fails on both sides;
    # the right twist's failure is at the least pair of column M[1,1,0],
    # P[0,0] * M[1,1,0], ahead of the per-pair loop's first product with
    # M[1,1,1] (52)
    params = make_params(3, 2, 2)
    target = NonProj(1, 1, 1)
    classify = MackeyOracle.classify_induced

    def refuse(self, z):
        out = classify(self, z)
        if target in out:
            raise UnrecognizedShape("injected: no shape")
        return out

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    block, reference = _both_reports(params, prior_use)
    assert reference[1]["compared"] == "52"
    assert block == (
        "inconclusive",
        {"pair": ["P[0,0]", "M[1,1,0]"], "error": "injected: no shape", "compared": "4"},
    )


def test_first_failing_representative_names_the_error(fresh_rings, prior_use, monkeypatch):
    # every twisted-diagonal summand is refused, naming its tag.  The
    # enumeration of M[1,1,0] * M[1,1,0] reports the summand of its first
    # representative (TwistedDiagPE), not of a later one (TwistedDiagP).
    # The check fails first at the right twist of M[1,1,0] by the
    # primitive root 2, the diagonal of the unit 1/2 = 2 mod 3
    classify = MackeyOracle.classify_induced

    def refuse(self, z):
        if z.tag[0] in (gm.TAG_DIAG_P, gm.TAG_DIAG_PE):
            raise UnrecognizedShape(f"injected: {z.tag}")
        return classify(self, z)

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    params = make_params(3, 2, 2)
    block, _ = _both_reports(params, prior_use)
    assert block == (
        "inconclusive",
        {
            "pair": ["P[0,0]", "M[1,1,0]"],
            "error": f"injected: {(gm.TAG_DIAG_PE, 1, 2)}",
            "compared": "4",
        },
    )
    with pytest.raises(UnrecognizedShape, match=re.escape(str((gm.TAG_DIAG_PE, 1, 1)))):
        oracle(params).oracle_mult(NonProj(1, 1, 0), NonProj(1, 1, 0))


def test_injected_character_clash_matches_reference(fresh_rings, prior_use, monkeypatch):
    # raise the character of P[1,0] on the pairs with both coordinates
    # outside the identity: it stops being a homomorphism, the zero test
    # (which reads only (h, 1)) still passes against P[0,1], and the star
    # product's connecting elements disagree there.  P[1,0] is a right
    # representative and P[0,1] a left one, so the pair is enumerated
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
    block, reference = _both_reports(params, prior_use)
    assert block == reference
    assert block[0] == "inconclusive"
    assert block[1]["pair"] == ["P[0,1]", "P[1,0]"]
    assert block[1]["error"].startswith("connecting elements disagree at ")


@pytest.mark.parametrize("pair", [(0, 0), (5, 7), (11, 10)])
def test_raised_closed_form_coefficient_matches_reference(
    fresh_rings, prior_use, monkeypatch, pair
):
    # (0, 0) is a representative pair; (5, 7) and (11, 10) are not, and
    # are compared only through their twists
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
    block, reference = _both_reports(params, prior_use)
    assert block == reference
    assert block == (
        "violation",
        {
            "pair": [basis_label(c) for c in chosen],
            "compared": str(pair[0] * len(basis) + pair[1]),
        },
    )


def test_character_twist_on_the_wrong_coordinate_is_caught(fresh_rings, monkeypatch):
    # the character shift of a twist read at the other coordinate moves the
    # projective pairs as the other side's twist would, and the products
    # carried along it are wrong
    params = make_params(3, 2, 2)
    twisted = MackeyOracle._twisted

    def misread(self, z, side, image, shift):
        if shift is None:
            return twisted(self, z, side, image, shift)
        other = np.divmod(z.codes, params.group_order)[1 - side]
        return gm.SubgroupGG(params, z.tag, z.codes, (z.chars + shift[other]) % params.e)

    monkeypatch.setattr(MackeyOracle, "_twisted", misread)
    status, _ = cli._check_oracle(params, tring(params))
    assert status != "ok"


def test_twist_that_merges_two_classes_is_inconclusive(fresh_rings, monkeypatch):
    # every twist sends M[2,2,1] where it sends M[2,2,0]: no permutation.
    # The repeat is named at the least pair of its column, P[0,0] * M[2,2,1]
    params = make_params(3, 2, 2)
    basis = tring(params).basis
    merged, kept = basis.index(NonProj(2, 2, 1)), basis.index(NonProj(2, 2, 0))
    twisted = MackeyOracle._twisted

    def merge(self, z, side, image, shift):
        if z is self.subgroup_of_basis(basis[merged]):
            z = self.subgroup_of_basis(basis[kept])
        return twisted(self, z, side, image, shift)

    monkeypatch.setattr(MackeyOracle, "_twisted", merge)
    assert cli._check_oracle(params, tring(params)) == (
        "inconclusive",
        {
            "pair": ["P[0,0]", "M[2,2,1]"],
            "error": "a twist of M[2,2,1] repeats an image",
            "compared": str(merged),
        },
    )


# ------------------------------------------------------------- memory guard

# tracemalloc peak of `cli._check_oracle` at (3,4,2) in a fresh interpreter,
# the ring's table built beforehand (the assoc check shares it).
# The per-pair loop it replaced measured 2_186_626 bytes (about 2.19 MB) on
# Python 3.11.7 and numpy 2.4.6; the check may add at most 0.25 MB.  The
# check transported along twists from (e + n)^2 enumerated pairs, compared
# row by row with the table of live terms, reads about 1.01 MB, and
# 1.07 MB with the table built inside (the stacked sweep before it: 1.41
# and 1.61 MB).
ORACLE_PEAK_BOUND = 2_186_626 + 250_000

_PEAK_SCRIPT = """
import tracemalloc
from tsring import cli
from tsring.model import make_params
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
