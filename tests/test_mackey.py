"""The coset-enumeration oracle against the closed-form multiplication."""

import pytest
from conftest import BEYOND_INSTANCES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import delta_g

from tsring import groupmodel as gm
from tsring.errors import UnrecognizedShape
from tsring.groupmodel import make_params
from tsring.mackey import oracle
from tsring.tring import NonProj, ProjPair, tring


# -------------------------------------------------------- inducing subgroups


def test_subgroup_of_projective_pair():
    params = make_params(3, 2, 2)
    sub = oracle(params).subgroup_of_basis(ProjPair(0, 0))
    assert sub.tag == (gm.TAG_EXE,)
    assert all(v == 0 for v in sub.character.values())
    sub._check_character()


def test_subgroup_of_identity_class_is_full_diagonal():
    params = make_params(3, 2, 2)
    sub = oracle(params).subgroup_of_basis(NonProj(2, 1, 0))
    assert sub.tag == (gm.TAG_DIAG_PE, 2, 1)
    assert sub.elements == delta_g(params).elements
    assert all(v == 0 for v in sub.character.values())


def test_subgroup_characters_are_homomorphisms(small_params):
    orc = oracle(small_params)
    ring = tring(small_params)
    for b in ring.basis:
        orc.subgroup_of_basis(b)._check_character()


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
    plain = gm.SubgroupGG.from_pairs(
        params, sub.tag, sub.elements, {g: 0 for g in sub.elements}
    )
    assert orc.classify_induced(plain) == {NonProj(1, 1, 0): 1, NonProj(1, 1, 1): 1}


def test_classify_rejects_alien_subgroup():
    params = make_params(3, 2, 2)
    orc = oracle(params)
    # 1 x D_1 has no twisted-diagonal shape and no conjugate that does
    elements = {(params.identity, (y, 1)) for y in params.d_subgroup(1)}
    alien = gm.SubgroupGG.from_pairs(
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


def test_oracle_matches_rules_small(small_params):
    params = small_params
    ring = tring(params)
    orc = oracle(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == ring.mult_basis(a, b)


def test_oracle_matches_rules_322():
    params = make_params(3, 2, 2)
    ring = tring(params)
    orc = oracle(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == ring.mult_basis(a, b)


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


@pytest.mark.parametrize("p,n,e", [(2, 1, 1), (3, 1, 2), (7, 1, 2), (5, 2, 1)])
def test_oracle_equivalence_edge_instances(p, n, e):
    params = make_params(p, n, e)
    ring = tring(params)
    orc = oracle(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == ring.mult_basis(a, b)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BEYOND_INSTANCES))
def test_oracle_matches_rules_beyond_instances(pne):
    params = make_params(*pne)
    ring = tring(params)
    orc = oracle(params)
    for a in ring.basis:
        for b in ring.basis:
            assert orc.oracle_mult(a, b) == ring.mult_basis(a, b), (pne, a, b)
