"""Group model: parameters, cosets, double cosets, star products."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from conftest import EDGE_INSTANCES, INSTANCES
from reference import (
    are_conjugate_bruteforce,
    basis_subgroup_reference,
    character_of,
    check_character,
    conjugate_subgroup_orbit,
    coset_mul,
    delta_g,
    die_elements,
    double_coset_partition,
    double_cosets,
    elements_of,
    first_projection,
    g_conj,
    gg_generators,
    inv_table_reference,
    left_kernel,
    mul_table_reference,
    normalizer_bruteforce,
    pi,
    right_kernel,
    shape_tags_reference,
    star_reference,
    subgroup_diag_p,
    subgroup_exone,
    subgroup_from_pairs,
    subgroup_onexe,
)

from tsring import groupmodel as gm
from tsring.errors import BadLevel, BadOrder, CharacterIllDefined, NotPrime, TwoBlocked
from tsring.mackey import oracle
from tsring.model import make_params
from tsring.tring import tring


# ------------------------------------------------------------------ params


def test_make_params_322():
    params = make_params(3, 2, 2)
    assert params.subgroup_E == (1, 8)
    assert params.multiplicity == 4
    assert params.group_order == 18


def test_make_params_trivial_e():
    assert make_params(5, 1, 1).subgroup_E == (1,)


def test_make_params_errors():
    with pytest.raises(BadOrder):
        make_params(3, 2, 4)
    with pytest.raises(NotPrime):
        make_params(4, 1, 1)
    with pytest.raises(TwoBlocked):
        make_params(2, 2, 2)
    with pytest.raises(BadOrder):
        make_params(3, 0, 1)


def test_subgroup_e_is_the_order_e_subgroup(any_params):
    params = any_params
    members = params.subgroup_E
    assert len(members) == params.e
    assert 1 in members
    for r in members:
        assert pow(r, params.e, params.pn) == 1
        for s in members:
            assert r * s % params.pn in members


# -------------------------------------------------------------- pi, cosets


def test_pi_reduction():
    params = make_params(3, 2, 2)
    assert pi(params, 1, 8) == 2
    assert pi(params, 2, 8) == 8
    with pytest.raises(BadLevel):
        pi(params, 3, 8)
    with pytest.raises(BadOrder):
        pi(params, 1, 6)


def test_pi_injective_on_e():
    params = make_params(7, 2, 3)
    image = {pi(params, 1, r) for r in params.subgroup_E}
    assert len(image) == 3


def test_pi_injective_on_e_everywhere(any_params):
    params = any_params
    for i in range(1, params.n + 1):
        image = {pi(params, i, r) for r in params.subgroup_E}
        assert len(image) == params.e


def test_canonical_coset():
    params = make_params(3, 2, 2)
    coset = gm.canonical_coset(params, 2, 7)
    assert coset.rep == 2
    assert coset.members(params) == (2, 7)
    assert gm.canonical_coset(params, 1, 2).rep == 1  # pi_1(E) is everything
    assert gm.canonical_coset(params, 2, 1).rep == 1


def test_coset_mul_representative_independent():
    params = make_params(3, 2, 2)
    a, b = gm.canonical_coset(params, 2, 2), gm.canonical_coset(params, 2, 4)
    prod = coset_mul(params, a, b)
    # replacing 2 by its coset-mate 7 must not change the product coset
    alt = coset_mul(params, gm.canonical_coset(params, 2, 7), b)
    assert prod == alt == gm.canonical_coset(params, 2, 8)


# ----------------------------------------------------------- element laws


def _closed_form_tables(params):
    """The closed-form product on all pairs, and the closed-form conjugate
    u g u^-1 on all pairs (u, g), each as a |G| x |G| array."""
    table = gm.group_table(params)
    g = np.arange(params.group_order)
    mul = table.product(g[:, None], g[None, :])
    conj = np.array([table.conjugate(u, g) for u in table.elems])
    return mul, conj


def test_group_laws(any_params):
    # associativity, identity and inverses of the closed-form product, and
    # conjugation as u g u^-1 through the reference inverse
    params = any_params
    table = gm.group_table(params)
    order = len(table.elems)
    mul, conj = _closed_form_tables(params)
    left = mul[mul[:, :, None], np.arange(order)[None, None, :]]
    right = mul[np.arange(order)[:, None, None], mul[None, :, :]]
    assert (left == right).all(), "associativity"
    ident = table.index[params.identity]
    assert (mul[ident, :] == np.arange(order)).all()
    inv = inv_table_reference(params)
    assert (mul[np.arange(order), inv] == ident).all()
    assert (conj == mul[mul, inv[:, None]]).all()


def test_frobenius_action(any_params):
    params = any_params
    for r in params.subgroup_E:
        if r == 1:
            continue
        for x in range(1, params.pn):
            assert r * x % params.pn != x


# ----------------------------------------------------------- double cosets


def test_double_coset_counts_examples():
    params = make_params(3, 2, 2)
    assert len(double_cosets(params, 1, 1)) == 2  # trivial + 1
    assert len(double_cosets(params, 2, 2)) == 1
    params524 = make_params(5, 2, 4)
    assert len(double_cosets(params524, 1, 2)) == 1


def test_double_coset_partition_and_sizes(any_params):
    params = any_params
    for i in range(0, params.n + 1):
        for j in range(0, params.n + 1):
            blocks = double_coset_partition(params, i, j)
            sizes = [len(b) for b in blocks]
            assert sum(sizes) == params.group_order
            l = max(i, j)
            trivial_size = params.p**l * params.e
            assert sizes[0] == trivial_size
            for s in sizes[1:]:
                assert s == params.p**l * params.e**2
            assert len(blocks) - 1 == params.nontrivial_coset_count(l)


def test_double_coset_reps_first_is_identity(any_params):
    params = any_params
    reps = double_cosets(params, 1, 1)
    assert reps[0] == params.identity
    in_d = gm.double_cosets_in_d(params, 1, 1)
    assert all(r == 1 for _, r in in_d)


# ------------------------------------------------------------ star products


def test_star_diagonal_idempotent():
    params = make_params(3, 2, 2)
    dg = delta_g(params)
    assert elements_of(gm.star(dg, dg)) == elements_of(dg)


def test_star_twisted_diagonals_compose():
    params = make_params(3, 2, 2)
    for i, alpha in ((1, 1), (2, 2), (2, 4)):
        for j, beta in ((1, 1), (2, 2)):
            a = gm.subgroup_diag_pe(params, i, alpha)
            b = gm.subgroup_diag_pe(params, j, beta)
            prod = gm.star(a, b)
            k = min(i, j)
            expected_unit = alpha * beta % params.p**k
            expected = gm.subgroup_diag_pe(params, k, expected_unit)
            assert elements_of(prod) == elements_of(expected)
            tag = gm.recognize_shape(params, prod.codes)
            assert tag[0] == gm.TAG_DIAG_PE
            assert gm.canonical_coset(params, k, tag[2]) == gm.canonical_coset(
                params, k, expected_unit
            )


def test_star_exe_absorbs_diagonal():
    params = make_params(3, 2, 2)
    exe = gm.subgroup_exe(params)
    diag = gm.subgroup_diag_pe(params, 2, 2)
    assert elements_of(gm.star(exe, diag)) == elements_of(exe)


def test_star_character_well_defined():
    params = make_params(3, 2, 2)
    x = gm.subgroup_exe(params, lam=1, mu=0)
    y = gm.subgroup_diag_pe(params, 2, 1, lam=1)
    out = gm.star(x, y)
    assert character_of(out) is not None
    check_character(out)


def test_star_character_conflict_raises():
    params = make_params(3, 2, 2)
    # E x E against itself has connecting subgroup E; mismatched middle
    # characters really do disagree, which star must surface
    x = gm.subgroup_exe(params, lam=0, mu=1)
    y = gm.subgroup_exe(params, lam=0, mu=0)
    with pytest.raises(CharacterIllDefined):
        gm.star(x, y)


# ------------------------------------------------------------- conjugation


def test_conj_by_identity():
    params = make_params(3, 2, 2)
    sub = subgroup_diag_p(params, 1, 1)
    out = gm.conj((params.identity, params.identity), sub)
    assert elements_of(out) == elements_of(sub)
    assert gm.recognize_shape(params, out.codes) == sub.tag


def test_conj_by_d_fixes_twisted_diagonal():
    params = make_params(3, 2, 2)
    sub = subgroup_diag_p(params, 1, 1)
    out = gm.conj(((1, 1), (0, 1)), sub)
    assert gm.recognize_shape(params, out.codes) == (gm.TAG_DIAG_P, 1, 1)
    assert len(out) == len(sub)


def test_conj_preserves_order(any_params):
    params = any_params
    sub = gm.subgroup_diag_pe(params, params.n, 1)
    out = gm.conj(((1, 1), (0, 1)), sub)
    assert len(out) == len(sub)


def test_conj_twist_matches_unit_action():
    # conjugating by ((0, r), (0, s)) turns the unit u into r * u * s^(-1)
    params = make_params(7, 2, 3)
    r = params.subgroup_E[1]
    sub = subgroup_diag_p(params, 2, 3)
    out = gm.conj(((0, r), params.identity), sub)
    assert gm.recognize_shape(params, out.codes) == (gm.TAG_DIAG_P, 2, 3 * r % 49)


# ------------------------------------- index kernels against the group law


def _basis_subgroups(params):
    orc = oracle(params)
    return [orc.subgroup_of_basis(b) for b in tring(params).basis]


def _assert_encodes(sub, character):
    """The sorted, duplicate-free codes and aligned characters decode to `character`."""
    assert (np.diff(sub.codes) > 0).all()
    assert elements_of(sub) == frozenset(character)
    assert dict(character_of(sub)) == character


def test_conj_matches_group_law(small_params):
    params = small_params
    conjugators = gg_generators(params) + random.Random(0).sample(
        sorted(_dxd_delta_e(params)), 8
    )
    for sub in _basis_subgroups(params):
        for s1, s2 in conjugators:
            expected = {
                (g_conj(params, s1, a), g_conj(params, s2, b)): value
                for (a, b), value in character_of(sub).items()
            }
            _assert_encodes(gm.conj((s1, s2), sub), expected)


def _compose(params, x, y):
    """{(g, k) : (g, h) in X, (h, k) in Y} with summed characters, or None
    when two connecting elements give one pair different values."""
    out = {}
    for (g, h), u in character_of(x).items():
        for (h2, k), v in character_of(y).items():
            if h == h2:
                value = (u + v) % params.e
                if out.setdefault((g, k), value) != value:
                    return None
    return out


def test_star_matches_group_law(small_params):
    # one join per pair of basis subgroups, against the group law
    params = small_params
    for x in _basis_subgroups(params):
        for y in _basis_subgroups(params):
            expected = _compose(params, x, y)
            if expected is None:
                # the first clash is named, as the reference join names it
                with pytest.raises(CharacterIllDefined) as clash:
                    star_reference(x, y)
                with pytest.raises(CharacterIllDefined, match=re.escape(str(clash.value))):
                    gm.star(x, y)
            else:
                _assert_encodes(gm.star(x, y), expected)


# ----------------------------------------------- normalizers and conjugacy


def _dxd_delta_e(params):
    out = set()
    for z1 in range(params.pn):
        for z2 in range(params.pn):
            for r in params.subgroup_E:
                out.add(((z1, r), (z2, r)))
    return out


@pytest.mark.parametrize("p,n,e", [(3, 2, 2), (5, 1, 2), (2, 3, 1)])
def test_normalizer_is_dxd_delta_e(p, n, e):
    params = make_params(p, n, e)
    expected = _dxd_delta_e(params)
    for i in range(1, n + 1):
        for u in range(1, p**i):
            if u % p == 0:
                continue
            sub = subgroup_diag_p(params, i, u)
            assert normalizer_bruteforce(params, sub) == expected


@pytest.mark.parametrize("p,n,e", [(3, 2, 2), (5, 1, 4), (2, 3, 1)])
def test_conjugacy_matches_coset_criterion(p, n, e):
    params = make_params(p, n, e)
    for i in range(1, n + 1):
        units = [u for u in range(1, p**i) if u % p]
        for u in units:
            orbit = conjugate_subgroup_orbit(params, subgroup_diag_p(params, i, u))
            for v in units:
                expected = gm.canonical_coset(params, i, u) == gm.canonical_coset(
                    params, i, v
                )
                got = frozenset(elements_of(subgroup_diag_p(params, i, v))) in orbit
                assert got == expected


def test_different_levels_never_conjugate():
    params = make_params(3, 2, 2)
    a = subgroup_diag_p(params, 1, 1)
    b = subgroup_diag_p(params, 2, 1)
    assert not are_conjugate_bruteforce(params, a, b)


# ------------------------------------------------------------- subgroup API


def test_subgroup_projections_and_kernels():
    params = make_params(3, 2, 2)
    exe = gm.subgroup_exe(params)
    assert left_kernel(exe) == frozenset((0, r) for r in params.subgroup_E)
    assert right_kernel(exe) == frozenset((0, r) for r in params.subgroup_E)
    diag = gm.subgroup_diag_pe(params, 1, 1)
    assert left_kernel(diag) == frozenset({params.identity})
    assert first_projection(diag) == frozenset(die_elements(params, 1))


def test_subgroup_validation_rejects_non_subgroup():
    params = make_params(3, 1, 1)
    with pytest.raises(ValueError):
        subgroup_from_pairs(params, None, {((1, 1), (0, 1))})


def test_star_requires_same_params():
    from tsring.errors import ParamsMismatch

    a = gm.subgroup_exe(make_params(3, 2, 2))
    b = gm.subgroup_exe(make_params(3, 1, 1))
    with pytest.raises(ParamsMismatch):
        gm.star(a, b)


def test_double_coset_reps_are_least_members_in_order():
    params = make_params(7, 2, 3)
    table = gm.group_table(params)
    for i, j in [(0, 0), (0, 1), (1, 1), (1, 2)]:
        reps = double_cosets(params, i, j)
        indices = [table.index[r] for r in reps]
        assert indices == sorted(indices)
        blocks_ = double_coset_partition(params, i, j)
        for rep, block in zip(reps, blocks_):
            assert table.index[rep] == min(block)


@pytest.mark.parametrize(
    "pne",
    INSTANCES + EDGE_INSTANCES + [(2, 4, 1), (2, 5, 1), (3, 4, 2), (5, 3, 4)],
    ids=lambda t: "p{}n{}e{}".format(*t),
)
def test_double_cosets_in_d_are_the_least_in_d_members(pne):
    # the closed form against the double cosets gathered from the reference
    # table: the least member inside D of each, in order of least member
    params = make_params(*pne)
    elems = gm.group_table(params).elems
    for i in range(params.n + 1):
        for j in range(params.n + 1):
            expected = tuple(
                min(elems[t] for t in block if elems[t][1] == 1)
                for block in double_coset_partition(params, i, j)
            )
            assert gm.double_cosets_in_d(params, i, j) == expected


def test_constructor_tags_match_recognition():
    params = make_params(3, 2, 2)
    built = [
        gm.subgroup_exe(params),
        subgroup_exone(params),
        subgroup_onexe(params),
        subgroup_diag_p(params, 1, 1),
        subgroup_diag_p(params, 2, 4),
        gm.subgroup_diag_pe(params, 1, 2),
        gm.subgroup_diag_pe(params, 2, 7),
    ]
    for sub in built:
        recognized = gm.recognize_shape(params, sub.codes)
        assert recognized is not None
        assert recognized[0] == sub.tag[0]
        if len(recognized) == 3:
            # the recognized unit must generate the same coset
            level, unit = recognized[1], recognized[2]
            assert level == sub.tag[1]
            assert gm.canonical_coset(params, level, unit) == gm.canonical_coset(
                params, level, sub.tag[2]
            )


def test_constructors_check_closure_once_per_code_array(monkeypatch):
    # each shape's code array is certified once per process, from its
    # closed-form generators, and shared by every character on it; each
    # character is still checked.  Recognition certifies a tag when it
    # first returns it, and building the shape table certifies nothing
    params = make_params(3, 2, 2)
    gm._certified.cache_clear()
    gm._shape_tags.cache_clear()
    certify, check = gm._certify, gm._check_character
    checked, characters = [], []

    def spy(table, codes, gens):
        checked.append((len(codes), len(gens)))
        return certify(table, codes, gens)

    def spy_character(table, codes, chars, gens, steps):
        characters.append(len(codes))
        check(table, codes, chars, gens, steps)

    monkeypatch.setattr(gm, "_certify", spy)
    monkeypatch.setattr(gm, "_check_character", spy_character)
    gm._shape_tags(params)
    assert checked == []
    diagonals = [gm.subgroup_diag_pe(params, 2, 4, lam=lam) for lam in range(params.e)]
    assert all(sub.codes is diagonals[0].codes for sub in diagonals)
    assert not diagonals[0].codes.flags.writeable
    gm.subgroup_exe(params, lam=1, mu=0)
    gm.subgroup_exe(params, lam=0, mu=1)
    gm.subgroup_diag_pe(params, 1, 3, lam=1)  # the non-unit 3: not a tag
    subgroup_diag_p(params, 1, 2)
    assert gm.recognize_shape(params, gm.subgroup_diag_pe(params, 2, 13).codes) is not None
    assert checked == [(18, 2), (4, 2), (6, 2), (3, 1)]
    assert characters == [18, 18, 4, 4, 6]


def _index_pairs(sub):
    """The subgroup's elements as aligned arrays of G-indices (g, h)."""
    return np.divmod(sub.codes, sub.params.group_order)


def _generators(params, i, unit):
    """The diagonal's closed-form generators: the twisted image of the
    generator of D_i, and (epsilon, epsilon)."""
    table = gm.group_table(params)
    y = params.p ** (params.n - i)
    eps = table.index[(0, params.e_generator)]
    return [(table.index[(unit * y % params.pn, 1)], table.index[(y, 1)]), (eps, eps)]


def _shape(table, g, h, chars, gens):
    """The subgroup of index pairs (g, h) through the package's certificate:
    the closure of `gens`, then the character on it."""
    codes = g.astype(np.int64) * len(table.elems) + h
    order = codes.argsort(kind="stable")
    codes = codes[order]
    steps = gm._certify(table, codes, gens)
    if chars is not None:
        chars = chars[order]
        gm._check_character(table, codes, chars, gens, steps)
    return gm.SubgroupGG(table.params, None, codes, chars)


def test_constructors_still_check_the_character():
    params = make_params(3, 2, 2)
    table = gm.group_table(params)
    g, h = _index_pairs(gm.subgroup_exe(params))
    eps = table.index[(0, params.e_generator)]
    constant = np.ones(len(g), dtype=np.int64)  # not a homomorphism
    with pytest.raises(CharacterIllDefined):
        _shape(table, g, h, constant, [(eps, 0), (0, eps)])


# ---------------------- index arithmetic against the tuple reference


@pytest.mark.parametrize("pne", INSTANCES + EDGE_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t))
def test_group_table_matches_group_law(pne):
    # the closed-form product and conjugate on all pairs, against the
    # reference tables built by the tuple law
    params = make_params(*pne)
    mul, conj = _closed_form_tables(params)
    ref, inv = mul_table_reference(params), inv_table_reference(params)
    assert (mul == ref).all()
    assert (mul[np.arange(params.group_order), inv] == 0).all()
    assert (conj == ref[ref, inv[:, None]]).all()


def test_group_table_builds_in_row_blocks():
    # the law needs tables of O(|G|) entries only: on (19,2,18) a |G| x |G|
    # int32 table alone would take 169 MB
    params = make_params(19, 2, 18)
    tracemalloc.start()
    try:
        table = gm.GroupTable(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.elems) == 6498
    assert peak < 5 * 2**20


@pytest.mark.parametrize("pne", INSTANCES + EDGE_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t))
def test_shape_tags_match_tuple_constructors(pne):
    # the same codes, tags and order, so the first built still wins at e = 1
    params = make_params(*pne)
    built = gm._shape_tags(params)
    reference = shape_tags_reference(params)
    assert list(built.items()) == list(reference.items())


@pytest.mark.parametrize("pne", INSTANCES + EDGE_INSTANCES, ids=lambda t: "p{}n{}e{}".format(*t))
def test_basis_subgroups_match_tuple_constructors(pne):
    params = make_params(*pne)
    orc = oracle(params)
    for b in tring(params).basis:
        sub, ref = orc.subgroup_of_basis(b), basis_subgroup_reference(params, b)
        assert sub.tag == ref.tag
        assert sub.codes.dtype == ref.codes.dtype and (sub.codes == ref.codes).all()
        assert sub.chars.dtype == ref.chars.dtype and (sub.chars == ref.chars).all()


# ------------------------------------ mutations: the generator certificate


def _shapes(params):
    """(tag, g, h, chars, generators) of one shape of each kind, with
    characters where the shape carries one."""
    table = gm.group_table(params)
    eps = table.index[(0, params.e_generator)]
    out = []
    for sub, gens in (
        (gm.subgroup_exe(params, lam=1, mu=0), [(eps, 0), (0, eps)]),
        (subgroup_exone(params, lam=1), [(eps, 0)]),
        (subgroup_onexe(params, mu=1), [(0, eps)]),
        (subgroup_diag_p(params, 2, 2), _generators(params, 2, 2)[:1]),
        (gm.subgroup_diag_pe(params, 2, 2, lam=1), _generators(params, 2, 2)),
        (gm.subgroup_diag_pe(params, 1, 4, lam=1), _generators(params, 1, 4)),
    ):
        out.append((sub.tag, *_index_pairs(sub), sub.chars, gens))
    return out


@pytest.mark.parametrize("pne", [(3, 2, 2), (7, 2, 3)], ids=lambda t: "p{}n{}e{}".format(*t))
def test_certificate_accepts_every_shape(pne):
    params = make_params(*pne)
    table = gm.group_table(params)
    for tag, g, h, chars, gens in _shapes(params):
        sub = _shape(table, g, h, chars, gens)
        # the |H|^2 checks agree
        character = None if chars is None else dict(character_of(sub))
        ref = subgroup_from_pairs(params, tag, elements_of(sub), character)
        assert (ref.codes == sub.codes).all()


@pytest.mark.parametrize("pne", [(3, 2, 2), (7, 2, 3)], ids=lambda t: "p{}n{}e{}".format(*t))
def test_certificate_rejects_a_dropped_element(pne):
    params = make_params(*pne)
    table = gm.group_table(params)
    rng = random.Random(0)
    for tag, g, h, chars, gens in _shapes(params):
        for drop in {0, len(g) - 1, rng.randrange(len(g))}:
            keep = np.arange(len(g)) != drop
            with pytest.raises(ValueError):
                mutant = None if chars is None else chars[keep]
                _shape(table, g[keep], h[keep], mutant, gens)


def test_certificate_rejects_a_generator_outside_the_subgroup():
    params = make_params(3, 2, 2)
    table = gm.group_table(params)
    outside = (table.index[(1, 1)], 0)  # (d, 1), d of order p^n
    for tag, g, h, chars, gens in _shapes(params):
        with pytest.raises(ValueError, match="not closed"):
            _shape(table, g, h, chars, gens[:-1] + [outside])


def test_certificate_rejects_generators_that_miss_part_of_the_subgroup():
    params = make_params(3, 2, 2)
    table = gm.group_table(params)
    for tag, g, h, chars, gens in _shapes(params):
        if len(gens) == 2:
            # a D_i E diagonal without (epsilon, epsilon), E x E without 1 x E
            with pytest.raises(ValueError, match="miss part"):
                _shape(table, g, h, chars, gens[:1])
    # the identity alone generates nothing more
    g, h = _index_pairs(subgroup_exone(params))
    with pytest.raises(ValueError, match="miss part"):
        _shape(table, g, h, None, [(0, 0)])


@pytest.mark.parametrize("pne", [(3, 2, 2), (7, 2, 3)], ids=lambda t: "p{}n{}e{}".format(*t))
def test_certificate_rejects_a_character_wrong_off_the_generators(pne):
    params = make_params(*pne)
    table = gm.group_table(params)
    order = params.group_order
    for tag, g, h, chars, gens in _shapes(params):
        if tag[0] == gm.TAG_DIAG_P:
            continue
        codes = g.astype(np.int64) * order + h
        named = {0} | {s1 * order + s2 for s1, s2 in gens}
        for at in np.flatnonzero(~np.isin(codes, list(named))):
            wrong = chars.copy()
            wrong[at] = (wrong[at] + 1) % params.e
            with pytest.raises(CharacterIllDefined):
                _shape(table, g, h, wrong, gens)
