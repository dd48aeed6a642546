"""Chain idempotents, central blocks, the scan, and semisimplicity."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from conftest import BEYOND_INSTANCES, INSTANCES, SMALL_INSTANCES
from reference import (
    ga_add,
    mult_reference,
    projective_primitive_decomposition,
    trace_form_gram,
)

from tsring import blocks
from tsring.cartan import cartan_inverse
from tsring.cli import main
from tsring.errors import BadLevel, CharIsP, ScanTooLarge
from tsring.exactarith import GF, QQ, ZZ, field_mat_mul
from tsring.groupmodel import make_params
from tsring.tring import NonProj, ProjPair, TRing, tring


# ------------------------------------------------------------- label groups


def test_level_group_orders(any_params):
    params = any_params
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        assert gamma.order == params.p ** (i - 1) * (params.p - 1)
        # abelian
        for a in gamma.elements[:6]:
            for b in gamma.elements[:6]:
                assert gamma.mul(a, b) == gamma.mul(b, a)


def test_level_group_non_cyclic_two_power():
    # (Z/8)^x = {1, 3, 5, 7} is a Klein four-group: no cyclic quotient of
    # order 4, so four idempotents, one per subgroup of index at most 2
    gamma = blocks.level_group(make_params(2, 3, 1), 3)
    assert gamma.order == 4
    quarter = Fraction(1, 4)
    signs = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    assert gamma.primitive_rational_idempotents() == [
        {(u, 0): s * quarter for u, s in zip((1, 3, 5, 7), row)} for row in signs
    ]


def _distinct_cyclic_subgroups(gamma):
    out = set()
    for g in gamma.elements:
        powers = {gamma.identity}
        cur = g
        while cur != gamma.identity:
            powers.add(cur)
            cur = gamma.mul(cur, g)
        out.add(frozenset(powers))
    return len(out)


@pytest.mark.parametrize(
    "triple", INSTANCES + BEYOND_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}"
)
def test_level_group_primitive_idempotents(triple):
    params = make_params(*triple)
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        idems = gamma.primitive_rational_idempotents()
        # one per simple component of Q[Gamma], i.e. per cyclic subgroup
        assert len(idems) == _distinct_cyclic_subgroups(gamma)
        total = {}
        for x in idems:
            assert x
            assert blocks.ga_eq(QQ, blocks.ga_mul(gamma, QQ, x, x), x)
            total = ga_add(QQ, total, x)
        for a_idx, x in enumerate(idems):
            for b_idx, y in enumerate(idems):
                if a_idx != b_idx:
                    assert blocks.ga_mul(gamma, QQ, x, y) == {}
        assert blocks.ga_eq(QQ, total, blocks.ga_one(gamma, QQ))


def test_level_group_idempotent_count_examples():
    # Q[Z/2] splits in two; the level-2 group of (3,2,2) is Z/6 with four
    # rational classes (one per divisor)
    params = make_params(3, 2, 2)
    assert len(blocks.level_group(params, 1).primitive_rational_idempotents()) == 2
    assert len(blocks.level_group(params, 2).primitive_rational_idempotents()) == 4


# --------------------------------------------------------- chain idempotents


def test_chain_idempotent_322_level_one():
    params = make_params(3, 2, 2)
    ring = tring(params)
    e1 = blocks.ideal_identity(params, QQ, 1)
    assert e1 == ring.element(
        QQ,
        {NonProj(1, 1, 0): Fraction(2, 3), NonProj(1, 1, 1): Fraction(-1, 3)},
    )
    assert ring.mult(e1, e1) == e1


def test_chain_idempotent_top_is_identity(any_params):
    params = any_params
    ring = tring(params)
    assert blocks.ideal_identity(params, QQ, params.n) == ring.one(QQ)


def test_chain_idempotent_311_bottom():
    params = make_params(3, 1, 1)
    ring = tring(params)
    assert blocks.ideal_identity(params, QQ, 0) == ring.element(
        QQ, {ProjPair(0, 0): Fraction(1, 3)}
    )


def test_chain_idempotent_char_p_blocked():
    params = make_params(3, 2, 2)
    with pytest.raises(CharIsP):
        blocks.ideal_identity(params, GF(3), 1)
    with pytest.raises(BadLevel):
        blocks.ideal_identity(params, QQ, 5)


def test_mi_relation_exact(any_params):
    # m_i - m_i/p^(n-i) - m_i^2 e / p^(n-i) == 0 as exact rationals
    params = any_params
    for i in range(1, params.n + 1):
        mi = Fraction(params.nontrivial_coset_count(i))
        denom = Fraction(params.p ** (params.n - i))
        assert mi - mi / denom - mi * mi * params.e / denom == 0


def test_identity_on_both_readings(small_params):
    params = small_params
    ring = tring(params)
    for i in range(params.n + 1):
        ei = blocks.ideal_identity(params, QQ, i)
        for b in ring.level_basis(i) + ring.ideal_le(i):
            x = ring.from_basis(QQ, b)
            assert ring.mult(ei, x) == x
            assert ring.mult(x, ei) == x


# --------------------------------------------------------- the decomposition


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)])
def test_central_decomposition_322(field):
    params = make_params(3, 2, 2)
    decomp = blocks.central_decomposition(params, field)
    assert decomp.dims == [4, 2, 6]


def test_central_decomposition_311():
    params = make_params(3, 1, 1)
    ring = tring(params)
    decomp = blocks.central_decomposition(params, QQ)
    assert decomp.dims == [1, 2]
    f0, f1 = decomp.projectors
    assert f0 == ring.element(QQ, {ProjPair(0, 0): Fraction(1, 3)})
    assert f1 == ring.one(QQ) - f0


def test_central_decomposition_char_p():
    with pytest.raises(CharIsP):
        blocks.central_decomposition(make_params(3, 2, 2), GF(3))


def test_dimension_bookkeeping(any_params):
    params = any_params
    total = params.e**2 + sum(
        params.p ** (i - 1) * (params.p - 1) for i in range(1, params.n + 1)
    )
    assert total == params.e**2 + params.pn - 1 == tring(params).dimension()


def test_projectors_lie_in_center():
    params = make_params(3, 1, 1)
    ring = tring(params)
    center = ring.center_basis(QQ)
    decomp = blocks.central_decomposition(params, QQ)
    # solve membership: the center here is the whole ring (dimension 3)
    assert len(center) == 3
    for f in decomp.projectors:
        for b in ring.basis:
            x = ring.from_basis(QQ, b)
            assert ring.mult(f, x) == ring.mult(x, f)


# ------------------------------------------------------------ block markers


def test_matrix_block_311():
    params = make_params(3, 1, 1)
    decomp = blocks.central_decomposition(params, QQ)
    iso = decomp.isos[0]
    assert iso.to_matrix(decomp.projectors[0]) == [[Fraction(1)]]


def test_matrix_block_images_of_primitives_are_rank_one():
    from tsring import cartan
    from tsring.exactarith import rank_over_field

    params = make_params(3, 2, 2)
    ring = tring(params)
    decomp = blocks.central_decomposition(params, QQ)
    iso = decomp.isos[0]
    c = cartan.cartan_matrix(params)
    for piece in projective_primitive_decomposition(c, QQ):
        elem = cartan.matrix_to_projective_element(ring, QQ, piece)
        image = iso.to_matrix(elem)
        assert rank_over_field(image, QQ) == 1
        from tsring.exactarith import field_mat_mul

        assert field_mat_mul(image, image, QQ) == image


def test_level_block_twist_inverse(any_params):
    params = any_params
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        for S in (QQ, GF(11)):
            cd = blocks.ga_mul(
                gamma, S, blocks.twist_unit(gamma, S), blocks.twist_unit_inverse(gamma, S)
            )
            assert blocks.ga_eq(S, cd, blocks.ga_one(gamma, S))


def test_top_block_labeling_is_plain():
    # at the top level the twist unit is trivial and the map is labeling
    params = make_params(3, 2, 2)
    gamma = blocks.level_group(params, 2)
    assert blocks.twist_unit(gamma, QQ) == blocks.ga_one(gamma, QQ)
    ring = tring(params)
    x = ring.from_basis(QQ, NonProj(2, 4, 1))
    assert blocks.to_plain_group_algebra(gamma, QQ, x) == {(4, 1): Fraction(1)}


def test_level_one_block_of_322_is_rank_two():
    params = make_params(3, 2, 2)
    decomp = blocks.central_decomposition(params, QQ)
    assert decomp.dims[1] == 2
    assert decomp.isos[1].gamma.order == 2


# ------------------------------------------- integral primitive decomposition


def test_integral_decomposition_311():
    params = make_params(3, 1, 1)
    ring = tring(params)
    assert blocks.integral_primitive_decomposition(params) == [ring.one(ZZ)]


def test_integral_decomposition_322():
    params = make_params(3, 2, 2)
    ring = tring(params)
    decomp = blocks.integral_primitive_decomposition(params)
    assert len(decomp) == 2
    eps = decomp[0]
    assert eps.coeffs == {ProjPair(0, 0): 1, ProjPair(1, 0): -1}
    assert decomp[1] == ring.one(ZZ) - eps


def test_integral_decomposition_properties(any_params):
    params = any_params
    decomp = blocks.integral_primitive_decomposition(params)
    assert len(decomp) == params.e
    outside = [
        x for x in decomp if any(isinstance(b, NonProj) for b in x.coeffs)
    ]
    assert len(outside) == 1


# ----------------------------------------------------------------- the scan


def test_scan_311():
    report = blocks.rational_central_idempotent_scan(make_params(3, 1, 1))
    assert report.primitive_count == 3
    assert report.sums_checked == 8
    assert report.integral_masks == [0, 7]
    assert report.only_zero_and_one


def test_scan_bound():
    with pytest.raises(ScanTooLarge):
        blocks.rational_central_idempotent_scan(make_params(3, 2, 2), bound=3)


def test_bottom_projector_never_integral(any_params):
    params = any_params
    f0 = blocks.ideal_identity(params, QQ, 0)
    assert any(Fraction(v).denominator > 1 for v in f0.coeffs.values())


def test_scan_small_instances(small_params):
    report = blocks.rational_central_idempotent_scan(small_params)
    assert report.only_zero_and_one


# ------------------------------------------------------------- semisimplicity


def _truly_semisimple(params, q):
    # proven criterion: q = 0, or q coprime to both p and p - 1; in
    # characteristic p the sum of all projective classes is a nonzero
    # central element with square p^n * e * itself = 0
    if q == 0:
        return True
    return params.p % q != 0 and (params.p - 1) % q != 0


GRID = [0, 2, 3, 5, 7]


def test_semisimplicity_decisions_match_truth(any_params):
    params = any_params
    for q in GRID + [params.p]:
        decision = blocks.semisimplicity_decide(params, q)
        assert decision.verdict != "inconclusive"
        assert (decision.verdict == "semisimple") == _truly_semisimple(params, q)


def test_semisimplicity_certificates():
    params = make_params(3, 2, 2)
    d0 = blocks.semisimplicity_decide(params, 0)
    assert d0.method == "trace_form_nondegenerate"
    d2 = blocks.semisimplicity_decide(params, 2)
    assert d2.method == "central_nilpotent_block"
    assert d2.certificate["block_level"] == 1
    d3 = blocks.semisimplicity_decide(params, 3)
    assert d3.method == "quotient_nilpotent"


def test_semisimplicity_char_p_defect_one():
    # n = 1 and q = p: the stated invertibility criterion says semisimple,
    # but the projective-class sum is a nonzero central square-zero element
    params = make_params(3, 1, 1)
    decision = blocks.semisimplicity_decide(params, 3)
    assert decision.verdict == "not_semisimple"
    assert decision.method == "projective_sum_nilpotent"
    assert blocks.stated_criterion(params, 3)  # the stated criterion disagrees
    ring = tring(params)
    z = ring.element(GF(3), {ProjPair(0, 0): 1})
    assert ring.mult(z, z).is_zero() and not z.is_zero()


def test_stated_criterion_values():
    params = make_params(3, 2, 2)
    assert [blocks.stated_criterion(params, q) for q in [0, 2, 3, 5, 7]] == [
        True,
        False,
        False,
        True,
        True,
    ]


def test_block_iso_dispatcher():
    params = make_params(3, 1, 1)
    bottom = blocks.central_decomposition(params, QQ).isos[0]
    assert bottom.to_matrix(bottom.projector) == [[Fraction(1)]]
    top = blocks.central_decomposition(params, QQ).isos[1]
    assert top.gamma.order == 2
    assert top.checks["multiplicative"] and top.checks["round_trip"]


def test_semisimplicity_312_grid():
    # |Aut(D)| = 2 here, so the only bad characteristics are 2 and p = 3
    params = make_params(3, 1, 2)
    verdicts = {
        q: blocks.semisimplicity_decide(params, q).verdict for q in (0, 2, 3, 5, 7)
    }
    assert verdicts == {
        0: "semisimple",
        2: "not_semisimple",
        3: "not_semisimple",
        5: "semisimple",
        7: "semisimple",
    }
    # characteristic p: the trace form is degenerate (the projective-class
    # sum is in its radical) even though 2 is invertible mod 3
    from tsring.exactarith import rank_over_field

    gram = trace_form_gram(tring(params), GF(3))
    assert rank_over_field(gram, GF(3)) < 6


# ------------------------------------------- block isomorphism certificates


def _brute_force_matrix_multiplicative(ring, S, iso):
    """to_matrix(x y) = to_matrix(x) to_matrix(y) on all e^4 projective pairs."""
    e = ring.params.e
    p_basis = [ring.from_basis(S, ProjPair(a, b)) for a in range(e) for b in range(e)]
    return all(
        iso.to_matrix(ring.mult(x, y))
        == field_mat_mul(iso.to_matrix(x), iso.to_matrix(y), S)
        for x in p_basis
        for y in p_basis
    )


def _block_images(ring, S, iso):
    return [iso.embed(ring.from_basis(S, b)) for b in ring.level_basis(iso.level)]


def _brute_force_level_multiplicative(ring, S, iso):
    """psi(x y) = psi(x) psi(y) on all |Gamma|^2 pairs of block images."""
    images = _block_images(ring, S, iso)
    return all(
        blocks.ga_eq(
            S,
            iso.to_group_algebra(ring.mult(x, y)),
            blocks.ga_mul(iso.gamma, S, iso.to_group_algebra(x), iso.to_group_algebra(y)),
        )
        for x in images
        for y in images
    )


CERTIFICATE_CASES = [
    (triple, S) for triple in SMALL_INSTANCES for S in (QQ, GF(5)) if triple[0] != 5
] + [(triple, QQ) for triple in SMALL_INSTANCES if triple[0] == 5]


@pytest.mark.parametrize(
    "triple,field",
    CERTIFICATE_CASES,
    ids=lambda v: v.name if hasattr(v, "name") else f"p{v[0]}n{v[1]}e{v[2]}",
)
def test_block_certificates_agree_with_brute_force(triple, field):
    params = make_params(*triple)
    ring = tring(params)
    bottom, *levels = blocks.central_decomposition(params, field).isos
    assert bottom.checks == {"multiplicative": True, "identity": True, "round_trip": True}
    assert _brute_force_matrix_multiplicative(ring, field, bottom)
    for b in ring.level_basis(0):
        x = ring.from_basis(field, b)
        assert bottom.from_matrix(bottom.to_matrix(x)) == x
    for iso in levels:
        assert iso.checks == {"multiplicative": True, "round_trip": True}
        assert _brute_force_level_multiplicative(ring, field, iso)
        for y in _block_images(ring, field, iso):
            assert iso.from_group_algebra(iso.to_group_algebra(y)) == y


def _theorem_d_error(params, field, which="theorem-d"):
    """(exit code, error text) of `verify --which theorem-d` at one field."""
    args = ["--p", str(params.p), "--n", str(params.n), "--e", str(params.e)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", *args, "--which", which, "--field", field.name])
    check = json.loads(out.getvalue())["payload"]["checks"][0]
    return code, check["details"].get("error", "")


MUTATION_CASES = [((3, 2, 2), QQ), ((3, 2, 2), GF(5)), ((7, 2, 3), QQ), ((7, 2, 3), GF(5))]
MUTATION_IDS = [f"p{t[0]}n{t[1]}e{t[2]}-{S.name}" for t, S in MUTATION_CASES]


@pytest.mark.parametrize("triple,field", MUTATION_CASES, ids=MUTATION_IDS)
def test_raised_cartan_entry_fails_matrix_block(fresh_rings, monkeypatch, triple, field):
    params = make_params(*triple)
    original = blocks.cartan_matrix

    def raised(params):
        c = original(params)
        c[0][-1] += 1
        return c

    monkeypatch.setattr(blocks, "cartan_matrix", raised)
    code, error = _theorem_d_error(params, field)
    assert code == 1
    assert error.startswith("matrix block multiplicativity")
    # the e^4 route sees the same defect
    ring = tring(params)
    iso = blocks.MatrixBlockIso(
        ring=ring,
        scalar=field,
        projector=blocks.ideal_identity(params, field, 0),
        cartan=raised(params),
        cartan_inverse=cartan_inverse(params, field),
    )
    assert not _brute_force_matrix_multiplicative(ring, field, iso)


@pytest.mark.parametrize("triple,field", MUTATION_CASES, ids=MUTATION_IDS)
def test_raised_top_products_fail_level_block(fresh_rings, monkeypatch, triple, field):
    # +1 on every product of two top-level classes other than the identity
    # M[n,1,0]: e_n = M[n,1,0] stays the identity and every chain check
    # passes, so only the level-n block isomorphism can notice
    params = make_params(*triple)
    original = TRing.mult_basis

    def mult_basis(self, x, y):
        prod = original(self, x, y)
        if all(
            isinstance(b, NonProj) and b.level == params.n and b != self.one_elem
            for b in (x, y)
        ):
            prod = {c: v + 1 for c, v in prod.items()}
        return prod

    monkeypatch.setattr(TRing, "mult_basis", mult_basis)
    code, error = _theorem_d_error(params, field)
    assert code == 1
    assert error.startswith(f"block {params.n} multiplicativity")
    # the |Gamma|^2 route sees the same defect
    ring = tring(params)
    top = blocks.ideal_identity(params, field, params.n)
    below = blocks.ideal_identity(params, field, params.n - 1)
    iso = blocks.LevelBlockIso(
        ring=ring,
        scalar=field,
        level=params.n,
        gamma=blocks.level_group(params, params.n),
        projector=top - below,
    )
    assert not _brute_force_level_multiplicative(ring, field, iso)


@pytest.mark.parametrize("triple", [(5, 1, 2), (2, 3, 1)], ids=["p5n1e2", "p2n3e1"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda S: S.name)
def test_dropped_generator_is_refused(fresh_rings, monkeypatch, triple, field):
    # the top level group is a Klein four-group, which no one element generates
    params = make_params(*triple)
    gamma = blocks.level_group(params, params.n)
    original = blocks.LevelGroup.generators
    assert len(original(gamma)) == 2
    assert len(gamma.cyclic_subgroups) == 4

    def generators(self):
        gens = original(self)
        return gens[:-1] if self is gamma else gens

    monkeypatch.setattr(blocks.LevelGroup, "generators", generators)
    code, error = _theorem_d_error(params, field)
    assert code == 1
    assert error.startswith(f"block {params.n} generators: 2 != 4")


def test_decomposition_built_once_per_ring(fresh_rings, monkeypatch):
    public, build = blocks.central_decomposition, blocks._decompose
    calls, builds = [], []

    def counted_public(params, S):
        calls.append(S.name)
        return public(params, S)

    def counted_build(ring, S):
        builds.append(S.name)
        return build(ring, S)

    monkeypatch.setattr(blocks, "central_decomposition", counted_public)
    monkeypatch.setattr(blocks, "_decompose", counted_build)
    args = ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "theorem-c,theorem-d"]
    with redirect_stdout(io.StringIO()):
        assert main(args) == 0
    assert calls == ["Q", "Q"]
    assert builds == ["Q"]
    params = make_params(3, 2, 2)
    assert public(params, QQ) is public(params, QQ)
    assert builds == ["Q"]
    tring.cache_clear()  # a fresh ring builds its own
    with redirect_stdout(io.StringIO()):
        assert main(args) == 0
    assert builds == ["Q", "Q"]


def _noncentral_idempotent(ring, S):
    """A primitive idempotent of the projective span of (3,2,2), not central.

    Over Q its coefficient matrix is v u^T with u = (4, -5) and v = u/45:
    C u has first entry 0, so it kills P[0,0] from both sides and the first
    class it fails on is a later one.  Over F5 it is P[0,0] - P[1,0].
    """
    if S is QQ:
        u = (4, -5)
        coeffs = {ProjPair(a, b): Fraction(u[a] * u[b], 45) for a in range(2) for b in range(2)}
        return ring.element(S, coeffs)
    return ring.from_int_coeffs(S, {ProjPair(0, 0): 1, ProjPair(1, 0): -1})


def _first_noncommuting(ring, x):
    """The first basis class b with x b != b x, by the dict-loop products."""
    S = x.scalar
    return next(
        b
        for b in ring.basis
        if mult_reference(ring, x, ring.from_basis(S, b))
        != mult_reference(ring, ring.from_basis(S, b), x)
    )


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=lambda S: S.name)
def test_noncentral_chain_term_names_the_class(fresh_rings, monkeypatch, field):
    # e_1 - eps is still idempotent, since eps lies in the ideal e_1 is the
    # identity of, but it is not the identity on the classes eps moves
    params = make_params(3, 2, 2)
    ring = tring(params)
    eps = _noncentral_idempotent(ring, field)
    original = blocks.ideal_identity

    def ideal_identity(params, S, i):
        return original(params, S, i) - eps if i == 1 else original(params, S, i)

    monkeypatch.setattr(blocks, "ideal_identity", ideal_identity)
    e1 = ideal_identity(params, field, 1)
    assert mult_reference(ring, e1, e1) == e1
    first = next(
        b
        for b in ring.ideal_le(1)
        if mult_reference(ring, e1, ring.from_basis(field, b)) != ring.from_basis(field, b)
        or mult_reference(ring, ring.from_basis(field, b), e1) != ring.from_basis(field, b)
    )
    assert first == (ProjPair(0, 1) if field is QQ else ProjPair(0, 0))
    assert _theorem_d_error(params, field) == (1, f"e_1 identity on ideal: {first!r} != None")


def test_noncentral_chain_element_names_the_class(fresh_rings, monkeypatch):
    # e_0 = eps passes every earlier chain check once the identity check
    # sees no classes; only the centrality sweep is left to refuse it
    params = make_params(3, 2, 2)
    ring = tring(params)
    eps = _noncentral_idempotent(ring, QQ)
    original_identity, original_ideal = blocks.ideal_identity, TRing.ideal_le
    monkeypatch.setattr(
        blocks,
        "ideal_identity",
        lambda params, S, i: eps if i == 0 else original_identity(params, S, i),
    )
    monkeypatch.setattr(
        TRing, "ideal_le", lambda self, i: [] if i == 0 else original_ideal(self, i)
    )
    first = _first_noncommuting(ring, eps)
    assert first == ProjPair(0, 1)
    assert _theorem_d_error(params, QQ) == (1, f"e_0 central at {first}: None != None")


def test_noncentral_primitive_names_the_class(fresh_rings, monkeypatch):
    params = make_params(3, 2, 2)
    ring = tring(params)
    eps = _noncentral_idempotent(ring, QQ)
    original = blocks.central_decomposition

    def central_decomposition(params, S):
        decomp = original(params, S)
        return blocks.BlockDecomposition(
            params=decomp.params,
            scalar=decomp.scalar,
            chain=decomp.chain,
            projectors=[eps] + decomp.projectors[1:],
            dims=decomp.dims,
            isos=decomp.isos,
        )

    monkeypatch.setattr(blocks, "central_decomposition", central_decomposition)
    first = _first_noncommuting(ring, eps)
    assert first == ProjPair(0, 1)
    assert _theorem_d_error(params, QQ, "theorem-c") == (
        1,
        f"centrality of primitive idempotent: {eps!r} != {first!r}",
    )
