"""Chain idempotents, central blocks, the scan, and semisimplicity."""

import io
import json
import math
import random
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, EDGE_INSTANCES, INSTANCES, SMALL_INSTANCES
from reference import (
    center_basis,
    central_idempotent_scan_reference,
    ga_mul_reference,
    level_cyclic_subgroups,
    level_element,
    level_generators,
    level_labels,
    level_mul,
    corner_rank_reference,
    level_primitive_idempotents,
    mult_reference,
    patch_mult_basis,
    projective_primitive_decomposition,
)

from tsring import blocks, exactarith
from tsring.cartan import cartan_inverse, cartan_matrix
from tsring.cli import _check_theorem_c, main
from tsring.errors import BadLevel, CharIsP, ScanTooLarge, TheoremViolation
from tsring.exactarith import GF, QQ, ZZ, field_mat_mul, nullspace_over_field, rank_over_field
from tsring.model import NonProj, ProjPair, make_params, prime_factors
from tsring.tring import RingElement, TRing, tring


# ------------------------------------------------------------- label groups


def _law(gamma):
    """Row a, column b: the index of element a times element b."""
    k = np.arange(gamma.order)
    return gamma.product(k[:, None], k)


def test_level_group_orders(any_params):
    params = any_params
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        assert gamma.order == params.p ** (i - 1) * (params.p - 1)
        # abelian
        assert (_law(gamma) == _law(gamma).T).all()


def test_level_table_is_the_tuple_law(any_params):
    # element k is the label of the k-th level class, and adding
    # coordinates multiplies labels as the group law does
    params = any_params
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        labels = level_labels(params, i)
        assert labels[0] == (1, 0)
        assert [b.level for b in tring(params).basis[gamma.span]] == [i] * gamma.order
        assert [
            [labels[k] for k in row] for row in _law(gamma).tolist()
        ] == [[level_mul(params, i, g, h) for h in labels] for g in labels]


def test_level_group_non_cyclic_two_power():
    # (Z/8)^x = {1, 3, 5, 7} is a Klein four-group: no cyclic quotient of
    # order 4, so four idempotents, one per subgroup of index at most 2
    gamma = blocks.level_group(make_params(2, 3, 1), 3)
    assert gamma.order == 4
    quarter = Fraction(1, 4)
    signs = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    assert gamma.primitive_rational_idempotents() == [
        level_element(
            gamma.params, 3, QQ, {(u, 0): s * quarter for u, s in zip((1, 3, 5, 7), row)}
        )
        for row in signs
    ]


LEVEL_INSTANCES = INSTANCES + BEYOND_INSTANCES  # the edge instances among them


@pytest.mark.parametrize("triple", LEVEL_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_level_counts_and_generators_are_the_tuple_law(triple):
    # p = 2 from n = 3 on needs both -1 and 5 as generating units
    params = make_params(*triple)
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        labels = level_labels(params, i)
        assert math.prod(gamma.moduli) == gamma.order
        assert gamma.cyclic_subgroup_count() == len(level_cyclic_subgroups(params, i))
        assert [labels[k] for k in gamma.generators()] == level_generators(params, i)


@pytest.mark.parametrize("triple", LEVEL_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_level_group_primitive_idempotents(triple):
    params = make_params(*triple)
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        idems = gamma.primitive_rational_idempotents()
        # the tuple-law computation of the same sums, in the same order
        assert idems == [
            level_element(params, i, QQ, x) for x in level_primitive_idempotents(params, i)
        ]
        # one per simple component of Q[Gamma], i.e. per cyclic subgroup
        assert len(idems) == len(level_cyclic_subgroups(params, i))
        ring = tring(params)
        total = ring.zero(QQ)
        for x in idems:
            assert not x.is_zero()
            assert blocks.ga_mul(gamma, x, x) == x
            total = total + x
        for a_idx, x in enumerate(idems):
            for b_idx, y in enumerate(idems):
                if a_idx != b_idx:
                    assert blocks.ga_mul(gamma, x, y).is_zero()
        assert total == ring.from_basis(QQ, NonProj(i, 1, 0))


def test_level_group_footprint_is_linear():
    # the coordinates hold O(|Gamma|) entries: at level 7 of (3,7,2),
    # |Gamma| = 1458, the group with its idempotents and generators stays
    # far below the 17 MB that a |Gamma|^2 index table alone takes
    params = make_params(3, 7, 2)
    tring(params).coset_index  # the ring and its coset index are built first
    tracemalloc.start()
    try:
        gamma = blocks.LevelGroup(params, 7)
        gamma.primitive_rational_idempotents()
        gamma.generators()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma.order == 1458
    assert peak < 4 * 2**20


@pytest.mark.parametrize("S", [ZZ, QQ, GF(2), GF(5)], ids=lambda S: S.name)
def test_ga_mul_is_the_tuple_law(small_params, S):
    params = small_params
    rng = random.Random(f"{params}-{S.name}")

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 3))) if S is QQ else rng.randint(-9, 9)

    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        labels = level_labels(params, i)
        for _ in range(4):
            x, y = (
                {g: value() for g in rng.sample(labels, rng.randint(1, len(labels)))}
                for _ in range(2)
            )
            product = blocks.ga_mul(
                gamma, level_element(params, i, S, x), level_element(params, i, S, y)
            )
            assert product == level_element(params, i, S, ga_mul_reference(params, i, S, x, y))


def test_mobius_is_the_inverse_of_the_constant_function():
    # mu is the one function with sum over k | n of mu(k) = [n == 1]
    for n in range(1, 501):
        assert sum(blocks._mobius(k) for k in range(1, n + 1) if n % k == 0) == (n == 1)


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
    center = center_basis(ring, QQ)
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
    assert iso.to_matrix(decomp.projectors[0]).tolist() == [[Fraction(1)]]


def test_matrix_block_images_of_primitives_are_rank_one():
    from tsring import cartan

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

        assert np.array_equal(field_mat_mul(image, image, QQ), image)


def test_level_block_twist_inverse(any_params):
    params = any_params
    for i in range(1, params.n + 1):
        gamma = blocks.level_group(params, i)
        for S in (QQ, GF(11)):
            cd = blocks.ga_mul(
                gamma, blocks.twist_unit(gamma, S), blocks.twist_unit_inverse(gamma, S)
            )
            assert cd == tring(params).from_basis(S, NonProj(i, 1, 0))
            # the same product by the tuple law
            c, d = (
                {g: x.coeff(NonProj(i, *g)) for g in level_labels(params, i)}
                for x in (blocks.twist_unit(gamma, S), blocks.twist_unit_inverse(gamma, S))
            )
            assert ga_mul_reference(params, i, S, c, d) == {(1, 0): 1}


def test_top_block_labeling_is_plain():
    # at the top level the twist unit is trivial and the map is labeling
    params = make_params(3, 2, 2)
    gamma = blocks.level_group(params, 2)
    ring = tring(params)
    assert blocks.twist_unit(gamma, QQ) == ring.from_basis(QQ, NonProj(2, 1, 0))
    x = ring.from_basis(QQ, NonProj(2, 4, 1))
    iso = blocks.central_decomposition(params, QQ).isos[2]
    assert iso.to_group_algebra(x) == level_element(params, 2, QQ, {(4, 1): Fraction(1)})


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
    assert eps.den == 1
    assert eps.vec.tolist() == [1, 0, -1, 0] + [0] * (ring.dimension() - 4)
    assert decomp[1] == ring.one(ZZ) - eps


def test_integral_decomposition_properties(any_params):
    params = any_params
    decomp = blocks.integral_primitive_decomposition(params)
    assert len(decomp) == params.e
    outside = [x for x in decomp if x.vec[params.e**2 :].any()]
    assert len(outside) == 1


def test_corner_test_agrees_with_the_d_by_d_corner(any_params):
    # the e x e test against the rank of R_x L_x, on every projective member
    params = any_params
    ring = tring(params)
    decomp = blocks.integral_primitive_decomposition(params)
    members = [x for x in decomp if not x.vec[params.e**2 :].any()]
    assert len(members) == params.e - 1
    for x in members:
        assert blocks.corner_rank_is_one(ring, x) == corner_rank_reference(ring, x)
        assert blocks.corner_rank_is_one(ring, x)


def test_corner_test_agrees_with_the_d_by_d_corner_over_q():
    # a rank-one idempotent with Fraction coefficients, and the projective
    # identity, whose corner is the whole e x e matrix algebra
    params = make_params(3, 2, 2)
    ring = tring(params)
    eps = _noncentral_idempotent(ring, QQ)
    f0 = blocks.ideal_identity(params, QQ, 0)
    assert blocks.corner_rank_is_one(ring, eps) and corner_rank_reference(ring, eps)
    assert not blocks.corner_rank_is_one(ring, f0) and not corner_rank_reference(ring, f0)


def test_corner_test_refuses_what_is_not_a_projective_idempotent():
    ring = tring(make_params(3, 2, 2))
    assert not blocks.corner_rank_is_one(ring, ring.one(ZZ))  # idempotent, not projective
    assert not blocks.corner_rank_is_one(ring, ring.from_basis(ZZ, ProjPair(0, 0)))  # P00^2 = 5 P00


def test_non_idempotent_projective_member_fails_theorem_c(fresh_rings, monkeypatch):
    # the member P[0,0] - P[1,0] doubled: its corner still has rank one, but
    # it is no idempotent, so the corner test answers False (exit 1)
    params = make_params(3, 2, 2)
    element, member = TRing.element, {ProjPair(0, 0): 1, ProjPair(1, 0): -1}

    def doubled(self, S, coeffs):
        x = element(self, S, coeffs)
        return x.scale(2) if coeffs == member else x

    monkeypatch.setattr(TRing, "element", doubled)
    code, error = _theorem_d_error(params, QQ, "theorem-c")
    assert code == 1
    assert error.startswith("primitive projective idempotent")


def test_projective_span_leaving_its_right_ideal_is_refused():
    # one term of a P x M product sent to a non-projective class in the
    # table: the P x P block and every idempotent check still pass, so only
    # the ideal check sees it
    params = make_params(3, 2, 2)
    eps = {ProjPair(0, 0): 1, ProjPair(1, 0): -1}
    intact = TRing(params)  # fresh rings, outside the cache
    assert blocks.corner_rank_is_one(intact, intact.element(ZZ, eps))
    ring = TRing(params)
    x = ring.element(ZZ, eps)
    start, cls, _ = ring.structure_table()
    b, d = ring.level_range(1).start, ring.dimension()
    cls[start[ring.index[ProjPair(0, 1)] * d + b]] = b
    assert blocks._projective_products_match(ring, cartan_matrix(params))
    assert ring.mult(x, x) == x
    with pytest.raises(TheoremViolation, match="projective span is a right ideal"):
        blocks.corner_rank_is_one(ring, x)


# ----------------------------------------------------------------- the scan


def test_scan_311():
    report = blocks.rational_central_idempotent_scan(make_params(3, 1, 1))
    assert report.primitive_count == 3
    assert report.sums_checked == 8
    assert report.integral_masks == [0, 7]
    assert report.only_zero_and_one


def test_scan_bound():
    # the bound caps the components of the order, one on (3,2,2), not its
    # seven primitives
    params = make_params(3, 2, 2)
    assert blocks.rational_central_idempotent_scan(params, bound=1).primitive_count == 7
    with pytest.raises(ScanTooLarge, match="component count 1 exceeds the bound 0"):
        blocks.rational_central_idempotent_scan(params, bound=0)


@pytest.mark.parametrize(
    "pne", INSTANCES + EDGE_INSTANCES, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}"
)
def test_scan_matches_subset_sum_reference(pne):
    params = make_params(*pne)
    report = blocks.rational_central_idempotent_scan(params)
    assert report.integral_masks == central_idempotent_scan_reference(params)
    assert report.sums_checked == 1 << report.primitive_count


def test_split_order_lists_the_unions_of_its_components(monkeypatch):
    # in (3,1,1), with one = M[1,1,0] at position 1, f_0 = f_1 = M[1,1,0]/2
    # and f_2 = -f_3 = M[1,2,0]/2 sum to 1; x_0 + x_1 and x_2 - x_3 even
    # split k = 4 into {0, 1} and {2, 3}, and exactly their unions are integral
    params = make_params(3, 1, 1)
    ring = tring(params)
    rows = [[0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]]
    prims = [ring.from_vector(QQ, [Fraction(v, 2) for v in row]) for row in rows]
    monkeypatch.setattr(blocks, "primitive_central_idempotents_q", lambda params: prims)
    report = blocks.rational_central_idempotent_scan(params)
    assert report.integral_masks == [0, 3, 12, 15]
    assert not report.only_zero_and_one
    with pytest.raises(ScanTooLarge, match="component count 2 exceeds the bound 1"):
        blocks.rational_central_idempotent_scan(params, bound=1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--p", "3", "--n", "1", "--e", "1", "--which", "theorem-c"])
    (check,) = json.loads(out.getvalue())["payload"]["checks"]
    assert (code, check["status"]) == (1, "violation")
    assert check["details"]["integral_masks"] == ["0", "3", "12", "15"]


@pytest.mark.parametrize("pne", [(3, 2, 2), (7, 1, 6)], ids=["p3n2e2", "p7n1e6"])
def test_dropping_a_prime_from_the_graph_is_a_violation(monkeypatch, pne):
    # each prime of D joins coordinates no other prime joins; without it a
    # component's sum has a denominator, which the certificate refuses
    prims = blocks.primitive_central_idempotents_q(make_params(*pne))
    den = math.lcm(*(f.den for f in prims))
    a = np.stack([f.vec.astype(object) * (den // f.den) for f in prims], axis=1)
    assert len(exactarith.order_components(a, den)) == 1
    for dropped in sorted(set(prime_factors(den))):
        monkeypatch.setattr(
            exactarith, "prime_factors", lambda n: [q for q in prime_factors(n) if q != dropped]
        )
        with pytest.raises(TheoremViolation, match="component .* outside the order"):
            exactarith.order_components(a, den)


def test_perturbed_primitive_is_a_violation(fresh_rings, monkeypatch):
    # one coordinate of one f_j moved by 1/D: the full sum is no longer 1
    params = make_params(3, 2, 2)
    original = blocks.primitive_central_idempotents_q

    def perturbed(params):
        prims = original(params)
        f = prims[2]
        vec = f.vec.copy()
        vec[-1] += 1
        return prims[:2] + [RingElement(f.ring, QQ, vec, f.den)] + prims[3:]

    monkeypatch.setattr(blocks, "primitive_central_idempotents_q", perturbed)
    with pytest.raises(TheoremViolation, match="primitive central idempotents sum to 1"):
        blocks.rational_central_idempotent_scan(params)
    code, error = _theorem_d_error(params, QQ, "theorem-c")
    assert code == 1 and error.startswith("primitive central idempotents sum to 1")


def test_bottom_projector_never_integral(any_params):
    params = any_params
    f0 = blocks.ideal_identity(params, QQ, 0)
    assert f0.den > 1
    assert any(Fraction(v, f0.den).denominator > 1 for v in f0.vec.tolist())


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


@pytest.mark.parametrize(
    "pne", INSTANCES + [(2, 1, 1), (3, 4, 2)], ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}"
)
def test_top_powers_match_one_class_at_a_time(pne):
    # all top-level classes raised together equal each class raised alone
    # by quotient_mult, at characteristic p and off it
    params = make_params(*pne)
    ring = tring(params)
    top = ring.level_range(params.n)

    def quotient(u, v):
        return ring.quotient_mult(params.n - 1, u, v)

    for q in sorted({params.p, 5 if params.p != 5 else 7}):
        S = GF(q)
        for power in (1, 2, 3, q, q * q):
            one_by_one = [
                blocks._power(quotient, ring.from_basis(S, b), power).vec[top]
                for b in ring.basis[top]
            ]
            assert (blocks._top_powers(ring, S, power) == np.array(one_by_one)).all()


def test_char_p_decision_multiplies_one_element_in_the_quotient(monkeypatch):
    # (3,4,2) at 3: 54 top classes to the 81st power; only the kernel
    # element goes through quotient_mult, at most two products per bit
    calls = []
    quotient_mult = TRing.quotient_mult

    def counted(self, i, x, y):
        calls.append(i)
        return quotient_mult(self, i, x, y)

    monkeypatch.setattr(TRing, "quotient_mult", counted)
    decision = blocks.semisimplicity_decide(make_params(3, 4, 2), 3)
    assert decision.method == "quotient_nilpotent"
    assert decision.certificate["power"] == 81
    assert 0 < len(calls) <= 2 * (81).bit_length()


def _char_p_kernel_element(params):
    """The top-level coefficients of the z that `_char_p_nilpotent` tries."""
    ring, S = tring(params), GF(params.p)
    g, power = len(ring.level_basis(params.n)), params.p
    while power < g:
        power *= params.p
    return nullspace_over_field(blocks._top_powers(ring, S, power).T, S)[0]


@pytest.mark.parametrize("pne", [(3, 2, 2), (3, 4, 2)], ids=["p3n2e2", "p3n4e2"])
@pytest.mark.parametrize("broken", ["central", "ideal"])
def test_char_p_quotient_nilpotent_needs_an_ideal_and_a_central_z(
    fresh_rings, monkeypatch, pne, broken
):
    # one extra top-level term in e_a e_b leaves every top power, and so z
    # and z^(p^s) = 0, as they were.  "central": a in the support of z, b
    # a top class outside it, so z e_b != e_b z modulo the lower levels;
    # "ideal": a the last class below the top, so the lower levels no
    # longer span an ideal.  Either way the quotient proves nothing, and
    # the decision falls through to the projective-sum certificate
    params = make_params(*pne)
    ring = tring(params)
    top = ring.level_range(params.n)
    z = _char_p_kernel_element(params)
    if broken == "central":
        a, b = (top.start + int(np.flatnonzero(z == v)[0]) for v in (z.max(), 0))
    else:
        a, b = top.start - 1, top.start
    x, y, extra = ring.basis[a], ring.basis[b], ring.basis[top.start]
    original = TRing.mult_basis

    def mult_basis(self, u, v):
        prod = original(self, u, v)
        if (u, v) == (x, y):
            prod = {**prod, extra: prod.get(extra, 0) + 1}
        return prod

    assert blocks.semisimplicity_decide(params, params.p).method == "quotient_nilpotent"
    tring.cache_clear()
    patch_mult_basis(monkeypatch, mult_basis)
    assert (_char_p_kernel_element(params) == z).all()
    decision = blocks.semisimplicity_decide(params, params.p)
    assert (decision.verdict, decision.method) == ("not_semisimple", "projective_sum_nilpotent")


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
    assert bottom.to_matrix(bottom.projector).tolist() == [[Fraction(1)]]
    top = blocks.central_decomposition(params, QQ).isos[1]
    assert top.gamma.order == 2
    assert top.from_group_algebra(top.to_group_algebra(top.projector)) == top.projector


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
    gram = tring(params).gram_int()
    assert rank_over_field(gram, GF(3)) < 6


# ------------------------------------------- block isomorphism certificates


def _brute_force_matrix_multiplicative(ring, S, iso):
    """to_matrix(x y) = to_matrix(x) to_matrix(y) on all e^4 projective pairs."""
    e = ring.params.e
    p_basis = [ring.from_basis(S, ProjPair(a, b)) for a in range(e) for b in range(e)]
    return all(
        np.array_equal(
            iso.to_matrix(ring.mult(x, y)),
            field_mat_mul(iso.to_matrix(x), iso.to_matrix(y), S),
        )
        for x in p_basis
        for y in p_basis
    )


def _block_images(ring, S, iso):
    return [ring.mult(ring.from_basis(S, b), iso.projector) for b in ring.level_basis(iso.level)]


def _brute_force_level_multiplicative(ring, S, iso):
    """psi(x y) = psi(x) psi(y) on all |Gamma|^2 pairs of block images."""
    images = _block_images(ring, S, iso)
    return all(
        iso.to_group_algebra(ring.mult(x, y))
        == blocks.ga_mul(iso.gamma, iso.to_group_algebra(x), iso.to_group_algebra(y))
        for x in images
        for y in images
    )


def _block_rank(ring, f):
    """Dimension of the block R f: the rank of the products b f, b a basis class."""
    S = f.scalar
    rows = [mult_reference(ring, ring.from_basis(S, b), f) for b in ring.basis]
    return rank_over_field([[y.coeff(b) for b in ring.basis] for y in rows], S)


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
    decomp = blocks.central_decomposition(params, field)
    # what the decomposition derives instead of recomputing, by the dict loops
    chain, projectors = decomp.chain, decomp.projectors
    for i, ei in enumerate(chain):
        for j, ej in enumerate(chain):
            assert mult_reference(ring, ei, ej) == chain[min(i, j)]
    for i, fi in enumerate(projectors):
        for j, fj in enumerate(projectors):
            assert mult_reference(ring, fi, fj) == (fi if i == j else ring.zero(field))
    total = ring.zero(field)
    for fi in projectors:
        total = total + fi
    assert total == ring.one(field)
    for fi, dim in zip(projectors, decomp.dims):
        assert _block_rank(ring, fi) == dim
    bottom, *levels = decomp.isos
    assert _brute_force_matrix_multiplicative(ring, field, bottom)
    for b in ring.level_basis(0):
        x = ring.from_basis(field, b)
        assert bottom.from_matrix(bottom.to_matrix(x)) == x
    for iso in levels:
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


@pytest.mark.parametrize("slot", ["V", "K"])
def test_projective_products_are_read_from_the_structure_arrays(slot):
    # the table, which every product reads, is checked, not `mult_basis`:
    # the coefficient (V) or the class (K) of the one term of P[0,1] *
    # P[1,0] changed in the table alone must fail the check
    params = make_params(3, 2, 2)
    c = cartan_matrix(params)
    assert blocks._projective_products_match(TRing(params), c)
    ring = TRing(params)  # a fresh ring, outside the cache
    start, cls, val = ring.structure_table()
    a, b = ring.index[ProjPair(0, 1)], ring.index[ProjPair(1, 0)]
    s = start[a * ring.dimension() + b]
    if slot == "V":
        val[s] += 3
    else:
        cls[s] = ring.index[ProjPair(0, 1)]
    assert ring.mult_basis(ProjPair(0, 1), ProjPair(1, 0)) == {ProjPair(0, 0): c[1][1]}
    assert not blocks._projective_products_match(ring, c)


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

    patch_mult_basis(monkeypatch, mult_basis)
    code, error = _theorem_d_error(params, field)
    assert code == 1
    assert error.startswith(f"block {params.n} multiplicativity")
    # the |Gamma|^2 route sees the same defect
    ring = tring(params)
    top = blocks.ideal_identity(params, field, params.n)
    below = blocks.ideal_identity(params, field, params.n - 1)
    gamma = blocks.level_group(params, params.n)
    lifts, lift_den = blocks._level_lifts(ring, field, gamma, top - below)
    iso = blocks.LevelBlockIso(
        ring=ring,
        scalar=field,
        level=params.n,
        gamma=gamma,
        projector=top - below,
        lifts=lifts,
        lift_den=lift_den,
    )
    assert not _brute_force_level_multiplicative(ring, field, iso)


WALK_CASES = [
    # the primitive root's level-1 coset merged into the identity's: the
    # root has order 1 in U_1 / image(E), so the moduli (1, 3) cover only
    # 3 of the 6 elements of Gamma_1
    ((7, 2, 3), 1, 3, 1, "Gamma_1: the walk over (1, 3) misses a class"),
    # 3 mod 8 sent to the class of 5: -1 and 5 keep their orders 2, but
    # the walk meets 5's class twice, at 5 and at (-1) 5 = 3, and misses 3's
    ((2, 3, 1), 3, 3, 5, "Gamma_3: the walk over (2, 2, 1) misses a class"),
]


@pytest.mark.parametrize("case", WALK_CASES, ids=["p7n2e3-order", "p2n3e1-bijection"])
def test_merged_unit_coset_fails_the_walk(fresh_rings, monkeypatch, case):
    # a wrong coset index is a theorem-d violation, not a crash
    triple, level, moved, onto, error = case
    original = TRing.coset_index.func

    def coset_index(self):
        coset = original(self)
        row = coset[level]
        row[row == row[moved]] = row[onto]
        return coset

    monkeypatch.setattr(TRing, "coset_index", property(coset_index))
    p, n, e = (str(x) for x in triple)
    args = ["verify", "--p", p, "--n", n, "--e", e, "--which", "theorem-d", "--field", "Q"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    check = json.loads(out.getvalue())["payload"]["checks"][0]
    assert (code, check["status"], check["details"]["error"]) == (1, "violation", error)


@pytest.mark.parametrize("triple", [(5, 1, 2), (2, 3, 1)], ids=["p5n1e2", "p2n3e1"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda S: S.name)
def test_dropped_generator_is_refused(fresh_rings, monkeypatch, triple, field):
    # the top level group is a Klein four-group, which no one element generates
    params = make_params(*triple)
    gamma = blocks.level_group(params, params.n)
    original = blocks.LevelGroup.generators
    assert len(original(gamma)) == 2
    assert gamma.cyclic_subgroup_count() == 4

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


@pytest.mark.parametrize("triple,field", MUTATION_CASES, ids=MUTATION_IDS)
def test_decomposition_builds_one_action_pair_per_chain_element(
    fresh_rings, monkeypatch, triple, field
):
    # the identity and the centrality check of e_i read one pair of
    # products with the identity, one per side; then one product per level
    # for the lifts and one per level generator
    params = make_params(*triple)
    original = TRing.products
    calls = []

    def products(self, x, Y, side):
        calls.append(x)
        return original(self, x, Y, side)

    monkeypatch.setattr(TRing, "products", products)
    decomp = blocks.central_decomposition(params, field)
    n = params.n
    gens = sum(len(iso.gamma.generators()) for iso in decomp.isos[1:])
    assert len(calls) == 2 * (n + 1) + n + gens
    assert calls[: 2 * (n + 1)] == [ei for ei in decomp.chain for _ in range(2)]


@pytest.mark.parametrize("triple,field", MUTATION_CASES, ids=MUTATION_IDS)
def test_level_certificate_builds_one_side_per_action(fresh_rings, monkeypatch, triple, field):
    # the chain elements need both sides; the lifts read f_i on the right
    # and the generators' factors act on the left
    params = make_params(*triple)
    original = TRing.products
    sides = []

    def products(self, x, Y, side):
        sides.append(side)
        return original(self, x, Y, side)

    monkeypatch.setattr(TRing, "products", products)
    decomp = blocks.central_decomposition(params, field)
    n = params.n
    expected = ["left", "right"] * (n + 1)
    for iso in decomp.isos[1:]:
        expected += ["right"] + ["left"] * len(iso.gamma.generators())
    assert sides == expected


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
    return ring.element(S, {ProjPair(0, 0): 1, ProjPair(1, 0): -1})


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


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=lambda S: S.name)
def test_chain_element_outside_its_ideal_is_refused(fresh_rings, monkeypatch, field):
    # e_0 = e_1 is central and the identity on the projective span, but it
    # lies outside that span: its block R e_0 is the whole level <= 1
    # ideal, larger than the e^2 the dimension count would claim
    params = make_params(3, 2, 2)
    ring = tring(params)
    original = blocks.ideal_identity
    monkeypatch.setattr(
        blocks, "ideal_identity", lambda params, S, i: original(params, S, i or 1)
    )
    assert _block_rank(ring, original(params, field, 1)) == 6
    assert _theorem_d_error(params, field) == (
        1,
        "e_0 support: NonProj(level=1, alpha=1, lam=0) != None",
    )


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=lambda S: S.name)
def test_lost_level_class_fails_projection(fresh_rings, monkeypatch, field):
    # the dimension count rests on x -> x f_i being injective on the level
    # span; products with f_1 on the right that send the last level-1
    # class to 0 say it is not
    params = make_params(3, 2, 2)
    ring = tring(params)
    f1 = blocks.ideal_identity(params, field, 1) - blocks.ideal_identity(params, field, 0)
    last = ring.level_range(1).stop - 1
    original = TRing.products

    def products(self, x, Y, side):
        out = original(self, x, Y, side)
        if x == f1 and side == "right":
            out[:, np.flatnonzero(Y[last])] = 0  # the column of e_last f_1
        return out

    monkeypatch.setattr(TRing, "products", products)
    lost = ring.from_basis(field, ring.basis[last])
    assert _theorem_d_error(params, field) == (1, f"block 1 projection: 0 != {lost!r}")


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=lambda S: S.name)
def test_scaled_lifts_fail_multiplicativity(fresh_rings, monkeypatch, field):
    # 2 psi^-1 is injective with the same image, but (2a)(2b) = 4ab != 2ab
    params = make_params(3, 2, 2)
    original = blocks._level_lifts

    def level_lifts(ring, S, gamma, fi):
        lifts, lift_den = original(ring, S, gamma, fi)
        return 2 * lifts, lift_den

    monkeypatch.setattr(blocks, "_level_lifts", level_lifts)
    assert _theorem_d_error(params, field) == (1, "block 1 multiplicativity: None != None")


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=lambda S: S.name)
def test_relabeled_lifts_fail_round_trip(fresh_rings, monkeypatch, field):
    # g -> psi^-1(g^-1) is still multiplicative, inversion being an
    # automorphism of the abelian level group, and it has the same image;
    # only psi(psi^-1(g)) = g tells the labels apart.  Inversion is the
    # identity on Gamma_1 (order 2) and not on Gamma_2 (cyclic of order 6)
    params = make_params(3, 2, 2)
    original = blocks._level_lifts
    inverses = {}

    def level_lifts(ring, S, gamma, fi):
        lifts, lift_den = original(ring, S, gamma, fi)
        inverses[gamma.level] = inverse = (_law(gamma) == 0).argmax(axis=1)
        return lifts[:, inverse], lift_den

    monkeypatch.setattr(blocks, "_level_lifts", level_lifts)
    assert _theorem_d_error(params, field) == (1, "block 2 round trip: None != None")
    assert inverses[1].tolist() == [0, 1]
    assert inverses[2].tolist() != list(range(6))


def test_theorem_c_certificates_stay_small(fresh_rings, monkeypatch):
    # theorem-c squares only the residual in the ring (the e - 1 projective
    # members are squared as e x e matrices), and reads no products with
    # the identity: theorem D's own certificate, built once per ring and
    # counted elsewhere, already makes every f_i central
    params = make_params(5, 2, 4)
    ring = tring(params)
    blocks.central_decomposition(params, QQ)
    mult, products = TRing.mult, TRing.products
    calls = {"mult": 0, "products": 0}

    def counted_mult(self, x, y):
        calls["mult"] += 1
        return mult(self, x, y)

    def counted_products(self, x, Y, side):
        calls["products"] += 1
        return products(self, x, Y, side)

    monkeypatch.setattr(TRing, "mult", counted_mult)
    monkeypatch.setattr(TRing, "products", counted_products)
    status, payload = _check_theorem_c(params, ring, 20)
    k = int(payload["scan_primitives"])
    assert (status, k, payload["integral_masks"]) == ("ok", 10, ["0", str((1 << k) - 1)])
    assert calls["mult"] == 1  # the residual's square; the level primitives lift through L
    assert calls["products"] == 0


def _doubled(idems):
    return [idems[0].scale(2)] + idems[1:]


def _merged(idems):
    return [idems[0] + idems[1]] + idems[1:]


@pytest.mark.parametrize("forge", [_doubled, _merged], ids=["doubled", "merged"])
def test_forged_level_primitives_fail_theorem_c(fresh_rings, monkeypatch, forge):
    # a doubled member is no idempotent; the sum of two is one, but the
    # family then sums to more than M[1,1,0]
    params = make_params(3, 2, 2)
    original = blocks.LevelGroup.primitive_rational_idempotents
    monkeypatch.setattr(
        blocks.LevelGroup,
        "primitive_rational_idempotents",
        lambda self: forge(original(self)),
    )
    code, error = _theorem_d_error(params, QQ, "theorem-c")
    assert code == 1
    name = "primitive central idempotent" if forge is _doubled else "level 1 primitive idempotents"
    assert error.startswith(name)


def _shifted(idems):
    # the sum is kept, the first member is no idempotent
    t = idems[0].ring.from_basis(QQ, NonProj(1, 1, 1))
    return [idems[0] + t, idems[1] - t] + idems[2:]


def _zeroed(idems):
    # the sum is kept and every member is idempotent, but one is zero
    return [idems[0] + idems[1], idems[1].scale(0)] + idems[2:]


@pytest.mark.parametrize(
    "forge,name",
    [(_shifted, "primitive central idempotent: "), (_zeroed, "primitive central idempotent is")],
    ids=["shifted", "zeroed"],
)
def test_level_family_with_the_right_sum_fails_theorem_c(fresh_rings, monkeypatch, forge, name):
    params = make_params(3, 2, 2)
    original = blocks.LevelGroup.primitive_rational_idempotents
    monkeypatch.setattr(
        blocks.LevelGroup,
        "primitive_rational_idempotents",
        lambda self: forge(original(self)) if self.level == 1 else original(self),
    )
    code, error = _theorem_d_error(params, QQ, "theorem-c")
    assert code == 1
    assert error.startswith(name)


@pytest.mark.parametrize("pne", [(3, 4, 2), (5, 2, 4)], ids=["p3n4e2", "p5n2e4"])
def test_theorem_c_checks_no_determinant_and_no_pair(fresh_rings, monkeypatch, pne):
    # orthogonality comes from one sum per level and the order basis from
    # residues mod D: one ga_mul per level member (its square) and one per
    # level (c_i d_i), no determinant and no Smith certificate re-check
    params = make_params(*pne)
    ga_mul, det_int, check = blocks.ga_mul, exactarith.det_int, exactarith.SnfResult.check
    calls = {"square": 0, "other": 0, "det_int": 0, "check": 0}

    def counted_ga_mul(gamma, x, y):
        calls["square" if x is y else "other"] += 1
        return ga_mul(gamma, x, y)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(blocks, "ga_mul", counted_ga_mul)
    monkeypatch.setattr(exactarith, "det_int", counted("det_int", det_int))
    monkeypatch.setattr(exactarith.SnfResult, "check", counted("check", check))
    status, payload = _check_theorem_c(params, tring(params), 20)
    members = int(payload["scan_primitives"]) - 1  # all but f_0
    assert status == "ok"
    assert calls == {"square": members, "other": params.n, "det_int": 0, "check": 0}


def test_duplicated_projective_member_fails_on_the_residual(fresh_rings, monkeypatch):
    # eps_1 built as a second eps_0: every member is an idempotent with a
    # rank-one corner, but the two are not orthogonal, so the residual
    # 1 - 2 eps_0 - eps_2 is no idempotent
    params = make_params(5, 2, 4)
    ring = tring(params)

    def pair(lam, mu):  # P[1,1] - P[3,1] becomes P[0,0] - P[3,0]
        return ProjPair(lam, mu) if mu != 1 else ProjPair(0 if lam == 1 else lam, 0)

    monkeypatch.setattr(blocks, "ProjPair", pair)
    eps = [ring.element(ZZ, {ProjPair(i, i): 1, ProjPair(3, i): -1}) for i in (0, 0, 2)]
    residual = ring.one(ZZ) - eps[0] - eps[1] - eps[2]
    with pytest.raises(TheoremViolation) as caught:
        blocks.integral_primitive_decomposition(params)
    assert str(caught.value).startswith("integral idempotent: ")
    assert str(caught.value).endswith(f" != {residual!r}")


def test_broken_projective_product_fails_theorem_c(fresh_rings, monkeypatch):
    # P[0,0] * P[0,0] off by one: the twisted e x e certificate no longer
    # describes the ring, which must be a violation, not a refused corner
    params = make_params(3, 2, 2)
    original = TRing.mult_basis

    def mult_basis(self, x, y):
        prod = original(self, x, y)
        if x == y == ProjPair(0, 0):
            prod = {c: v + 1 for c, v in prod.items()}
        return prod

    patch_mult_basis(monkeypatch, mult_basis)
    code, error = _theorem_d_error(params, QQ, "theorem-c")
    assert code == 1
    assert error == "projective products: None != None"


# ------------------------------------------------------ the level certificate

SPARSE_CASES = [((3, 4, 2), QQ), ((3, 4, 2), GF(5)), ((7, 2, 3), QQ), ((7, 2, 3), GF(5))]
SPARSE_IDS = [f"p{t[0]}n{t[1]}e{t[2]}-{S.name}" for t, S in SPARSE_CASES]


@pytest.mark.parametrize("triple,field", SPARSE_CASES, ids=SPARSE_IDS)
def test_decomposition_multiplies_matrices_only_in_the_matrix_block(
    fresh_rings, monkeypatch, triple, field
):
    # the level blocks are certified on the table's terms, with no dense
    # matrix product; only the e x e bottom block multiplies matrices
    original = blocks.field_mat_mul
    callers = []

    def field_mat_mul(a, b, K):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return original(a, b, K)

    monkeypatch.setattr(blocks, "field_mat_mul", field_mat_mul)
    blocks.central_decomposition(make_params(*triple), field)
    assert callers and set(callers) == {"MatrixBlockIso.to_matrix"}


@pytest.mark.parametrize("triple,field", SPARSE_CASES, ids=SPARSE_IDS)
def test_level_certificate_left_factors_have_e_terms(fresh_rings, monkeypatch, triple, field):
    # the generator identities multiply the lifts by s d_i, which has e
    # live terms, never by a lift
    params = make_params(*triple)
    original_build, original_products = blocks._build_level_iso, TRing.products
    inside, sizes = [], []

    def build_level_iso(*args):
        inside.append(True)
        try:
            return original_build(*args)
        finally:
            inside.pop()

    def products(self, x, Y, side):
        if inside and side == "left":
            sizes.append(np.count_nonzero(x.vec))
        return original_products(self, x, Y, side)

    monkeypatch.setattr(blocks, "_build_level_iso", build_level_iso)
    monkeypatch.setattr(TRing, "products", products)
    decomp = blocks.central_decomposition(params, field)
    assert len(sizes) == sum(len(iso.gamma.generators()) for iso in decomp.isos[1:])
    assert max(sizes) <= params.e


@pytest.mark.parametrize("triple,field", SPARSE_CASES, ids=SPARSE_IDS)
def test_from_group_algebra_is_the_twist_then_f_i(triple, field):
    # L z over the lift denominator is (z d_i) f_i, the product it replaces
    params = make_params(*triple)
    ring = tring(params)
    rng = random.Random(f"psi-{triple}-{field.name}")
    for iso in blocks.central_decomposition(params, field).isos[1:]:
        gamma = iso.gamma
        t = blocks._twist_inverse_coefficient(gamma, field)
        for _ in range(3):
            values = [rng.randint(-9, 9) for _ in range(gamma.order)]
            if field is QQ:
                values = [Fraction(v, rng.randint(1, 6)) for v in values]
            z = ring.from_vector(field, values, gamma.span)
            twisted = blocks._times_twist(gamma, z, t)
            assert iso.from_group_algebra(z) == mult_reference(ring, twisted, iso.projector)


def test_level_table_reads_no_canonical_coset(monkeypatch):
    # the coordinates are read off the ring's coset index, not a
    # canonicalization per element; the laws still follow the tuple law
    from tsring import groupmodel

    cases = [make_params(*t) for t in [(3, 2, 2), (2, 4, 1), (2, 5, 1), (7, 2, 3), (13, 2, 12)]]
    for params in cases:
        tring(params)  # the basis canonicalizes its representatives once

    def canonical_coset(*args):
        raise AssertionError("canonical_coset called")

    for module in (groupmodel, sys.modules["tsring.tring"], blocks):
        monkeypatch.setattr(module, "canonical_coset", canonical_coset, raising=False)
    laws = {
        (params, i): _law(blocks.LevelGroup(params, i)).tolist()
        for params in cases
        for i in range(1, params.n + 1)
    }
    monkeypatch.undo()
    for (params, i), table in laws.items():
        labels = level_labels(params, i)
        assert [[labels[k] for k in row] for row in table] == [
            [level_mul(params, i, g, h) for h in labels] for g in labels
        ]
