"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check runs at tolerance zero over the instance set S below.  Each
test prints a single PASS/FAIL line (run pytest with -s to see them all;
failures show the line in the captured output).

Criterion 9 holds the certified semisimplicity decision to the paper's
criterion, invertibility of p^(n-1)(p-1), at every field of characteristic
q != p; that is where the paper describes the algebra as a matrix algebra
times the group algebras of the level groups.  At q = p the expected verdict
is not semisimple for every instance: the test itself checks over ZZ that
the sum z of all projective classes is nonzero mod p, squares to p^n * e * z
and commutes with every basis element mod p, so that over any field of
characteristic p it is a nonzero central element with square zero.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from reference import (
    conjugate_subgroup_orbit,
    normalizer_bruteforce,
    projective_identity,
)

from tsring import blocks, cartan
from tsring.exactarith import GF, QQ, ZZ, field_mat_mul, mat_lift, mat_mul, snf
from tsring import groupmodel as gm
from tsring.groupmodel import make_params
from tsring.mackey import oracle
from tsring.tring import NonProj, ProjPair, tring

S = [
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


def _report(num, name, ok, detail=""):
    tail = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_oracle_equivalence():
    total = 0
    for p, n, e in S:
        params = make_params(p, n, e)
        ring = tring(params)
        orc = oracle(params)
        for a in ring.basis:
            for b in ring.basis:
                assert orc.oracle_mult(a, b) == ring.mult_basis(a, b), (
                    (p, n, e),
                    a,
                    b,
                )
                total += 1
    _report(1, "oracle equivalence", True, f"{total} products compared")


def test_criterion_02_ring_axioms():
    assoc_checked = 0
    for p, n, e in S:
        params = make_params(p, n, e)
        ring = tring(params)
        one = ring.one_elem
        for b in ring.basis:
            assert ring.mult_basis(one, b) == {b: 1}
            assert ring.mult_basis(b, one) == {b: 1}
            for x in ring.basis:
                for v in ring.mult_basis(b, x).values():
                    assert isinstance(v, int) and v > 0
        if ring.dimension() <= 20:
            elems = [ring.from_basis(ZZ, b) for b in ring.basis]
            for x in elems:
                for y in elems:
                    xy = ring.mult(x, y)
                    for z in elems:
                        assert ring.mult(xy, z) == ring.mult(x, ring.mult(y, z))
                        assoc_checked += 1
    _report(2, "ring axioms", True, f"{assoc_checked} associativity triples")


def test_criterion_03_grading_and_ideals():
    for p, n, e in S:
        params = make_params(p, n, e)
        ring = tring(params)
        for i in range(n + 1):
            ideal = set(ring.ideal_le(i))
            for b in ideal:
                for x in ring.basis:
                    assert set(ring.mult_basis(x, b)) <= ideal
                    assert set(ring.mult_basis(b, x)) <= ideal
        nonproj = [b for b in ring.basis if isinstance(b, NonProj)]
        for a in nonproj:
            for b in nonproj:
                prod = ring.mult_basis(a, b)
                k = min(a.level, b.level)
                assert all(isinstance(c, NonProj) and c.level == k for c in prod)
                assert prod == ring.mult_basis(b, a)
    _report(3, "grading, ideals, quotient commutativity", True)


def test_criterion_04_smith_normal_form():
    for p, n, e in S:
        params = make_params(p, n, e)
        c = cartan.cartan_matrix(params)
        result = snf(c)
        assert result.check(c)
        assert result.diagonal() == [1] * (e - 1) + [p**n]
    rng = random.Random(20250810)
    for _ in range(100):
        size = rng.choice([3, 4])
        a = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        c = mat_mul(a, [list(r) for r in zip(*a)])
        for i in range(size):
            c[i][i] += rng.randint(1, 3)
        assert snf(c).check(c)
    _report(4, "Smith normal form", True, "special shapes + 100 random SPD")


def test_criterion_05_integral_projective_idempotents():
    for p, n, e in S:
        params = make_params(p, n, e)
        c = cartan.cartan_matrix(params)
        ring_c = cartan.TwistedMatRing(e, c)
        certs = cartan.orthogonal_projective_idempotents(c)
        assert len(certs) == e - 1
        for i, cert in enumerate(certs):
            assert cert.checks["idempotent"]
            assert cert.checks["rank_one_corner"]
            assert cert.checks["orthogonal_to"] == [
                j for j in range(len(certs)) if j != i
            ]
        # the explicit difference family passes the same certificates
        explicit_family = []
        for i in range(e - 1):
            explicit = [[0] * e for _ in range(e)]
            explicit[i][i] = 1
            explicit[e - 1][i] = -1
            cert = cartan.certify_projective_idempotent(c, explicit)
            assert cert.checks["idempotent"] and cert.checks["rank_one_corner"]
            explicit_family.append(explicit)
        for i, x in enumerate(explicit_family):
            for y in explicit_family[i + 1 :]:
                assert ring_c.are_orthogonal(x, y)
    _report(5, "integral idempotent families", True)


def test_criterion_06_projective_block_over_fields():
    for p, n, e in S:
        params = make_params(p, n, e)
        ring = tring(params)
        c = cartan.cartan_matrix(params)
        fields = [QQ] + [GF(q) for q in (2, 5, 7) if q != p]
        for K in fields:
            ident = cartan.projective_identity_element(ring, K)
            assert ring.mult(ident, ident) == ident
            assert cartan.projective_identity_is_central(ring, K)
            # matrix identification on all e^4 pairs, with exact inverse
            lifted_c = mat_lift(c, K)
            pairs = [
                (a, b) for a in range(e) for b in range(e)
            ]
            mats = {}
            for a, b in pairs:
                unit = [[K.zero] * e for _ in range(e)]
                unit[a][b] = K.one
                mats[(a, b)] = unit
            for a in pairs:
                for b in pairs:
                    x = ring.from_basis(K, ProjPair(*a))
                    y = ring.from_basis(K, ProjPair(*b))
                    prod = ring.mult(x, y)
                    mat_prod = cartan.projective_element_to_matrix(prod)
                    lhs = field_mat_mul(mat_prod, lifted_c, K)
                    rhs = field_mat_mul(
                        field_mat_mul(mats[a], lifted_c, K),
                        field_mat_mul(mats[b], lifted_c, K),
                        K,
                    )
                    assert lhs == rhs
            # the inverse map recovers every matrix unit exactly
            inv_c = projective_identity(c, K)
            for a, b in pairs:
                back = field_mat_mul(mats[(a, b)], inv_c, K)
                elem = cartan.matrix_to_projective_element(ring, K, back)
                image = field_mat_mul(
                    cartan.projective_element_to_matrix(elem), lifted_c, K
                )
                assert image == mats[(a, b)]
    _report(6, "projective block identification", True)


def test_criterion_07_integral_decomposition_and_scan():
    for p, n, e in S:
        params = make_params(p, n, e)
        decomposition = blocks.integral_primitive_decomposition(params)
        assert len(decomposition) == e
        outside = [
            x
            for x in decomposition
            if any(isinstance(b, NonProj) for b in x.coeffs)
        ]
        assert len(outside) <= 1
        report = blocks.rational_central_idempotent_scan(params)
        assert report.only_zero_and_one, (p, n, e)
    _report(7, "integral primitives and central scan", True)


def test_criterion_08_central_block_decomposition():
    for p, n, e in S:
        params = make_params(p, n, e)
        fields = [QQ] + [GF(q) for q in (2, 3, 5, 7, 11, 13) if q != p]
        for K in fields:
            decomp = blocks.central_decomposition(params, K)
            expected_dims = [e**2] + [
                p ** (i - 1) * (p - 1) for i in range(1, n + 1)
            ]
            assert decomp.dims == expected_dims
            assert sum(decomp.dims) == e**2 + p**n - 1
        # the m_i relation, exact over Q
        for i in range(1, n + 1):
            mi = Fraction(params.nontrivial_coset_count(i))
            denom = p ** (n - i)
            assert mi - mi / denom - mi * mi * e / denom == 0
    _report(8, "central block decomposition", True)


def _projective_sum_is_central_nilpotent_mod_p(params):
    """Check, over ZZ, that z = sum of all P[lam, mu] is central nilpotent mod p.

    z has every coefficient 1, so it is nonzero mod p; z^2 = p^n * e * z
    exactly; and every commutator [z, b] with a basis element b is 0 mod p.
    Over a field of characteristic p, z is then a nonzero central element
    with square zero, so z generates a nonzero nilpotent ideal.
    """
    p, n, e = params.p, params.n, params.e
    ring = tring(params)
    z = ring.element(
        ZZ, {ProjPair(lam, mu): 1 for lam in range(e) for mu in range(e)}
    )
    assert not z.is_zero() and all(v % p for v in z.coeffs.values())
    assert ring.mult(z, z) == z.scale(p**n * e), (p, n, e)
    for b in ring.basis:
        x = ring.from_basis(ZZ, b)
        commutator = ring.mult(z, x) - ring.mult(x, z)
        assert all(v % p == 0 for v in commutator.coeffs.values()), (p, n, e, b)


def test_criterion_09_semisimplicity_grid():
    cells = []
    mismatches = []
    for p, n, e in S:
        params = make_params(p, n, e)
        _projective_sum_is_central_nilpotent_mod_p(params)
        for q in sorted({0, 2, 3, 5, 7, p}):
            decision = blocks.semisimplicity_decide(params, q)
            # at q = p the projective-sum check above backs "not_semisimple"
            semisimple = q != p and blocks.stated_criterion(params, q)
            expected = "semisimple" if semisimple else "not_semisimple"
            cells.append(decision)
            assert decision.verdict != "inconclusive", (p, n, e, q)
            if decision.verdict != expected:
                mismatches.append(
                    f"(p,n,e)=({p},{n},{e}) char {q}: certified "
                    f"{decision.verdict} by {decision.method}, expected {expected}"
                )
    ok = not mismatches
    detail = f"{len(cells)} cells" + (
        "" if ok else "; certified decisions contradict the expected verdict at: "
        + " | ".join(mismatches)
    )
    _report(9, "semisimplicity grid", ok, detail)
    assert not mismatches, (
        "expected: the invertibility criterion at characteristic != p, "
        "not semisimple (projective-class sum) at characteristic p:\n"
        + "\n".join(mismatches)
    )


def test_criterion_10_group_model_laws():
    for p, n, e in S:
        params = make_params(p, n, e)
        assert params.group_order <= 150
        # Frobenius action
        for r in params.subgroup_E:
            if r != 1:
                for x in range(1, params.pn):
                    assert r * x % params.pn != x
        # normalizers and the conjugacy criterion, by brute force
        expected_normalizer = set()
        for z1 in range(params.pn):
            for z2 in range(params.pn):
                for r in params.subgroup_E:
                    expected_normalizer.add(((z1, r), (z2, r)))
        for i in range(1, n + 1):
            units = [u for u in range(1, p**i) if u % p]
            for u in units:
                sub = gm.subgroup_diag_p(params, i, u)
                assert normalizer_bruteforce(params, sub) == expected_normalizer
            for u in units:
                orbit = conjugate_subgroup_orbit(
                    params, gm.subgroup_diag_p(params, i, u)
                )
                for v in units:
                    same_coset = gm.canonical_coset(params, i, u) == gm.canonical_coset(
                        params, i, v
                    )
                    conjugate = (
                        frozenset(gm.subgroup_diag_p(params, i, v).elements) in orbit
                    )
                    assert conjugate == same_coset
        # double coset sizes and counts for all (i, j)
        for i in range(n + 1):
            for j in range(n + 1):
                blocks_ = gm.double_coset_partition(params, i, j)
                l = max(i, j)
                sizes = [len(b) for b in blocks_]
                assert sizes[0] == p**l * e
                assert all(s == p**l * e**2 for s in sizes[1:])
                assert len(blocks_) - 1 == params.nontrivial_coset_count(l)
    _report(10, "group model laws", True)


def test_criterion_11_byte_determinism():
    cmd = [
        sys.executable,
        "-m",
        "tsring",
        "verify",
        "--p",
        "3",
        "--n",
        "2",
        "--e",
        "2",
        "--which",
        "oracle,assoc,theorem-a,theorem-b,theorem-c,theorem-d",
        "--field",
        "Q,F5",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed canonical report
    _report(11, "byte determinism", True)
