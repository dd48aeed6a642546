"""Command-line interface: payloads, exit codes, byte determinism."""

import hashlib
import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, EDGE_INSTANCES, INSTANCES, SMALL_INSTANCES
from reference import (
    check_assoc_reference,
    double_coset_partition,
    padded_arrays,
    patch_mult_basis,
    sort_key,
    table_of,
    without_zero_terms,
)

from tsring import blocks, cli, mackey
from tsring import groupmodel as gm
from tsring.cli import _check_assoc, main
from tsring.errors import ArithmeticBound, TheoremViolation, UnrecognizedShape
from tsring.exactarith import ZZ
from tsring.mackey import MackeyOracle
from tsring.model import (
    NonProj,
    ProjPair,
    basis_from_json,
    basis_from_label,
    basis_label,
    make_params,
)
from tsring.tring import TRing, tring

tring_module = importlib.import_module("tsring.tring")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_command(capsys):
    code, out = run_cli(["basis", "--p", "3", "--n", "2", "--e", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tsring/1"
    assert doc["status"] == "ok"
    assert doc["payload"]["count"] == "12"
    assert len(doc["payload"]["elements"]) == 12


def test_basis_command_small(capsys):
    code, out = run_cli(["basis", "--p", "3", "--n", "1", "--e", "1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["count"] == "3"


def test_basis_rejects_nonprime(capsys):
    code, _ = run_cli(["basis", "--p", "4", "--n", "1", "--e", "1"], capsys)
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(["verify", "--p", "3", "--n", "1", "--e", "1", "--which", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["basis", "table", "verify"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command):
    # exit 1 means a violation; a path that cannot be opened is exit 2
    out = tmp_path / "missing" / "report"
    code = main([command, "--p", "3", "--n", "1", "--e", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.exists()


def test_table_json_row_count_and_values(capsys):
    code, out = run_cli(
        ["table", "--p", "3", "--n", "1", "--e", "1", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 9
    first = rows[0]
    assert basis_from_json(first["a"]) == basis_from_json(first["b"])
    assert first["product"][0]["coeff"] == "3"


def test_table_csv_agrees_with_json(capsys):
    _, json_out = run_cli(
        ["table", "--p", "3", "--n", "2", "--e", "2", "--format", "json"], capsys
    )
    _, csv_out = run_cli(
        ["table", "--p", "3", "--n", "2", "--e", "2", "--format", "csv"], capsys
    )
    json_rows = {}
    for row in json.loads(json_out)["payload"]["rows"]:
        key = (basis_from_json(row["a"]), basis_from_json(row["b"]))
        json_rows[key] = {
            basis_from_json(t["basis"]): int(t["coeff"]) for t in row["product"]
        }
    import csv as csv_mod
    import io

    csv_rows = {}
    reader = csv_mod.reader(io.StringIO(csv_out))
    header = next(reader)
    assert header == ["a", "b", "product"]
    for a_txt, b_txt, prod_txt in reader:
        prod = {}
        for term in prod_txt.split("+"):
            coeff, label = term.split("*", 1)
            prod[basis_from_label(label)] = int(coeff)
        csv_rows[(basis_from_label(a_txt), basis_from_label(b_txt))] = prod
    assert json_rows == csv_rows


@pytest.mark.parametrize("triple", [(3, 2, 2), (5, 1, 4)], ids=["p3n2e2", "p5n1e4"])
def test_table_rows_are_the_basis_products(capsys, triple):
    # `tsring table` reads the ring's table: row by row it must be `mult_basis`, terms in
    # `sort_key` order, pairs in basis order
    args = ["--p", str(triple[0]), "--n", str(triple[1]), "--e", str(triple[2])]
    code, out = run_cli(["table", *args, "--format", "json"], capsys)
    assert code == 0
    ring = tring(make_params(*triple))
    rows = json.loads(out)["payload"]["rows"]
    pairs = [(a, b) for a in ring.basis for b in ring.basis]
    assert len(rows) == len(pairs)
    for row, (a, b) in zip(rows, pairs):
        assert (basis_from_json(row["a"]), basis_from_json(row["b"])) == (a, b)
        product = [(basis_from_json(t["basis"]), int(t["coeff"])) for t in row["product"]]
        assert product == sorted(ring.mult_basis(a, b).items(), key=lambda kv: sort_key(kv[0]))


def test_verify_oracle(capsys):
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "oracle"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["checks"][0]["details"]["compared"] == "144"


def test_verify_oracle_failure_is_inconclusive(fresh_rings, monkeypatch, capsys):
    # an oracle that cannot classify a summand has not decided the pair:
    # the report names the pair and the check exits 3, not the usage code
    def refuse(self, z):
        raise UnrecognizedShape("injected: no shape")

    monkeypatch.setattr(MackeyOracle, "classify_induced", refuse)
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "oracle,assoc"], capsys
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    oracle_check, assoc_check = doc["payload"]["checks"]
    assert oracle_check["status"] == "inconclusive"
    first = basis_label(tring(make_params(3, 2, 2)).basis[0])
    assert oracle_check["details"] == {
        "pair": [first, first],
        "error": "injected: no shape",
        "compared": "0",
    }
    assert assoc_check["status"] == "ok"


def test_verify_oracle_non_least_representative_is_inconclusive(fresh_rings, monkeypatch, capsys):
    # every summand is a literal shape only at the least in-D representative
    # of each double coset.  The largest in-D member of the trivial coset is
    # a nonzero t in D_max(i,j), and conjugating a twisted diagonal by
    # (t, 1) moves its pairs with s != 1 off every shape: no summand is
    # searched for a conjugate, so the check cannot decide and exits 3
    def largest_in_d(params, i, j):
        elems = gm.group_table(params).elems
        return tuple(
            max(elems[t] for t in block if elems[t][1] == 1)
            for block in double_coset_partition(params, i, j)
        )

    monkeypatch.setattr(mackey, "double_cosets_in_d", largest_in_d)
    code, out = run_cli(["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "oracle"], capsys)
    assert code == 3
    (check,) = json.loads(out)["payload"]["checks"]
    assert check["status"] == "inconclusive"
    assert "fits no known shape" in check["details"]["error"]


# ------------------------------------------------------------ associativity


def _first_assoc_failure(ring):
    """Brute-force reference: status and index of the first failing triple."""
    elems = [ring.from_basis(ZZ, b) for b in ring.basis]
    checked = 0
    for x in elems:
        for y in elems:
            xy = ring.mult(x, y)
            for z in elems:
                if ring.mult(xy, z) != ring.mult(x, ring.mult(y, z)):
                    return "violation", checked
                checked += 1
    return "ok", checked


def _mutate_mult_basis(monkeypatch, a, b, c, delta):
    """Add delta to the coefficient of c in every product a * b."""
    original = TRing.mult_basis

    def mult_basis(self, x, y):
        prod = original(self, x, y)
        if (x, y) == (a, b):
            prod = dict(prod)
            prod[c] = prod.get(c, 0) + delta
        return prod

    patch_mult_basis(monkeypatch, mult_basis)


def test_verify_assoc_reports_first_failing_triple(fresh_rings, monkeypatch, capsys):
    a = b = c = NonProj(1, 1, 0)  # M[1,1,0]^2 = 2 M[1,1,0] + M[1,1,1]
    _mutate_mult_basis(monkeypatch, a, b, c, 1)
    ring = tring(make_params(3, 2, 2))
    status, first = _first_assoc_failure(ring)
    assert status == "violation"
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "2", "--e", "2", "--which", "assoc"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    assert doc["payload"]["checks"][0] == {
        "name": "assoc",
        "status": "violation",
        "details": {"checked": str(first)},
    }


@pytest.mark.parametrize("seed", range(24))
def test_assoc_check_agrees_with_loop_under_mutation(fresh_rings, monkeypatch, seed):
    # one coefficient raised, or one new term added, in one basis product;
    # most of these break associativity, at varying first-failure indices
    rng = random.Random(seed)
    params = make_params(*rng.choice(SMALL_INSTANCES))
    basis = tring(params).basis
    a, b = rng.choice(basis), rng.choice(basis)
    if seed % 3:
        c = rng.choice(list(tring(params).mult_basis(a, b)))
    else:
        c = rng.choice(basis)
    tring.cache_clear()
    _mutate_mult_basis(monkeypatch, a, b, c, rng.randint(1, 3))
    ring = tring(params)
    status, first = _first_assoc_failure(ring)
    expected = (status, {"checked": str(first)})
    assert _check_assoc(params, ring) == expected
    monkeypatch.setattr(tring_module, "ASSOC_CHUNK_ENTRIES", 1)  # one row per chunk
    assert _check_assoc(params, ring) == expected


CERTIFIED = list(
    dict.fromkeys(INSTANCES + EDGE_INSTANCES + BEYOND_INSTANCES + [(3, 4, 2), (5, 3, 2)])
)


@pytest.mark.parametrize("pne", CERTIFIED, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_assoc_check_all_instances(pne):
    # the closed form is certified by transport along the label twists,
    # and the verdict is the full expansion's
    params = make_params(*pne)
    ring = tring(params)
    assert tring_module._transported(ring)
    expected = ("ok", {"checked": str(ring.dimension() ** 3)})
    assert _check_assoc(params, ring) == check_assoc_reference(*padded_arrays(ring)) == expected


def _dense_table(ring):
    """T[a, b, c]: the coefficient of e_c in e_a e_b, a d x d x d array."""
    d = ring.dimension()
    owner, cls, val = ring.terms(np.arange(d * d))
    T = np.zeros((d, d, d), dtype=np.int64)
    np.add.at(T, (*np.divmod(owner, d), cls), val)
    return T


TWISTED = list(
    dict.fromkeys(INSTANCES + EDGE_INSTANCES + [(3, 4, 2), (2, 4, 1), (2, 6, 1), (5, 3, 4)])
)


@pytest.mark.parametrize("pne", TWISTED, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_label_twists_are_equivariant_permutations(pne):
    # each twist read off the labels is a permutation, moves the dense
    # table as the twist of its side does, agrees with the oracle's twist
    # of the inducing subgroups, and each side has e + n orbits
    params = make_params(*pne)
    ring = tring(params)
    d = ring.dimension()
    T = _dense_table(ring)
    chunks = tring_module._cut(np.arange(d), 2 * ring.term_counts().sum(axis=1))
    orc = mackey.oracle(params)
    sides = tring_module._twist_permutations(ring)
    for k, (side, perms) in enumerate(zip(("left", "right"), sides)):
        assert len(perms) == len(orc.twists())
        for sigma, twist in zip(perms, orc.twists()):
            assert sorted(sigma.tolist()) == list(range(d))
            # e_sigma(a) e_b = sigma(e_a e_b), or e_a e_sigma(b) = sigma(e_a e_b)
            moved = T[sigma] if side == "left" else T[:, sigma]
            assert (moved[:, :, sigma] == T).all()
            assert tring_module._equivariant(ring, sigma, side, chunks)
            assert (sigma == orc.permutation(k, *twist, {})).all()
        reps = tring_module._orbit_representatives(perms, d)
        assert len(reps) == params.e + params.n


def _mutate_structure(monkeypatch, mutate):
    """Build the table (start, cls, val) by the closed form, then let
    mutate(start, cls, val) edit copies in place or return a new table; the
    terms it sets to 0 are dropped."""
    rule_table = TRing._rule_table

    def mutated(self):
        table = [m.copy() for m in rule_table(self)]
        return without_zero_terms(*(mutate(*table) or table))

    monkeypatch.setattr(TRing, "_rule_table", mutated)


ASSOC_MUTATIONS = ("zeroed term", "coefficient + 1", "coefficient - 1")


@pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "row_by_row"])
@pytest.mark.parametrize("seed", range(16))
def test_assoc_over_live_terms_matches_full_expansion(fresh_rings, monkeypatch, seed, chunk):
    # the check expands only the live terms of the table; the reference
    # expands every slot of the padded arrays at both levels, as the check
    # did before, and must agree on the verdict and on `checked`
    rng = random.Random(seed)
    kind = ASSOC_MUTATIONS[seed % len(ASSOC_MUTATIONS)]
    instances = [(3, 2, 2), (5, 2, 4), (7, 2, 3), (5, 1, 4), (7, 1, 6)]
    params = make_params(*rng.choice(instances))

    def mutate(start, cls, val):
        s = rng.randrange(len(val))
        if kind == "zeroed term":
            val[s] = 0
        else:
            val[s] += 1 if kind == "coefficient + 1" else -1

    _mutate_structure(monkeypatch, mutate)
    ring = tring(params)
    expected = check_assoc_reference(*padded_arrays(ring))
    if chunk is not None:
        monkeypatch.setattr(tring_module, "ASSOC_CHUNK_ENTRIES", chunk)
    assert _check_assoc(params, ring) == expected


def test_assoc_check_refuses_int64_overflow(fresh_rings, monkeypatch):
    one = NonProj(1, 1, 0)
    _mutate_mult_basis(monkeypatch, one, one, one, 1 << 31)
    params = make_params(3, 1, 1)
    with pytest.raises(ArithmeticBound):
        _check_assoc(params, tring(params))


# ------------------------------------------- the certificate by transport


def _representative_rows(ring):
    """The (a, b) rows and the columns c of the triples the certificate
    expands: a least in its left orbit, c in its right, b any class."""
    d = ring.dimension()
    left, right = tring_module._twist_permutations(ring)
    a_reps, c_reps = (tring_module._orbit_representatives(perms, d) for perms in (left, right))
    return (a_reps[:, None] * d + np.arange(d)).ravel(), c_reps


def _counted_scans(monkeypatch):
    """The row counts of every full scan `_check_assoc` runs: the calls of
    `_first_failure` made outside the certificate `_transported`."""
    scans, certifying = [], []
    first_failure, transported = tring_module._first_failure, tring_module._transported

    def counted(ring, rows, cols):
        if not certifying:
            scans.append(len(rows))
        return first_failure(ring, rows, cols)

    def certificate(ring):
        certifying.append(True)
        try:
            return transported(ring)
        finally:
            certifying.pop()

    monkeypatch.setattr(tring_module, "_first_failure", counted)
    monkeypatch.setattr(tring_module, "_transported", certificate)
    return scans


def test_certificate_expands_at_most_seven_rows_of_triples(monkeypatch):
    # (3,4,2): e + n = 6 orbits on each side, so the certificate expands
    # (e + n)^2 d = 3024 of the d^3 = 592704 triples, and no scan runs
    params = make_params(3, 4, 2)
    ring = tring(params)
    d = ring.dimension()
    expanded = []
    first_nonassociative = tring_module._first_nonassociative

    def counted(ring, ab, cols):
        expanded.append(len(ab) * len(cols))
        return first_nonassociative(ring, ab, cols)

    monkeypatch.setattr(tring_module, "_first_nonassociative", counted)
    scans = _counted_scans(monkeypatch)
    assert _check_assoc(params, ring) == ("ok", {"checked": str(d**3)})
    assert 0 < sum(expanded) <= (params.e + params.n) ** 2 * d == 3024
    assert scans == []


@pytest.mark.parametrize("seed", range(6))
def test_certificate_sees_a_wrong_pair_outside_the_representatives(
    fresh_rings, monkeypatch, seed
):
    # one coefficient of a pair (x, y), x least in no left orbit and y in
    # no right one, so no representative triple reads it: the triples
    # alone pass, equivariance fails, and the scan reports the reference
    rng = random.Random(seed)
    params = make_params(*rng.choice([(3, 2, 2), (7, 2, 3), (5, 2, 4)]))
    ring = tring(params)
    d = ring.dimension()
    rows, cols = _representative_rows(ring)
    x = rng.choice([a for a in range(d) if a * d not in rows[::d]])
    y = rng.choice([c for c in range(d) if c not in cols])
    tring.cache_clear()

    def mutate(start, cls, val):
        val[rng.randrange(start[x * d + y], start[x * d + y + 1])] += 1

    _mutate_structure(monkeypatch, mutate)
    ring = tring(params)
    assert tring_module._first_failure(ring, rows, cols) is None
    assert not tring_module._transported(ring)
    expected = check_assoc_reference(*padded_arrays(ring))
    assert expected[0] == "violation"
    scans = _counted_scans(monkeypatch)
    assert _check_assoc(params, ring) == expected
    assert scans == [d * d]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind", ["not equivariant", "two classes to one"])
def test_certificate_refuses_a_bad_twist(fresh_rings, monkeypatch, kind, side):
    # a twist of either side that moves the table wrongly, or maps two
    # classes to one image, sends the check to the scan, and the report
    # stays the same
    params = make_params(3, 4, 2)
    ring = tring(params)
    d = ring.dimension()
    twist_permutations = tring_module._twist_permutations

    def bad(ring):
        sides = dict(zip(("left", "right"), twist_permutations(ring)))
        sigma = sides[side][-1].copy()
        if kind == "not equivariant":
            sigma[[0, 1]] = sigma[[1, 0]]
        else:
            sigma[1] = sigma[0]
        sides[side] = [*sides[side][:-1], sigma]
        return sides["left"], sides["right"]

    monkeypatch.setattr(tring_module, "_twist_permutations", bad)
    if kind == "not equivariant":
        sigma = bad(ring)[side == "right"][-1]
        assert sorted(sigma.tolist()) == list(range(d))
        chunks = tring_module._cut(np.arange(d), 2 * ring.term_counts().sum(axis=1))
        assert not tring_module._equivariant(ring, sigma, side, chunks)
    assert not tring_module._transported(ring)
    scans = _counted_scans(monkeypatch)
    assert _check_assoc(params, ring) == ("ok", {"checked": str(d**3)})
    assert scans == [d * d]


def _assoc_tensor(ring):
    """(e_a e_b) e_c - e_a (e_b e_c) as a d x d x d x d integer array."""
    T = _dense_table(ring)
    return np.einsum("abm,mcn->abcn", T, T) - np.einsum("bcm,amn->abcn", T, T)


def test_certificate_refuses_the_middle_nucleus(fresh_rings, monkeypatch):
    # the one nonzero product e_0 e_1 = e_0: a e_0 = 0 and a (e_0 b) lies in
    # a span(e_0) = 0, so e_0 is in the middle nucleus, but (e_0 e_1) e_1 =
    # e_0 while e_0 (e_1 e_1) = 0; the right twist swapping e_1 and e_2
    # does not move e_0 e_1 to e_0 e_2 = 0, so the scan decides
    params = make_params(3, 1, 1)
    d = TRing(params).dimension()
    _mutate_structure(monkeypatch, lambda *table: table_of(d, {(0, 1): [(0, 1)]}))
    ring = tring(params)
    assoc = _assoc_tensor(ring)
    assert not assoc[:, 0].any() and assoc[0].any()
    # rows g * d + a hold the triples (g, a, b), rows a * d + g (a, g, b)
    assert tring_module._first_failure(ring, np.arange(d), np.arange(d)) is not None
    assert tring_module._first_failure(ring, np.arange(d) * d, np.arange(d)) is None
    assert not tring_module._transported(ring)
    expected = check_assoc_reference(*padded_arrays(ring))
    assert expected == ("violation", {"checked": str((0 * d + 1) * d + 1)})
    assert _check_assoc(params, ring) == expected


@pytest.mark.parametrize("kind", ["zero algebra", "P[0,0] row zeroed"])
def test_certificate_refuses_words_that_do_not_span(fresh_rings, monkeypatch, kind):
    # the zero algebra is associative and every twist moves it rightly, so
    # the certificate holds; with P[0,0] e_b = 0 the left character twist,
    # which sends P[0,0] to P[1,0], no longer moves the products, while
    # (e_a P[0,0]) e_b != 0 breaks associativity, and the scan decides
    params = make_params(3, 2, 2)
    d = tring(params).dimension()
    tring.cache_clear()

    def mutate(start, cls, val):
        if kind == "zero algebra":
            val[:] = 0
        else:
            val[: start[d]] = 0

    _mutate_structure(monkeypatch, mutate)
    ring = tring(params)
    assert tring_module._transported(ring) == (kind == "zero algebra")
    expected = check_assoc_reference(*padded_arrays(ring))
    assert (expected[0] == "ok") == (kind == "zero algebra")
    assert _check_assoc(params, ring) == expected


# (3,1,2), whose candidates are M[1,1,0], P[0,0] and M[1,1,1]: u = M[1,1,0]
# is the identity, s = P[0,0] and t = M[1,1,1] generate the commutative
# associative W = span(u, s, t, t^2, ts) with s^2 = t^3 = t^2 s = 0, and the
# last class x has x t = x and x y = y x = 0 for the other y != u, so
# (x, t, t) = x; u, s and t are in the left nucleus (t W and s W carry no
# u, and s x = t x = 0) and their words span only W
ONE_SHORT = {"u": 4, "s": 0, "t": 5, "tt": 1, "ts": 2, "x": 3}
ONE_SHORT_PRODUCTS = [("s", "t", "ts"), ("t", "s", "ts"), ("t", "t", "tt"), ("x", "t", "x")]


def test_certificate_refuses_words_one_class_short(fresh_rings, monkeypatch):
    # the triples (g, a, b) with g in {u, s, t} hold, and the table is
    # not associative: no sound certificate passes it
    params = make_params(3, 1, 2)
    d, u = TRing(params).dimension(), ONE_SHORT["u"]
    products = {(u, y): [(y, 1)] for y in range(d)}
    products.update({(y, u): [(y, 1)] for y in range(d)})
    for a, b, c in ONE_SHORT_PRODUCTS:
        products[ONE_SHORT[a], ONE_SHORT[b]] = [(ONE_SHORT[c], 1)]
    _mutate_structure(monkeypatch, lambda *table: table_of(d, products))
    ring = tring(params)
    gens = [ONE_SHORT[g] for g in "ust"]
    assert not _assoc_tensor(ring)[gens].any()
    rows = (np.sort(gens)[:, None] * d + np.arange(d)).ravel()
    assert tring_module._first_failure(ring, rows, np.arange(d)) is None
    assert not tring_module._transported(ring)
    expected = check_assoc_reference(*padded_arrays(ring))
    assert expected[0] == "violation"
    assert _check_assoc(params, ring) == expected


SEMIGROUPS = {
    "max": lambda a, b, d: max(a, b),
    "min": lambda a, b, d: min(a, b),
    "left zero": lambda a, b, d: a,
    "right zero": lambda a, b, d: b,
    "cyclic group": lambda a, b, d: (a + b) % d,
}


def _twist_group(perms, d):
    """Every composite of the permutations `perms`, the identity first."""
    group = {tuple(range(d))}
    queue = list(group)
    for g in queue:
        for sigma in perms:
            h = tuple(sigma[list(g)].tolist())
            if h not in group:
                group.add(h)
                queue.append(h)
    return [np.array(g) for g in queue]


def _symmetrized(products, left, right):
    """The sum over the twists tau, rho of both sides of tau rho (e_a e_b)
    placed at (tau a, rho b): a table every twist moves rightly."""
    out = {}
    for (a, b), terms in products.items():
        for tau in left:
            for rho in right:
                pair = out.setdefault((int(tau[a]), int(rho[b])), [])
                pair += [(int(tau[rho[c]]), v) for c, v in terms]
    return out


@pytest.mark.parametrize("pne", [(3, 1, 1), (2, 2, 1), (5, 1, 1)], ids=["d3", "d4", "d5"])
def test_certificate_never_certifies_a_nonassociative_table(monkeypatch, pne):
    # random integer tables, d = 3, 4 and 5: the algebra of a relabelled
    # associative semigroup, with no, one or two slots changed, or a table
    # drawn at random, each as it is or summed over the twists of one side
    # or of both, so that those twists move it rightly and, for both, the
    # representative triples decide; whatever the certificate certifies,
    # the full expansion must find associative
    params = make_params(*pne)
    rng = random.Random(pne[0] * 100 + pne[1])
    d = TRing(params).dimension()
    twists = tring_module._twist_permutations(TRing(params))
    left, right = (_twist_group(perms, d) for perms in twists)
    fixed = [np.arange(d)]
    certified = refused = 0
    for _ in range(120):
        name = rng.choice([*SEMIGROUPS, "random"])
        sides = rng.choice(["none", "left", "right", "both", "both"])

        def mutate(*table):
            pairs = [divmod(pair, d) for pair in range(d * d)]
            if name == "random":
                cls = [rng.randrange(d) for _ in pairs]
                val = [rng.randint(-2, 2) for _ in pairs]
                products = {ab: [(c, v)] for ab, c, v in zip(pairs, cls, val)}
            else:
                perm = rng.sample(range(d), d)
                products = {
                    (perm[a], perm[b]): [(perm[SEMIGROUPS[name](a, b, d)], 1)] for a, b in pairs
                }
                for _ in range(rng.choice([0, 0, 1, 2])):
                    a, b = rng.randrange(d), rng.randrange(d)
                    products[a, b] = [(rng.randrange(d), rng.randint(-1, 2))]
            if sides != "none":
                taus = fixed if sides == "right" else left
                rhos = fixed if sides == "left" else right
                products = _symmetrized(products, taus, rhos)
            return table_of(d, products)

        _mutate_structure(monkeypatch, mutate)
        ring = TRing(params)  # uncached: each table builds its own
        expected = check_assoc_reference(*padded_arrays(ring))
        if tring_module._transported(ring):
            assert expected[0] == "ok", (name, sides, ring.structure_table())
            certified += 1
        elif sides == "both":
            refused += expected[0] == "violation"
        assert _check_assoc(params, ring) == expected
    # tables were certified, and tables the twists move rightly were
    # refused by the representative triples
    assert certified and refused


@pytest.mark.parametrize("pne", [(3, 2, 2), (7, 2, 3)], ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_certificate_needs_no_prime(fresh_rings, monkeypatch, pne):
    # every coefficient times 1000003 keeps the table associative and its
    # live terms where they were; the certificate must not depend on a
    # prime that could divide them all
    params = make_params(*pne)

    def scale(start, cls, val):
        val *= 1000003

    _mutate_structure(monkeypatch, scale)
    ring = tring(params)
    assert tring_module._transported(ring)
    scans = _counted_scans(monkeypatch)
    assert _check_assoc(params, ring) == ("ok", {"checked": str(ring.dimension() ** 3)})
    assert scans == []


# rungs of the ladder, where the orbits of the label twists leave e + n
# representatives on each side
LADDER_GENERATORS = [(3, 4, 2), (3, 5, 2), (13, 2, 12), (2, 5, 1)]


@pytest.mark.parametrize("pne", LADDER_GENERATORS, ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_certificate_generators_on_the_ladder(pne):
    # the left character twist moves lam, so P[0, mu] represents the left
    # orbits of projective pairs, the right one moves mu, so P[lam, 0]
    # the right; the twists of a side move every M[i, alpha, lam] of a
    # level to M[i, 1, 0]
    params = make_params(*pne)
    ring = tring(params)
    rows, cols = _representative_rows(ring)
    levels = [ring.index[NonProj(i, 1, 0)] for i in range(1, params.n + 1)]
    P = [ring.index[ProjPair(0, mu)] for mu in range(params.e)]
    assert (rows[:: ring.dimension()] // ring.dimension()).tolist() == P + levels
    P = [ring.index[ProjPair(lam, 0)] for lam in range(params.e)]
    assert cols.tolist() == P + levels


def test_verify_theorem_d(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "theorem-d",
            "--field",
            "Q",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["checks"][0]["details"]["fields"][0]["dims"] == ["1", "2"]


def test_verify_semisimple_322(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "2",
            "--e",
            "2",
            "--which",
            "semisimple",
            "--field",
            "F2,F3,F5,F7",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    decisions = [f["decision"] for f in doc["payload"]["checks"][0]["details"]["fields"]]
    assert decisions == ["No", "No", "Yes", "Yes"]


def test_verify_semisimple_reports_violation_at_known_defect(capsys):
    # n = 1 at characteristic p, where comparing against the invertibility
    # criterion alone reported a false violation: p - 1 is invertible, yet
    # the ring is not semisimple, and that is the verdict expected there
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "semisimple",
            "--field",
            "F3",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    entry = doc["payload"]["checks"][0]["details"]["fields"][0]
    assert entry["decision"] == "No"
    assert entry["aut_order_invertible"] == "Yes"


def test_verify_semisimple_violation_at_char_p(monkeypatch, capsys):
    # a decision of "semisimple" at characteristic p contradicts the
    # expected verdict even where p - 1 is invertible
    def decide(params, q):
        return blocks.SemisimplicityDecision("semisimple", "injected")

    monkeypatch.setattr(blocks, "semisimplicity_decide", decide)
    args = ["--p", "3", "--n", "1", "--e", "1", "--which", "semisimple", "--field", "F3"]
    code, out = run_cli(["verify", *args], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    entry = doc["payload"]["checks"][0]["details"]["fields"][0]
    assert entry["decision"] == "Yes"
    assert entry["aut_order_invertible"] == "Yes"


def test_verify_semisimple_violation_outranks_inconclusive(monkeypatch, capsys):
    # a violation at F3 stands even when a later field is inconclusive
    def decide(params, q):
        verdict = "semisimple" if q == 3 else "inconclusive"
        return blocks.SemisimplicityDecision(verdict, "injected")

    monkeypatch.setattr(blocks, "semisimplicity_decide", decide)
    args = ["--p", "3", "--n", "1", "--e", "1", "--which", "semisimple", "--field", "F3,F5"]
    code, out = run_cli(["verify", *args], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    check = doc["payload"]["checks"][0]
    assert check["status"] == "violation"
    assert [f["decision"] for f in check["details"]["fields"]] == ["Yes", "Inconclusive"]


def test_verify_theorem_violation_is_reported(monkeypatch, capsys):
    # a TheoremViolation inside a check fails that check, with the failing
    # identity in the report; the other checks still run
    def broken(params, S):
        raise TheoremViolation("f_0 f_1: injected != 0")

    monkeypatch.setattr(blocks, "central_decomposition", broken)
    args = ["--p", "3", "--n", "1", "--e", "1", "--which", "theorem-a,theorem-d,theorem-b"]
    code, out = run_cli(["verify", *args], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    checks = {c["name"]: c for c in doc["payload"]["checks"]}
    assert [c["name"] for c in doc["payload"]["checks"]] == [
        "theorem-a",
        "theorem-d",
        "theorem-b",
    ]
    assert checks["theorem-d"]["status"] == "violation"
    assert checks["theorem-d"]["details"] == {"error": "f_0 f_1: injected != 0"}
    assert checks["theorem-a"]["status"] == "ok"
    assert checks["theorem-b"]["status"] == "ok"


def test_verify_all_fields_char_p_is_skipped(capsys):
    # F3 is the only field and has characteristic p: nothing is certified
    args = ["--p", "3", "--n", "1", "--e", "1", "--which", "theorem-b,theorem-d"]
    code, out = run_cli(["verify", *args, "--field", "F3"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    for check in doc["payload"]["checks"]:
        assert check["status"] == "skipped"
        assert check["details"] == {"fields": [{"field": "F3", "status": "skipped (char p)"}]}
    # one certified field keeps the check's own status
    code, out = run_cli(["verify", *args, "--field", "F3,F5"], capsys)
    assert code == 0
    assert [c["status"] for c in json.loads(out)["payload"]["checks"]] == ["ok", "ok"]


def test_verify_violation_outranks_skipped(monkeypatch, capsys):
    # theorem-b is skipped at F3; theorem-c runs over Q whatever the fields
    def broken(params, bound=20):
        raise TheoremViolation("injected")

    monkeypatch.setattr(blocks, "rational_central_idempotent_scan", broken)
    args = ["--p", "3", "--n", "1", "--e", "1", "--which", "theorem-b,theorem-c"]
    code, out = run_cli(["verify", *args, "--field", "F3"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    assert [c["status"] for c in doc["payload"]["checks"]] == ["skipped", "violation"]


def test_verify_scan_bound_is_inconclusive(capsys):
    # the order of (3,2,2) has one component, past a bound of 0
    args = ["--p", "3", "--n", "2", "--e", "2", "--which", "theorem-c,theorem-a"]
    code, out = run_cli(["verify", *args, "--scan-bound", "0"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    scan, other = doc["payload"]["checks"]
    assert scan["name"] == "theorem-c" and scan["status"] == "inconclusive"
    assert scan["details"] == {"error": "component count 1 exceeds the bound 0"}
    assert other["name"] == "theorem-a" and other["status"] == "ok"


def test_verify_theorem_c_is_conclusive_past_20_primitives(capsys):
    # (3,4,2) has 21 primitive central idempotents, once refused by the
    # default bound of 20; its order has one component
    args = ["--p", "3", "--n", "4", "--e", "2", "--which", "theorem-c"]
    code, out = run_cli(["verify", *args], capsys)
    assert code == 0
    details = json.loads(out)["payload"]["checks"][0]["details"]
    assert details["scan_primitives"] == "21"
    assert details["scan_sums"] == "2097152"
    assert details["integral_masks"] == ["0", "2097151"]


def test_verify_empty_check_list_is_a_usage_error(capsys):
    # "," names no check, so a report would certify nothing
    for which in (",", " , "):
        code, out = run_cli(
            ["verify", "--p", "3", "--n", "1", "--e", "1", "--which", which], capsys
        )
        assert (code, out) == (2, "")


def test_verify_field_list_without_a_field_is_a_usage_error(capsys):
    # "" and "," name no field, so a report would certify nothing; Z is a
    # scalar ring but no field, and F4 and X name no scalar ring
    args = ["verify", "--p", "3", "--n", "1", "--e", "1", "--which", "theorem-b"]
    for field in ("", ",", " , ", "Z", "Q,Z", "F4", "F", "X"):
        code, out = run_cli([*args, "--field", field], capsys)
        assert (code, out) == (2, ""), field
    code, out = run_cli([*args, "--field", " Q , F5 "], capsys)
    assert code == 0
    fields = json.loads(out)["payload"]["checks"][0]["details"]["fields"]
    assert [f["field"] for f in fields] == ["Q", "F5"]


def test_verify_negative_scan_bound_is_a_usage_error(capsys):
    args = ["verify", "--p", "3", "--n", "1", "--e", "1", "--which", "theorem-c"]
    for bound in ("-1", "x"):
        code, out = run_cli([*args, "--scan-bound", bound], capsys)
        assert (code, out) == (2, "")
    # a bound of 0 is valid: the scan is refused, which is inconclusive
    code, out = run_cli([*args, "--scan-bound", "0"], capsys)
    assert code == 3 and json.loads(out)["status"] == "inconclusive"


def test_verify_multiple_checks(capsys):
    code, out = run_cli(
        [
            "verify",
            "--p",
            "3",
            "--n",
            "1",
            "--e",
            "1",
            "--which",
            "oracle,assoc,theorem-a,theorem-b,theorem-c",
            "--field",
            "Q,F2",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["status"] for c in doc["payload"]["checks"]] == ["ok"] * 5


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["basis", "--p", "3", "--n", "1", "--e", "1", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["payload"]["count"] == "3"


def test_byte_determinism_subprocess():
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
        "oracle,theorem-a,theorem-c",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


# snf returns a normal form with an off-diagonal entry, so the theorem-a
# certificate must fail; a mutation check, run in a fresh interpreter
SNF_MUTATION = """
import sys
from tsring import cartan, cli
from tsring.exactarith import SnfResult, snf

def mutated(c):
    result = snf(c)
    d = [list(row) for row in result.d]
    d[0][1] += 1
    return SnfResult(d=tuple(map(tuple, d)), u=result.u, v=result.v)

cartan.snf = mutated
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_theorem_a_rejects_a_broken_snf_certificate(flags):
    args = ["verify", "--p", "5", "--n", "1", "--e", "4", "--which", "theorem-a"]
    run = subprocess.run(
        [sys.executable, *flags, "-c", SNF_MUTATION, *args],
        capture_output=True,
        check=False,
    )
    assert run.returncode == 1, run.stderr.decode()
    doc = json.loads(run.stdout)
    (check,) = doc["payload"]["checks"]
    assert doc["status"] == check["status"] == "violation"
    assert "Smith normal form d = u C v" in check["details"]["error"]


# stdout of an earlier implementation for each command, committed as bytes
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_COMMANDS = {
    # acceptance criterion 11
    "verify_p3n2e2_criterion11.json": [
        "--p", "3", "--n", "2", "--e", "2",
        "--which", "oracle,assoc,theorem-a,theorem-b,theorem-c,theorem-d",
        "--field", "Q,F5",
    ],
    # F_q only: one field of characteristic p and three semisimplicity methods
    "verify_p5n2e4_fq.json": [
        "--p", "5", "--n", "2", "--e", "4",
        "--which", "theorem-b,theorem-d,semisimple",
        "--field", "F2,F5,F7",
    ],
    # the largest ladder rung, d = 312: level blocks, the trace-form rank and
    # a central nilpotent block over F2, the char-p quotient over F13
    "verify_p13n2e12_semisimple_fq.json": [
        "--p", "13", "--n", "2", "--e", "12",
        "--which", "theorem-d,semisimple",
        "--field", "F2,F13",
    ],
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_report_bytes(name, flags):
    cmd = [sys.executable, *flags, "-m", "tsring", "verify", *GOLDEN_COMMANDS[name]]
    run = subprocess.run(cmd, capture_output=True, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / name).read_bytes()


# sha256 of the stdout of `tsring table`, recorded from the zero-padded
# (K, V) implementation the table of live terms replaced
TABLE_DIGESTS = {
    ((3, 2, 2), "json"): "0e8e832978406df76d89eca56a988e80f577cf5578e27de38a6fe98db187561e",
    ((3, 2, 2), "csv"): "8a1ea3062232dfe31f9763ec4dc24843f380e34bc5f4e8cebf912500c29d76e7",
    ((7, 2, 3), "json"): "387f363da31354918ffa8ddce65422bc0b6dd2f61fe72676705a36119659a479",
    ((7, 2, 3), "csv"): "f6bf1f5d4aad1b4784ea1d174eacaae2c6f82dd0b5abf7af72c68687019df94f",
    ((5, 2, 4), "json"): "4bbb85045957bd3732665b1e1254976b8f96244617457c9d1298324d2b7ed39f",
    ((5, 2, 4), "csv"): "623b84ca7c55385ad413c7573189fa47d410f1de97f677f6ee294fee11240705",
}


# sha256 of `tsring basis` stdout, as the enumeration of sorted
# canonical_coset representatives wrote it
BASIS_DIGESTS = {
    (3, 4, 2): "2bcec9ef9928d53225683f62e1ec95ea251e7d4c105a25d60c2b77db69814406",
    (7, 2, 3): "7b04508231d589f01953821d0f488d35568150cc35342f988b2c9ad566e8e614",
    (11, 1, 10): "8a00c6bbd9e67c4692b70641cee837afd09e529c5ee16e6e2c961a6252fb60b0",
    (2, 5, 1): "7c477ffa5c9a5cabf43ad308b2e954e04358926e0993827916aeee243bee5fc4",
    (13, 2, 12): "f08529960484ca0e4907f0ff87596245a38291f992d11e6490959c19e324bfbb",
}


@pytest.mark.parametrize("pne", sorted(BASIS_DIGESTS), ids=lambda t: "p{}n{}e{}".format(*t))
def test_basis_bytes(capsys, pne):
    args = ["--p", str(pne[0]), "--n", str(pne[1]), "--e", str(pne[2])]
    code, out = run_cli(["basis", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BASIS_DIGESTS[pne]


@pytest.mark.parametrize(
    "pne,fmt", sorted(TABLE_DIGESTS), ids=lambda x: x if isinstance(x, str) else "p{}n{}e{}".format(*x)
)
def test_table_bytes(capsys, pne, fmt):
    args = ["--p", str(pne[0]), "--n", str(pne[1]), "--e", str(pne[2]), "--format", fmt]
    code, out = run_cli(["table", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_DIGESTS[pne, fmt]


# Cold `verify --which theorem-d` on (17,2,16), d = 544, in a wrapper that
# reads its children's peak RSS.  The zero-padded d x d x 16 (K, V) it
# replaced peaked at 178.6 MB; the table of live terms at 55.8 MB
# (Python 3.11.7, numpy 2.4.6, Linux x86-64).
LARGE_E_PEAK_MB = 100

_LARGE_E_SCRIPT = """
import resource, subprocess, sys
args = ["verify", "--p", "17", "--n", "2", "--e", "16", "--which", "theorem-d"]
run = subprocess.run([sys.executable, "-m", "tsring", *args], capture_output=True)
sys.stdout.buffer.write(run.stdout)
print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
"""

# sha256 of that report, as the zero-padded implementation wrote it
LARGE_E_REPORT = "32a4e5a703f8d29f449d217dfd33c70bfedea6316c395e2722ae27ecaadc6465"


def test_large_e_theorem_d_memory_peak():
    run = subprocess.run(
        [sys.executable, "-c", _LARGE_E_SCRIPT], capture_output=True, check=True
    )
    code, peak_kb = map(int, run.stderr.split()[-2:])
    assert code == 0
    assert hashlib.sha256(run.stdout).hexdigest() == LARGE_E_REPORT
    assert peak_kb < LARGE_E_PEAK_MB * 1024
