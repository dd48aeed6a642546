"""Command-line surface: basis listings, multiplication tables, verification.

Reports are canonical JSON (sorted keys, integers as decimal strings,
rationals as "num/den"), so identical inputs produce byte-identical
output; wall-clock timing goes to stderr only.  Exit codes: 0 ok,
1 verification violation, 2 usage error, 3 inconclusive (a check that
could not decide, or was skipped at every requested field).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import (
    ArithmeticBound,
    ScanTooLarge,
    TheoremViolation,
    TsringError,
)
from .exactarith import _max_abs, scalar_ring
from .groupmodel import make_params
from .tring import (
    NonProj,
    ProjPair,
    _segment_sum,
    basis_label,
    basis_to_json,
    tring,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

SCHEMA = "tsring/1"

VERIFY_CHECKS = (
    "oracle",
    "assoc",
    "theorem-a",
    "theorem-b",
    "theorem-c",
    "theorem-d",
    "semisimple",
)


def _report(command: str, params, status: str, payload) -> str:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "params": {"p": str(params.p), "n": str(params.n), "e": str(params.e)},
        "status": status,
        "payload": payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_fields(spec: str):
    """The fields of a comma list of "Q" and "F<q>": Z is no field, and a
    list that names none is refused, as a report would certify nothing."""
    fields = [scalar_ring(token.strip()) for token in spec.split(",") if token.strip()]
    if not fields:
        raise ValueError("--field names no field")
    for K in fields:
        if not K.is_field:
            raise ValueError(f"{K.name} is not a field")
    return fields


# ------------------------------------------------------------------ commands


def cmd_basis(args) -> int:
    params = make_params(args.p, args.n, args.e)
    ring = tring(params)
    payload = {
        "count": str(ring.dimension()),
        "elements": [basis_to_json(b) for b in ring.basis],
    }
    _write(_report("basis", params, "ok", payload), args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    import csv
    import io

    params = make_params(args.p, args.n, args.e)
    ring = tring(params)
    basis, d = ring.basis, ring.dimension()
    # the terms of each product in basis order, the report order
    owner, cls, val = ring.terms(np.arange(d * d))
    order = np.lexsort((cls, owner))
    products = [[] for _ in range(d * d)]
    for pair, c, v in zip(owner[order].tolist(), cls[order].tolist(), val[order].tolist()):
        products[pair].append((basis[c], v))
    rows = [(basis[a], basis[b], products[a * d + b]) for a in range(d) for b in range(d)]
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "a": basis_to_json(a),
                    "b": basis_to_json(b),
                    "product": [
                        {"basis": basis_to_json(c), "coeff": str(v)}
                        for c, v in prod
                    ],
                }
                for a, b, prod in rows
            ]
        }
        _write(_report("table", params, "ok", payload), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a", "b", "product"])
        for a, b, prod in rows:
            term = "+".join(f"{v}*{basis_label(c)}" for c, v in prod)
            writer.writerow([basis_label(a), basis_label(b), term])
        _write(buf.getvalue(), args.out)
    return EXIT_OK


def _check_oracle(params, ring):
    """Every product e_a e_b by coset enumeration against the table, exactly.

    The oracle enumerates the representative pairs of its twist orbits and
    moves each row's products there from its representative's
    (`MackeyOracle.rows`); the check compares them with the terms of the
    table one row at a time, in basis order, so `compared`, the number of
    pairs before the first failure in lexicographic order, is exact.  A
    pair the oracle could not decide is inconclusive, and wins a tie.
    """
    from . import mackey

    d = ring.dimension()
    errors, rows = mackey.oracle(params).rows()
    error = min(errors, default=None)
    bad = None
    for a, (cols, cls, coeff) in enumerate(rows):
        if error is not None and error < a * d:
            break
        owner, table_cls, val = ring.terms(np.arange(a * d, (a + 1) * d))
        # closed form minus oracle, keyed by b * d + class
        keys = np.concatenate((owner * d + table_cls, cols * d + cls))
        first = _first_nonzero_sum(keys, np.concatenate((val, -coeff)))
        if first is not None:
            bad = a * d + first // d
            break
    pair = lambda k: [basis_label(ring.basis[i]) for i in divmod(k, d)]
    if error is not None and (bad is None or error <= bad):
        why = str(errors[error])
        return "inconclusive", {"pair": pair(error), "error": why, "compared": str(error)}
    if bad is not None:
        return "violation", {"pair": pair(bad), "compared": str(bad)}
    return "ok", {"compared": str(d * d)}


def _first_nonzero_sum(keys, vals):
    """The least key whose values sum to nonzero, or None."""
    order = keys.argsort(kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    bad = np.flatnonzero(np.add.reduceat(vals, starts)) if len(keys) else ()
    return int(keys[starts[bad[0]]]) if len(bad) else None


# (key, value) pairs of one chunk of the associativity check, both sides
# together; a chunk's temporaries then stay near 0.25 MB
ASSOC_CHUNK_ENTRIES = 1 << 12


def _first_nonassociative(ring, ab):
    """First failing triple among (a, b, c), ab = a * d + b, or None.

    The triple (a, b, c) is numbered ab * d + c.  Both sides of each
    triple expand, over the live terms of the table, into (key, value)
    pairs with key = number * d + basis index, the right side negated; a
    nonzero sum over equal keys is a failure.
    """
    d = ring.dimension()
    a, b = np.divmod(ab, d)
    cols = np.arange(d)
    # the triple (ab[r], c) is number ab[0] * d + triple[r, c]
    triple = (ab - ab[0])[:, None] * d + cols
    # (e_a e_b) e_c: each term v e_m of e_a e_b times e_c for every c, the
    # pairs m * d + c
    r, m, v = ring.terms(ab)
    left = (m[:, None] * d + cols).ravel()
    left_triple, left_v = triple[r].ravel(), np.repeat(v, d)
    # e_a (e_b e_c): e_a times each term v e_m of e_b e_c, the pair a * d + m
    rc, m, right_v = ring.terms((b[:, None] * d + cols).ravel())
    right = a[rc // d] * d + m
    owner, cls, val = ring.terms(np.concatenate((left, right)))
    keys = np.concatenate((left_triple, triple.ravel()[rc]))[owner] * d + cls
    val *= np.concatenate((left_v, -right_v))[owner]
    first = _first_nonzero_sum(keys, val)
    return None if first is None else ab[0] * d + first // d


def _assoc_chunks(ring, rows):
    """The ascending (a, b) rows `rows` cut into chunks of about
    ASSOC_CHUNK_ENTRIES entries.

    (a, b) expands on the left into the terms of e_m e_c over the terms
    e_m of e_a e_b and all c, counted exactly, and on the right into no
    more than the terms of e_b e_c over all c times the most terms of any
    e_a e_m.  A chunk starts with each row that begins past a multiple of
    the bound.
    """
    d = ring.dimension()
    size = ring.term_counts()
    per_row = size.sum(axis=1)
    owner, m, _ = ring.terms(rows)
    entries = _segment_sum(len(rows), owner, per_row[m])
    a, b = np.divmod(rows, d)
    entries += size.max(axis=1)[a] * per_row[b]
    chunk = (np.cumsum(entries) - entries) // ASSOC_CHUNK_ENTRIES
    return np.split(rows, np.flatnonzero(np.diff(chunk)) + 1)


def _first_failure(ring, rows):
    """The number of the first failing triple (a, b, c) over the ascending
    (a, b) rows `rows` and all c, or None; chunk by chunk, in order."""
    for chunk in _assoc_chunks(ring, rows):
        first = _first_nonassociative(ring, chunk)
        if first is not None:
            return first
    return None


def _spanning_generators(ring, candidates):
    """The candidates, in order, that the closure of those kept before them
    has not reached, if the closure reaches every class; else None.

    A kept candidate is reached, and a class c is reached once some product
    e_g e_b, with g kept and b reached, has v e_c as its only live term
    outside the reached classes.  By induction each reached e_c is a
    rational combination of the right-nested words g_1(g_2(...g_k)) over
    the kept classes: e_g e_b is one, and so is every other term of it.  So
    reaching every class proves, exactly, that the words span the ring over
    Q.  Each round gathers the terms of every (kept, reached) product and
    counts each product's terms outside.
    """
    d = ring.dimension()
    reached = np.zeros(d, dtype=bool)
    gens = []
    for c in candidates:
        if reached.all():
            break
        if reached[c]:
            continue
        gens.append(c)
        reached[c] = True
        while True:
            pairs = (np.array(gens)[:, None] * d + np.flatnonzero(reached)).ravel()
            owner, cls, _ = ring.terms(pairs)
            outside = ~reached[cls]
            alone = _segment_sum(len(pairs), owner, outside.astype(np.int64)) == 1
            new = cls[outside & alone[owner]]
            if not len(new):
                break
            reached[new] = True
    return gens if reached.all() else None


def _generator_candidates(ring):
    """The identity M[n,1,0], P[0,0], M[i,1,0] for i < n, then the other
    level-n classes, which generate Γ_n × Z/e: basis indices, in order."""
    n, one = ring.params.n, ring.index[ring.one_elem]
    top = ring.level_range(n)
    return [
        one,
        ring.index[ProjPair(0, 0)],
        *(ring.index[NonProj(i, 1, 0)] for i in range(1, n)),
        *(c for c in range(top.start, top.stop) if c != one),
    ]


def _left_nucleus_generators(ring):
    """Basis classes S in the left nucleus whose right-nested words span the
    ring, or None.

    S is `_spanning_generators` of `_generator_candidates`.  It lies in the
    left nucleus when no triple (g, a, b) with g in S fails: |S| d^2
    triples, rows g * d + a of the scan.
    """
    d = ring.dimension()
    gens = _spanning_generators(ring, _generator_candidates(ring))
    if gens is None:
        return None
    rows = (np.sort(gens)[:, None] * d + np.arange(d)).ravel()
    return gens if _first_failure(ring, rows) is None else None


def _check_assoc(params, ring):
    """(e_a e_b) e_c = e_a (e_b e_c) for all d^3 basis triples, exactly.

    First a certificate.  The Teichmüller identity
    (wx,y,z) - (w,xy,z) + (w,x,yz) = w(x,y,z) + (w,x,y)z holds in any
    algebra, so the left nucleus N = {x : (x,a,b) = 0 for all a, b} is
    closed under products.  If basis classes S lie in N and the
    right-nested words g_1(g_2(...g_k)) over S span the ring, N is the
    whole ring, and every triple holds (`_left_nucleus_generators`).  The
    span is certified over Q without elimination: each class is reached as
    the one new term of a product of a generator and a class reached
    before (`_spanning_generators`), and an integer table associative over
    Q is associative over Z.

    Failing that, every triple is scanned over the live terms of the
    table.  Chunks of (a, b) rows run in order, so `checked`, the number
    of triples before the first failure in lexicographic order, is exact.
    """
    d = ring.dimension()
    most = _max_abs(ring.term_counts())
    # one row of the table at a time, so no d^2-term gather is held
    vmax = max(_max_abs(ring.terms(np.arange(a * d, (a + 1) * d))[2]) for a in range(d))
    # a key sums at most 2 * most^2 products of two coefficients
    if most * most * vmax * vmax >= 1 << 62:
        raise ArithmeticBound(
            f"{most} terms of coefficients up to {vmax} may overflow int64 sums"
        )
    if _left_nucleus_generators(ring) is None:
        first = _first_failure(ring, np.arange(d * d))
        if first is not None:
            return "violation", {"checked": str(first)}
    return "ok", {"checked": str(d**3)}


def _check_theorem_a(params, ring):
    from . import cartan

    c = cartan.cartan_matrix(params)
    certs = cartan.orthogonal_projective_idempotents(c)
    ok = len(certs) == params.e - 1 and all(
        cert.checks["idempotent"]
        and cert.checks["rank_one_corner"]
        and len(cert.checks["orthogonal_to"]) == len(certs) - 1
        for cert in certs
    )
    return ("ok" if ok else "violation"), {"count": str(len(certs))}


def _skipped_unless_certified(status, results):
    """A check whose every field was skipped certified nothing."""
    if all(r.get("status") == "skipped (char p)" for r in results):
        return "skipped"
    return status


def _check_theorem_b(params, ring, fields):
    from . import cartan

    results = []
    status = "ok"
    for K in fields:
        if K.characteristic == params.p:
            results.append({"field": K.name, "status": "skipped (char p)"})
            continue
        central = cartan.projective_identity_is_central(ring, K)
        ident = cartan.projective_identity_element(ring, K)
        idem = ring.mult(ident, ident) == ident
        ok = central and idem
        if not ok:
            status = "violation"
        results.append({"field": K.name, "central": central, "idempotent": idem})
    return _skipped_unless_certified(status, results), {"fields": results}


def _check_theorem_c(params, ring, scan_bound):
    from . import blocks

    decomposition = blocks.integral_primitive_decomposition(params)
    report = blocks.rational_central_idempotent_scan(params, bound=scan_bound)
    ok = report.only_zero_and_one and len(decomposition) == params.e
    payload = {
        "decomposition_size": str(len(decomposition)),
        "scan_primitives": str(report.primitive_count),
        "scan_sums": str(report.sums_checked),
        "integral_masks": [str(m) for m in report.integral_masks],
        "out_of_verification_scope": [
            "primitivity of the residual idempotent",
            "global bound on orthogonal idempotent families over Z",
        ],
    }
    return ("ok" if ok else "violation"), payload


def _check_theorem_d(params, ring, fields):
    from . import blocks

    results = []
    for K in fields:
        if K.characteristic == params.p:
            results.append({"field": K.name, "status": "skipped (char p)"})
            continue
        decomp = blocks.central_decomposition(params, K)
        results.append({"field": K.name, "dims": [str(d) for d in decomp.dims]})
    return _skipped_unless_certified("ok", results), {"fields": results}


_DECISIONS = {"semisimple": "Yes", "inconclusive": "Inconclusive"}


def _check_semisimple(params, ring, fields):
    from . import blocks

    results = []
    status = "ok"
    for K in fields:
        q = K.characteristic
        decision = blocks.semisimplicity_decide(params, q)
        invertible = blocks.stated_criterion(params, q)
        # the invertibility criterion holds off characteristic p; at p the
        # sum of the projective classes is central nilpotent (criterion 9)
        expected = q != params.p and invertible
        verdict_yes = decision.verdict == "semisimple"
        if decision.verdict == "inconclusive":
            if status == "ok":
                status = "inconclusive"
        elif verdict_yes != expected:
            status = "violation"
        results.append(
            {
                "field": K.name,
                "decision": _DECISIONS.get(decision.verdict, "No"),
                "method": decision.method,
                "aut_order_invertible": "Yes" if invertible else "No",
            }
        )
    return status, {"fields": results}


def cmd_verify(args) -> int:
    params = make_params(args.p, args.n, args.e)
    ring = tring(params)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    if not which:
        raise ValueError("--which names no check")
    for w in which:
        if w not in VERIFY_CHECKS:
            raise ValueError(f"unknown check {w!r}")
    fields = _parse_fields(args.field)
    checks = []
    overall = "ok"
    for w in which:
        try:
            if w == "oracle":
                status, payload = _check_oracle(params, ring)
            elif w == "assoc":
                status, payload = _check_assoc(params, ring)
            elif w == "theorem-a":
                status, payload = _check_theorem_a(params, ring)
            elif w == "theorem-b":
                status, payload = _check_theorem_b(params, ring, fields)
            elif w == "theorem-c":
                status, payload = _check_theorem_c(params, ring, args.scan_bound)
            elif w == "theorem-d":
                status, payload = _check_theorem_d(params, ring, fields)
            else:
                status, payload = _check_semisimple(params, ring, fields)
        except TheoremViolation as exc:
            status, payload = "violation", {"error": str(exc)}
        except ScanTooLarge as exc:
            status, payload = "inconclusive", {"error": str(exc)}
        checks.append({"name": w, "status": status, "details": payload})
        if status == "violation":
            overall = "violation"
        elif status in ("inconclusive", "skipped") and overall == "ok":
            overall = "inconclusive"
    _write(_report("verify", params, overall, {"checks": checks}), args.out)
    if overall == "violation":
        return EXIT_VIOLATION
    if overall == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------- dispatcher


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsring",
        description="exact bimodule class ring computations for D semidirect E",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="the prime p")
        p.add_argument("--n", type=int, required=True, help="|D| = p^n")
        p.add_argument("--e", type=int, required=True, help="|E| = e, e | p-1")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_basis = sub.add_parser("basis", help="list the canonical basis")
    common(p_basis)

    p_table = sub.add_parser("table", help="full structure-constant table")
    common(p_table)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run verification checks")
    common(p_verify)
    p_verify.add_argument(
        "--which",
        default=",".join(VERIFY_CHECKS),
        help="comma list from: " + ", ".join(VERIFY_CHECKS),
    )
    p_verify.add_argument(
        "--field",
        default="Q",
        help='comma list of "Q" or "F<q>" with q prime',
    )
    p_verify.add_argument(
        "--scan-bound",
        type=_nonnegative_int,
        default=20,
        dest="scan_bound",
        help="cap on the connected components theorem-c lists the unions of",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    try:
        if args.command == "basis":
            code = cmd_basis(args)
        elif args.command == "table":
            code = cmd_table(args)
        else:
            code = cmd_verify(args)
    except (TsringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def entry():
    raise SystemExit(main())
