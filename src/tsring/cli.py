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

from .errors import ScanTooLarge, TheoremViolation, TsringError
from .model import basis_label, basis_to_json, build_basis, make_params

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
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None


def _parse_fields(spec: str):
    """The fields of a comma list of "Q" and "F<q>": Z is no field, and a
    list that names none is refused, as a report would certify nothing."""
    from .exactarith import scalar_ring

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
    basis = build_basis(params)
    payload = {"count": str(len(basis)), "elements": [basis_to_json(b) for b in basis]}
    _write(_report("basis", params, "ok", payload), args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    import csv
    import io

    import numpy as np

    from .tring import tring

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
    import numpy as np

    from . import mackey
    from .tring import _first_nonzero_sum

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


def _check_assoc(params, ring):
    """(e_a e_b) e_c = e_a (e_b e_c) for all d^3 basis triples, exactly.

    First a certificate by transport (`tring._transported`).  A left twist
    is a basis permutation whose linear extension tau has tau(x) y = tau(xy)
    on basis pairs, hence everywhere; a right twist rho has x rho(y) =
    rho(xy).  So the associator (x, y, z) = (xy)z - x(yz) obeys
    (tau x, y, z) = tau (x, y, z) and (x, y, rho z) = rho (x, y, z).  The
    twists are read off the labels and checked on all d^2 pairs, so their
    origin needs no trust.  Each must be bijective: then every class is a
    composite image of the least member of its orbit, which a map that
    merges two classes need not give.  So if the triples (a, b, c) with a
    least in its left orbit and c least in its right one hold, all do.

    Failing that, every triple is scanned over the live terms of the
    table.  Chunks of (a, b) rows run in order, so `checked`, the number
    of triples before the first failure in lexicographic order, is exact.
    """
    import numpy as np

    from .tring import _first_failure, _require_int64_assoc, _transported

    d = ring.dimension()
    _require_int64_assoc(ring)
    if not _transported(ring):
        first = _first_failure(ring, np.arange(d * d), np.arange(d))
        if first is not None:
            return "violation", {"checked": str(first)}
    return "ok", {"checked": str(d**3)}


def _check_theorem_a(params, ring):
    from . import cartan

    members = cartan.orthogonal_projective_idempotents(cartan.cartan_matrix(params))
    ok = len(members) == params.e - 1
    return ("ok" if ok else "violation"), {"count": str(len(members))}


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
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    if not which:
        raise ValueError("--which names no check")
    for w in which:
        if w not in VERIFY_CHECKS:
            raise ValueError(f"unknown check {w!r}")
    # the largest module the run needs, blocks or else tring, compiles before
    # it imports numpy, so that numpy's import reuses the heap the compiling
    # frees rather than adding to it
    if {"theorem-c", "theorem-d", "semisimple"} & set(which):
        from . import blocks
    from .tring import tring

    fields = _parse_fields(args.field)
    ring = tring(params)
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
