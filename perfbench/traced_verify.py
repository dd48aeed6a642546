"""Run `tsring verify` one check at a time in this process, traced.

usage: python3 perfbench/traced_verify.py OUT P N E FIELDS CHECK[,CHECK...]

Run from the root of the repository.  Each check is one
`cli.main(["verify", ..., "--which", CHECK])` call inside a span named
`cli.check.<CHECK>`; the report each call prints is captured, not shown.
OUT receives the reports, exit codes and the aggregated trace as JSON.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tracer import Tracer  # noqa: E402


def main(argv):
    out, p, n, e, fields, checks = argv
    tracer = Tracer()
    tracer.install()
    from tsring import cli

    results = []
    for check in checks.split(","):
        buf = io.StringIO()
        with tracer.span(f"cli.check.{check}"), redirect_stdout(buf):
            code = cli.main(
                ["verify", "--p", p, "--n", n, "--e", e,
                 "--field", fields, "--which", check]
            )
        results.append({"check": check, "exit": code, "report": buf.getvalue()})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"checks": results, "trace": tracer.dump()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
