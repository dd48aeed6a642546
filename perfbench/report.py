"""Run the benchmark over several seeds per workload and summarise it.

usage: python3 perfbench/report.py [--runs N] [--first-seed S] [--trace 0|1] [WORKLOAD ...]

Runs `perfbench/run.py` N times per workload (default: every workload in
BENCHMARK.json), seeds S, S+1, ..., for BENCHMARK.json's run_seconds.

--trace 0  prints each end-to-end metric by name with its unit: median,
           first and third quartile, sample count, and the spread
           (Q3 - Q1) / median next to the metric's bound; then failed_frac,
           failed over attempted verify calls.
--trace 1  prints the median of each per-layer metric, and checks that
           every `.calls` count is identical across the runs and that
           every run's self-checks passed.

Exits 1 if a run fails, a call gives a verdict other than the expected
one, or a self-check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    selfcheck = next((ln for ln in lines if ln.startswith("selfcheck: ")), "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, selfcheck
    return json.loads(lines[-1]), selfcheck


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, selfcheck = one_run(workload, seed, bench["run_seconds"], args.trace)
            if result is None:
                print(f"{workload} seed {seed}: run FAILED")
                ok = False
                continue
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong verdict or failed call")
                ok = False
            if args.trace and selfcheck != "selfcheck: ok":
                print(f"{workload} seed {seed}: {selfcheck}")
                ok = False
            results.append(result)
        if not results:
            continue
        n = len(results)
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            line = (f"{workload} {m['name']} [{m['unit']}]: median {med:.6g} "
                    f"q1 {q1:.6g} q3 {q3:.6g} n {n}")
            if "bound" in m:
                spread = (q3 - q1) / med if med else float("inf")
                line += f" spread {spread:.4f} bound {m['bound']}"
            print(line)
            if args.trace and m["name"].endswith(".calls") and len(set(values)) > 1:
                print(f"{workload} {m['name']}: counts differ between runs: {values}")
                ok = False
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload} failed_frac [ratio]: {failed / attempted:.6g} "
              f"({failed} of {attempted} verify calls, n {n})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
