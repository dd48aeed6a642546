"""tsring benchmark: cold-start `tsring verify` calls, one fresh process at a time.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from `src/`, as
`python -m tsring`, in a fresh interpreter per call, because a user pays
interpreter start, imports and the empty `lru_cache`s on every CLI run.
The load is a closed loop with one client: each call starts after the
previous one has exited.

Workloads, their calls and their expected verdicts are in
`workloads.json`; the metric names, units and bounds in `BENCHMARK.json`.
The seed permutes the order of the calls and never changes their set.

--trace 0 (end-to-end):
  setup_s      median, over repeats, of the summed wall time of one
               `tsring basis` process per instance of the workload; the
               repeats run SETUP_PER_SLOT at a time before each verify
               call and after the last, so they sample the whole run;
  verify_s     summed wall time of the workload's `tsring verify`
               processes, launch to exit (median over passes; passes
               repeat until --seconds have gone, at least one);
  peak_rss_mb  largest peak RSS of any verify process.
--trace 1 (per layer): one untraced pass of the CLI calls, then one pass
  of `traced_verify.py` per call, which runs the same checks one at a
  time under the tracer.  Per-layer numbers are summed over the calls.

Every call is checked against its expected verdict: exit code 0, overall
and per-check status, and the method-independent facts of its report.  A
crash, a timeout, a non-zero exit or a differing fact counts as a failed
call.  The last line of output is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PER_SLOT = 2
CALL_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 165.0  # the run must end within 180 s, hung calls included

VERIFY_CHECKS = ("oracle", "assoc", "theorem-a", "theorem-b", "theorem-c", "theorem-d",
                 "semisimple")

# Report keys that a correct but different certificate may change.
UNPINNED = {"method", "scan_sums", "scan_primitives", "out_of_verification_scope"}


class UsageError(Exception):
    pass


# ------------------------------------------------------------------ processes


def run_process(argv, out_path: Path, timeout: float) -> dict:
    """Run `python argv...` to completion, stdout to out_path.

    Wall time runs from launch to exit.  Resource usage is this child's
    own, from wait4, never the running totals of RUSAGE_CHILDREN.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    killed = []
    lock = threading.Lock()
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )

        def kill():
            with lock:
                if not killed:
                    killed.append(True)
                    os.kill(pid, signal.SIGKILL)

        def disarm() -> bool:
            with lock:
                fired = bool(killed)
                killed.append(False)
            timer.cancel()
            timer.join()
            return fired

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is disarmed; a kill that lands meanwhile hits a zombie.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            disarm()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
        timed_out = disarm()
        _, status, usage = os.wait4(pid, 0)
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


# ------------------------------------------------------------------ verdicts


def facts(report: dict) -> dict:
    """The method-independent content of a verify report."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in UNPINNED}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return {
        "status": report["status"],
        "checks": {
            c["name"]: {"status": c["status"], **strip(c["details"])}
            for c in report["payload"]["checks"]
        },
    }


def call_args(call: dict) -> list[str]:
    return [
        "verify", "--p", str(call["p"]), "--n", str(call["n"]), "--e", str(call["e"]),
        "--which", call["which"], "--field", call["field"],
    ]


def call_label(call: dict) -> str:
    return f"({call['p']},{call['n']},{call['e']}) {call['which']} {call['field']}"


def judge_cli(call: dict, proc: dict, out_path: Path) -> str | None:
    """None if the call gave its expected verdict, else why not."""
    if proc["timed_out"]:
        return "timed out"
    if proc["exit"] != 0:
        return f"exit {proc['exit']}"
    try:
        got = facts(json.loads(out_path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got != call["expected"]:
        return f"verdict differs: {json.dumps(got, sort_keys=True)}"
    return None


def judge_traced(call: dict, proc: dict, out_path: Path):
    """(reason or None, trace or None) for one traced_verify.py process."""
    if proc["timed_out"]:
        return "timed out", None
    if proc["exit"] != 0:
        return f"exit {proc['exit']}", None
    try:
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        for res in doc["checks"]:
            if res["exit"] != 0:
                return f"{res['check']}: exit {res['exit']}", doc["trace"]
            got = facts(json.loads(res["report"]))["checks"][res["check"]]
            if got != call["expected"]["checks"][res["check"]]:
                return f"{res['check']}: verdict differs: {json.dumps(got)}", doc["trace"]
        return None, doc["trace"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable trace output: {exc!r}", None


# ------------------------------------------------------------------ context


def context() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ phases


class Run:
    def __init__(self, workload: str, spec: dict, seed: int):
        self.workload = workload
        self.spec = spec
        self.rng = random.Random(seed)
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_DEADLINE_S
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.setup_failed = 0
        self.counter = 0

    def _out_path(self, stem: str) -> Path:
        self.counter += 1
        return OUT / f"{self.workload}-{self.counter:03d}-{stem}.out"

    def _timeout(self) -> float:
        return min(CALL_TIMEOUT_S, self.deadline - time.perf_counter())

    def instances(self) -> list[tuple]:
        return sorted({(c["p"], c["n"], c["e"]) for c in self.spec["calls"]})

    def warm_up(self):
        """One untimed basis call: byte-compiles src/ and warms the file cache."""
        p, n, e = self.instances()[0]
        path = self._out_path("warmup")
        proc = run_process(
            ["-m", "tsring", "basis", "--p", str(p), "--n", str(n), "--e", str(e)],
            path, self._timeout(),
        )
        if proc["exit"] != 0:
            raise UsageError(f"tsring does not start here: {path.with_suffix('.err')}")

    def setup(self) -> list[float]:
        """Summed wall time of one fresh `tsring basis` per instance, per repeat."""
        sums = []
        for _ in range(SETUP_PER_SLOT):
            total = 0.0
            for p, n, e in self.rng.sample(self.instances(), len(self.instances())):
                path = self._out_path(f"basis-{p}-{n}-{e}")
                proc = run_process(
                    ["-m", "tsring", "basis", "--p", str(p), "--n", str(n), "--e", str(e)],
                    path, self._timeout(),
                )
                why = None
                if proc["timed_out"] or proc["exit"] != 0:
                    why = f"exit {proc['exit']}, timed out {proc['timed_out']}"
                else:
                    try:
                        count = json.loads(path.read_text())["payload"]["count"]
                    except (ValueError, KeyError, TypeError) as exc:
                        count = repr(exc)
                    if count != str(e * e + p**n - 1):
                        why = f"basis count {count}"
                self._record(f"basis ({p},{n},{e})", proc, why, verify=False)
                total += proc["wall_s"]
            sums.append(total)
        return sums

    def cli_pass(self, setup_sums: list | None = None) -> list[dict]:
        """One pass over the calls in seeded order; with setup_sums, set-up
        repeats run before each call and after the last and are appended."""
        procs = []
        for call in self.rng.sample(self.spec["calls"], len(self.spec["calls"])):
            if setup_sums is not None:
                setup_sums += self.setup()
            if self._timeout() < 1.0:
                self._record(call_label(call), None, "not started: run deadline")
                continue
            path = self._out_path(f"verify-{call['p']}-{call['n']}-{call['e']}")
            proc = run_process(["-m", "tsring", *call_args(call)], path, self._timeout())
            self._record(call_label(call), proc, judge_cli(call, proc, path))
            procs.append(proc)
        if setup_sums is not None:
            setup_sums += self.setup()
        return procs

    def traced_pass(self) -> tuple[list[dict], list[dict]]:
        procs, traces = [], []
        for call in self.rng.sample(self.spec["calls"], len(self.spec["calls"])):
            if self._timeout() < 1.0:
                self._record("traced " + call_label(call), None, "not started: run deadline")
                continue
            path = self._out_path(f"traced-{call['p']}-{call['n']}-{call['e']}")
            proc = run_process(
                [str(HERE / "traced_verify.py"), str(path.with_suffix(".json")),
                 str(call["p"]), str(call["n"]), str(call["e"]), call["field"], call["which"]],
                path, self._timeout(),
            )
            why, trace = judge_traced(call, proc, path.with_suffix(".json"))
            self._record("traced " + call_label(call), proc, why)
            procs.append(proc)
            if trace is not None:
                traces.append(trace)
        return procs, traces

    def _record(self, label, proc, why, verify=True):
        if verify:
            self.attempted += 1
            self.failed += why is not None
        elif why is not None:
            self.setup_failed += 1
        self.records.append({"call": label, "proc": proc, "failed": why})
        wall = f"{proc['wall_s']:.3f} s, {proc['rss_mb']:.1f} MB" if proc else "-"
        print(f"  {label}: {wall}: {'ok' if why is None else 'FAILED ' + why}", flush=True)


# ------------------------------------------------------------------ per layer


def merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    functions: dict[str, dict] = {}
    edges: dict[tuple, int] = {}
    for trace in traces:
        for name, rec in trace["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "not_none": 0})
            for key in acc:
                acc[key] += rec[key]
        for edge in trace["edges"]:
            key = (edge["parent"], edge["child"])
            edges[key] = edges.get(key, 0) + edge["calls"]
    return functions, edges


def per_layer_value(name: str, functions: dict, edges: dict, traced_names: set) -> float:
    def rec(fn):
        if traced_names and fn not in traced_names:
            raise UsageError(f"per-layer metric {name}: {fn} is not traced")
        return functions.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0, "not_none": 0})

    if name == "mackey.star_module.nonzero_ratio":
        r = rec("mackey.MackeyOracle.star_module")
        return r["not_none"] / r["calls"] if r["calls"] else 0.0
    if name == "mackey.canonicalize.conj_per_call":
        canon = rec("mackey.MackeyOracle.canonicalize")
        rec("groupmodel.conj")
        conj = edges.get(("mackey.MackeyOracle.canonicalize", "groupmodel.conj"), 0)
        return conj / canon["calls"] if canon["calls"] else 0.0
    fn, _, stat = name.rpartition(".")
    if stat not in ("calls", "s", "self_s"):
        raise UsageError(f"per-layer metric {name}: unknown statistic {stat}")
    return rec(fn)[stat]


def self_checks(run: Run, functions: dict) -> list[str]:
    """The workload separation the benchmark's rationale claims."""
    problems = []
    for pattern in run.spec["zero_calls"]:
        for name, rec in functions.items():
            hit = name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern
            if hit and rec["calls"]:
                problems.append(f"{name} called {rec['calls']} times")
    # theorem-c builds one decomposition over Q, theorem-d one per field of
    # characteristic other than p, and nothing else builds one.
    want = 0
    for call in run.spec["calls"]:
        checks = call["which"].split(",")
        if "theorem-c" in checks:
            want += 1
        if "theorem-d" in checks:
            fields = call["field"].split(",")
            want += sum(1 for f in fields if f == "Q" or int(f[1:]) != call["p"])
    got = functions.get("blocks.central_decomposition", {"calls": 0})["calls"]
    if got != want:
        problems.append(f"blocks.central_decomposition called {got} times, expected {want}")
    return problems


# ------------------------------------------------------------------ main


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "tsring" / "__init__.py").is_file():
        raise UsageError(f"no tsring sources under {ROOT / 'src'}")
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    if args.workload not in workloads:
        raise UsageError(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob(f"{args.workload}-*"):
        stale.unlink()

    ctx = context()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("context " + json.dumps(ctx, sort_keys=True), flush=True)
    run = Run(args.workload, workloads[args.workload], args.seed)
    run.warm_up()

    if args.trace == 0:
        passes, rss, setup_sums = [], [], []
        verify_started = time.perf_counter()
        while True:
            procs = run.cli_pass(setup_sums)
            passes.append(sum(p["wall_s"] for p in procs))
            rss += [p["rss_mb"] for p in procs]
            now = time.perf_counter()
            if now - verify_started >= args.seconds or now + passes[-1] > run.deadline:
                break
        values = {
            "verify_s": statistics.median(passes),
            "setup_s": statistics.median(setup_sums),
            "peak_rss_mb": max(rss) if rss else 0.0,
        }
        print(f"verify_s passes {len(passes)}: {passes}")
        print(f"setup_s repeats {len(setup_sums)}: {setup_sums}")
        wanted = bench["end_to_end"]
        problems = []
    else:
        plain = run.cli_pass()
        traced, traces = run.traced_pass()
        functions, edges = merge_traces(traces)
        traced_names = set()  # stays empty if no traced call produced output
        for trace in traces:
            traced_names.update(trace["traced"])
        if traced_names:
            traced_names.update(f"cli.check.{c}" for c in VERIFY_CHECKS)
        values = {
            "proc.cpu_s": sum(p["cpu_s"] for p in plain),
            "proc.trace_overhead_s": sum(p["wall_s"] for p in traced)
            - sum(p["wall_s"] for p in plain),
        }
        wanted = bench["per_layer"]
        for metric in wanted:
            if metric["name"] not in values:
                values[metric["name"]] = per_layer_value(
                    metric["name"], functions, edges, traced_names
                )
        problems = self_checks(run, functions)
        print("selfcheck: " + ("ok" if not problems else "FAILED " + "; ".join(problems)))

    failed_frac = run.failed / run.attempted
    print(f"failed_frac {failed_frac} ({run.failed} of {run.attempted} verify calls)")
    if run.setup_failed:
        print(f"setup: {run.setup_failed} basis calls FAILED")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run.failed == 0 and run.setup_failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "context": ctx, "workload": args.workload, "seed": args.seed,
                   "selfcheck": problems, "calls": run.records}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
