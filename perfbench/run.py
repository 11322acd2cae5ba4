"""Closed-loop benchmark of the `wpsd all` command, run in-process.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 35 --trace 0

Run from the root of a checkout that holds ``src/wpsd``.  One client sends
one problem at a time to ``wpsd.cli.main(["all", problem, "--out", report])``
and sends the next only when the report is written.  The problems are the
workload's cycle list, generated from ``--seed`` by ``fixtures.py`` before any
timing; the loop repeats whole cycles until ``--seconds`` of report time,
give or take half a cycle, and at least 100 reports are done.  Every report
is then checked against its raw problem by ``verify.py``, outside the timed
section.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each cycle
once untraced and once under ``tracer.py``, alternating which goes first, and
prints per-layer averages per report; the spans go to
``.bench_out/trace-<workload>-<seed>.json``.  The metric names and units
are those declared in ``BENCHMARK.json``.  The last line of standard output
is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: at these sizes a second one spins, doubling the CPU
# time without shortening a report.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# size -> (fresh interpreters timed for setup_s before the loop and again
# after it, minimum reports per timed run).  Timing them at both ends spans
# the run, as the loop does, rather than a few seconds of the host's load.
# 100 reports leave ten samples beyond the 90th percentile.
SETTINGS = {"full": (8, 100), "tiny": (1, 1)}
# A run must exit within 180 s, so the loop stops after this much wall time.
# A timed run stopped here with fewer than the minimum reports is not correct.
WALL_LIMIT_S = 140.0
SETUP_PROBLEM = {
    "space": {"kind": "scalar", "dim": 1},
    "kernel": {"m": 1, "table": [[[[[1.0, 0.0]]]]]},
    "tasks": ["validate"],
}


def generate_fixtures(workload: str, seed: int, size: str, out_dir: str) -> list[dict]:
    """Problem files from a separate process, so its memory is not counted here."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "fixtures.py"), "--workload", workload,
         "--seed", str(seed), "--size", size, "--out", out_dir],
        check=True, timeout=600,
    )
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)["problems"]


def measure_setup(work: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running `wpsd validate` on a 1-point kernel."""
    problem, report = os.path.join(work, "setup.json"), os.path.join(work, "setup-report.json")
    with open(problem, "w") as fh:
        json.dump(SETUP_PROBLEM, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "wpsd.cli", "validate", problem, "--out", report]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A wait with a timeout polls in steps of up to 50 ms, which would
        # round the time up; a timer kills a hung interpreter instead.
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        os.remove(report)
    return times


class Loop:
    """Closed-loop attempts over the cycle list, each re-verified after it ends."""

    def __init__(self, entries, work, verify):
        self.entries = entries
        self.work = work
        self.verify = verify
        self.raw = [verify.RawProblem(os.path.join(work, e["file"])) for e in entries]
        self.attempted = self.failed = self.tasks = 0
        self.digits: list[float] = []
        self.errors: list[str] = []

    def attempt(self, i: int, call) -> float:
        """One report through ``call(i, argv)``; returns its wall time."""
        entry = self.entries[i]
        out = os.path.join(self.work, f"report{i:03d}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = ["all", os.path.join(self.work, entry["file"]), "--out", out]
        self.attempted += 1
        started = time.perf_counter()
        try:
            code = call(i, argv)
        except Exception as exc:  # a raising CLI is a failed attempt, not a crash
            elapsed = time.perf_counter() - started
            self._fail(entry, f"raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - started
        try:
            self.digits.append(
                self.verify.verify_report(self.raw[i], out, code, entry["expected_exit"])
            )
        except Exception as exc:  # any error while checking a report fails that report
            self._fail(entry, f"{type(exc).__name__}: {exc}")
            return elapsed
        self.tasks += len(self.raw[i].tasks)  # the check above matched them to the report's
        return elapsed

    def _fail(self, entry, why: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{entry['file']}: {why}")
            print(f"perfbench: failed {entry['file']}: {why}", file=sys.stderr)

    def warm_up(self, call):
        """One untimed, uncounted report per family, so lazy imports are done."""
        seen = set()
        for i, entry in enumerate(self.entries):
            if entry["family"] not in seen:
                seen.add(entry["family"])
                call(i, ["all", os.path.join(self.work, entry["file"]), "--out",
                         os.path.join(self.work, "warmup.json")])


def timed_run(loop: Loop, seconds: float, min_reports: int, setup) -> dict:
    """The closed loop, with ``setup()`` timing fresh interpreters before and after it."""
    from wpsd import cli

    def call(_, argv):
        return cli.main(argv)

    setup_times = setup()
    loop.warm_up(call)
    times: list[float] = []
    wall0 = time.perf_counter()
    cycle_s = 0.0
    # Whole cycles keep the mix exact; stopping within half a cycle of
    # `seconds` keeps the run's length close to it.
    while sum(times) + cycle_s / 2 < seconds or len(times) < min_reports:
        cycle = [loop.attempt(i, call) for i in range(len(loop.entries))]
        times.extend(cycle)
        cycle_s = sum(cycle)
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    if len(times) < min_reports:
        why = f"stopped after {WALL_LIMIT_S:.0f} s with {len(times)} of {min_reports} reports"
        loop.errors.append(why)
        print(f"perfbench: {why}", file=sys.stderr)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    done = loop.attempted - loop.failed
    metrics = {
        "setup_s": statistics.median(setup_times + setup()),
        "report_s.p50": statistics.median(times),
        "report_s.p90": deciles[8],
        "reports_per_s": done / sum(times),
        "accuracy_digits.min": min(loop.digits, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "samples": len(times), "complete": len(times) >= min_reports}


def traced_run(loop: Loop, seconds: float, spans_path: str) -> dict:
    from wpsd import cli

    import tracer

    tr = tracer.Tracer()
    untraced = traced = 0.0
    reports = cycles = 0

    def plain(_, argv):
        return cli.main(argv)

    loop.warm_up(plain)
    wall0 = time.perf_counter()
    while cycles == 0 or untraced + traced < seconds:
        for traced_pass in ((False, True) if cycles % 2 == 0 else (True, False)):
            if traced_pass:
                tr.install()
                try:
                    for i in range(len(loop.entries)):
                        traced += loop.attempt(i, lambda i, argv: tr.run_report(reports + i, argv))
                finally:
                    tr.uninstall()
                reports += len(loop.entries)
            else:
                for i in range(len(loop.entries)):
                    untraced += loop.attempt(i, plain)
        cycles += 1
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    metrics = tr.per_layer(reports)
    metrics["cli.tasks"] = loop.tasks / loop.attempted if loop.attempted else 0.0
    metrics["trace.report_s"] = tr.root_time() / reports
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "report"], "spans": tr.spans,
                   "counts": tr.counts}, fh)
    return {"metrics": metrics, "samples": reports, "cycles": cycles, "complete": True}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    sys.path[:0] = [SRC, HERE]
    import verify

    setup_repeats, min_reports = SETTINGS[size]
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        entries = generate_fixtures(workload, seed, size, work)
        loop = Loop(entries, work, verify)
        if trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
            result = traced_run(loop, seconds, spans)
        else:
            result = timed_run(loop, seconds, min_reports,
                               lambda: measure_setup(work, setup_repeats))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        workload=workload, seed=seed, size=size, cycle_reports=len(entries),
        attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop benchmark of `wpsd all`.")
    ap.add_argument("--workload", choices=("kernel", "semigroup"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SETTINGS), default="full",
                    help="tiny is the smoke-test cycle list")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wpsd", "cli.py")):
        print(f"perfbench: no wpsd sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    measured = result.pop("metrics")
    print(json.dumps({"environment": environment(), **result}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["complete"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
