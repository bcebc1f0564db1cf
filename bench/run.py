"""Benchmark of the spoisson CLI: four closed-loop workloads, one caller.

    python3 bench/run.py --workload order-srb --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 -m pytest bench    # tests of the benchmark's own code

Each run imports ``spoisson.cli`` from ``src/`` next to this directory and
calls ``cli.main(argv)`` in-process, again and again, waiting for each call
to finish, until ``--seconds`` have passed.  Every call's output is checked
(see ``workloads.check``); a nonzero exit code, an uncaught exception or a
failed check counts the call as failed.

``--trace 0`` reports the end-to-end metrics: wall time per call (the
fastest call; the median and a tail percentile are printed too), sample-steps
per second of that call, set-up time (import plus ``cli.build_setup`` in a
fresh interpreter, median of several) and the peak resident set.
``failed_frac`` is printed by name and is ``failed / attempted`` of the JSON
line.  ``--trace 1`` alternates untraced calls with calls traced by wrappers
installed around each layer (``tracing.installed``) and reports the
per-layer metrics, per traced call.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it give the same numbers by name, the
timing tails and the provenance of the run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
END_TO_END = {"wall_s": "s", "sample_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import spoisson.cli as cli
t1 = time.perf_counter()
cfg = cli.resolve_config(cli.build_parser().parse_args(sys.argv[2:]))
t2 = time.perf_counter()
cli.build_setup(cfg)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


def call(cli, argv):
    """One command run: (ok, wall seconds, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad argv this way
        rc = exc.code
    except Exception:  # a crash of the program is a failed run, not of the benchmark
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    if rc != 0 and not error:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return not error, wall, out.getvalue(), error


class Runs:
    """Outcome of the command runs of one benchmark run."""

    def __init__(self, cli, name, argv):
        self.cli, self.name, self.argv = cli, name, argv
        self.attempted = self.failed = 0
        self.first_output = None

    def run(self):
        ok, wall, text, error = call(self.cli, self.argv)
        self.attempted += 1
        if ok:
            try:
                problems = workloads.check(self.name, self.argv, text)
            except (ValueError, IndexError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if self.first_output is None:
                self.first_output = text
            elif text != self.first_output:
                problems.append("output differs from the first run with the same argv")
            if problems:
                ok, error = False, "; ".join(problems)
        if not ok:
            self.failed += 1
            print(f"run {self.attempted} failed: {error}", file=sys.stderr)
        return wall


def setup_seconds(argv) -> float:
    """Median over fresh interpreters of import plus cli.build_setup."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *argv],
            check=True, capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(values):
    """(label, value) of the highest percentile with ten samples beyond it."""
    s = sorted(values)
    if len(s) <= 10:
        return "max", s[-1]
    return f"p{100 * (len(s) - 10) / len(s):.0f}", s[-11]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def provenance(name, seed, argv) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def measure(cli, name, seed, seconds):
    argv = workloads.WORKLOADS[name].argv(seed)
    setup = setup_seconds(argv)
    runs = Runs(cli, name, argv)
    runs.run()  # warm-up: lazy imports and caches, checked but not timed
    walls = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(walls) < 3:
        walls.append(runs.run())
    # The host's speed swings by up to 2x in spells of seconds to minutes, and
    # a run's median follows the share of slow spells in it; over ten seeds
    # the fastest call spread less than the median on every workload.
    wall = min(walls)
    label, wall_tail = tail(walls)
    values = {
        "wall_s": wall,
        "sample_steps_per_s": workloads.sample_steps(argv) / wall,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{name} wall_s min {wall:.6f} median {statistics.median(walls):.6f} "
          f"{label} {wall_tail:.6f} s, n={len(walls)} calls")
    return runs, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, argv


def measure_traced(cli, name, seed, seconds):
    argv = workloads.WORKLOADS[name].argv(seed)
    runs = Runs(cli, name, argv)
    runs.run()
    tr = tracing.Tracer()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not traced:
        plain.append(runs.run())
        with tracing.installed(tr):
            traced.append(runs.run())
        tr.fold()
    metrics = tracing.per_layer(tr, len(traced), min(plain), min(traced))
    return runs, metrics, argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spoisson" / "cli.py").is_file():
        print(f"spoisson sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each has its own peak RSS
        correct = True
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(out.stdout, end="")
            print(out.stderr, end="", file=sys.stderr)
            lines = out.stdout.splitlines()
            correct &= out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        return 0 if correct else 1

    sys.path.insert(0, str(SRC))
    from spoisson import cli

    measure_fn = measure_traced if args.trace else measure
    runs, metrics, cmd_argv = measure_fn(cli, args.workload, args.seed, args.seconds)
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac {runs.failed / runs.attempted:.6g} ratio "
          f"({runs.failed} of {runs.attempted} runs)")
    print(json.dumps({"provenance": provenance(args.workload, args.seed, cmd_argv)}))
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
