#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload chain --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``.  The workload runs in this one process as a closed loop with
one caller: each operation's input is drawn from (seed, index) before
the clock starts, and its output is checked after the clock stops.  The
loop runs whole rounds until ``--seconds`` have passed.

With ``--trace 0`` the metrics are the end-to-end ones; ``setup_s`` is
the median over SETUP_PROBES fresh processes, run after the loop, of the
CPU seconds (user + system) each spends from its start until it has
imported torsionworks and built the workload's fixed inputs, which is
where the first timed operation would begin.  With ``--trace 1`` every
public function of the library is wrapped in a span and the metrics are
the per-layer ones (per timed operation; the warm-up is not traced).
The last line of standard output is the JSON result; the full record,
with the environment, goes to benchmarks/results/.
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
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# the load is one Python thread; BLAS must not add its own
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("chain", "complex", "cli")
WARMUP_ROUNDS = 2
WARMUP_BASE = 1 << 30  # warm-up operation indices, disjoint from timed ones
BLOCKS = 16
SETUP_PROBES = 7
MAX_REPORTED_FAILURES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print 'ready' and the CPU "
                        "seconds this process has used, and exit")
    return parser.parse_args(argv)


def environment():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def blocks(values, count):
    """``values`` cut into ``count`` consecutive blocks of near-equal length."""
    size, extra = divmod(len(values), count)
    out, start = [], 0
    for k in range(count):
        end = start + size + (1 if k < extra else 0)
        out.append(values[start:end])
        start = end
    return out


def block_median(lat, stat):
    """Median over BLOCKS consecutive blocks of the run of ``stat(block)``.

    The machine's speed drifts in bursts of a few seconds; one slow burst
    moves one block, not the run's figure.
    """
    return statistics.median(stat(b) for b in blocks(lat, min(BLOCKS, len(lat))))


def throughput(lat):
    return block_median(lat, lambda b: len(b) / sum(b))


def end_to_end(lat, peak_rss_mb, setup_s):
    """End-to-end metrics from the operation times of one run."""
    return {
        "ops_per_s": {"value": throughput(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


class Loop:
    """The closed loop: times, counts and checks every operation."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.latencies: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, int] = {}

    def operation(self, index):
        wl = self.workload
        inp = wl.inputs(index)
        if self.tracer:
            self.tracer.begin(index)
        start = time.perf_counter()
        try:
            out = wl.run(inp)
            error = None
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.end()
        return elapsed, (error, False) if error else wl.check(inp, out)

    def warm_up(self):
        """Run WARMUP_ROUNDS rounds that are neither timed nor counted."""
        for i in range(WARMUP_ROUNDS * self.workload.round_size):
            self.operation(WARMUP_BASE + i)

    def run(self, seconds):
        """Run whole rounds for ``seconds``; return the loop's wall time."""
        size = self.workload.round_size
        start = time.perf_counter()
        index = 0
        while True:
            for _ in range(size):
                elapsed, verdict = self.operation(index)
                self.latencies.append(elapsed)
                if verdict is not None:
                    reason, known = verdict
                    self.failed += 1
                    if known:
                        self.known[reason] = self.known.get(reason, 0) + 1
                    else:
                        self.unexpected.append(f"operation {index}: {reason}")
                index += 1
            wall = time.perf_counter() - start
            if wall >= seconds:
                return wall


def cpu_seconds():
    """CPU seconds (user + system) this process has used since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup_probe(args):
    """CPU seconds a fresh process spends from its start until it is set up.

    CPU time rather than wall time: the set-up is 0.3 s, mostly imports,
    and on a shared machine its wall time spread by 0.48 of its median
    over ten runs while its CPU time follows the work done.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return float(words[1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torsionworks" / "__init__.py").is_file():
        sys.stderr.write(f"no torsionworks sources under {SRC}; run from a checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import torsionworks
    from workloads import WORKLOADS

    if Path(torsionworks.__file__).resolve().parent != (SRC / "torsionworks").resolve():
        sys.stderr.write(f"imported torsionworks from {torsionworks.__file__}\n")
        return 2

    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.setup_probe:
            print("ready", cpu_seconds(), flush=True)
            return 0
        loop = Loop(workload)
        loop.warm_up()
        if args.trace:
            from spans import Tracer

            loop.tracer = Tracer()
            loop.tracer.install()
        origin = time.perf_counter()
        wall = loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = loop.latencies
    ops_per_s = throughput(lat)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "ops_per_s": ops_per_s,
        "latency_p90_ms": 1000.0 * percentile(lat, 0.9),
        "latencies_ms": [round(1000.0 * x, 4) for x in lat],
        "known_failures": loop.known,
        "unexpected_failures": loop.unexpected[:MAX_REPORTED_FAILURES],
        "environment": environment(),
    }
    if args.trace:
        metrics = loop.tracer.metrics()
        loop.tracer.write_spans(RESULTS / f"{args.workload}-spans.csv", origin)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # after the loop, so that the probes' processes do not slow its operations
        setup_samples = [setup_probe(args) for _ in range(SETUP_PROBES)]
        record["setup_samples_s"] = setup_samples
        metrics = end_to_end(lat, peak_rss_mb, statistics.median(setup_samples))
    result = {
        "correct": not loop.unexpected,
        "attempted": len(lat),
        "failed": loop.failed,
        "metrics": metrics,
    }
    record.update(result)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in loop.unexpected[:MAX_REPORTED_FAILURES]:
        sys.stderr.write(line + "\n")
    sys.stderr.write(f"{args.workload}: {len(lat)} operations, {loop.failed} failed, "
                     f"{ops_per_s:.3f} ops/s\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
