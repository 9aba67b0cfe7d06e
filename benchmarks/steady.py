#!/usr/bin/env python3
"""Check that the benchmark is steady: repeat every workload and compare spreads.

    python3 benchmarks/steady.py --runs 10 [--sets 2] [--workloads chain cli] [--first-seed 1]

Runs ``run.py --trace 0`` ``--runs`` times per workload and set, one run
at a time, each with the next seed, for BENCHMARK.json's
``run_seconds``; set k uses the ``--runs`` seeds after those of set
k - 1.  For every end-to-end metric of every set it prints the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
their distance as a share of the median against the metric's bound:
``steady`` below a third of the bound, ``within`` up to the bound,
``WIDE`` above it.  With two or more sets it also prints how far each
set's median is worse than the first set's, as a share of the first,
``WIDE`` above the bound.  It prints the failed share of each run, which
must be the same in every run of a workload.  It exits 1 when a spread
or a shift is wider than its bound, a run is not correct or the failed
shares differ.
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


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(share, bound):
    if share <= bound / 3:
        return "steady", True
    if share <= bound:
        return "within", True
    return "WIDE", False


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        medians = []
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            results = []
            for seed in range(first, first + args.runs):
                res = run_once(workload, seed, spec["run_seconds"])
                results.append(res)
                print(f"{workload} seed {seed}: {res['attempted']} ops, "
                      f"{res['failed']} failed, correct {res['correct']}", flush=True)
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            ok &= len(shares) == 1 and all(r["correct"] for r in results)
            print(f"{workload} set {k + 1} (seeds {first}-{first + args.runs - 1}): "
                  f"failed share per run {shares}")
            print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
            set_medians = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                set_medians[metric["name"]] = med
                word, good = verdict((q3 - q1) / med, metric["bound"])
                ok &= good
                print(f"  {metric['name']:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{(q3 - q1) / med:>9.3f}{metric['bound']:>7.2f}  {word}")
            medians.append(set_medians)
        for k in range(1, len(medians)):
            print(f"{workload}: set {k + 1} against set 1, median worse by")
            for metric in spec["end_to_end"]:
                base, now = medians[0][metric["name"]], medians[k][metric["name"]]
                worse = (now - base if metric["better"] == "lower" else base - now) / base
                word, good = verdict(worse, metric["bound"])
                ok &= good
                print(f"  {metric['name']:<16}{base:>12.4f}{now:>12.4f}{worse:>9.3f}"
                      f"{metric['bound']:>7.2f}  {word}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
