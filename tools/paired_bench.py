"""Run the benchmark alternately in two checkouts and summarize the pairs.

Usage, from anywhere:

    python tools/paired_bench.py PARENT CHANGE --out BENCH_name.json \\
        [--workloads chain complex cli] [--first-seed 1701] [--what TEXT]

PARENT and CHANGE are the roots of two checkouts, say a ``git archive``
of the parent commit and the working tree.  Pair i, from 1 to PAIRS,
runs ``benchmarks/run.py --workload W --seed FIRST_SEED + i - 1 --trace
0`` for the ``run_seconds`` of CHANGE's ``BENCHMARK.json``, once in each
checkout for every workload, PARENT first on odd pairs and CHANGE first
on even ones, each run in its own process with one BLAS thread.  The
JSON written to ``--out`` holds:

* ``runs``: every run's end-to-end metrics, attempted and failed counts;
* ``summary``: per workload, each side's failed share, and per
  end-to-end metric of CHANGE's ``BENCHMARK.json`` each side's median
  and quartiles, the parent's quartile distance as a share of its
  median, the number of pairs the change won, and the share by which the
  change's median is worse than the parent's (negative when better);
* the per-layer metrics of one traced run of TRACE_SECONDS per workload
  and side at TRACE_SEED, parent first.

Medians and quartiles are those of ``statistics`` (exclusive quartiles),
rounded to 4 digits after the point.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
TRACE_SEED = 1
TRACE_SECONDS = 12.0


def single_thread_env():
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_json(cmd, cwd):
    """The JSON on the last line of ``cmd``'s standard output, run in ``cwd``."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          env=single_thread_env(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return run_json(cmd, checkout)


def order(pair_index):
    """The sides in the order pair ``pair_index`` (from 1) runs them."""
    return SIDES if pair_index % 2 else SIDES[::-1]


def metric_values(result):
    return {name: round(m["value"], 4) for name, m in result["metrics"].items()}


def record(workload, seed, side, result):
    return {"workload": workload, "seed": seed, "side": side,
            "attempted": result["attempted"], "failed": result["failed"],
            **metric_values(result)}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs, metrics):
    """Per-workload summary of paired ``runs`` for ``metrics``, the
    ``end_to_end`` entries of BENCHMARK.json."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {side: sorted((r for r in mine if r["side"] == side),
                                key=lambda r: r["seed"]) for side in SIDES}
        parent, change = by_side["parent"], by_side["change"]
        if [r["seed"] for r in parent] != [r["seed"] for r in change]:
            raise ValueError(f"{workload}: the two sides ran different seeds")
        entry = {
            "pairs": len(parent),
            "failed_share": {
                side: round(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs), 4)
                for side, rs in by_side.items()},
        }
        for metric in metrics:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [r[name] for r in rs] for side, rs in by_side.items()}
            stats = {side: quartiles(v) for side, v in values.items()}
            p_med = stats["parent"]["median"]
            entry[name] = {
                **stats,
                "change_better_in_pairs": sum(
                    sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
                # + 0.0 writes a tie as 0.0, not -0.0
                "change_worse_by": round(sign * (stats["change"]["median"] - p_med) / p_med,
                                         4) + 0.0,
                "parent_quartile_distance_share": round(
                    (stats["parent"]["q3"] - stats["parent"]["q1"]) / p_med, 4),
                "bound": metric["bound"],
            }
        summary[workload] = entry
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["chain", "complex", "cli"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--what", default="")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(PAIRS)]
    doc = {
        "what": args.what,
        "command": f"python3 benchmarks/run.py --workload W --seed N --seconds {seconds:g}"
                   " --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, Python "
                   f"{platform.python_version()}",
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "pairs": f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, the "
                 "workloads in turn for each seed; the parent runs first on odd pairs",
    }
    runs = []
    for i, seed in enumerate(seeds, start=1):
        for workload in args.workloads:
            for side in order(i):
                result = bench(checkouts[side], workload, seed, seconds, 0)
                runs.append(record(workload, seed, side, result))
                sys.stderr.write(f"pair {i} {workload} {side}: "
                                 f"{runs[-1]['ops_per_s']:.2f} ops/s\n")
    doc["summary"] = summarize(runs, spec["end_to_end"])
    traced = {}
    for workload in args.workloads:
        traced[workload] = {}
        for side in SIDES:
            result = bench(checkouts[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
            traced[workload][side] = {**metric_values(result),
                                      "operations": result["attempted"]}
    doc[f"traced_per_operation_seed_{TRACE_SEED}"] = traced
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
