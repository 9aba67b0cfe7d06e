"""The summary that ``tools/paired_bench.py`` writes, on canned run records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_bench)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
]


def canned(workload, parent_ops, change_ops, failed=(0, 0)):
    runs = []
    for i, (p, c) in enumerate(zip(parent_ops, change_ops), start=1):
        for side in paired_bench.order(i):
            ops = p if side == "parent" else c
            runs.append({"workload": workload, "seed": 100 + i, "side": side,
                         "attempted": 10, "failed": failed[side == "change"],
                         "ops_per_s": ops, "latency_p50_ms": 1000.0 / ops})
    return runs


def test_pairs_alternate_with_the_parent_first_on_odd_pairs():
    assert paired_bench.order(1) == ("parent", "change")
    assert paired_bench.order(2) == ("change", "parent")
    assert paired_bench.order(11) == ("parent", "change")


def test_summary_of_canned_pairs():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [150.0, 160.0, 85.0, 170.0, 140.0]
    runs = canned("cli", parent, change, failed=(5, 5)) + canned("chain", parent, parent)
    summary = paired_bench.summarize(runs, METRICS)
    assert list(summary) == ["cli", "chain"]

    cli = summary["cli"]
    assert cli["pairs"] == 5
    assert cli["failed_share"] == {"parent": 0.5, "change": 0.5}
    ops = cli["ops_per_s"]
    # exclusive quartiles of 90, 95, 100, 105, 110 and 85, 140, 150, 160, 170
    assert ops["parent"] == {"median": 100.0, "q1": 92.5, "q3": 107.5}
    assert ops["change"] == {"median": 150.0, "q1": 112.5, "q3": 165.0}
    assert ops["change_better_in_pairs"] == 4
    assert ops["change_worse_by"] == pytest.approx(-0.5)
    assert ops["parent_quartile_distance_share"] == pytest.approx(0.15)
    assert ops["bound"] == 0.25
    latency = cli["latency_p50_ms"]
    assert latency["parent"]["median"] == 10.0
    assert latency["change_better_in_pairs"] == 4
    assert latency["change_worse_by"] == pytest.approx(round((1000 / 150 - 10) / 10, 4))

    chain = summary["chain"]
    assert chain["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert chain["ops_per_s"]["change_better_in_pairs"] == 0
    assert str(chain["ops_per_s"]["change_worse_by"]) == "0.0"


def test_unpaired_seeds_are_rejected():
    runs = canned("cli", [100.0, 110.0], [120.0, 130.0])
    runs[-1]["seed"] = 999
    with pytest.raises(ValueError, match="different seeds"):
        paired_bench.summarize(runs, METRICS)
