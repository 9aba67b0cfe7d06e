"""The benchmark's own tests: the oracle's hand values and smoke runs.

    python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


# -- oracle -------------------------------------------------------------------

def test_circle_at_two_is_nine_quarters():
    assert oracle.torsion_modulus(oracle.wedge(1), [2.0]) == pytest.approx(9 / 4, rel=1e-14)


@pytest.mark.parametrize("lams", [[2.0, 3.0], [1.5, -0.7j], [1.3 + 0.4j, 2.0]])
def test_torus_is_one(lams):
    assert oracle.torsion_modulus(oracle.torus(), lams) == pytest.approx(1.0, rel=1e-13)


def test_wedge_is_product_of_norms():
    lam = np.array([2.0, 1.5j, -1.7 + 0.3j])
    expected = np.linalg.norm(lam ** 2 - 1) * np.linalg.norm(lam ** -2 - 1)
    assert oracle.torsion_modulus(oracle.wedge(3), lam) == pytest.approx(expected, rel=1e-13)
    # the 2- and 3-spheres of the bouquet attach by zero maps
    assert oracle.torsion_modulus(oracle.bouquet(), lam[:1]) == pytest.approx(
        abs(lam[0] ** 2 - 1) * abs(lam[0] ** -2 - 1), rel=1e-13)


def test_disk_sum_shares_one_zero_cell():
    glued = oracle.chain_sum([oracle.torus(), oracle.bouquet(), oracle.wedge(2)])
    assert glued.cells == (1, 5, 2, 1)
    assert glued.generators == 5
    assert oracle.euler_characteristic(glued) == 0 + 0 + (-1) - 2


# -- workloads ---------------------------------------------------------------

def run_ops(name, count, tmp_path, tracer=None):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    verdicts = []
    for index in range(count):
        inp = wl.inputs(index)
        if tracer:
            tracer.begin(index)
        out = wl.run(inp)
        if tracer:
            tracer.end()
        verdicts.append(wl.check(inp, out))
    return verdicts


@pytest.mark.parametrize("name", ["chain", "complex"])
def test_workload_checks_pass(name, tmp_path):
    assert run_ops(name, 3, tmp_path) == [None] * 3


def test_cli_fails_only_on_the_sign_flip(tmp_path):
    verdicts = run_ops("cli", 4, tmp_path)
    assert verdicts[1::2] == [None, None]
    # the (wedge_3, wedge_2) operations may fail only on the sign flip
    assert all(v is None or v[1] for v in verdicts[0::2])


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.Complex(7, str(tmp_path))
    b = workloads.Complex(8, str(tmp_path))
    assert np.array_equal(a.inputs(3), workloads.Complex(7, str(tmp_path)).inputs(3))
    assert not np.array_equal(a.inputs(3), b.inputs(3))
    assert not np.array_equal(a.inputs(3), a.inputs(4))


def traced(name, count, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run_ops(name, count, tmp_path, tracer)
    finally:
        tracer.uninstall()
    return {k: v["value"] for k, v in tracer.metrics().items()}


def test_traced_layers(tmp_path):
    on_complex = traced("complex", 2, tmp_path)
    on_cli = traced("cli", 2, tmp_path)
    assert list(on_complex) == [m["name"] for m in SPEC["per_layer"]]
    assert on_complex["complexes.twist_calls"] == 1
    assert on_complex["complexes.twist_reuse"] == 1
    assert on_complex["linalg.svd_calls"] > 0
    assert all(v == 0 for k, v in on_complex.items()
               if k.startswith(("glue.", "scenes.", "cli.")))
    assert on_cli["scenes.parse_scene_ms"] > 0 and on_cli["cli.self_ms"] > 0
    assert on_cli["glue.exactness_per_sequence"] > 0


def test_per_layer_metrics_match_the_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]


# -- the command -------------------------------------------------------------

def bench(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = bench(["--workload", "complex", "--seed", "5", "--seconds", "1",
                  "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = END_TO_END if trace == "0" else [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == expected


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(["--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
