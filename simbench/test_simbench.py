"""Tests of the benchmark itself: ``python3 -m pytest simbench``.

They run the cheapest workload, cluster-3node, for one repetition.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_cli(trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("simbench", "run.py"), "--workload", "cluster-3node",
         "--seed", "2022", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced():
    return last_json(run_cli(1))


def test_untraced_run_prints_every_end_to_end_metric(spec):
    result = last_json(run_cli(0))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric(spec, traced):
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_self_shares_sum_to_at_most_one(traced):
    shares = [m["value"] for name, m in traced["metrics"].items()
              if name.endswith(".self_share")]
    assert all(share >= 0 for share in shares)
    assert sum(shares) <= 1.0 + 1e-9


def test_cluster_bypasses_ebpf_and_lambda_nic_offloads(traced):
    metrics = traced["metrics"]
    assert metrics["kernel.ebpf.insns_per_req"]["value"] == 0
    assert metrics["cluster.offloaded_share"]["value"] > 0


def test_traced_and_untraced_digests_are_equal():
    from cells import Hooks, digest_of, run_workload
    from run import Window
    from spans import Tracer

    hooks = Hooks()
    untraced = run_workload("cluster-3node", 2022, hooks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_workload("cluster-3node", 2022, hooks, Window(tracer))
    finally:
        tracer.uninstall()
    assert all(not cell.failures for cell in untraced + traced)
    assert digest_of(traced) == digest_of(untraced)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
