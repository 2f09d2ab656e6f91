"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Runs each workload kind once untraced and once traced on inputs small
enough to finish in seconds, and checks that every metric of
BENCHMARK.json is emitted with a legal name, that the output checks pass,
and that the command line refuses to start without the package.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import DagSize, HelixSize, Ledger  # noqa: E402

TINY = {
    "helix": HelixSize(m=32, n=4, noise="additive", test_points=16, trials=2, pool=2,
                       limit_points=2),
    "dag": DagSize(net_n=4, net_q=1, net_dim=2, check_points=11, sources=2, node_m=64,
                   node_n=4, inputs=20, block=8, probes=5),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_BATCH_SECONDS", 0.0)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    doc = _bench_json()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert NAME.match(name), name


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(kind, trace, tmp_path):
    res = run.run_workload(TINY[kind], seed=3, seconds=0.0, trace=trace, out_dir=str(tmp_path))
    ledger = res["ledger"]
    assert ledger.failed == 0, ledger.failures
    assert ledger.attempted > 0
    assert set(res["end_to_end"]) == {name for name, _ in run.END_TO_END}
    for name, value in res["end_to_end"].items():
        assert value > 0, name
    if trace:
        assert set(res["per_layer"]) == {name for name, _ in run.PER_LAYER}
        assert 0.0 < res["per_layer"]["trace.coverage"] <= 1.0


def test_outputs_follow_the_seed(tmp_path):
    def outputs(seed):
        layer = run.run_workload(TINY["dag"], seed=seed, seconds=0.0, trace=True,
                                 out_dir=str(tmp_path))["per_layer"]
        return [layer[k] for k in ("median_err", "dag_max_err", "net_kernel_dev")]

    assert outputs(5) == outputs(5)
    assert outputs(5) != outputs(6)


def test_failed_evaluations_are_counted_not_fatal(tmp_path):
    # every network and DAG evaluation of the only unit raised
    dag = TINY["dag"].start(0, str(tmp_path))
    dag.setup()
    block = len(dag._block(0))
    ledger = Ledger()
    failed = (RuntimeError("net"), [RuntimeError("dag")] * block, np.full(block, 1e-3))
    dag.absorb(0, failed, ledger)
    outcomes = dag.finish(ledger)
    assert ledger.failed >= block + 2
    assert any("net_kernel_dev" in f for f in ledger.failures)
    assert outcomes["net_kernel_dev"] != outcomes["net_kernel_dev"]  # NaN


def test_refuses_to_start_without_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "net_dag", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
