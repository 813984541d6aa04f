"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload: str, seed: int, scratch: Path) -> list:
    make_ops, _ = workloads.WORKLOADS[workload]
    return [op.inputs for op in make_ops(seed, scratch)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path)
    assert first == _inputs(workload, 7, tmp_path)
    assert first != _inputs(workload, 8, tmp_path)


def _run(root: Path, workload: str, seed: int, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout


@pytest.mark.parametrize(
    "workload, trace", [("sweep", 0), ("audit", 0), ("adiabatic", 0), ("audit", 1)]
)
def test_one_command_prints_every_metric_with_its_unit(workload, trace):
    code, result, stdout = _run(ROOT, workload, 1, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
        assert trace or metric["value"] > 0
    for version in ("numpy=", "scipy=", "python=", "nproc=", "pool_width="):
        assert version in stdout


def test_corrupted_reference_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    reference_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    verdicts = reference["audit"][0]["verdicts"]
    verdicts[0] = not verdicts[0]
    reference_path.write_text(json.dumps(reference))

    code, result, _ = _run(tmp_path, "audit", workloads.DEFAULT_SEED, 0)
    assert code != 0
    assert result["failed"] >= 1 and result["correct"] is False


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, stdout = _run(tmp_path, "audit", 1, 0)
    assert code != 0 and result == {} and stdout == ""


def _fingerprints(ops) -> list:
    return [op.check(op.call()).fingerprint for op in ops]


# Cheap operations of each workload; the evolve calls check against "dense".
SUBSETS = {
    "sweep": ("prime4:paper", "toffoli:extended", "toffoli:paper"),
    "audit": None,
    "adiabatic": ("dense",) + tuple(f"evolve-{i}" for i in range(workloads.DENSE_POINTS)),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    make_ops, _ = workloads.WORKLOADS[workload]
    keep = SUBSETS[workload]
    ops = [op for op in make_ops(3, tmp_path) if keep is None or op.name in keep]
    untraced = _fingerprints(ops)

    recorder = spans.Recorder("test")
    uninstall = spans.install(recorder)
    try:
        traced = _fingerprints(ops)
    finally:
        uninstall()
    assert traced == untraced
    assert recorder.spans or any(recorder.counts().values())
    from qperceptron import harness

    assert harness.train.__module__ == "qperceptron.training"


def test_a_vanished_call_site_reads_zero(monkeypatch):
    monkeypatch.setattr(
        spans, "WRAPPERS", (("qperceptron.tasks", "no_such_function", "tasks.oracle", "span"),)
    )
    uninstall = spans.install(spans.Recorder("test"))
    uninstall()
    metrics = spans.layer_metrics([], {}, 1, {})
    assert metrics["tasks.oracle.calls"] == 0 and metrics["tasks.oracle.ms_p50"] == 0


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [9, 12] sticks out
    recorded = [
        (1, "harness.run_experiment", "", 0.0, 10.0, 0, 1, "r"),
        (2, "training.train", "", 1.0, 4.0, 1, 2, "r"),
        (3, "training.train", "", 3.0, 6.0, 1, 3, "r"),
        (4, "tasks.oracle", "", 9.0, 12.0, 1, 1, "r"),
    ]
    metrics = spans.layer_metrics(recorded, {}, 1, {"epochs": 10})
    assert metrics["harness.run_experiment.self_s"] == pytest.approx(10 - 5 - 1)
    assert metrics["training.train.busy_s"] == pytest.approx(6)
    assert metrics["training.concurrency"] == pytest.approx(6 / 5)
    assert metrics["harness.run_experiment.child_coverage"] == pytest.approx(0.6)


def test_host_scale_uses_the_samples_near_the_operation():
    samples = [(0.0, 1e-3), (1.0, 2e-3), (1.1, 2e-3), (5.0, 4e-3)]
    assert host.scale_at(samples, 1.0, 1.05) == pytest.approx(host.REFERENCE_S / 2e-3)
    # none within WINDOW_S: the nearest sample on each side
    assert host.scale_at(samples, 2.5, 3.0) == pytest.approx(host.REFERENCE_S / 3e-3)
