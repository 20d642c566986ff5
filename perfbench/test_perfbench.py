"""The benchmark's own tests: percentile rule, metric names, tiny smoke runs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import METRIC_NAME, Metrics, Spans, highest_supported, percentile, samples_beyond  # noqa: E402
from layers import PER_LAYER  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"] for entry in SPEC["end_to_end"]}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert highest_supported(1000) == 99
    assert highest_supported(999) == 95
    assert highest_supported(100) == 90
    assert highest_supported(20) == 50
    assert highest_supported(19) is None
    assert highest_supported(10_000) == 99.9


def test_metric_names_use_the_charset():
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    metrics = Metrics()
    for bad in ("p50 ms", "ms/s", "_lead", "x" * 65, ""):
        with pytest.raises(ValueError):
            metrics.put(bad, 1.0, "ms")


def test_benchmark_json_mirrors_the_per_layer_list():
    assert [(entry["name"], entry["unit"], entry["better"]) for entry in SPEC["per_layer"]] == list(PER_LAYER)


def test_self_time_subtracts_the_union_of_children():
    spans = Spans()
    root = spans.add("root", 0.0, 10.0, request=1)
    spans.add("a", 1.0, 4.0, request=1, parent=root)
    spans.add("b", 3.0, 6.0, request=1, parent=root)  # overlaps a
    selfs = spans.self_times()
    assert selfs[root] == pytest.approx(5.0)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_run_of_each_workload(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    proc = _run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in PER_LAYER}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "peel-ladder", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
