"""Shared plumbing of the repository benchmark: inputs, timing, spans, processes.

Everything here belongs to the benchmark, not to the program under test.
The program is imported from ``src/`` of the checkout this file sits in, so
the benchmark measures exactly the tree it ships with.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: scratch space of the runs (fresh per run, removed afterwards) and the
#: written-out span files; both live inside the checkout
WORK_ROOT = REPO_ROOT / ".perfbench-work"
OUT_DIR = REPO_ROOT / ".perfbench-out"
HOST = "127.0.0.1"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

#: a metric name: starts with a letter or digit, then letters, digits, ``_ . -``
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: how many times each run sets up from scratch; ``setup_s`` is the median
SETUP_REPEATS = 3

#: percentile levels the tail report chooses from (highest supported wins)
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is supported when at least this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


# ----------------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------------


def percentile(values, level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, level: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank percentile."""
    return count - max(1, math.ceil(level / 100.0 * count - 1e-9))


def supports(count: int, level: float) -> bool:
    """Does a sample of ``count`` support reporting percentile ``level``?"""
    return samples_beyond(count, level) >= MIN_TAIL_SAMPLES


def highest_supported(count: int) -> float | None:
    """The highest :data:`TAIL_LEVELS` percentile with enough samples beyond it."""
    best = None
    for level in TAIL_LEVELS:
        if supports(count, level):
            best = level
    return best


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def describe_latencies(label: str, values_ms) -> str:
    """One human line: sample count, p50, and the highest supported tail."""
    count = len(values_ms)
    if not count:
        return f"  {label}: no samples"
    parts = [f"n={count}", f"p50={percentile(values_ms, 50):.3f}ms"]
    top = highest_supported(count)
    if top is not None and top > 50:
        parts.append(f"p{top:g}={percentile(values_ms, top):.3f}ms "
                     f"({samples_beyond(count, top)} beyond)")
    return f"  {label}: " + " ".join(parts)


# ----------------------------------------------------------------------------
# metrics and the result line
# ----------------------------------------------------------------------------


class Metrics:
    """Named values with units and sample counts, checked against the charset."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int]] = {}

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        self.values[name] = (float(value), unit, int(samples))

    def lines(self) -> list[str]:
        return [
            f"  {name:<36} {value:>14.6f} {unit:<6} (n={samples})"
            for name, (value, unit, samples) in sorted(self.values.items())
        ]

    def payload(self) -> dict:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in self.values.items()
        }


def put_end_to_end(metrics: Metrics, setups, peak_mb, op_count, seconds, fast, slow) -> None:
    """The end-to-end metrics every workload reports (latencies in ms)."""
    metrics.put("setup_s", median(setups), "s", len(setups))
    metrics.put("peak_rss_mb", peak_mb, "MB")
    metrics.put("throughput_qps", op_count / seconds, "1/s", op_count)
    metrics.put("fast_p50_ms", percentile(fast, 50), "ms", len(fast))
    metrics.put("fast_p90_ms", percentile(fast, 90), "ms", len(fast))
    metrics.put("slow_p50_ms", percentile(slow, 50), "ms", len(slow))


def print_result(correct: bool, attempted: int, failed: int, metrics: Metrics) -> None:
    """Print the human summary, then the one-line JSON result (always last)."""
    print(f"ops attempted {attempted}, failed {failed}, correct {correct}")
    for line in metrics.lines():
        print(line)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics.payload(),
            }
        ),
        flush=True,
    )


# ----------------------------------------------------------------------------
# spans (the traced run)
# ----------------------------------------------------------------------------


class Spans:
    """The benchmark's own span recorder: kept in memory, written at the end.

    A span is ``{"id", "parent", "request", "name", "start", "end"}`` with
    wall-clock endpoints (``time.time()``), so spans fetched from the server
    fold into the same trees.
    """

    def __init__(self) -> None:
        self.items: list[dict] = []
        self._next = 0
        self._lock = threading.Lock()

    def new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"b{self._next}"

    def add(self, name: str, start: float, end: float, *, request, parent=None, span_id=None, **tags) -> str:
        span_id = span_id or self.new_id()
        span = {"id": span_id, "parent": parent, "request": request, "name": name,
                "start": start, "end": end}
        if tags:
            span["tags"] = tags
        with self._lock:
            self.items.append(span)
        return span_id

    @contextmanager
    def span(self, name: str, *, request, parent=None, **tags):
        span_id = self.new_id()
        start = time.time()
        try:
            yield span_id
        finally:
            self.add(name, start, time.time(), request=request, parent=parent, span_id=span_id, **tags)

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span id: duration minus the union of its children."""
        children: dict[str, list[tuple[float, float]]] = {}
        for span in self.items:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        result = {}
        for span in self.items:
            start, end = span["start"], span["end"]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span["id"], ())):
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span["id"]] = max(0.0, (end - start) - covered)
        return result

    def self_ms_by_name(self, name: str, *, tag=None) -> list[float]:
        """Self times (ms) of every span called ``name`` (optionally with a tag match)."""
        selfs = self.self_times()
        out = []
        for span in self.items:
            if span["name"] != name:
                continue
            if tag is not None and span.get("tags", {}).get(tag[0]) != tag[1]:
                continue
            out.append(selfs[span["id"]] * 1000.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.items:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------------


def make_rung(kind: str, n: int, seed: int):
    """A seeded generated graph: ``ba`` (Barabási–Albert) or ``lfr``."""
    from repro.graph import barabasi_albert, lfr_benchmark

    if kind == "ba":
        return barabasi_albert(n, 3, seed=seed)
    if kind == "lfr":
        return lfr_benchmark(
            n, avg_degree=8, max_degree=30, mu=0.1, min_community=20,
            max_community=100, seed=seed,
        ).graph
    raise ValueError(f"unknown rung kind {kind!r}")


def rung_spec(name: str, kind: str, n: int, seed: int) -> str:
    """The ``NAME=KIND:N:SEED`` token the launcher registers a rung from."""
    return f"{name}={kind}:{n}:{seed}"


def _parse_spec(spec: str) -> tuple[str, str, int, int]:
    name, rest = spec.split("=", 1)
    kind, n, seed = rest.split(":")
    return name, kind, int(n), int(seed)


def register_rungs(specs) -> None:
    """Register generated rungs as datasets so ``repro`` can serve and index them."""
    from repro.datasets import Dataset
    from repro.datasets.registry import DATASET_LOADERS

    for spec in specs:
        name, kind, n, seed = _parse_spec(spec)

        def load(name=name, kind=kind, n=n, seed=seed):
            return Dataset(name=name, graph=make_rung(kind, n, seed), communities=())

        DATASET_LOADERS[name] = load


def load_graph(name: str, rungs=()):
    """A bundled dataset's graph, or a generated rung's by its spec."""
    from repro.datasets import load_dataset

    for spec in rungs:
        rung, kind, n, seed = _parse_spec(spec)
        if rung == name:
            return make_rung(kind, n, seed)
    return load_dataset(name).graph


# ----------------------------------------------------------------------------
# processes, memory, isolation
# ----------------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.glob("repro_snap_*")}


def fresh_workdir(prefix: str) -> Path:
    """A fresh per-run working directory inside the checkout."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def launcher_command(*args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "launch.py"), *args]


def run_index_builder(datasets, rungs, index_dir: Path, cwd: Path) -> float:
    """Build index files in a subprocess; returns its peak RSS (MB)."""
    proc = subprocess.Popen(
        launcher_command("build", "--index-dir", str(index_dir), "--rungs", *rungs, "--", *datasets),
        cwd=cwd, stdout=subprocess.PIPE, text=True,
    )
    try:
        output = proc.stdout.read()
    finally:
        code = proc.wait(120)
    lines = output.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("peak_mb "):
        raise BenchError(f"index build failed ({code}): {output[-500:]!r}")
    return float(lines[-1].split()[1])


class ServerProcess:
    """``repro serve`` in a subprocess, started through the benchmark's launcher."""

    def __init__(self, datasets, rungs, *, cwd: Path, index_dir: Path, extra=()) -> None:
        command = launcher_command(
            "serve", "--rungs", *rungs, "--", "--port", "0", "--datasets", *datasets,
            "--executor", "inline", "--index", "require", "--index-dir", str(index_dir), *extra,
        )
        self.proc = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.proc.kill()
            self.proc.wait(10)
            raise BenchError(f"server failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """Shut down over the wire, wait, and return the exit code."""
        from repro.serving import ServingClient

        try:
            with ServingClient(HOST, self.port, timeout=30) as client:
                client.shutdown()
        except OSError:
            pass
        try:
            return self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(10)
