"""What both serving workloads share: set-up, the closed-loop client, checks."""

from __future__ import annotations

import gc
import math
import threading
import time
from contextlib import contextmanager

from common import (
    HOST,
    SETUP_REPEATS,
    BenchError,
    Metrics,
    ServerProcess,
    Spans,
    fresh_workdir,
    percentile,
    remove_workdir,
    run_index_builder,
)


def query_payload(dataset: str, algorithm: str, node, params: dict) -> dict:
    payload = {"op": "query", "dataset": dataset, "algorithm": algorithm, "nodes": [node]}
    if params:
        payload["params"] = dict(params)
    return payload


def request_key(payload: dict) -> tuple:
    return (
        payload["dataset"],
        payload["algorithm"],
        payload["nodes"][0],
        tuple(sorted(payload.get("params", {}).items())),
    )


def answer_of(response: dict):
    """What the check compares: ``(hash of the sorted node list, score, failed)``."""
    return (hash(tuple(response["nodes"])), response["score"], response["failed"])


def reference_answer(frozen, payload: dict):
    """The library's answer for one request, in the served answer's shape."""
    from repro.serving.executor import execute_one
    from repro.serving.protocol import ProtocolError

    outcome = execute_one(frozen, payload["algorithm"], payload.get("params", {}), payload["nodes"])
    if isinstance(outcome, ProtocolError):
        return ("error", outcome.code)
    score = outcome.score
    if score is not None and not math.isfinite(score):
        score = None
    failed = bool(outcome.extra.get("failed")) or not outcome.nodes
    return (hash(tuple(sorted(outcome.nodes, key=repr))), score, failed)


class Served:
    """One served instance: a fresh working dir, index files and a server."""

    def __init__(self, datasets, rungs, *, extra=()) -> None:
        self.workdir = fresh_workdir("serve-")
        self.index_dir = self.workdir / "index"
        self.server = None
        try:
            self.builder_peak_mb = run_index_builder(datasets, rungs, self.index_dir, self.workdir)
            self.server = ServerProcess(datasets, rungs, cwd=self.workdir, index_dir=self.index_dir, extra=extra)
        except BaseException:
            remove_workdir(self.workdir)
            raise

    def client(self):
        from repro.serving import ServingClient

        return ServingClient(HOST, self.server.port, timeout=120)

    def warm(self, payloads) -> None:
        """Ping, then send the first request of every dataset x algorithm."""
        with self.client() as client:
            if not client.ping().get("ok"):
                raise BenchError("server does not answer ping")
            for payload in payloads:
                response = client.request(payload)
                if not response.get("ok"):
                    raise BenchError(f"warm-up request failed: {response}")

    def close(self) -> tuple[int, float]:
        """Stop the server; returns its exit code and its peak RSS (MB)."""
        try:
            peak = self.server.peak_mb()
            code = self.server.stop()
        finally:
            remove_workdir(self.workdir)
        return code, peak


def set_up(datasets, rungs, warm_payloads, *, extra=(), repeats=SETUP_REPEATS):
    """Set up ``repeats`` times from scratch; keep the last instance.

    Returns ``(served, setup_seconds, peaks)`` where ``peaks`` holds the
    peak RSS of every builder and every discarded server.
    """
    seconds, peaks = [], []
    served = None
    for attempt in range(repeats):
        t0 = time.perf_counter()
        served = Served(datasets, rungs, extra=extra)
        try:
            served.warm(warm_payloads)
        except BaseException:
            served.close()
            raise
        seconds.append(time.perf_counter() - t0)
        peaks.append(served.builder_peak_mb)
        if attempt < repeats - 1:
            code, peak = served.close()
            peaks.append(peak)
            if code != 0:
                raise BenchError(f"server exited with {code}")
    return served, seconds, peaks


class Replay:
    """Closed-loop replay of one fixed op list over at most two connections.

    Each connection takes the next op from the shared list as soon as its
    previous reply arrives.  Per op it keeps the latency, the answer and the
    response flags; with ``spans`` it also records a client span and folds
    in the server's spans for the response's trace id.
    """

    def __init__(self, served: Served, ops, *, spans: Spans | None = None) -> None:
        self.served = served
        self.ops = ops
        self.spans = spans
        self.latency_ms = [0.0] * len(ops)
        self.answers: list = [None] * len(ops)
        self.responses: list = [None] * len(ops)
        self._next = 0
        self._lock = threading.Lock()
        self.errors: list[BaseException] = []

    def _take(self) -> int:
        with self._lock:
            position = self._next
            self._next += 1
            return position

    def worker(self) -> None:
        try:
            with self.served.client() as client:
                while True:
                    position = self._take()
                    if position >= len(self.ops):
                        return
                    self._one(client, position)
        except BaseException as exc:  # recorded and re-raised by run()
            self.errors.append(exc)

    def _one(self, client, position: int) -> None:
        payload = self.ops[position][1]
        wall = time.time()
        t0 = time.perf_counter()
        response = client.request(payload)
        elapsed = time.perf_counter() - t0
        self.latency_ms[position] = elapsed * 1000.0
        self.responses[position] = _flags(response)
        if response.get("ok") and response.get("op") == "query":
            self.answers[position] = answer_of(response)
        if self.spans is not None:
            root = self.spans.add("client.request", wall, wall + elapsed, request=position,
                                  cls=self.ops[position][0])
            trace_id = response.get("trace_id")
            if trace_id is not None:
                fetched = client.request({"op": "trace", "trace_id": trace_id})
                for span in fetched.get("spans", ()):
                    self.spans.add(
                        span["name"], span["start"], span["end"], request=position,
                        parent=span["parent"] if span["parent"] is not None else root,
                        span_id=span["span"], cls=self.ops[position][0], **span.get("tags", {}),
                    )

    def run(self, connections: int = 2) -> float:
        threads = [threading.Thread(target=self.worker) for _ in range(connections)]
        with client_gc_paused():
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
        if self.errors:
            raise BenchError(f"client failed: {self.errors[0]!r}")
        return wall


@contextmanager
def client_gc_paused():
    """Keep the client's garbage collector out of the timed phase.

    The collector pauses only this process, the load generator; the server
    under test collects as usual.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _flags(response: dict) -> dict:
    keep = ("ok", "cached", "coalesced", "epoch", "mode", "index", "index_seconds", "size")
    flags = {key: response[key] for key in keep if key in response}
    if not response.get("ok"):
        flags["error"] = response.get("error", {}).get("code", "?")
    return flags


def class_latencies(ops, latency_ms) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for (cls, _payload), value in zip(ops, latency_ms):
        out.setdefault(cls, []).append(value)
    return out


def shard_metrics(metrics: Metrics, stats: dict) -> None:
    """``shard.*`` from the server's ``stats`` op, summed over its shards."""
    shards = stats["shards"].values()
    total = lambda key: sum(shard.get(key, 0) for shard in shards)  # noqa: E731
    queries = max(1, total("queries"))
    misses = max(1, total("cache_misses"))
    index_hits = sum(shard["index"]["hits"] for shard in shards)
    batches = max(1, total("batches"))
    metrics.put("shard.cache_hit_ratio", total("cache_hits") / queries, "ratio", queries)
    metrics.put("shard.index_hit_ratio", index_hits / misses, "ratio", misses)
    metrics.put("shard.coalesced", total("coalesced"), "count")
    metrics.put("shard.executed", total("executed"), "count")
    metrics.put("shard.shed", total("shed"), "count")
    metrics.put("shard.batch_mean", total("executed") / batches, "count", batches)


def server_span_metrics(metrics: Metrics, spans: Spans) -> None:
    """Queue wait and execute self time per request class, from server spans."""
    for cls in ("fast", "slow"):
        waits = [(span["end"] - span["start"]) * 1000.0 for span in spans.items
                 if span["name"] == "queue.wait" and span.get("tags", {}).get("cls") == cls]
        if waits:
            metrics.put(f"placement.queue_wait_ms.{cls}.p50", percentile(waits, 50), "ms", len(waits))
            metrics.put(f"placement.queue_wait_ms.{cls}.p99", percentile(waits, 99), "ms", len(waits))
        executes = spans.self_ms_by_name("execute", tag=("cls", cls))
        if executes:
            metrics.put(f"executor.execute_ms.{cls}", percentile(executes, 50), "ms", len(executes))
