"""Workload ``serve-write``: cheap reads between small writes on an epochal server.

``repro serve --epochs --index require`` serves the bundled dblp.  A writer
connection sends a fixed seeded list of delta batches (two ops each: one
edge removal and one edge insertion) that never touch the probe nodes; a
reader connection sends cheap index-served reads of the probe nodes.  The
two alternate in windows: write ``i``, then the reads of window
``i`` against the epoch it published.  Every swap purges the LRU, so every
window's reads go to the freshly repaired index; the writes pay epoch
prepare, index repair, the ``.idx`` rewrite and the swap.  A read-path gain
that costs writes, or the reverse, shows here.
"""

from __future__ import annotations

import random
import threading
import time

from common import (
    BenchError,
    Metrics,
    Spans,
    describe_latencies,
    fresh_workdir,
    percentile,
    put_end_to_end,
    remove_workdir,
    run_index_builder,
    vm_hwm_mb,
)
from serve_common import (
    Replay,
    class_latencies,
    client_gc_paused,
    query_payload,
    reference_answer,
    request_key,
    server_span_metrics,
    set_up,
    shard_metrics,
)

DATASET = "dblp"
#: cheap reads whose answers are non-empty for nodes of degree >= 3 (on dblp,
#: kt at its default k=4 is empty for ~75% of them and kc/kecc at k=3 for
#: ~10%; empty and 2000-node answers form separate latency modes)
READS = (("kc", {"k": 2}), ("kecc", {"k": 2}), ("hightruss", {}))
PROBES = 200
PROBE_MIN_DEGREE = 3
READS_PER_WRITE = 20
#: write batches per second of ``--seconds``: a fixed op count, sized so one
#: run measures about ``--seconds`` on a 2-core x86 box
WRITES_PER_SECOND = 5.0


def build_ops(seed: int, seconds: int, graph):
    """Reads, writes, warm-up requests, and the mirror batches for the check.

    Returns ``(ops, warm, batches)``: ``ops`` holds the reads (class
    ``fast``) then the writes (class ``slow``); ``batches[i]`` is write
    ``i`` as a :class:`~repro.dynamic.DeltaBatch`.
    """
    from repro.dynamic import DeltaBatch

    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    probes = rng.sample([node for node in nodes if graph.degree(node) >= PROBE_MIN_DEGREE], PROBES + 1)
    warm_node, probes = probes[0], probes[1:]
    protected = set(probes) | {warm_node}
    writes = max(2, round(seconds * WRITES_PER_SECOND))
    reads = []
    for _ in range(writes * READS_PER_WRITE):
        algorithm, params = rng.choice(READS)
        reads.append(("fast", query_payload(DATASET, algorithm, rng.choice(probes), params)))
    mirror = graph.copy()
    batches, mutations = [], []
    edges = sorted((u, v) for u, v, _ in mirror.iter_edges() if u not in protected and v not in protected)
    free = [node for node in nodes if node not in protected]
    for _ in range(writes):
        # two ops per batch: one removal, one insertion, away from the probes
        batch = DeltaBatch()
        u, v = edges.pop(rng.randrange(len(edges)))
        batch.remove_edge(u, v)
        mirror.remove_edge(u, v)
        while True:
            u, v = rng.sample(free, 2)
            if not mirror.has_edge(u, v):
                break
        batch.add_edge(u, v)
        mirror.add_edge(u, v)
        batches.append(batch)
        mutations.append(("slow", {"op": "mutate", "dataset": DATASET, "ops": batch.to_wire()}))
    warm = [query_payload(DATASET, algorithm, warm_node, params) for algorithm, params in READS]
    return reads + mutations, warm, batches


def lockstep(replay: Replay, reads: int, writes: int) -> float:
    """Alternate the writer and the reader connections, window by window.

    Write ``i`` goes out once the reads of window ``i-1`` are answered; the
    reads of window ``i`` go out once write ``i`` is answered, so they are
    the first reads of a freshly published epoch (cold LRU).  Overlapping
    the two instead made the share of reads stalled behind an epoch prepare
    swing from 15% to over 50% between runs, which flipped the read p50.
    """
    state = {"reads": 0, "writes": 0}
    cond = threading.Condition()

    def reader():
        with replay.served.client() as client:
            for position in range(reads):
                window = min(writes, position // READS_PER_WRITE + 1)
                with cond:
                    cond.wait_for(lambda: state["writes"] >= window)
                replay._one(client, position)
                with cond:
                    state["reads"] += 1
                    cond.notify_all()

    def writer():
        with replay.served.client() as client:
            for index in range(writes):
                with cond:
                    cond.wait_for(lambda: state["reads"] >= index * READS_PER_WRITE)
                replay._one(client, reads + index)
                with cond:
                    state["writes"] += 1
                    cond.notify_all()

    def guarded(target):
        def body():
            try:
                target()
            except BaseException as exc:
                replay.errors.append(exc)
                with cond:  # unblock the other side
                    state["reads"] = state["writes"] = 1 << 30
                    cond.notify_all()
        return body

    threads = [threading.Thread(target=guarded(reader)), threading.Thread(target=guarded(writer))]
    with client_gc_paused():
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    if replay.errors:
        raise BenchError(f"client failed: {replay.errors[0]!r}")
    return wall


def check(ops, replay: Replay, graph, batches) -> int:
    """Writes publish epochs 1..n in order; every read equals the library on its epoch's mirror."""
    from repro.graph import freeze

    failed = 0
    reads = len(ops) - len(batches)
    for index in range(len(batches)):
        flags = replay.responses[reads + index] or {}
        if not flags.get("ok") or flags.get("epoch") != index + 1 or flags.get("index") not in ("repaired", "rebuilt"):
            print(f"  BAD WRITE {index}: {flags}")
            failed += 1
    by_epoch: dict[int, list[int]] = {}
    for position in range(reads):
        flags = replay.responses[position] or {}
        if not flags.get("ok") or not isinstance(flags.get("epoch"), int):
            failed += 1
            continue
        by_epoch.setdefault(flags["epoch"], []).append(position)
    mirror = graph.copy()
    checked = 0
    for epoch in range(len(batches) + 1):
        if epoch:
            for kind, *arguments in batches[epoch - 1]:
                getattr(mirror, kind)(*arguments)
        positions = by_epoch.get(epoch)
        if not positions:
            continue
        frozen = freeze(mirror)
        references = {}
        for position in positions:
            payload = ops[position][1]
            key = request_key(payload)
            if key not in references:
                references[key] = reference_answer(frozen, payload)
            checked += 1
            if replay.answers[position] != references[key]:
                if failed < 5:
                    print(f"  STALE/MISMATCH at epoch {epoch}: {key}")
                failed += 1
    print(f"  checked {checked} reads across {len(by_epoch)} epochs and {len(batches)} writes")
    return failed


def run(seed: int, seconds: int, trace: bool):
    from repro.datasets import load_dataset

    graph = load_dataset(DATASET).graph
    ops, warm, batches = build_ops(seed, seconds, graph)
    reads = len(ops) - len(batches)
    served, setups, peaks = set_up((DATASET,), (), warm, extra=("--epochs",))
    try:
        replay = Replay(served, ops)
        wall = lockstep(replay, reads, len(batches))
    finally:
        code, peak = served.close()
    peaks.append(peak)
    failed = check(ops, replay, graph, batches)
    clean = code == 0
    attempted = len(ops)
    latencies = class_latencies(ops, replay.latency_ms)
    print(f"serve-write: {reads} reads + {len(batches)} writes in {wall:.2f}s, setup {['%.3f' % s for s in setups]}")
    print(describe_latencies("fast (reads)", latencies["fast"]))
    print(describe_latencies("slow (writes)", latencies["slow"]))
    writes = [replay.responses[reads + index] or {} for index in range(len(batches))]

    metrics = Metrics()
    spans = None
    if not trace:
        peaks.append(vm_hwm_mb())
        print(f"  peak RSS (MB) of builders, servers and this process: {['%.0f' % p for p in peaks]}")
        put_end_to_end(metrics, setups, max(peaks), len(ops), wall, latencies["fast"], latencies["slow"])
    else:
        spans = Spans()
        traced, _setups, _peaks = set_up((DATASET,), (), warm, extra=("--epochs", "--trace-sample", "1.0"), repeats=1)
        try:
            traced_replay = Replay(traced, ops, spans=spans)
            traced_wall = lockstep(traced_replay, reads, len(batches))
            with traced.client() as client:
                traced_stats = client.stats()
            metrics.put("graph.index_build_peak_mb", traced.builder_peak_mb, "MB")
        finally:
            code, _ = traced.close()
        failed += check(ops, traced_replay, graph, batches)
        clean = clean and code == 0
        attempted += len(ops)
        metrics.put("obs.trace_overhead", traced_wall / wall, "ratio", len(ops))
        shard_metrics(metrics, traced_stats)
        server_span_metrics(metrics, spans)
        _layer_metrics(metrics, spans, ops[:reads], graph, batches, writes, percentile(latencies["fast"], 50))
    if not clean:
        print("  a server exited with an error")
    return failed == 0 and clean, attempted, failed, metrics, spans


def _layer_metrics(metrics: Metrics, spans: Spans, reads, graph, batches, writes, fast_p50_ms) -> None:
    from layers import graph_layer_replay
    from serving_layers import engine_replay, index_replay, protocol_replay

    cheap = [payload for _cls, payload in reads]
    workdir = fresh_workdir("serve-write-layers-")
    try:
        run_index_builder((DATASET,), (), workdir / "index", workdir)
        results = index_replay(metrics, spans, cheap, {DATASET: graph}, workdir / "index")
        protocol_replay(metrics, spans, cheap, results)
        submit_ms = engine_replay(metrics, spans, cheap, (DATASET,), workdir / "index",
                                  batches=batches, every=READS_PER_WRITE)
    finally:
        remove_workdir(workdir)
    metrics.put("server.wire_ms", fast_p50_ms - submit_ms, "ms", len(cheap))
    _dynamic_replay(metrics, spans, graph, batches)
    repair_ms = [flags.get("index_seconds", 0.0) * 1000.0 for flags in writes]
    metrics.put("dynamic.index_repair_ms", percentile(repair_ms, 50), "ms", len(repair_ms))
    metrics.put("dynamic.incremental_ratio",
                sum(flags.get("mode") == "incremental" for flags in writes) / len(writes), "ratio", len(writes))
    metrics.put("dynamic.index_repaired_ratio",
                sum(flags.get("index") == "repaired" for flags in writes) / len(writes), "ratio", len(writes))
    graph_layer_replay(metrics, spans, {DATASET: graph}, {DATASET: cheap[0]["nodes"][0]})


def _dynamic_replay(metrics: Metrics, spans: Spans, graph, batches) -> None:
    """``EpochManager.prepare`` / ``commit`` on the same batches, in-process."""
    from repro.dynamic import EpochManager
    from repro.graph import build_index

    manager = EpochManager(graph.copy())
    manager.bind_index(build_index(graph, dataset=DATASET))
    prepare_ms, commit_ms = [], []
    for position, batch in enumerate(batches):
        with spans.span("dynamic.prepare", request=f"epoch-{position}"):
            t0 = time.perf_counter()
            prepared = manager.prepare(batch)
            prepare_ms.append((time.perf_counter() - t0) * 1000.0)
        with spans.span("dynamic.commit", request=f"epoch-{position}"):
            t0 = time.perf_counter()
            manager.commit(prepared)
            commit_ms.append((time.perf_counter() - t0) * 1000.0)
    metrics.put("dynamic.prepare_ms", percentile(prepare_ms, 50), "ms", len(prepare_ms))
    metrics.put("dynamic.commit_ms", percentile(commit_ms, 50), "ms", len(commit_ms))
