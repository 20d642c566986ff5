"""Per-layer metrics of the traced run, and the graph-kernel replay they share.

:data:`PER_LAYER` is the one list of per-layer metric names; ``BENCHMARK.json``
mirrors it (a test keeps the two equal).  Every traced run prints every name:
a layer a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import time

from common import Metrics, Spans, percentile

from peel_ladder import FPA_RUNGS, HUANG_RUNG, NCA_RUNGS

_LADDER_FPA = tuple(rung for rung, _, _ in FPA_RUNGS)
_LADDER_NCA = tuple(rung for rung, _, _ in NCA_RUNGS)

#: (name, unit, better) of every per-layer metric
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("graph.freeze_s", "s", "lower"),
    ("graph.core_numbers_ms", "ms", "lower"),
    ("graph.truss_numbers_ms", "ms", "lower"),
    ("graph.articulation_ms", "ms", "lower"),
    ("graph.bfs_ms", "ms", "lower"),
    ("graph.index_build_s", "s", "lower"),
    ("graph.index_build_peak_mb", "MB", "lower"),
    *((f"core.fpa_ms.{rung}", "ms", "lower") for rung in _LADDER_FPA),
    *((f"core.nca_ms.{rung}", "ms", "lower") for rung in _LADDER_NCA),
    *((f"core.peel_steps.{rung}", "count", "lower") for rung in _LADDER_FPA + _LADDER_NCA),
    *((f"core.us_per_step.{rung}", "us", "lower") for rung in _LADDER_FPA + _LADDER_NCA),
    (f"baselines.huang2015_ms.{HUANG_RUNG[0]}", "ms", "lower"),
    ("baselines.huang2015_deletions", "count", "lower"),
    ("index.search_us", "us", "lower"),
    ("index.answer_nodes", "count", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("engine.submit_ms", "ms", "lower"),
    ("server.wire_ms", "ms", "lower"),
    ("shard.cache_hit_ratio", "ratio", "higher"),
    ("shard.index_hit_ratio", "ratio", "higher"),
    ("shard.coalesced", "count", "higher"),
    ("shard.executed", "count", "lower"),
    ("shard.shed", "count", "lower"),
    ("shard.batch_mean", "count", "higher"),
    ("placement.queue_wait_ms.fast.p50", "ms", "lower"),
    ("placement.queue_wait_ms.fast.p99", "ms", "lower"),
    ("placement.queue_wait_ms.slow.p50", "ms", "lower"),
    ("placement.queue_wait_ms.slow.p99", "ms", "lower"),
    ("executor.execute_ms.fast", "ms", "lower"),
    ("executor.execute_ms.slow", "ms", "lower"),
    ("dynamic.prepare_ms", "ms", "lower"),
    ("dynamic.commit_ms", "ms", "lower"),
    ("dynamic.index_repair_ms", "ms", "lower"),
    ("dynamic.incremental_ratio", "ratio", "higher"),
    ("dynamic.index_repaired_ratio", "ratio", "higher"),
    ("obs.trace_overhead", "ratio", "lower"),
)


def fill_unexercised(metrics: Metrics) -> list[str]:
    """Put 0 for every per-layer metric the workload does not exercise."""
    missing = []
    for name, unit, _ in PER_LAYER:
        if name not in metrics.values:
            metrics.put(name, 0.0, unit, 0)
            missing.append(name)
    unknown = sorted(set(metrics.values) - {name for name, _, _ in PER_LAYER})
    if unknown:
        raise ValueError(f"per-layer metrics missing from PER_LAYER: {unknown}")
    return missing


def put_peel_metrics(metrics: Metrics, algorithm: str, rung: str, items) -> None:
    """Per-rung p50 latency, peel steps and time per step from ``(seconds, steps)`` items.

    ``steps`` is the length of a peel's removal order, or huang2015's
    deletion count.
    """
    ms = [elapsed * 1000.0 for elapsed, _ in items]
    if algorithm == "huang2015":
        # a mean, not a p50: the baseline's cost is bimodal in the query's
        # truss level (the whole 2-truss or a small k-truss to shrink), and
        # a p50 flips between the two modes from seed to seed
        metrics.put(f"baselines.huang2015_ms.{rung}", sum(ms) / len(ms), "ms", len(ms))
        deletions = [steps for _, steps in items]
        metrics.put("baselines.huang2015_deletions", sum(deletions) / len(deletions), "count", len(ms))
        return
    metrics.put(f"core.{algorithm.lower()}_ms.{rung}", percentile(ms, 50), "ms", len(ms))
    steps = [max(1, steps) for _, steps in items]
    metrics.put(f"core.peel_steps.{rung}", sum(steps) / len(steps), "count", len(ms))
    per_step = [elapsed * 1e6 / step for (elapsed, _), step in zip(items, steps)]
    metrics.put(f"core.us_per_step.{rung}", percentile(per_step, 50), "us", len(ms))


def graph_layer_replay(metrics: Metrics, spans: Spans, graphs: dict, queries: dict) -> None:
    """Time the ``graph`` kernels once per graph of the workload, in-process.

    Each metric is the total over the workload's graphs of one call per
    graph: freeze, core numbers, truss numbers, an articulation pass, a BFS
    from one of the workload's query nodes, and an index build.
    """
    from repro.graph import build_index, csr_articulation_points, csr_core_numbers, csr_multi_source_bfs, freeze
    from repro.graph.csr_truss import csr_truss_numbers

    totals = {name: 0.0 for name in ("freeze", "core_numbers", "truss_numbers", "articulation", "bfs", "index_build")}

    def timed(kind: str, rung: str, call):
        with spans.span(f"graph.{kind}", request=f"replay-{rung}", rung=rung):
            t0 = time.perf_counter()
            value = call()
            totals[kind] += time.perf_counter() - t0
        return value

    for rung, graph in sorted(graphs.items()):
        frozen = timed("freeze", rung, lambda: freeze(graph))
        csr = frozen.csr
        timed("core_numbers", rung, lambda: csr_core_numbers(csr))
        timed("truss_numbers", rung, lambda: csr_truss_numbers(csr))
        timed("articulation", rung, lambda: csr_articulation_points(csr))
        source = csr.index_of[queries[rung]]
        timed("bfs", rung, lambda: csr_multi_source_bfs(csr, [source]))
        timed("index_build", rung, lambda: build_index(graph, dataset=rung))
    count = len(graphs)
    metrics.put("graph.freeze_s", totals["freeze"], "s", count)
    for kind in ("core_numbers", "truss_numbers", "articulation", "bfs"):
        metrics.put(f"graph.{kind}_ms", totals[kind] * 1000.0, "ms", count)
    metrics.put("graph.index_build_s", totals["index_build"], "s", count)
