"""Workload ``serve-mixed``: a real ``repro serve`` under a cheap-heavy read mix.

The server runs the inline executor with ``--index require`` (index files
are built during set-up) and the default LRU.  It serves the bundled dblp,
youtube and livejournal plus one seeded LFR rung.  Two closed-loop
connections from this process replay one fixed seeded list:

* ``fast`` (95%): index-served kc / kt / hightruss / kecc on the bundled
  datasets (default parameters) and kt k=3 on the LFR rung, whose answers
  are community-sized.  30% of them go to a hot set of 8
  nodes per dataset, which the LRU answers after their first touch.
* ``slow`` (5%): FPA on a bundled dataset from a node used once, so every
  one executes.

Kernel work is small, so the protocol, server, shard (LRU, coalescing),
placement queue and index search dominate; the FPA share puts a one-peel
wait into the fast class's tail.
"""

from __future__ import annotations

import random

from common import (
    Metrics,
    Spans,
    describe_latencies,
    load_graph,
    percentile,
    put_end_to_end,
    register_rungs,
    rung_spec,
    vm_hwm_mb,
)
from serve_common import (
    Replay,
    class_latencies,
    query_payload,
    reference_answer,
    request_key,
    server_span_metrics,
    set_up,
    shard_metrics,
)

BUNDLED = ("dblp", "youtube", "livejournal")
RUNG = ("lfr20k", "lfr", 20_000)
#: cheap (index-served) algorithms and parameters per dataset kind
BUNDLED_CHEAP = (("kc", {}), ("kt", {}), ("hightruss", {}), ("kecc", {}))
RUNG_CHEAP = (("kt", {"k": 3}),)
SLOW_SHARE = 0.05
HOT_SHARE = 0.30
HOT_NODES = 8
#: ops per second of ``--seconds``: a fixed op count, sized so one run
#: measures about ``--seconds`` on a 2-core x86 box
OPS_PER_SECOND = 700


def rungs() -> list[str]:
    """The LFR rung's launcher spec; its generator seed is fixed (see peel_ladder)."""
    return [rung_spec(RUNG[0], RUNG[1], RUNG[2], 1)]


def datasets() -> tuple[str, ...]:
    return (*BUNDLED, RUNG[0])


def cheap_specs(dataset: str):
    return RUNG_CHEAP if dataset == RUNG[0] else BUNDLED_CHEAP


def build_ops(seed: int, seconds: int, graphs):
    """The fixed seeded op list, plus the warm-up requests (nodes kept out of the list)."""
    rng = random.Random(seed)
    nodes = {name: sorted(graph.nodes(), key=repr) for name, graph in graphs.items()}
    warm_node = {name: nodes[name][0] for name in nodes}
    warm = [query_payload(name, algorithm, warm_node[name], params)
            for name in datasets() for algorithm, params in cheap_specs(name)]
    warm += [query_payload(name, "FPA", warm_node[name], {}) for name in BUNDLED]
    pools = {name: nodes[name][1:] for name in nodes}
    hot = {name: rng.sample(pools[name], HOT_NODES) for name in nodes}
    fresh_fpa = {name: rng.sample(pools[name], len(pools[name])) for name in BUNDLED}
    total = max(40, round(seconds * OPS_PER_SECOND))
    ops = []
    for _ in range(total):
        if rng.random() < SLOW_SHARE:
            name = rng.choice(BUNDLED)
            ops.append(("slow", query_payload(name, "FPA", fresh_fpa[name].pop(), {})))
            continue
        name = rng.choice(datasets())
        algorithm, params = rng.choice(cheap_specs(name))
        node = rng.choice(hot[name]) if rng.random() < HOT_SHARE else rng.choice(pools[name])
        ops.append(("fast", query_payload(name, algorithm, node, params)))
    return ops, warm


def check(ops, replay: Replay, frozen) -> int:
    """Every served answer against the library on a fresh snapshot (once per distinct request)."""
    references = {}
    failed = 0
    for position, (_cls, payload) in enumerate(ops):
        flags = replay.responses[position]
        if flags is None or not flags.get("ok"):
            failed += 1
            continue
        key = request_key(payload)
        if key not in references:
            references[key] = reference_answer(frozen[payload["dataset"]], payload)
        if replay.answers[position] != references[key]:
            if failed < 5:
                print(f"  MISMATCH {key}")
            failed += 1
    print(f"  checked {len(ops)} answers against {len(references)} distinct library references")
    return failed


def run(seed: int, seconds: int, trace: bool):
    from repro.graph import freeze

    specs = rungs()
    graphs = {name: load_graph(name, specs) for name in datasets()}
    ops, warm = build_ops(seed, seconds, graphs)

    served, setups, peaks = set_up(datasets(), specs, warm)
    try:
        replay = Replay(served, ops)
        wall = replay.run()
    finally:
        code, peak = served.close()
    peaks.append(peak)
    frozen = {name: freeze(graph) for name, graph in graphs.items()}
    failed = check(ops, replay, frozen)
    clean = code == 0
    attempted = len(ops)
    latencies = class_latencies(ops, replay.latency_ms)
    _report(ops, replay, wall, setups)

    metrics = Metrics()
    spans = None
    if not trace:
        peaks.append(vm_hwm_mb())
        print(f"  peak RSS (MB) of builders, servers and this process: {['%.0f' % p for p in peaks]}")
        put_end_to_end(metrics, setups, max(peaks), len(ops), wall, latencies["fast"], latencies["slow"])
    else:
        spans = Spans()
        traced, _setups, _peaks = set_up(datasets(), specs, warm, extra=("--trace-sample", "1.0"), repeats=1)
        try:
            traced_replay = Replay(traced, ops, spans=spans)
            traced_wall = traced_replay.run()
            with traced.client() as client:
                traced_stats = client.stats()
            layer_inputs = (traced.index_dir, traced.builder_peak_mb)
            _layer_metrics(metrics, spans, ops, graphs, frozen, specs, layer_inputs,
                           percentile(latencies["fast"], 50))
        finally:
            code, _ = traced.close()
        failed += check(ops, traced_replay, frozen)
        clean = clean and code == 0
        attempted += len(ops)
        metrics.put("obs.trace_overhead", traced_wall / wall, "ratio", len(ops))
        shard_metrics(metrics, traced_stats)
        server_span_metrics(metrics, spans)
    if not clean:
        print("  a server exited with an error")
    return failed == 0 and clean, attempted, failed, metrics, spans


def _report(ops, replay: Replay, wall: float, setups) -> None:
    print(f"serve-mixed: {len(ops)} ops in {wall:.2f}s, setup {['%.3f' % s for s in setups]}")
    latencies = class_latencies(ops, replay.latency_ms)
    for cls in ("fast", "slow"):
        print(describe_latencies(cls, latencies[cls]))
    sizes: dict[tuple, list[int]] = {}
    cached = 0
    for (cls, payload), flags in zip(ops, replay.responses):
        if flags and flags.get("ok"):
            sizes.setdefault((payload["dataset"], payload["algorithm"]), []).append(flags.get("size", 0))
            cached += bool(flags.get("cached"))
    print(f"  LRU hits {cached}/{len(ops)}")
    for key in sorted(sizes):
        print(f"  mean answer size {key[0]}/{key[1]}: {sum(sizes[key]) / len(sizes[key]):.0f} nodes "
              f"(n={len(sizes[key])})")


def _layer_metrics(metrics: Metrics, spans: Spans, ops, graphs, frozen, specs, layer_inputs, fast_p50_ms) -> None:
    """In-process replays of the layers the served requests pass through."""
    from layers import graph_layer_replay
    from serving_layers import engine_replay, fpa_replay, index_replay, protocol_replay

    index_dir, builder_peak_mb = layer_inputs
    metrics.put("graph.index_build_peak_mb", builder_peak_mb, "MB")
    cheap = [payload for cls, payload in ops if cls == "fast"]
    results = index_replay(metrics, spans, cheap, graphs, index_dir)
    protocol_replay(metrics, spans, cheap, results)
    register_rungs(specs)
    submit_ms = engine_replay(metrics, spans, cheap, datasets(), index_dir)
    metrics.put("server.wire_ms", fast_p50_ms - submit_ms, "ms", len(cheap))
    fpa_replay(metrics, spans, [payload for cls, payload in ops if cls == "slow"], frozen)
    queries = {payload["dataset"]: payload["nodes"][0] for payload in cheap}
    graph_layer_replay(metrics, spans, graphs, queries)
