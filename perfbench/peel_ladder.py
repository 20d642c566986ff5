"""Workload ``peel-ladder``: the paper's peels as library calls on a size ladder.

One thread, no server: NCA, FPA and the huang2015 baseline run on frozen
snapshots of the bundled datasets plus seeded generated rungs.  Nearly all
the time goes to the peel loops and the ``graph`` kernels, so a kernel change
shows here and a serving change must not.
"""

from __future__ import annotations

import random
import time

from common import (
    SETUP_REPEATS,
    Metrics,
    Spans,
    describe_latencies,
    fresh_workdir,
    load_graph,
    put_end_to_end,
    remove_workdir,
    run_index_builder,
    rung_spec,
    vm_hwm_mb,
)

#: (rung, generator kind or None for a bundled dataset, size)
FPA_RUNGS = (
    ("dblp", None, 0),
    ("youtube", None, 0),
    ("livejournal", None, 0),
    ("ba10k", "ba", 10_000),
    ("ba30k", "ba", 30_000),
)
NCA_RUNGS = (
    ("karate", None, 0),
    ("dolphin", None, 0),
    ("mexican", None, 0),
    ("lfr300", "lfr", 300),
    ("lfr500", "lfr", 500),
)
HUANG_RUNG = ("ba300", "ba", 300)

#: one round of the op list: (algorithm, rung, repeats).  The largest FPA
#: and NCA rungs repeat so their classes collect enough samples.
ROUND = (
    [("FPA", rung, 1) for rung, _, _ in FPA_RUNGS[:-1]]
    + [("FPA", FPA_RUNGS[-1][0], 4)]
    + [("NCA", rung, 1) for rung, _, _ in NCA_RUNGS[:-1]]
    + [("NCA", NCA_RUNGS[-1][0], 2)]
    + [("huang2015", HUANG_RUNG[0], 2)]
)
#: rounds per second of ``--seconds``: a fixed op count, sized so one run
#: measures about ``--seconds`` on a 2-core x86 box
ROUNDS_PER_SECOND = 1.35

FAST = ("FPA", FPA_RUNGS[-1][0])
SLOW = ("NCA", NCA_RUNGS[-1][0])


def rung_specs() -> list[str]:
    """Launcher specs of the generated rungs.

    Their generator seeds are fixed, like the bundled surrogates' are: a
    rung's graph is part of the workload's definition, and ``--seed`` picks
    the ops.  (Graphs drawn per seed moved the FPA p50 on the largest rung
    by ~6% and the rung's index build time by up to 2x between seeds.)
    """
    return [
        rung_spec(rung, kind, size, position + 1)
        for position, (rung, kind, size) in enumerate((*FPA_RUNGS, *NCA_RUNGS, HUANG_RUNG))
        if kind is not None
    ]


def _graphs() -> dict:
    specs = rung_specs()
    return {
        rung: load_graph(rung, specs) for rung, _, _ in (*FPA_RUNGS, *NCA_RUNGS, HUANG_RUNG)
    }


def _setup():
    """Generate the rungs, freeze them, and warm each rung x algorithm once."""
    from repro.experiments.registry import run_algorithm
    from repro.graph import freeze

    graphs = _graphs()
    frozen = {rung: freeze(graph) for rung, graph in graphs.items()}
    for algorithm, rung, _ in ROUND:
        graph = graphs[rung]
        warm = max(graph.nodes(), key=lambda node: (graph.degree(node), repr(node)))
        run_algorithm(algorithm, frozen[rung], [warm])
    return graphs, frozen


def build_ops(seed: int, seconds: int, graphs) -> list[tuple[str, str, object]]:
    """The fixed seeded op list: ``(algorithm, rung, query node)``, shuffled."""
    rng = random.Random(seed)
    nodes = {rung: sorted(graph.nodes(), key=repr) for rung, graph in graphs.items()}
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    ops = []
    for _ in range(rounds):
        for algorithm, rung, repeats in ROUND:
            for _ in range(repeats):
                ops.append((algorithm, rung, rng.choice(nodes[rung])))
    rng.shuffle(ops)
    return ops


class Outcome:
    """What the checks and metrics need from one call; the full result is dropped.

    Keeping every ``CommunityResult`` (FPA's removal order and trace hold one
    entry per node) would grow the heap through the run and slow later calls
    through the garbage collector.
    """

    __slots__ = ("seconds", "nodes", "score", "steps")

    def __init__(self, seconds: float, result) -> None:
        self.seconds = seconds
        self.nodes = result.nodes
        self.score = result.score
        # peel steps, or the baseline's deletions
        self.steps = result.extra.get("deletions", 0) if result.algorithm == "huang2015" else len(result.removal_order)


def _replay(ops, frozen, spans=None):
    """Run the op list; returns the summed call time and one :class:`Outcome` per op."""
    from repro.experiments.registry import run_algorithm

    outcomes = []
    busy = 0.0
    for position, (algorithm, rung, query) in enumerate(ops):
        if spans is None:
            t0 = time.perf_counter()
            result = run_algorithm(algorithm, frozen[rung], [query])
            elapsed = time.perf_counter() - t0
        else:
            with spans.span("op", request=position) as root:
                name = "baselines.huang2015" if algorithm == "huang2015" else f"core.{algorithm.lower()}"
                t0 = time.perf_counter()
                with spans.span(name, request=position, parent=root, rung=rung):
                    result = run_algorithm(algorithm, frozen[rung], [query])
                elapsed = time.perf_counter() - t0
        busy += elapsed
        outcomes.append(Outcome(elapsed, result))
    return busy, outcomes


def _check(ops, outcomes, graphs) -> int:
    """Every answer is non-empty, holds its query node and is connected; each
    rung x algorithm also matches the dict-backend reference on its first op."""
    from repro.experiments.registry import run_algorithm
    from repro.graph import connected_component_containing

    failed = 0
    parity_done = set()
    for (algorithm, rung, query), outcome in zip(ops, outcomes):
        nodes = outcome.nodes
        ok = bool(nodes) and query in nodes and (
            connected_component_containing(graphs[rung].subgraph(nodes), query) == set(nodes)
        )
        if ok and (algorithm, rung) not in parity_done:
            parity_done.add((algorithm, rung))
            reference = run_algorithm(algorithm, graphs[rung], [query])
            ok = reference.nodes == nodes and reference.score == outcome.score
        if not ok:
            print(f"  MISMATCH {algorithm} on {rung} from {query!r}")
            failed += 1
    return failed


def run(seed: int, seconds: int, trace: bool):
    setups = []
    for _ in range(SETUP_REPEATS):
        graphs = frozen = None  # every set-up starts from fresh state
        t0 = time.perf_counter()
        graphs, frozen = _setup()
        setups.append(time.perf_counter() - t0)
    ops = build_ops(seed, seconds, graphs)
    busy, results = _replay(ops, frozen)
    failed = _check(ops, results, graphs)
    attempted = len(ops)

    latencies: dict[tuple, list[float]] = {}
    for (algorithm, rung, _), outcome in zip(ops, results):
        latencies.setdefault((algorithm, rung), []).append(outcome.seconds * 1000.0)
    print(f"peel-ladder: {len(ops)} ops, {busy:.2f}s in calls, setup {['%.3f' % s for s in setups]}")
    for key in sorted(latencies):
        print(describe_latencies(f"{key[0]} on {key[1]}", latencies[key]))

    metrics = Metrics()
    spans = None
    if not trace:
        put_end_to_end(metrics, setups, vm_hwm_mb(), len(ops), busy, latencies[FAST], latencies[SLOW])
    else:
        spans = Spans()
        traced_busy, traced_results = _replay(ops, frozen, spans)
        failed += _check(ops, traced_results, graphs)
        attempted += len(ops)
        metrics.put("obs.trace_overhead", traced_busy / busy, "ratio", len(ops))
        _layer_metrics(metrics, spans, ops, traced_results, graphs)
        workdir = fresh_workdir("peel-ladder-")
        try:
            with spans.span("graph.index_build_process", request="replay"):
                peak = run_index_builder(sorted(graphs), rung_specs(), workdir / "index", workdir)
            metrics.put("graph.index_build_peak_mb", peak, "MB")
        finally:
            remove_workdir(workdir)
    return failed == 0, attempted, failed, metrics, spans


def _layer_metrics(metrics: Metrics, spans: Spans, ops, results, graphs) -> None:
    from layers import graph_layer_replay, put_peel_metrics

    by_rung: dict[tuple, list] = {}
    for (algorithm, rung, _), outcome in zip(ops, results):
        by_rung.setdefault((algorithm, rung), []).append((outcome.seconds, outcome.steps))
    for (algorithm, rung), items in sorted(by_rung.items()):
        put_peel_metrics(metrics, algorithm, rung, items)
    queries = {rung: query for _, rung, query in ops}
    graph_layer_replay(metrics, spans, {rung: graphs[rung] for rung in queries}, queries)
