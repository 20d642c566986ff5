"""In-process replays of the serving-path layers over a workload's requests.

Each replay calls one layer's public functions on the same requests the
server answered, under the benchmark's own spans, so a layer's cost is
measured without the socket and the other layers around it.
"""

from __future__ import annotations

import asyncio
import json
import time

from common import Metrics, Spans, percentile


def _distinct(payloads):
    from serve_common import request_key

    seen = {}
    for payload in payloads:
        seen.setdefault(request_key(payload), payload)
    return list(seen.values())


def index_replay(metrics: Metrics, spans: Spans, payloads, graphs, index_dir) -> dict:
    """``CommunityIndex.search`` once per distinct request; returns the results."""
    from repro.graph import freeze, index_path, load_index
    from serve_common import request_key

    indexes = {}
    for name, graph in graphs.items():
        frozen = freeze(graph)
        index = load_index(index_path(name, index_dir))
        index.bind(frozen)
        indexes[name] = (index, frozen)
    results, micros, sizes = {}, [], []
    for position, payload in enumerate(_distinct(payloads)):
        index, frozen = indexes[payload["dataset"]]
        params = payload.get("params", {})
        with spans.span("index.search", request=f"index-{position}"):
            t0 = time.perf_counter()
            result = index.search(payload["algorithm"], payload["nodes"], graph=frozen, **params)
            micros.append((time.perf_counter() - t0) * 1e6)
        results[request_key(payload)] = result
        sizes.append(result.size)
    metrics.put("index.search_us", percentile(micros, 50), "us", len(micros))
    metrics.put("index.answer_nodes", sum(sizes) / len(sizes), "count", len(sizes))
    return results


def protocol_replay(metrics: Metrics, spans: Spans, payloads, results: dict) -> None:
    """``parse_request`` on every request; ``result_payload`` + JSON encode on its result."""
    from repro.serving.protocol import encode, parse_request, result_payload
    from serve_common import request_key

    decode_us, encode_us = [], []
    for position, payload in enumerate(payloads):
        line = json.dumps(payload).encode()
        with spans.span("protocol.decode", request=f"protocol-{position}"):
            t0 = time.perf_counter()
            request = parse_request(json.loads(line))
            decode_us.append((time.perf_counter() - t0) * 1e6)
        result = results[request_key(payload)]
        with spans.span("protocol.encode", request=f"protocol-{position}"):
            t0 = time.perf_counter()
            encode(result_payload(request, result))
            encode_us.append((time.perf_counter() - t0) * 1e6)
    metrics.put("protocol.decode_us", percentile(decode_us, 50), "us", len(decode_us))
    metrics.put("protocol.encode_us", percentile(encode_us, 50), "us", len(encode_us))


def engine_replay(metrics: Metrics, spans: Spans, payloads, datasets, index_dir, *, batches=(), every=0) -> float:
    """``ServingEngine.submit`` over the requests in order, no socket; returns the p50 (ms).

    With ``batches``, the engine runs epochal and publishes batch ``i``
    before request ``i * every``, the order the lockstep replay sends them.
    """
    from repro.serving import ServingEngine
    from repro.serving.protocol import parse_request

    async def replay() -> list[float]:
        engine = ServingEngine(datasets=list(datasets), executor="inline", index="require",
                               index_dir=str(index_dir), epochs=bool(batches))
        await engine.start()
        try:
            elapsed = []
            for position, payload in enumerate(payloads):
                if batches and position % every == 0 and position // every < len(batches):
                    await engine.mutate(payload["dataset"], batches[position // every])
                request = parse_request(payload)
                with spans.span("engine.submit", request=f"engine-{position}"):
                    t0 = time.perf_counter()
                    await engine.submit(request)
                    elapsed.append((time.perf_counter() - t0) * 1000.0)
            return elapsed
        finally:
            await engine.close()

    elapsed = asyncio.run(replay())
    submit_ms = percentile(elapsed, 50)
    metrics.put("engine.submit_ms", submit_ms, "ms", len(elapsed))
    return submit_ms


def fpa_replay(metrics: Metrics, spans: Spans, payloads, frozen) -> None:
    """The served FPA requests as library calls, per dataset (memo already warm)."""
    from layers import put_peel_metrics
    from repro.core import fpa

    by_dataset: dict[str, list] = {}
    for position, payload in enumerate(payloads):
        name = payload["dataset"]
        with spans.span("core.fpa", request=f"fpa-{position}", rung=name):
            t0 = time.perf_counter()
            result = fpa(frozen[name], payload["nodes"])
            by_dataset.setdefault(name, []).append((time.perf_counter() - t0, len(result.removal_order)))
    for name, items in sorted(by_dataset.items()):
        put_peel_metrics(metrics, "FPA", name, items)
