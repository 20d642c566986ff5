"""Run one benchmark workload, check every answer, print its metrics.

Usage::

    python3 perfbench/run.py --workload peel-ladder --seed 1 --seconds 20 --trace 0

Each run builds a fixed op list from ``--seed`` (its length scales with
``--seconds``), sets up from fresh state, replays the list, checks every
answer against the library, and prints one human line per metric (value,
unit, sample count) followed by the JSON result as the last line.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same op list is replayed under the benchmark's own spans and the per-layer
metrics are printed instead (spans are written to ``.perfbench-out/``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
import time

WORKLOADS = ("peel-ladder", "serve-mixed", "serve-write")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    # the program under test is imported from the checkout; without it the
    # benchmark has nothing to measure and must fail before printing a result
    from common import OUT_DIR, BenchError, print_result, shm_segments

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    if args.workload == "peel-ladder":
        import peel_ladder as workload
    elif args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import serve_write as workload

    segments_before = shm_segments()
    started = time.perf_counter()
    try:
        correct, attempted, failed, metrics, spans = workload.run(args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    leaked = sorted(shm_segments() - segments_before)
    if leaked:
        print(f"LEAKED shared-memory segments: {leaked}")
        correct = False
    if args.trace:
        from layers import fill_unexercised

        missing = fill_unexercised(metrics)
        if missing:
            print(f"not exercised on {args.workload} (reported as 0): {', '.join(missing)}")
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans.write(path)
        print(f"{len(spans.items)} spans written to {path}")
    print(f"{args.workload}: run took {time.perf_counter() - started:.1f}s")
    print_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
