"""Run ``repro`` with the benchmark's generated rungs registered as datasets.

The CLI only serves and indexes registered datasets, so this launcher adds
the seeded generated graphs to the dataset registry of its own process and
then hands over to ``repro.cli.main``::

    python perfbench/launch.py serve --rungs NAME=KIND:N:SEED ... -- <serve args>
    python perfbench/launch.py build --index-dir DIR --rungs ... -- DATASET ...

``build`` writes one index file per dataset and prints its own peak RSS
(``peak_mb <MB>``) as the last line, read from ``/proc`` before it exits.
"""

from __future__ import annotations

import sys

from common import register_rungs, vm_hwm_mb


def main(argv: list[str]) -> int:
    if len(argv) < 1 or argv[0] not in ("serve", "build") or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    mode = argv[0]
    split = argv.index("--")
    own, rest = argv[1:split], argv[split + 1:]
    index_dir = None
    rungs: list[str] = []
    position = 0
    while position < len(own):
        token = own[position]
        if token == "--index-dir":
            index_dir = own[position + 1]
            position += 2
            continue
        if token == "--rungs":
            position += 1
            while position < len(own) and not own[position].startswith("--"):
                rungs.append(own[position])
                position += 1
            continue
        print(f"unknown launcher argument {token!r}", file=sys.stderr)
        return 2
    register_rungs(rungs)

    from repro.cli import main as repro_main

    if mode == "serve":
        return repro_main(["serve", *rest])
    if index_dir is None:
        print("build needs --index-dir", file=sys.stderr)
        return 2
    code = repro_main(["index", "build", *rest, "--index-dir", index_dir])
    print(f"peak_mb {vm_hwm_mb():.3f}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
