"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload explore-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` runs the workload again with the layer
wrappers in and prints the per-layer metrics instead.  The last line of
standard output is the result object; lines before it name any failed
request and, for traced runs, the per-program rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no system under test at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    runners = {"explore-cold": workloads.explore_cold,
               "service-mix": workloads.service_mix}
    if args.workload not in runners:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(runners)}")
    out = runners[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
