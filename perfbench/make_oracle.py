"""Regenerate ``oracle.json``: tree-interpreter outputs for every request
the benchmark checks.

The tree engine is the repository's independent reference interpreter,
so the expected outputs do not depend on the engines being measured.
Covers the 27 paper-corpus programs and the ``pbench`` DOALL kernel.
Run from the repository root::

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from programs import PBENCH_SOURCE  # noqa: E402


def main() -> None:
    from repro.ir import build_program
    from repro.runtime import run_program
    from repro.workloads import ALL

    programs = {name: (w.source, list(w.inputs)) for name, w in ALL.items()}
    programs["pbench"] = (PBENCH_SOURCE, [])
    oracle = {}
    for name, (source, inputs) in programs.items():
        run = run_program(build_program(source, name), inputs,
                          engine="tree")
        oracle[name] = {"outputs": [float(v) for v in run.outputs],
                        "ops": int(run.ops)}
        print(f"{name}: {run.ops} ops", file=sys.stderr, flush=True)
    (HERE / "oracle.json").write_text(
        json.dumps(oracle, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
