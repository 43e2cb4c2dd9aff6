"""Golden digests of the corpus's ``analysis_only`` artifacts.

Every one of the 27 paper-corpus programs is analysed statically (the
``analysis_only`` request) and the sha256 of the artifact's
``canonical_json`` is compared with the digest recorded in
``tests/data/golden_artifacts.json``.  Any change in plans, liveness,
sections or slices shows up as a digest mismatch, so performance work
on the analyses (Fourier–Motzkin memo, integer kernel) must leave the
artifacts bit-identical, and none of the analyses may fall back to the
``MAX_CONSTRAINTS`` over-approximation.

Regenerate (only when an artifact change is intended) with::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.poly.fourier_motzkin import emptiness_stats
from repro.service.artifacts import canonical_json
from repro.service.jobs import AnalysisRequest, execute_request
from repro.workloads import ALL

GOLDEN = Path(__file__).parent / "data" / "golden_artifacts.json"


def artifact_digest(name: str) -> str:
    artifact = execute_request(AnalysisRequest(
        name, options={"analysis_only": True}))
    return hashlib.sha256(canonical_json(artifact).encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(ALL)
    assert len(ALL) == 27


@pytest.mark.parametrize("name", sorted(ALL))
def test_analysis_artifact_digest_unchanged(name):
    bail_outs = emptiness_stats()["over_approx"]
    assert artifact_digest(name) == _golden()[name]
    # no corpus analysis needs the MAX_CONSTRAINTS over-approximation
    assert emptiness_stats()["over_approx"] == bail_outs


if __name__ == "__main__":
    digests = {}
    for name in sorted(ALL):
        digests[name] = artifact_digest(name)
        print(name, digests[name], file=sys.stderr)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
