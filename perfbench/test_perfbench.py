"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import programs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.ir import build_program  # noqa: E402
from repro.obs import Tracer as ProgramTracer  # noqa: E402
from repro.obs import activate  # noqa: E402
from repro.obs.export import phase_totals  # noqa: E402
from repro.runtime import run_program  # noqa: E402
from repro.service.artifacts import canonical_json  # noqa: E402
from repro.service.jobs import AnalysisRequest, execute_request  # noqa: E402
from repro.workloads import ALL, get  # noqa: E402

ORACLE = workloads.load_oracle()
NAMES = sorted(ALL)
#: The paper's interprocedural programs, the subjects of an edit session.
EDIT_PROGRAMS = ("mdg", "arc3d", "hydro", "flo88", "wave5", "hydro2d")


def _edit_session(name: str, seed: int, steps: int = 12):
    w = get(name)
    program = build_program(w.source, name)
    procs = {p: proc.source_lines for p, proc in program.procedures.items()}
    rng = programs.rng_for(seed, "edit", name)
    return [programs.edit_step(w.source, procs, rng, f"{seed}.{i}")
            for i in range(steps)]


def test_same_seed_same_requests_other_seed_differs():
    def plan(seed):
        return json.dumps({
            "cold": [programs.cold_order(NAMES, seed, lane)
                     for lane in range(workloads.EXPLORE_LANES)],
            "service": workloads.service_requests(seed, NAMES, "untraced",
                                                  3),
            "edits": {n: _edit_session(n, seed)
                      for n in EDIT_PROGRAMS},
        }, sort_keys=True)
    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


@pytest.mark.parametrize("name", EDIT_PROGRAMS)
def test_every_edited_source_builds(name):
    steps = _edit_session(name, 3, steps=24)
    assert {s["kind"] for s in steps} == {"comment", "literal"}
    for step in steps:
        program = build_program(step["source"], name)
        assert step["proc"] in program.procedures


def test_service_edits_build_and_query_real_loops():
    plan = workloads.service_requests(5, NAMES, "untraced", 4)
    edits = [r for r in plan if r["kind"] == "edit"]
    assert edits
    for req in edits:
        program = build_program(req["body"]["source"], req["name"])
        for query in req["body"]["options"]["slice"]:
            program.loop(query)


@pytest.mark.parametrize("name", ["wave5", "hydro2d", "arc3d"])
def test_comment_edits_keep_tree_oracle_outputs(name):
    w = get(name)
    program = build_program(w.source, name)
    for proc in program.procedures.values():
        edited = programs.comment_edit(w.source, proc.source_lines.start,
                                       "probe")
        run = run_program(build_program(edited, name), w.inputs,
                          engine="tree")
        assert [float(v) for v in run.outputs] == ORACLE[name]["outputs"]


def test_removed_wrappers_leave_the_original_functions():
    tracing.import_all()
    before = {(id(m), k): v for m in list(sys.modules.values())
              if getattr(m, "__name__", "").startswith("repro")
              for k, v in vars(m).items()}
    tracer = tracing.Tracer().install()
    patched = list(tracer._patches)
    assert len(patched) > len(tracing.TARGETS)
    for owner, name, orig in patched:
        assert vars(owner)[name] is not orig
    tracer.remove()
    for owner, name, orig in patched:
        assert vars(owner)[name] is orig
    after = {(id(m), k): v for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith("repro")
             for k, v in vars(m).items()}
    assert all(after[k] is v for k, v in before.items())


def _request(name, **options):
    w = get(name)
    return AnalysisRequest(source=w.source, program_name=name,
                           inputs=list(w.inputs), options=options)


@pytest.mark.parametrize("options", [{}, {"analysis_only": True}])
def test_traced_and_untraced_artifacts_are_identical(options):
    first = execute_request(_request("wave5", **options))
    with tracing.Tracer() as tracer:
        tracer.request = "wave5"
        traced = execute_request(_request("wave5", **options))
    assert canonical_json(traced) == canonical_json(first)
    assert tracer.spans


def test_spans_from_forked_requests_keep_their_parents():
    with tracing.Tracer() as tracer:
        def call(name):
            first = len(tracer.spans)
            tracer.request = name
            execute_request(_request(name))
            return first, tracer.spans[first:]
        for name in ("ora", "wave5"):
            tracer.merge(*reversed(workloads.in_child(call, name)))
    rows = tracer.per_request()
    for name in ("ora", "wave5"):
        assert rows[name]["parallelize"] > 0
        assert min(rows[name].values()) >= 0


def _sleep_then(value, seconds):
    import time
    time.sleep(seconds)
    if value is None:
        raise ValueError("no value")
    return value


def test_children_run_side_by_side_and_answer_in_order():
    lanes = [[(_sleep_then, (1, 0.3)), (_sleep_then, (2, 0.0))],
             [(_sleep_then, (None, 0.0)), (_sleep_then, (4, 0.3))]]
    assert workloads.in_children(lanes) == [
        [(True, 1), (True, 2)], [(False, "ValueError: no value"), (True, 4)]]


def test_wrappers_see_every_phase_the_program_spans():
    query = build_program(get("mdg").source, "mdg").loop_names()[0]
    with tracing.Tracer() as tracer:
        tracer.request = "mdg"
        with activate(ProgramTracer()) as inside:
            artifact = execute_request(_request("mdg", slice=[query]))
    assert artifact["execution"]["outputs"] == ORACLE["mdg"]["outputs"]
    tracer.close_request("mdg")
    gaps = tracing.phase_gaps(tracer.per_request()["mdg"],
                              phase_totals(inside.finished_spans()))
    assert set(gaps) == set(tracing.PHASE_LAYERS)
    for phase, gap in gaps.items():
        assert gap["program_spans"] > 0, phase
        assert gap["wrapper_calls"] > 0, phase
    values = tracing.layer_metrics(tracer, ["mdg"])
    assert values["poly.fm_runs"] > 0
    assert 0 < values["poly.fm_distinct_share"] <= 1
    assert values["runtime.profile_mops"] > 0
    assert values["slicing.queries"] == 1
    assert values["slicing.slice_ms"] > 0
    program, plan = tracer.plan
    assert program.name == "mdg" and plan.loops


def test_replay_measures_the_incremental_layers(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "REPLAY_EDITS", 2)
    plan = workloads.service_requests(5, NAMES, "traced", 2)
    requests = workloads.replay_requests(plan)
    assert [r["kind"] for r in requests].count("edit") == 2
    with tracing.Tracer() as tracer:
        run = workloads.replay(requests, tmp_path / "proc", tracer)
    plain = workloads.replay(requests, tmp_path / "again")
    assert [r["sha"] for r in run["rows"]] == \
        [r["sha"] for r in plain["rows"]]
    values = tracing.layer_metrics(tracer, [r["rid"] for r in run["rows"]])
    for name in ("analysis.incr_ms", "artifacts.get_ms", "artifacts.put_ms",
                 "slicing.slice_ms", "lang.parse_ms", "runtime.profile_ms"):
        assert values[name] > 0, name
    assert values["slicing.queries"] == 2
    assert 0 <= values["analysis.incr_hit_share"] <= 1


def test_par_backend_step_matches_the_oracle():
    w = get("wave5")
    program = build_program(w.source, "wave5")
    from repro.parallelize import Parallelizer
    plan = Parallelizer(program).plan()
    row = workloads.in_child(workloads.par_backend_run, program, plan,
                             list(w.inputs), ORACLE["wave5"]["outputs"],
                             True)
    assert row["why"] == ""
    assert row["dispatches"] > 0 and row["offloaded"] > 0
    assert row["run_ms"] > 0 and row["first_run_ms"] > 0
    layers = workloads.par_backend_layers({"wave5": row})
    assert layers["par_backend.speedup"] > 0
    assert 0 < layers["par_backend.offload_share"] <= 1


def test_percentile_is_a_smoothed_order_statistic():
    assert workloads.percentile([0.25] * 7, 60) == pytest.approx(0.25)
    values = [i / 999 for i in range(1000)]
    for pct in (50, 60, 95):
        assert workloads.percentile(values, pct) == \
            pytest.approx(pct / 100, abs=2e-3)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(workloads.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.LAYER_UNITS
    sample = workloads.Samples()
    sample.add("x", 0.1, True)
    e2e = sample.end_to_end("explore-cold", 1.0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {w["name"] for w in spec["workloads"]} == \
        set(workloads.TAIL_PERCENTILE)


def test_fails_without_the_system_under_test(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
