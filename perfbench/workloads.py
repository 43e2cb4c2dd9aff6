"""The benchmark workloads.  Each is a closed loop from one client: the
next request goes out when the previous one's result is back, and a
request is timed from send to result received.

A workload runs whole rounds (a fixed, seeded request sequence) until
``seconds`` have passed; the round in flight when time runs out
finishes.  A result is only counted as completed when its output check
passes; every other outcome is a failure and is named in the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import os
import pickle
import resource
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import programs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Per workload, the latency percentile reported as ``latency_tail_ms``,
#: fixed so it is the same on every commit and every run: explore-cold's
#: 54 requests per run leave 10.8 beyond p80, service-mix's window of
#: about a thousand requests about 50 beyond p95.
TAIL_PERCENTILE = {"explore-cold": 80, "service-mix": 95}

#: Share of each service-mix block of 20 requests, by kind, and the
#: exponent of the Zipf popularity of the corpus names.  Both are
#: assumptions, not taken from a measured trace (see README.md).
SERVICE_BLOCK = {"hit": 14, "miss": 3, "edit": 3}
SERVICE_ZIPF_S = 1.1
SERVICE_CONNECTIONS = 2            # ``nproc`` on the reference host
SERVICE_TIMEOUT_S = 120.0
#: Request blocks planned per measured second; the plan must outlast
#: the window (the run fails loudly if it does not).
SERVICE_BLOCKS_PER_S = 8

#: Analysis-only edits a traced service-mix run replays in-process under
#: the wrappers, with every synth miss submitted before the last of them.
REPLAY_EDITS = 40

#: explore-cold closed loops, each over the whole corpus in its own
#: seeded order (``nproc`` on the reference host).  Every lane does the
#: same work whatever its order, so the lanes finish together; a single
#: lane's 27 latencies were too few for a steady median.
EXPLORE_LANES = 2

#: Worker processes of the par_backend step (``nproc`` on the reference
#: host), and the corpus programs it leaves out: flo88's par_backend run
#: alone takes about 194 s, longer than a whole benchmark run may last.
PAR_WORKERS = 2
PAR_SKIP = ("flo88",)

_now = time.perf_counter

#: Every per-layer metric a traced run prints, with its unit.  Layers a
#: workload does not call read 0.
LAYER_UNITS = dict(
    [(n, "ms") for n in (
        "lang.parse_ms", "ir.build_ms", "analysis.symbolic_ms",
        "analysis.region_ms", "analysis.liveness_ms", "poly.fm_ms",
        "poly.section_ms", "parallelize.plan_ms", "parallelize.self_ms",
        "runtime.codegen_ms", "runtime.profile_ms", "runtime.dyndep_ms",
        "runtime.cost_ms", "explorer.guru_ms", "explorer.snapshot_ms",
        "service.queue_ms", "service.run_ms", "service.overhead_ms",
        "slicing.slice_ms", "analysis.incr_ms", "artifacts.get_ms",
        "artifacts.put_ms", "par_backend.run_ms", "par_backend.seq_ms",
        "par_backend.dispatch_ms", "par_backend.first_run_ms")]
    + [(n, "count") for n in ("poly.is_empty_calls", "poly.fm_runs",
                              "service.retries", "slicing.queries",
                              "par_backend.dispatches")]
    + [("par_backend.speedup", "x")]
    + [(n, "Mop/s") for n in ("runtime.profile_mops", "runtime.dyndep_mops",
                              "runtime.cost_mops")]
    + [(n, "ratio") for n in (
        "poly.fm_distinct_share", "service.hit_share",
        "service.dedupe_share", "service.shed_share",
        "service.proc_hit_share", "service.codegen_hit_share",
        "analysis.incr_hit_share", "artifacts.hit_share",
        "par_backend.offload_share", "obs.trace_overhead_share")]
    + [("programs.geomean_ms", "ms")]
    + [(f"program.{n}_ms", "ms") for n in (
        "adm", "appbt", "arc3d", "bdna", "cgm", "doduc", "dyfesm", "ear",
        "embar", "flo88", "flo88_fused", "hydro", "hydro2d", "mdg",
        "mdljdp2", "mgrid", "nasa7", "ocean", "ora", "qcd", "spec77",
        "su2cor", "swm256", "tomcatv", "track", "trfd", "wave5")])


def load_oracle() -> Dict[str, Dict]:
    return json.loads((HERE / "oracle.json").read_text())


def percentile(values: Sequence[float], pct: float) -> float:
    """The Harrell-Davis estimate of a percentile: a Beta-weighted mean of
    all order statistics centred on it.  On this host a single order
    statistic swings with the vCPU's fast and slow phases; the weighted
    mean spreads that over the neighbouring requests."""
    import numpy as np
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    q = pct / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], x))
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.dot(np.diff(edges), ordered))


def rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak RSS of this process plus each live process in ``pids``."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def children_of(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (Linux ``/proc``)."""
    parents: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry.name))
    out, todo = [], [pid]
    while todo:
        kids = parents.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


class Samples:
    """Per-request outcomes of one measured window."""

    def __init__(self):
        self.rows: List[Dict] = []
        self.lock = threading.Lock()

    def add(self, name: str, latency_s: float, ok: bool,
            why: str = "", **extra) -> None:
        with self.lock:
            self.rows.append(dict(name=name, latency_s=latency_s, ok=ok,
                                  why=why, **extra))

    def fail(self, index: int, why: str) -> None:
        with self.lock:
            self.rows[index]["ok"] = False
            self.rows[index]["why"] = why

    @property
    def failures(self) -> List[Dict]:
        return [r for r in self.rows if not r["ok"]]

    def end_to_end(self, workload: str, wall_s: float, setup_s: float,
                   peak_rss: float) -> Dict[str, Dict]:
        ok = [r["latency_s"] for r in self.rows if r["ok"]]
        every = [r["latency_s"] for r in self.rows]
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_rps": {"value": len(ok) / wall_s, "unit": "req/s"},
            "latency_p50_ms": {"value": percentile(every, 50) * 1e3,
                               "unit": "ms"},
            "latency_tail_ms": {
                "value": percentile(every, TAIL_PERCENTILE[workload]) * 1e3,
                "unit": "ms"},
            "success_share": {"value": len(ok) / len(every),
                              "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }


def result(samples: Samples, metrics: Dict[str, Dict],
           checks_ok: bool = True) -> Dict:
    for row in samples.failures:
        print(f"FAILED {row['name']}: {row['why']}", flush=True)
    return {"correct": checks_ok and not samples.failures,
            "attempted": len(samples.rows),
            "failed": len(samples.failures),
            "metrics": metrics}


def layer_result(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def median_setup(fn: Callable[[], float], times: int = 3) -> float:
    return tracing.median(fn() for _ in range(times))


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing every repro module."""
    code = ("import time, tracing; t = time.perf_counter(); "
            "tracing.import_all(); print(time.perf_counter() - t)")
    env = _env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip())


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_report(workload: str, seed: int, report: Dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"trace report: {path.relative_to(ROOT)}", flush=True)


def print_rows(title: str, rows: Dict[str, Dict], columns: Sequence[str]):
    print(title, flush=True)
    print("  " + f"{'program':14s}" + "".join(f"{c:>22s}" for c in columns))
    for name, row in rows.items():
        print("  " + f"{name:14s}"
              + "".join(f"{row.get(c, 0.0):22.3f}" for c in columns))


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- explore-cold --------------------------------------------------------------

#: Layers shown in each program's own row of the traced report.
PROGRAM_PHASES = ("lang.parse", "ir.build", "parallelize",
                  "analysis.symbolic", "analysis.region",
                  "analysis.liveness", "poly.fm", "runtime.codegen",
                  "runtime.profile", "runtime.dyndep", "runtime.cost",
                  "explorer.guru", "explorer.snapshot")


def in_children(lanes: Sequence[Sequence[Tuple[Callable, tuple]]]
                ) -> List[List[Tuple[bool, object]]]:
    """Each ``fn(*args)`` in a forked copy of this process, so nothing one
    leaves behind (memo tables, codegen caches, a grown heap) reaches the
    next.  Each lane runs its calls one after another; the lanes run side
    by side.  Returns ``(True, result)`` or ``(False, why)`` per call, in
    the shape of ``lanes``."""
    results = [[(False, "not run")] * len(calls) for calls in lanes]
    todo = [list(enumerate(calls))[::-1] for calls in lanes]
    running: Dict[int, Tuple[int, int, int, bytearray]] = {}

    def start(lane: int) -> None:
        i, (fn, args) = todo[lane].pop()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:                                 # the child
            os.close(read)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException as exc:             # noqa: BLE001
                payload = pickle.dumps(
                    (False, f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write, "wb") as out:
                out.write(payload)
            os._exit(0)
        os.close(write)
        running[read] = (lane, i, pid, bytearray())
        sel.register(read, selectors.EVENT_READ)

    with selectors.DefaultSelector() as sel:
        for lane in range(len(lanes)):
            if todo[lane]:
                start(lane)
        while running:
            for key, _ in sel.select():
                lane, i, pid, data = running[key.fd]
                chunk = os.read(key.fd, 1 << 20)
                if chunk:
                    data.extend(chunk)
                    continue
                sel.unregister(key.fd)
                os.close(key.fd)
                del running[key.fd]
                _, status = os.waitpid(pid, 0)
                results[lane][i] = pickle.loads(data) if data else (
                    False, f"request process died (wait status {status})")
                if todo[lane]:
                    start(lane)
    return results


def in_child(fn: Callable, *args):
    """``fn(*args)`` in a forked copy of this process; returns its result,
    or raises RuntimeError."""
    ok, value = in_children([[(fn, args)]])[0][0]
    if not ok:
        raise RuntimeError(value)
    return value


def par_backend_run(program, plan, inputs: Sequence[float],
                    expected: List[float], cold: bool = False) -> Dict:
    """``program``'s plan on par_backend with PAR_WORKERS workers, and
    ``run_program(engine="transpiled")`` as the sequential base, both
    checked against ``expected``.  With ``cold`` a first run that starts
    the worker pool and ships the module is timed too; otherwise the
    pool is started untimed.  The pool is stopped before returning."""
    from repro.runtime import run_program
    from repro.runtime.par_backend import ParallelRunner
    from repro.runtime.par_backend.pool import get_pool, shutdown_pools
    out: Dict = {}
    try:
        run_program(program, inputs, engine="transpiled")  # fill codegen
        t = _now()
        seq = run_program(program, inputs, engine="transpiled")
        out["seq_ms"] = (_now() - t) * 1e3
        if cold:
            t = _now()
            ParallelRunner(program, plan, workers=PAR_WORKERS).execute(
                inputs)
            out["first_run_ms"] = (_now() - t) * 1e3
        else:
            get_pool(PAR_WORKERS)
        runner = ParallelRunner(program, plan, workers=PAR_WORKERS)
        t = _now()
        res = runner.execute(inputs)
        out["run_ms"] = (_now() - t) * 1e3
    finally:
        shutdown_pools()
    out.update(dispatches=res.dispatches, offloaded=res.offloaded,
               rejected=len(res.rejects), why="")
    if [float(v) for v in seq.outputs] != expected:
        out["why"] = "transpiled outputs differ from tree oracle"
    elif [float(v) for v in res.outputs] != expected or res.ops != seq.ops:
        out["why"] = "par_backend run differs from the sequential run"
    return out


@contextlib.contextmanager
def shared_resource_tracker():
    """Start multiprocessing's resource tracker in this process, so the
    par_backend pools of forked children register their shared memory
    with it instead of each starting a tracker of its own, and stop it,
    waiting for it to exit, at the end."""
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    try:
        yield
    finally:
        resource_tracker._resource_tracker._stop()


def pbench_par_backend() -> Dict:
    """The ``pbench`` DOALL kernel on par_backend, pool start included."""
    from repro.ir import build_program
    from repro.parallelize import Parallelizer
    program = build_program(programs.PBENCH_SOURCE, "pbench")
    return par_backend_run(program, Parallelizer(program).plan(), [],
                           load_oracle()["pbench"]["outputs"], cold=True)


def par_backend_layers(rows: Dict[str, Dict]) -> Dict[str, float]:
    """par_backend metrics over the programs whose runs passed their
    checks: medians of the per-program times and dispatch counts, the
    geomean of the per-program speedups (sequential over par_backend),
    and the offloaded share of the plans' parallel loops."""
    runs = [r for r in rows.values() if "run_ms" in r and not r["why"]]
    offloadable = sum(r["offloaded"] + r["rejected"] for r in runs)
    return {
        "par_backend.run_ms": tracing.median(r["run_ms"] for r in runs),
        "par_backend.seq_ms": tracing.median(r["seq_ms"] for r in runs),
        "par_backend.speedup": geomean(r["seq_ms"] / r["run_ms"]
                                       for r in runs),
        "par_backend.dispatches": tracing.median(r["dispatches"]
                                                 for r in runs),
        "par_backend.dispatch_ms": tracing.median(
            r["run_ms"] / r["dispatches"] for r in runs if r["dispatches"]),
        "par_backend.first_run_ms": rows.get("pbench", {}).get(
            "first_run_ms", 0.0),
        "par_backend.offload_share": (sum(r["offloaded"] for r in runs)
                                      / offloadable if offloadable
                                      else 0.0),
    }


def peak_child_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def explore_cold(seed: int, seconds: float, trace: bool) -> Dict:
    """Full default-option Explorer requests over the 27 corpus programs,
    each source stamped with a fresh comment line so no memo, codegen
    cache or artifact store can serve it.  EXPLORE_LANES closed loops
    each send the whole corpus in their own seeded order.

    Each request runs in a forked copy of the set-up process, so every
    request starts from the same state whatever the seeded order."""
    setup_s = median_setup(import_seconds)
    t0 = _now()
    tracing.import_all()
    from repro.service.artifacts import canonical_json
    from repro.service.jobs import AnalysisRequest, execute_request
    from repro.workloads import ALL
    oracle = load_oracle()
    orders = [programs.cold_order(ALL, seed, lane)
              for lane in range(EXPLORE_LANES)]
    setup_s += _now() - t0

    def request(name: str, tag: str) -> AnalysisRequest:
        w = ALL[name]
        return AnalysisRequest(
            source=programs.stamp(w.source, f"{seed}.{tag}.{name}"),
            program_name=name, inputs=list(w.inputs))

    def plain(rid: str, req: AnalysisRequest) -> Dict:
        start = _now()
        artifact = execute_request(req)
        return {"latency": _now() - start, "artifact": artifact}

    def one_pass(tag: str, samples: Samples,
                 call: Callable = plain) -> Dict[str, Dict]:
        """One round: every lane sends the whole corpus.  Rows and
        artifacts are keyed ``<program>#<lane>``."""
        artifacts = {}
        start = _now()
        rids = [[f"{name}#{lane}" for name in order]
                for lane, order in enumerate(orders)]
        outs = in_children([
            [(call, (rid, request(rid.split("#")[0], f"{tag}.{lane}")))
             for rid in lane_rids]
            for lane, lane_rids in enumerate(rids)])
        for lane_rids, lane_outs in zip(rids, outs):
            for rid, (ok, out) in zip(lane_rids, lane_outs):
                name = rid.split("#")[0]
                if not ok:
                    samples.add(rid, _now() - start, False, out)
                    continue
                good = out["artifact"]["execution"]["outputs"] == \
                    oracle[name]["outputs"]
                samples.add(rid, out["latency"], good,
                            "" if good else "outputs differ from tree oracle",
                            out=out)
                artifacts[rid] = out["artifact"]
        return artifacts

    samples = Samples()
    start = _now()
    rounds = 0
    while rounds == 0 or _now() - start < seconds:
        artifacts = one_pass(f"r{rounds}", samples)
        rounds += 1
    wall = _now() - start
    if not trace:
        return result(samples, samples.end_to_end(
            "explore-cold", wall, setup_s, peak_child_rss_mb()))

    # traced run: the last round once more with the wrappers in, compared
    # with its untraced twin request by request.  The program's own
    # tracer is active too, for the phase cross-check; it records about
    # 15 spans per request against the wrappers' hundreds to hundreds of
    # thousands.  Each child hands back its request's automatic plan, which
    # then runs on par_backend, one program at a time, wrappers removed.
    from repro.obs import Tracer as ProgramTracer
    from repro.obs import activate
    from repro.obs.export import phase_totals
    traced = Samples()

    with tracing.Tracer() as tracer:
        def traced_call(rid: str, req: AnalysisRequest) -> Dict:
            first = len(tracer.spans)
            tracer.request = rid
            tracer.plan = None
            start = _now()
            with activate(ProgramTracer()) as inside:
                artifact = execute_request(req)
            latency = _now() - start
            tracer.close_request(rid)
            out = {"latency": latency, "artifact": artifact,
                   "first": first, "spans": tracer.spans[first:],
                   "counts": tracer.counts[rid],
                   "phases": phase_totals(inside.finished_spans()),
                   "program_spans": len(inside.finished_spans()),
                   "plan": tracer.plan, "inputs": req.inputs}
            return out

        traced_artifacts = one_pass(f"r{rounds - 1}", traced, traced_call)
        for row in traced.rows:
            out = row.get("out")
            if out is not None:
                tracer.merge(out["spans"], out["first"])
                tracer.counts[row["name"]] = out["counts"]
    # one par_backend run per program, with the plan of its lane-0 request
    calls = {}
    for row in traced.rows:
        name, lane = row["name"].split("#")
        plan = row.get("out", {}).get("plan")
        if lane == "0" and name not in PAR_SKIP and plan is not None:
            calls[name] = (par_backend_run, (
                *plan, row["out"]["inputs"], oracle[name]["outputs"]))
    calls["pbench"] = (pbench_par_backend, ())
    with shared_resource_tracker():
        par_rows = {name: value if ok else {"why": value}
                    for name, (ok, value) in zip(
                        calls, in_children([list(calls.values())])[0])}
    untraced = {r["name"]: r["latency_s"]
                for r in samples.rows[-len(traced.rows):]}
    per_request = tracer.per_request()
    gaps = {}
    for i, row in enumerate(traced.rows):
        name = row["name"]
        if row["ok"] and canonical_json(traced_artifacts[name]) != \
                canonical_json(artifacts.get(name)):
            traced.fail(i, "traced artifact differs from untraced")
        if "out" in row:
            gaps[name] = tracing.phase_gaps(per_request[name],
                                            row["out"]["phases"])
    per_lane: Dict[str, List[Dict]] = {}
    for row in traced.rows:
        layers = per_request[row["name"]]
        per_lane.setdefault(row["name"].split("#")[0], []).append(dict(
            {"latency_ms": row["latency_s"] * 1e3},
            **{p + "_ms": layers.get(p, 0.0) * 1e3 for p in PROGRAM_PHASES}))
    # a program's row: the mean of its requests, one per lane
    rows = {name: {k: sum(r[k] for r in lane_rows) / len(lane_rows)
                   for k in lane_rows[0]}
            for name, lane_rows in sorted(per_lane.items())}
    print_rows("per-program rows (traced pass, self ms)", rows,
               ["latency_ms", "parallelize_ms", "analysis.liveness_ms",
                "poly.fm_ms", "runtime.profile_ms", "runtime.cost_ms"])
    par_table = {name: {k: v for k, v in par.items() if k != "why"}
                 for name, par in sorted(par_rows.items())}
    for par in par_table.values():
        if par.get("run_ms"):
            par["speedup"] = par["seq_ms"] / par["run_ms"]
    print_rows(f"par_backend rows ({PAR_WORKERS} workers; not run: "
               f"{', '.join(PAR_SKIP)})", par_table,
               ["seq_ms", "run_ms", "speedup", "dispatches",
                "first_run_ms"])
    missing = sorted(f"{name}:{phase}" for name, per in gaps.items()
                     for phase, g in per.items()
                     if g["program_spans"] and not g["wrapper_calls"])
    for item in missing:
        print(f"SELF-TEST wrapper saw no call where the program "
              f"recorded a span: {item}", flush=True)
    values = tracing.layer_metrics(tracer, [r["name"] for r in traced.rows])
    values.update(par_backend_layers(par_rows))
    traced_s = sum(r["latency_s"] for r in traced.rows)
    untraced_s = sum(untraced[r["name"]] for r in traced.rows)
    values["obs.trace_overhead_share"] = traced_s / untraced_s - 1.0
    values["programs.geomean_ms"] = geomean(
        r["latency_ms"] for r in rows.values())
    for name, row in rows.items():
        values[f"program.{name}_ms"] = row["latency_ms"]
    spans = {r["name"]: {"wrapper": len(r["out"]["spans"]),
                         "program": r["out"]["program_spans"]}
             for r in traced.rows if "out" in r}
    write_report("explore-cold", seed, {
        "programs": rows, "phase_gaps": gaps, "layers": values,
        "par_backend": par_table, "par_backend_skipped": list(PAR_SKIP),
        "spans_per_request": spans,
        "tail_percentile": TAIL_PERCENTILE["explore-cold"]})
    for name, par in sorted(par_rows.items()):
        traced.add(f"{name} on par_backend", par.get("run_ms", 0.0) / 1e3,
                   not par["why"], par["why"])
    return result(traced, layer_result(values, LAYER_UNITS),
                  checks_ok=not missing)


# -- service-mix ----------------------------------------------------------------

class Server:
    """``repro serve`` with its defaults, in its own process group."""

    def __init__(self, cache_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.split("http://", 1)[1].split()[0].rstrip("/")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def counters(self) -> Dict[str, int]:
        """The ``/metrics`` counters."""
        client = self.connect()
        try:
            return client.call("GET", "/metrics")["counters"]
        finally:
            client.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


class Client:
    """One keep-alive connection."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port,
                                               timeout=SERVICE_TIMEOUT_S)

    def call(self, method: str, path: str, body: Optional[Dict] = None):
        data = None if body is None else json.dumps(body).encode()
        self.conn.request(method, path, body=data,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        payload = resp.read()
        if resp.status >= 400:
            raise RuntimeError(f"HTTP {resp.status} on {method} {path}: "
                               f"{payload[:200]!r}")
        return json.loads(payload)

    def job(self, body: Dict) -> Tuple[Dict, Dict]:
        """POST /jobs, wait for the job, fetch the artifact bytes."""
        return self.finish(self.call("POST", "/jobs", body)["job"])

    def finish(self, job: Dict) -> Tuple[Dict, Dict]:
        delay = 0.001
        deadline = _now() + SERVICE_TIMEOUT_S
        while job["state"] not in ("done", "failed"):
            if _now() > deadline:
                raise TimeoutError(f"job {job['id']} still {job['state']}")
            time.sleep(delay)
            delay = min(delay * 2, 0.02)
            job = self.call("GET", f"/jobs/{job['id']}")["job"]
        if job["state"] == "failed":
            raise RuntimeError(f"job failed: {job['error']}")
        return job, self.call("GET", f"/artifacts/{job['key']}")

    def close(self) -> None:
        self.conn.close()


def service_requests(seed: int, names: Sequence[str], phase: str,
                     blocks: int) -> List[Dict]:
    """The seeded request mix: blocks of 20 in shuffled order, with
    Zipf-popular corpus names (hits), never-seen synth programs (misses,
    seeds far past the pinned test slice) and analysis-only edits of a
    synth program submitted earlier in the sequence.

    Popularity follows ``names`` (the registry's order, the paper's case
    studies first) on every seed: a hit's cost grows with its artifact,
    so a seeded ranking made the hit latency depend on the seed."""
    from repro.ir import build_program
    from repro.workloads.synth import PROFILES, build_source, synth_name
    rng = programs.rng_for(seed, "service", phase)
    popular = list(names)
    weights = programs.zipf_weights(len(popular), SERVICE_ZIPF_S)
    synth_base = 1_000_000 + 10_000 * (seed % 10_000)
    synth_base += 5_000 if phase == "traced" else 0
    out: List[Dict] = []
    submitted: List[Dict] = []
    for _ in range(blocks):
        kinds = [k for k, n in SERVICE_BLOCK.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "edit" and not submitted:
                kind = "miss"
            if kind == "hit":
                name = rng.choices(popular, weights)[0]
                out.append({"kind": "hit", "name": name,
                            "body": {"workload": name}})
            elif kind == "miss":
                n = len(submitted)
                profile = PROFILES[n % len(PROFILES)]
                name = synth_name(synth_base + n, profile)
                source, _ = build_source(synth_base + n, profile)
                entry = {"kind": "miss", "name": name,
                         "body": {"workload": name}, "source": source,
                         "seed": synth_base + n, "profile": profile}
                submitted.append(entry)
                out.append(entry)
            else:
                base = rng.choice(submitted)
                program = build_program(base["source"], base["name"])
                procs = {p: proc.source_lines
                         for p, proc in program.procedures.items()}
                step = programs.edit_step(base["source"], procs, rng,
                                          f"{seed}.{phase}.{len(out)}")
                edited = build_program(step["source"], base["name"])
                query = rng.choice(sorted(edited.loop_names()))
                out.append({"kind": "edit", "name": base["name"],
                            "proc": step["proc"], "edit": step["kind"],
                            "body": {"source": step["source"],
                                     "program_name": base["name"],
                                     "inputs": [],
                                     "options": {"analysis_only": True,
                                                 "slice": [query]}}})
    return out


def _drive(server: Server, sequence: List[Dict], seconds: float,
           samples: Samples, check: Callable) -> Tuple[float, int]:
    """Closed loop over SERVICE_CONNECTIONS keep-alive connections taking
    requests from ``sequence`` in order until ``seconds`` pass or the
    sequence ends.  Returns (wall seconds, requests sent)."""
    lock = threading.Lock()
    cursor = [0]
    start = _now()
    errors: List[BaseException] = []

    def worker():
        client = server.connect()
        try:
            while True:
                with lock:
                    if _now() - start >= seconds or \
                            cursor[0] >= len(sequence):
                        return
                    req = sequence[cursor[0]]
                    cursor[0] += 1
                t = _now()
                try:
                    job, artifact = client.job(req["body"])
                except Exception as exc:         # noqa: BLE001
                    samples.add(req["name"], _now() - t, False,
                                f"{type(exc).__name__}: {exc}",
                                kind=req["kind"])
                    client.close()
                    client = server.connect()
                    continue
                latency = _now() - t
                why, keep = check(req, artifact)
                samples.add(req["name"], latency, not why, why,
                            kind=req["kind"], job=job, request=req,
                            kept=keep)
        except BaseException as exc:             # noqa: BLE001
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker)
               for _ in range(SERVICE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return _now() - start, cursor[0]


def _service_check(oracle: Dict[str, Dict]):
    """Hits are checked on arrival against the tree oracle; misses and
    edits keep what :func:`_check_later` needs."""
    def check(req: Dict, artifact: Dict) -> Tuple[str, object]:
        if req["kind"] == "hit":
            good = artifact["execution"]["outputs"] == \
                oracle[req["name"]]["outputs"]
            return ("" if good else "outputs differ from tree oracle"), None
        if req["kind"] == "miss":
            return "", artifact["execution"]["outputs"]
        return "", artifact
    return check


def _check_later(samples: Samples) -> None:
    """Synth misses against their manifest's tree-oracle reference; edits
    against a cold analysis-only run of the same edited source in this
    process (no proc store registered here, so nothing is reused)."""
    from repro.service.artifacts import canonical_json
    from repro.service.jobs import AnalysisRequest, execute_request
    from repro.workloads.synth import generate
    for i, row in enumerate(samples.rows):
        req = row.get("request")
        if not row["ok"] or req is None or req["kind"] == "hit":
            continue
        if req["kind"] == "miss":
            ref = generate(req["seed"], req["profile"])
            if row["kept"] != ref.manifest["reference"]["outputs"]:
                samples.fail(i, "outputs differ from manifest reference")
            continue
        body = req["body"]
        cold = execute_request(AnalysisRequest(
            source=body["source"], program_name=body["program_name"],
            inputs=body["inputs"], options=body["options"]))
        if canonical_json(cold) != canonical_json(row["kept"]):
            samples.fail(i, "warm edit artifact differs from a cold "
                            "analysis-only run")
        row["kept"] = None


def _service_layers(rows: List[Dict], before: Dict, after: Dict) -> Dict:
    """Job timings from the job JSON, shares from /metrics deltas."""
    def delta(*names) -> int:
        return sum(after.get(n, 0) - before.get(n, 0) for n in names)

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    queue, run, overhead = [], [], []
    for row in rows:
        job = row.get("job")
        if job is None:
            continue
        q = r = 0.0
        if job.get("started_at") is not None:
            q = max(0.0, job["started_at"] - job["created_at"])
            r = job["duration_s"] or 0.0
            queue.append(q * 1e3)
            run.append(r * 1e3)
        overhead.append((row["latency_s"] - q - r) * 1e3)
    submitted = delta("jobs_submitted")
    return {
        "service.queue_ms": tracing.median(queue),
        "service.run_ms": tracing.median(run),
        "service.overhead_ms": tracing.median(overhead),
        "service.hit_share": share(delta("jobs_served_cached"), submitted),
        "service.dedupe_share": share(delta("jobs_deduped"), submitted),
        "service.shed_share": share(delta("shed_total"), submitted),
        "service.proc_hit_share": share(
            delta("proc_cache_hit"),
            delta("proc_cache_hit", "proc_cache_miss")),
        "service.codegen_hit_share": share(
            delta("codegen_cache_hit"),
            delta("codegen_cache_hit", "codegen_cache_miss")),
        "service.retries": delta("jobs_retried", "worker_crashes"),
    }


def artifact_sha(artifact: Dict) -> str:
    from repro.service.artifacts import canonical_json
    return hashlib.sha256(canonical_json(artifact).encode()).hexdigest()


def replay_requests(sequence: Sequence[Dict]) -> List[Dict]:
    """The misses and edits of ``sequence`` in order, up to its
    REPLAY_EDITS-th edit (so every edited program's miss is in)."""
    out, edits = [], 0
    for req in sequence:
        if edits == REPLAY_EDITS:
            break
        if req["kind"] != "hit":
            out.append(req)
            edits += req["kind"] == "edit"
    return out


def replay(requests: Sequence[Dict], root: Path,
           tracer: Optional[tracing.Tracer] = None) -> Dict:
    """``requests`` through ``execute_request`` in this process, against a
    fresh ``proc/`` store at ``root`` as the server's pool workers use
    one.  With ``tracer`` (installed by the caller) each request's spans
    and the proc-cache hits and misses it caused are recorded."""
    from repro.analysis.incremental import proc_cache_stats, set_proc_store
    from repro.service.artifacts import ArtifactStore
    from repro.service.jobs import AnalysisRequest, execute_request
    set_proc_store(ArtifactStore(str(root)))
    first = len(tracer.spans) if tracer is not None else 0
    rows = []
    for i, req in enumerate(requests):
        rid = f"{i}:{req['kind']}:{req['name']}"
        body = req["body"]
        if "source" in body:
            request = AnalysisRequest(
                source=body["source"], program_name=body["program_name"],
                inputs=body["inputs"], options=body["options"])
        else:
            request = AnalysisRequest(body["workload"])
        if tracer is not None:
            tracer.request = rid
        before = proc_cache_stats()
        t = _now()
        artifact = execute_request(request)
        latency = _now() - t
        after = proc_cache_stats()
        if tracer is not None:
            tracer.close_request(rid)
            for what in ("hit", "miss"):
                tracer.counts[rid]["incr." + what] = after[what] - before[what]
        rows.append({"rid": rid, "latency_s": latency,
                     "sha": artifact_sha(artifact),
                     "outputs": artifact.get("execution", {}).get("outputs")})
    set_proc_store(None)
    out = {"rows": rows}
    if tracer is not None:
        out.update(first=first, spans=tracer.spans[first:],
                   counts={r["rid"]: tracer.counts[r["rid"]] for r in rows})
    return out


def _replay_layers(plan: List[Dict], sent: int, traced: Samples,
                   root: Path) -> Tuple[Dict[str, float], Dict]:
    """Replays the first misses and edits of the traced window (``plan``,
    of which ``sent`` requests went out) in-process, once untraced and
    once under the wrappers, each in a forked copy of this process with a
    fresh proc store, and reads the layers from the traced replay.  Every
    replayed request is checked against the other replay and against
    what the server returned for it; the outcomes are added to
    ``traced``."""
    requests = replay_requests(plan)
    if not any(r is requests[-1] for r in plan[:sent]):
        raise RuntimeError("the traced window did not reach the requests "
                           "the replay needs")
    plain = in_child(replay, requests, root / "untraced")
    with tracing.Tracer() as tracer:
        run = in_child(replay, requests, root / "traced", tracer)
    tracer.merge(run["spans"], run["first"])
    tracer.counts.update(run["counts"])
    server = {id(r["request"]): r for r in traced.rows
              if r["ok"] and "request" in r}
    for req, a, b in zip(requests, plain["rows"], run["rows"]):
        why = ""
        row = server.get(id(req))
        if a["sha"] != b["sha"]:
            why = "traced replay artifact differs from untraced"
        elif row is not None and req["kind"] == "miss" and \
                a["outputs"] != row["kept"]:
            why = "replayed outputs differ from the server's"
        elif row is not None and req["kind"] == "edit" and \
                a["sha"] != artifact_sha(row["kept"]):
            why = "replayed edit artifact differs from the server's"
        traced.add(f"replay {b['rid']}", b["latency_s"], not why, why)
    values = tracing.layer_metrics(tracer, [r["rid"] for r in run["rows"]])
    untraced_s = sum(r["latency_s"] for r in plain["rows"])
    traced_s = sum(r["latency_s"] for r in run["rows"])
    values["obs.trace_overhead_share"] = traced_s / untraced_s - 1.0
    report = {"requests": {k: sum(r["kind"] == k for r in requests)
                           for k in ("miss", "edit")},
              "untraced_s": untraced_s, "traced_s": traced_s}
    return values, report


def _fill(server: Server, names: Sequence[str], check) -> Samples:
    """Submit every corpus name at once so both shards work, then wait
    for each and check its outputs."""
    client = server.connect()
    fill = Samples()
    try:
        jobs = [client.call("POST", "/jobs", {"workload": n})["job"]
                for n in names]
        for name, job in zip(names, jobs):
            job, artifact = client.finish(job)
            why, _ = check({"kind": "hit", "name": name}, artifact)
            fill.add(name, 0.0, not why, why)
    finally:
        client.close()
    return fill


def service_mix(seed: int, seconds: float, trace: bool) -> Dict:
    """``repro serve`` with its defaults on a fresh cache directory; one
    client with two keep-alive connections sends the seeded mix."""
    from repro.workloads import ALL
    oracle = load_oracle()
    check = _service_check(oracle)
    names = list(ALL)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="service-", dir=OUT))
    server = None
    try:
        # set-up: the median of three server starts, the request plan,
        # and the store fill that makes every corpus name an artifact hit
        def start_once() -> float:
            t = _now()
            probe = Server(Path(tempfile.mkdtemp(dir=scratch)))
            took = _now() - t
            probe.stop()
            return took
        setup_s = median_setup(start_once)
        t = _now()
        blocks = SERVICE_BLOCKS_PER_S * int(seconds) + 10
        phases = ("untraced", "traced") if trace else ("untraced",)
        plans = {p: service_requests(seed, names, p, blocks)
                 for p in phases}
        server = Server(scratch / "cache")
        fill = _fill(server, names, check)
        setup_s += _now() - t

        runs = {}
        for phase in phases:
            before = server.counters()
            samples = Samples()
            wall, sent = _drive(server, plans[phase], seconds, samples,
                                check)
            if sent >= len(plans[phase]):
                raise RuntimeError("service-mix plan ran out of requests")
            after = server.counters()
            runs[phase] = (samples, wall, before, after, sent)
        peak = rss_mb([server.proc.pid] + children_of(server.proc.pid))
        server.stop()
        server = None
        if trace:
            traced, _, before, after, sent = runs["traced"]
            values, replayed = _replay_layers(plans["traced"], sent, traced,
                                              scratch / "replay")
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    for samples, *_ in runs.values():
        _check_later(samples)
    for row in fill.failures:
        print(f"FAILED set-up fill {row['name']}: {row['why']}", flush=True)
    samples, wall = runs["untraced"][:2]
    if not trace:
        return result(samples, samples.end_to_end(
            "service-mix", wall, setup_s, peak),
            checks_ok=not fill.failures)
    values.update(_service_layers(traced.rows, before, after))
    write_report("service-mix", seed, {
        "layers": values, "replay": replayed,
        "tail_percentile": TAIL_PERCENTILE["service-mix"],
        "requests": {k: sum(r.get("kind") == k for r in traced.rows)
                     for k in SERVICE_BLOCK}})
    return result(traced, layer_result(values, LAYER_UNITS),
                  checks_ok=not fill.failures)
