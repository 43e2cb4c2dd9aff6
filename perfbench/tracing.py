"""Layer spans recorded from outside the program.

For a traced run the benchmark wraps the public entry points of each
layer (see :data:`TARGETS`); for untraced runs nothing is installed, and
:func:`Tracer.remove` puts every original function object back.  Each
span records its layer, start, end, parent span and request id; spans
stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Only the thread that installed the wrappers records; calls on other
threads go straight through.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: (layer, module, attribute) — an attribute ``Class.method`` wraps one
#: method, ``Class.*`` the constructor and every public method.
TARGETS = (
    ("lang.parse", "repro.lang.parser", "parse_source"),
    ("ir.build", "repro.ir.builder", "build_program"),
    ("analysis.symbolic", "repro.analysis.symbolic", "SymbolicAnalysis.*"),
    ("analysis.region", "repro.analysis.region_analysis", "ArrayDataFlow.*"),
    ("analysis.liveness", "repro.analysis.liveness", "ArrayLiveness.*"),
    ("poly.is_empty", "repro.poly.system", "System.is_empty"),
    ("poly.fm", "repro.poly.fourier_motzkin", "system_is_empty"),
    ("poly.section", "repro.poly.sections", "Section.union"),
    ("poly.section", "repro.poly.sections", "Section.subtract"),
    ("parallelize", "repro.parallelize.parallelizer", "Parallelizer.__init__"),
    ("parallelize", "repro.parallelize.parallelizer", "Parallelizer.plan"),
    ("parallelize", "repro.parallelize.parallelizer",
     "Parallelizer.plan_for"),
    ("runtime.codegen", "repro.runtime.compile_engine", "compile_closures"),
    ("runtime.codegen", "repro.runtime.transpile", "load_module"),
    ("runtime.profile", "repro.runtime.profiler", "profile_program"),
    ("runtime.dyndep", "repro.runtime.dyndep", "analyze_dependences"),
    ("runtime.cost", "repro.runtime.parallel_exec", "execute_parallel"),
    ("explorer.guru", "repro.explorer.guru",
     "ParallelizationGuru.__init__"),
    ("explorer.snapshot", "repro.service.jobs", "session_snapshot"),
    ("slicing.query", "repro.explorer.session", "ExplorerSession.slice_at"),
    ("slicing.query", "repro.analysis.incremental",
     "IncrementalAnalyzer.slice_counts"),
    ("slicing.slice", "repro.explorer.session", "dependence_slices"),
    ("slicing.slice", "repro.slicing.slicer", "Slicer.__init__"),
    ("analysis.incr", "repro.analysis.incremental",
     "IncrementalAnalyzer.analysis_artifact"),
    ("artifacts.get", "repro.service.artifacts", "ArtifactStore.get"),
    ("artifacts.put", "repro.service.artifacts", "ArtifactStore.put"),
)

#: Program phase (span name in ``repro.obs``) -> the layer wrapping the
#: same entry point, for the outside-vs-inside cross-check.
PHASE_LAYERS = {
    "parse": "lang.parse",
    "build": "ir.build",
    "parallelize": "parallelize",
    "instrument.profile": "runtime.profile",
    "instrument.dyndep": "runtime.dyndep",
    "guru": "explorer.guru",
    "parallel_exec": "runtime.cost",
    "slice": "slicing.slice",
}


def import_all() -> None:
    """Import every ``repro`` module."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _fm_key(system) -> str:
    return "\n".join(sorted(str(c) for c in system.constraints))


def _count_result(tracer: "Tracer", layer: str, fn: Callable, args,
                  result) -> None:
    """Counts taken from a call's return value: interpreter ops behind a
    runtime call, store hits, and the automatic plan of a request."""
    counts = tracer.counts[tracer.request]
    if layer == "runtime.profile":
        counts[layer + ".ops"] += result.total_ops
    elif layer == "runtime.dyndep":
        counts[layer + ".ops"] += result.interpreter.ops
    elif layer == "runtime.cost":
        counts[layer + ".ops"] += int(result.seq_ops)
    elif layer == "artifacts.get":
        counts["artifacts.gets"] += 1
        counts["artifacts.hits"] += result is not None
    elif layer == "parallelize" and fn.__name__ == "plan":
        tracer.plan = (args[0].program, result)


class Tracer:
    """Installs the wrappers, records spans and counts, removes them."""

    def __init__(self):
        #: span = [layer, start, end, parent index, request id]
        self.spans: List[list] = []
        self.counts: Dict[object, Counter] = defaultdict(Counter)
        self.fm_keys: Dict[object, set] = defaultdict(set)
        self.request: object = None
        #: (program, plan) of the last ``Parallelizer.plan()`` call
        self.plan: Optional[tuple] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._thread = threading.get_ident()

    # -- installation ---------------------------------------------------------
    def install(self) -> "Tracer":
        # every module first, so none binds a wrapper by ``from x import
        # f`` while it is installed
        import_all()
        for layer, module, attr in TARGETS:
            mod = sys.modules[module]
            owner_name, _, meth = attr.partition(".")
            if not meth:
                self._patch_function(layer, getattr(mod, owner_name))
                continue
            cls = getattr(mod, owner_name)
            names = [meth] if meth != "*" else [
                n for n, v in vars(cls).items()
                if callable(v) and not isinstance(v, staticmethod)
                and (n == "__init__" or not n.startswith("_"))]
            for name in names:
                orig = vars(cls)[name]
                self._patches.append((cls, name, orig))
                setattr(cls, name, self._wrap(layer, orig))
        return self

    def _patch_function(self, layer: str, orig: Callable) -> None:
        """Rebind ``orig`` in every module that imported it by name."""
        wrapper = self._wrap(layer, orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def remove(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording -------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            rid = tracer.request
            if layer == "poly.fm":
                tracer.counts[rid]["poly.fm_runs"] += 1
                tracer.fm_keys[rid].add(_fm_key(args[0]))
            elif layer == "poly.is_empty":
                tracer.counts[rid]["poly.is_empty_calls"] += 1
            index = len(tracer.spans)
            span = [layer, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, rid]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            _count_result(tracer, layer, fn, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def merge(self, spans: List[list], first: int) -> None:
        """Append spans recorded by a forked copy of this tracer, whose
        indices started at ``first``."""
        shift = len(self.spans) - first
        for layer, start, end, parent, rid in spans:
            self.spans.append([layer, start, end,
                               parent + shift if parent >= 0 else -1, rid])

    def close_request(self, rid: object) -> None:
        """Fold a finished request's FM system keys into a count."""
        self.counts[rid]["poly.fm_distinct"] = len(self.fm_keys.pop(rid, ()))

    # -- reduction ---------------------------------------------------------------
    def per_request(self) -> Dict[object, Dict[str, float]]:
        """request id -> layer -> self seconds, plus ``<layer>.calls``
        and ``<layer>.incl`` (inclusive seconds of outermost spans)."""
        out: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (layer, start, end, parent, rid) in enumerate(self.spans):
            row = out[rid]
            row[layer] += (end - start) - child[i]
            row[layer + ".calls"] += 1
            if parent < 0 or self.spans[parent][0] != layer:
                row[layer + ".incl"] += end - start
        return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, requests: List[object]) -> Dict[str, float]:
    """Per-layer metrics for the given requests: self times per request
    in ms and counts per request, each the median over the requests that
    called the layer (0 if none did), and shares over all of them."""
    rows = tracer.per_request()

    def callers(layer: str) -> List[object]:
        return [r for r in requests if rows[r].get(layer + ".calls")]

    def med_ms(layer: str, key: Optional[str] = None) -> float:
        return median(rows[r].get(key or layer, 0.0) * 1e3
                      for r in callers(layer))

    def med_count(layer: str, name: str) -> float:
        return median(tracer.counts[r][name] for r in callers(layer))

    def total(name: str) -> float:
        return sum(tracer.counts[r][name] for r in requests)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    def rate(layer: str) -> float:
        """Median millions of interpreter ops per second of the layer's
        inclusive time, over requests that called it."""
        return median(tracer.counts[r][layer + ".ops"]
                      / rows[r][layer + ".incl"] / 1e6
                      for r in callers(layer))

    incr = callers("analysis.incr")
    incr_hits = sum(tracer.counts[r]["incr.hit"] for r in incr)
    incr_misses = sum(tracer.counts[r]["incr.miss"] for r in incr)
    return {
        "lang.parse_ms": med_ms("lang.parse"),
        "ir.build_ms": med_ms("ir.build"),
        "analysis.symbolic_ms": med_ms("analysis.symbolic"),
        "analysis.region_ms": med_ms("analysis.region"),
        "analysis.liveness_ms": med_ms("analysis.liveness"),
        "poly.is_empty_calls": med_count("poly.is_empty",
                                         "poly.is_empty_calls"),
        "poly.fm_runs": med_count("poly.fm", "poly.fm_runs"),
        "poly.fm_distinct_share": share(total("poly.fm_distinct"),
                                        total("poly.fm_runs")),
        "poly.fm_ms": med_ms("poly.fm", "poly.fm.incl"),
        "poly.section_ms": med_ms("poly.section", "poly.section.incl"),
        "parallelize.plan_ms": med_ms("parallelize", "parallelize.incl"),
        "parallelize.self_ms": med_ms("parallelize"),
        "runtime.codegen_ms": med_ms("runtime.codegen"),
        "runtime.profile_ms": med_ms("runtime.profile"),
        "runtime.dyndep_ms": med_ms("runtime.dyndep"),
        "runtime.cost_ms": med_ms("runtime.cost"),
        "runtime.profile_mops": rate("runtime.profile"),
        "runtime.dyndep_mops": rate("runtime.dyndep"),
        "runtime.cost_mops": rate("runtime.cost"),
        "explorer.guru_ms": med_ms("explorer.guru"),
        "explorer.snapshot_ms": med_ms("explorer.snapshot"),
        "slicing.slice_ms": med_ms("slicing.slice"),
        "slicing.queries": sum(rows[r].get("slicing.query.calls", 0)
                               for r in requests),
        "analysis.incr_ms": med_ms("analysis.incr"),
        "analysis.incr_hit_share": share(incr_hits, incr_hits + incr_misses),
        "artifacts.get_ms": med_ms("artifacts.get"),
        "artifacts.put_ms": med_ms("artifacts.put"),
        "artifacts.hit_share": share(total("artifacts.hits"),
                                     total("artifacts.gets")),
    }


def phase_gaps(row: Dict[str, float],
               program_totals: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per program phase: the program's own span total and count next to
    the wrapper's inclusive total and call count, for one request's
    :meth:`Tracer.per_request` row."""
    out = {}
    for phase, layer in PHASE_LAYERS.items():
        inside = program_totals.get(phase, {"count": 0, "total_s": 0.0})
        outside_s = row.get(layer + ".incl", 0.0)
        out[phase] = {"program_spans": inside["count"],
                      "program_ms": inside["total_s"] * 1e3,
                      "wrapper_calls": int(row.get(layer + ".calls", 0)),
                      "wrapper_ms": outside_s * 1e3,
                      "gap_ms": (outside_s - inside["total_s"]) * 1e3}
    return out
