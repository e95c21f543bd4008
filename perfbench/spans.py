"""In-memory span tracing of the infoot layers, installed from outside.

The library is not edited: :func:`install` replaces each traced function
under the module attribute its callers look up (``infoot.solver.sinkhorn``
is the name ``_pgd`` calls, ``infoot.sinkhorn.sinkhorn_log_kernel`` the
name ``sinkhorn`` calls) and :func:`uninstall` puts the originals back.
Each span records its name, start, end, parent and thread. Tasks run by
``parallel_map`` are parented to their map span even when they run on a
pool thread. Spans stay in memory until the run writes them out.

Per-layer metrics are derived from the spans by :func:`layer_metrics`,
which names what each layer metric should move (see README.md).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "attrs": self.attrs}


class Tracer:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        # Counts the benchmark takes outside any span (bytes the CLI wrote).
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
        stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` recorded as span ``name``; ``note(span, args, result)``
        may attach attributes taken from the arguments or the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                note(span, args, out)
            return out

        return traced

    def wrap_parallel_map(self, fn):
        """``parallel_map`` whose tasks become children of the map span."""

        @functools.wraps(fn)
        def traced(task_fn, items):
            items = list(items)
            span = self.begin("_parallel.map")
            span.attrs["tasks"] = len(items)

            def task(item):
                child = self.begin("_parallel.task", parent=span.id)
                try:
                    return task_fn(item)
                finally:
                    self.end(child)

            try:
                return fn(task, items)
            finally:
                self.end(span)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _note_kernel(span, args, out):
    S = args[0]
    span.attrs.update(n=int(S.shape[0]), m=int(S.shape[1]), iters=int(out[2]),
                      converged=bool(out[4]))


def _note_sinkhorn(span, args, out):
    span.attrs["converged"] = bool(out[1].converged)


def _note_model_shape(span, args, out):
    model = args[0]
    span.attrs.update(n=int(model.n), m=int(model.m))


def _note_fit(span, args, out):
    span.attrs.update(outer_iters=int(out.iterations),
                      converged=bool(out.converged))


def _note_scores(span, args, out):
    span.attrs["rows"] = int(out.values.shape[0])


# (module, attribute, span name, note): every name a caller looks up.
_TARGETS = [
    ("infoot.sinkhorn", "sinkhorn_log_kernel", "_core.kernel", _note_kernel),
    ("infoot.solver", "sinkhorn", "sinkhorn.sinkhorn", _note_sinkhorn),
    ("infoot.solver", "mi_gradient", "solver.mi_gradient", _note_model_shape),
    ("infoot.solver", "mutual_information", "solver.mutual_information", None),
    ("infoot.solver", "build_kde_model", "kernels.build_kde_model", None),
    ("infoot.pipelines", "solve_fused_infoot", "solver.solve_fused_infoot",
     _note_fit),
    ("infoot.pipelines", "build_kde_model", "kernels.build_kde_model", None),
    ("infoot.pipelines", "pairwise_distances", "kernels.pairwise_distances",
     None),
    ("infoot.pipelines", "fit_alignment", "pipelines.fit_alignment", None),
    ("infoot.pipelines", "circular_validation",
     "pipelines.circular_validation", None),
    ("infoot.pipelines", "nn_classify", "pipelines.nn_classify", None),
    ("infoot.pipelines", "cluster_coherence", "pipelines.cluster_coherence",
     None),
    ("infoot.pipelines", "version_stamp", "pipelines.version_stamp", None),
    ("infoot.pipelines", "gen_clusters", "datasets.gen_clusters", None),
    ("infoot.pipelines", "class_conditional_cost",
     "datasets.class_conditional_cost", None),
    ("infoot.pipelines", "conditional_project",
     "projection.conditional_project", None),
    ("infoot.pipelines", "barycentric_project",
     "projection.barycentric_project", None),
    ("infoot.pipelines", "importance_scores", "projection.importance_scores",
     _note_scores),
    ("infoot.projection", "importance_scores", "projection.importance_scores",
     _note_scores),
    ("infoot.projection", "importance_weights",
     "projection.importance_weights", None),
    ("infoot.datasets", "gen_clusters", "datasets.gen_clusters", None),
    ("infoot.cli", "load_spec", "pipelines.load_spec", None),
    ("infoot.cli", "solve_pipeline", "pipelines.solve_pipeline", None),
    ("infoot.cli", "project_pipeline", "pipelines.project_pipeline", None),
    ("infoot.cli", "adaptation_pipeline", "pipelines.adaptation_pipeline",
     None),
    ("infoot.cli", "retrieval_pipeline", "pipelines.retrieval_pipeline", None),
    ("infoot.cli", "main", "cli.main", None),
]
_PARALLEL_USERS = ("infoot.pipelines", "infoot.projection")


def install(tracer: Tracer) -> list:
    """Patch every traced name; returns what :func:`uninstall` restores."""
    saved = []
    for mod_name, attr, span_name, note in _TARGETS:
        mod = sys.modules[mod_name]
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(original, span_name, note))
    for mod_name in _PARALLEL_USERS:
        mod = sys.modules[mod_name]
        saved.append((mod, "parallel_map", mod.parallel_map))
        mod.parallel_map = tracer.wrap_parallel_map(mod.parallel_map)
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals.

    Children that ran on pool threads overlap each other, so their
    intervals are merged before subtracting; each is clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.dur - _union_length(
        [iv for iv in children.get(s.id, []) if iv[1] > iv[0]])
        for s in spans}


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` spent under at least one top-level span."""
    ids = {s.id for s in spans}
    tops = [(max(s.start, start), min(s.end, end)) for s in spans
            if s.parent not in ids]
    return _union_length([iv for iv in tops if iv[1] > iv[0]]) / (end - start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict) -> dict:
    """Per-layer metrics of the traced pass, as ``{name: (value, unit)}``."""
    own = self_times(spans)
    groups: dict[str, list[Span]] = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)

    def calls(name):
        return len(groups.get(name, ()))

    def secs(name):
        return sum(s.dur for s in groups.get(name, ()))

    def self_s(name):
        return sum(own[s.id] for s in groups.get(name, ()))

    def attr_sum(name, key, fn=None):
        return sum((fn(s.attrs) if fn else s.attrs[key])
                   for s in groups.get(name, ()))

    kernel_iters = attr_sum("_core.kernel", "iters")
    kernel_s = secs("_core.kernel")
    kernel_gb = attr_sum("_core.kernel", None,
                         lambda a: a["iters"] * 4 * a["n"] * a["m"] * 8 / 1e9)
    fits = calls("solver.solve_fused_infoot")
    sinkhorn_calls = calls("sinkhorn.sinkhorn")
    scores_s = secs("projection.importance_scores")
    queries = attr_sum("projection.importance_scores", "rows")
    maps = groups.get("_parallel.map", ())
    by_id = {s.id: s for s in spans}
    tasks = groups.get("_parallel.task", ())
    map_s = sum(s.dur for s in maps)
    busy_s = sum(s.dur for s in tasks)
    wait_s = sum(t.start - by_id[t.parent].start for t in tasks)

    return {
        "core.kernel.calls": (calls("_core.kernel"), "count"),
        "core.kernel.s": (kernel_s, "s"),
        "core.kernel.iters": (kernel_iters, "count"),
        "core.kernel.cap_hits": (attr_sum(
            "_core.kernel", None, lambda a: not a["converged"]), "count"),
        "core.kernel.gb_computed": (kernel_gb, "GB"),
        "sinkhorn.calls": (sinkhorn_calls, "count"),
        "sinkhorn.s": (secs("sinkhorn.sinkhorn"), "s"),
        "sinkhorn.self_s": (self_s("sinkhorn.sinkhorn"), "s"),
        "kernels.build_kde_model.calls": (calls("kernels.build_kde_model"),
                                          "count"),
        "kernels.build_kde_model.s": (secs("kernels.build_kde_model"), "s"),
        "kernels.pairwise_distances.s": (secs("kernels.pairwise_distances"),
                                         "s"),
        "solver.fits": (fits, "count"),
        "solver.self_s": (self_s("solver.solve_fused_infoot"), "s"),
        "solver.outer_iters": (attr_sum("solver.solve_fused_infoot",
                                        "outer_iters"), "count"),
        "solver.mi_gradient.s": (secs("solver.mi_gradient"), "s"),
        "solver.mutual_information.s": (secs("solver.mutual_information"),
                                        "s"),
        "solver.mi_gradient.gflop_computed": (attr_sum(
            "solver.mi_gradient", None,
            lambda a: 4 * a["n"] * a["m"] * (a["n"] + a["m"]) / 1e9), "GFLOP"),
        "projection.importance_scores.calls": (
            calls("projection.importance_scores"), "count"),
        "projection.importance_scores.s": (scores_s, "s"),
        "projection.queries": (queries, "count"),
        "projection.importance_weights.calls": (
            calls("projection.importance_weights"), "count"),
        "projection.importance_weights.s": (
            secs("projection.importance_weights"), "s"),
        "projection.barycentric_project.s": (
            secs("projection.barycentric_project"), "s"),
        "parallel.maps": (len(maps), "count"),
        "parallel.tasks": (len(tasks), "count"),
        "parallel.s": (map_s, "s"),
        "parallel.busy_s": (busy_s, "s"),
        "parallel.wait_s": (wait_s, "s"),
        "pipelines.fit_alignment.calls": (calls("pipelines.fit_alignment"),
                                          "count"),
        "pipelines.fit_alignment.s": (secs("pipelines.fit_alignment"), "s"),
        "pipelines.fit_alignment.self_s": (self_s("pipelines.fit_alignment"),
                                           "s"),
        "pipelines.circular_validation.s": (
            secs("pipelines.circular_validation"), "s"),
        "pipelines.nn_classify.s": (secs("pipelines.nn_classify"), "s"),
        "pipelines.cluster_coherence.s": (secs("pipelines.cluster_coherence"),
                                          "s"),
        "pipelines.version_stamp.calls": (calls("pipelines.version_stamp"),
                                          "count"),
        "pipelines.version_stamp.s": (secs("pipelines.version_stamp"), "s"),
        "datasets.gen_clusters.s": (secs("datasets.gen_clusters"), "s"),
        "datasets.class_conditional_cost.s": (
            secs("datasets.class_conditional_cost"), "s"),
        "cli.main.s": (secs("cli.main"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (counters.get("cli.bytes_written", 0), "bytes"),
        "core.kernel.us_per_iter": (_ratio(kernel_s, kernel_iters) * 1e6,
                                     "us"),
        "core.kernel.gb_per_s_computed": (_ratio(kernel_gb, kernel_s),
                                           "GB/s"),
        "sinkhorn.converged_ratio": (_ratio(attr_sum(
            "sinkhorn.sinkhorn", "converged"), sinkhorn_calls), "ratio"),
        "solver.converged_ratio": (_ratio(attr_sum(
            "solver.solve_fused_infoot", "converged"), fits), "ratio"),
        "projection.us_per_query": (_ratio(scores_s, queries) * 1e6, "us"),
        "parallel.speedup": (_ratio(busy_s, map_s), "ratio"),
    }
