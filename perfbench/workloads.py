"""The benchmark's workloads: inputs made from a seed, and the ops of a pass.

Each workload is a closed loop with one caller: an op starts after the
previous one returns. ``build`` is the in-process part of set-up (spec
load and input generation); ``once`` yields the ops that run once before
the timed passes, and ``ops`` the ops of one pass, as ``(name, fn)``
where ``fn()`` returns ``(seconds in the library call, outputs)``.
Outputs are what the correctness gate compares.

The seed never changes how much work a pass does, because the figures
must be steady across seeds:

* ``specs`` runs the shipped specs, which carry their own seeds, in an
  order drawn from the workload seed. Re-seeding them is not an option:
  the ``outliers`` spec at generator seeds 2, 3 and 4 does not converge
  and takes 40-63 s instead of 1.4 s.
* ``sweep`` and ``retrieval_large`` permute the order of a fixed point set
  by the seed (seed 0 keeps the generated order). Fitting a fresh draw
  instead moves the inner iteration count of the n=300 fit between 113
  and 294, and a 10-step sweep between 14 and 21 s, from seed to seed.
  ``retrieval_large`` draws its queries from the seed.

Ops whose outputs do not depend on the seed are checked against the
committed reference at every seed; the others only at the default seed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import infoot.cli as cli
import infoot.datasets as datasets
import infoot.pipelines as pipelines
import infoot.projection as projection
from infoot.points import PointSet
from infoot.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"
DEFAULT_SEED = 0


def _permuted(rng: np.random.Generator | None, points, ids) -> PointSet:
    order = np.arange(len(ids)) if rng is None else rng.permutation(len(ids))
    return PointSet(points[order], labels=ids[order])


def _rng(seed: int) -> np.random.Generator | None:
    return None if seed == DEFAULT_SEED else np.random.default_rng(seed)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


class Specs:
    name = "specs"
    # Shipped spec and the subcommand that runs it.
    COMMANDS = (("two_cluster_rotated", "solve"), ("single_point", "solve"),
                ("outliers", "project"), ("adaptation", "adapt"),
                ("imbalance", "adapt"), ("retrieval", "retrieve"))
    # The specs that take well under a second; the smoke run keeps to them.
    SMOKE = {"two_cluster_rotated", "single_point", "retrieval"}

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.commands = [c for c in self.COMMANDS
                         if not smoke or c[0] in self.SMOKE]

    def build(self):
        for spec, _ in self.commands:
            pipelines.load_spec(SPEC_DIR / f"{spec}.json")
        order = list(self.commands)
        rng = _rng(self.seed)
        if rng is not None:
            order = [order[i] for i in rng.permutation(len(order))]
        return order

    def once(self, order, counters):
        return ()

    def ops(self, order, counters):
        for spec, command in order:
            yield spec, lambda spec=spec, command=command: self._run(
                spec, command, counters)

    def _run(self, spec: str, command: str, counters: dict):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            elapsed, code = _timed(cli.main, [command,
                                              str(SPEC_DIR / f"{spec}.json"),
                                              "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"infoot {command} {spec} exited {code}")
            report = json.loads((out / "report.json").read_text())
            counters["cli.bytes_written"] = counters.get(
                "cli.bytes_written", 0) + sum(
                f.stat().st_size for f in out.iterdir())
        finally:
            shutil.rmtree(out)
        return elapsed, {"exit": code, "metrics": report["metrics"]}

    def extras(self, op_times: dict) -> dict:
        return {f"spec_s.{spec}": (_median(op_times.get(spec)), "s")
                for spec, _ in self.commands}

    def seed_free(self, op: str) -> bool:
        return True


class Sweep:
    name = "sweep"
    # Criterion 05's sweep settings, except that the outer loop is capped at
    # 3 steps instead of 30, so that five passes fit in a run. A pass at 30
    # steps takes about 53 s with the default two threads, at 5 steps about
    # 8 s, at 3 steps about 5 s. The fits at h=0.2 and 0.3 still hit the
    # inner cap on every step after the first, which is the stall this
    # workload exists to show, but no fit reaches the outer tolerance in 3
    # steps.
    OUTER_ITERS = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke

    def build(self):
        spec = pipelines.load_spec(SPEC_DIR / "two_cluster_rotated.json")
        sample = datasets.gen_clusters(spec.generator)
        rng = _rng(self.seed)
        source = _permuted(rng, sample.source.points, sample.source_ids)
        target = _permuted(rng, sample.target.points, sample.target_ids)
        cfg = replace(spec.solver, outer_iters=2 if self.smoke else
                      self.OUTER_ITERS, inner_max_iter=300, inner_tol=1e-7)
        grid = (0.2, 0.5) if self.smoke else spec.bandwidth_grid
        return source, target, cfg, grid, spec.projection

    def once(self, inputs, counters):
        return ()

    def ops(self, inputs, counters):
        source, target, cfg, grid, request = inputs

        def sweep():
            elapsed, (chosen, pairs) = _timed(
                pipelines.circular_validation, source, target, cfg, grid,
                request)
            return elapsed, {"chosen_bandwidth": chosen,
                             "scores": {f"{h:g}": s for h, s in pairs}}

        yield "sweep", sweep

    def extras(self, op_times: dict) -> dict:
        return {}

    def seed_free(self, op: str) -> bool:
        return True


@dataclass(frozen=True)
class _Retrieval:
    source: PointSet
    target: PointSet
    batches: list
    cfg: SolverConfig
    fitted: dict = field(default_factory=dict)
    passes: list = field(default_factory=lambda: [0])


class RetrievalLarge:
    name = "retrieval_large"
    # The retrieval spec's geometry and solver settings at 100 per cluster.
    # The alignment is fitted once a run, before the timed passes. The
    # queries are 100 batches of 50; a pass scores the next 20 of them
    # against the fit, in turn, so that a run holds dozens of passes and
    # its median pass is steady.
    DATA_SEED = 9
    QUERY_SEED_OFFSET = 10_000
    H_PROJ = 0.3

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.per_cluster, self.n_batches, self.per_pass, self.batch = \
            (20, 4, 2, 10) if smoke else (100, 100, 20, 50)

    def build(self):
        geometry = dict(rotation=0.5, spread=0.25)
        sample = datasets.gen_clusters(datasets.GeneratorConfig(
            sizes=(self.per_cluster,) * 3, seed=self.DATA_SEED, **geometry))
        rng = _rng(self.seed)
        source = _permuted(rng, sample.source.points, sample.source_ids)
        target = _permuted(rng, sample.target.points, sample.target_ids)
        n_queries = self.n_batches * self.batch
        sizes = [n_queries // 3 + (i < n_queries % 3) for i in range(3)]
        draw = datasets.gen_clusters(datasets.GeneratorConfig(
            sizes=tuple(sizes), seed=self.QUERY_SEED_OFFSET + self.seed,
            **geometry))
        order = np.random.default_rng(self.seed).permutation(n_queries)
        points, labels = draw.source.points[order], draw.source_ids[order]
        batches = [(points[i:i + self.batch], labels[i:i + self.batch])
                   for i in range(0, n_queries, self.batch)]
        cfg = SolverConfig(lam=100.0, eps=1.0, bandwidth=0.5,
                           inner_max_iter=5000, seed=self.DATA_SEED)
        return _Retrieval(source, target, batches, cfg)

    def once(self, inputs: _Retrieval, counters):
        def fit():
            elapsed, result = _timed(pipelines.fit_alignment, inputs.source,
                                     inputs.target, inputs.cfg)
            inputs.fitted["fit"] = result
            coherence = pipelines.cluster_coherence(
                result.result.coupling, inputs.source.labels,
                inputs.target.labels)
            return elapsed, {"converged": bool(result.result.converged),
                             "coherence": coherence}

        yield "fit", fit

    def ops(self, inputs: _Retrieval, counters):
        def score(points, labels):
            fit = inputs.fitted["fit"]
            elapsed, scores = _timed(
                projection.importance_scores, fit.model, fit.result.coupling,
                points, fit.target, self.H_PROJ, source_points=fit.source)
            precision = pipelines.precision_at_k(scores, labels,
                                                 inputs.target.labels)
            return elapsed, {f"p_at_{k}": v for k, v in precision.items()}

        first = inputs.passes[0] * self.per_pass % len(inputs.batches)
        inputs.passes[0] += 1
        for i in range(first, first + self.per_pass):
            points, labels = inputs.batches[i]
            yield f"batch{i:03d}", lambda p=points, y=labels: score(p, y)

    def extras(self, op_times: dict) -> dict:
        batch = [t for op, times in op_times.items() if op != "fit"
                 for t in times]
        p90 = statistics.quantiles(batch, n=10)[-1] if len(batch) > 1 \
            else float("nan")
        return {
            "fit_s": (_median(op_times.get("fit")), "s"),
            "batch_ms.p50": (_median(batch) * 1e3, "ms"),
            "batch_ms.p90": (p90 * 1e3, "ms"),
            "queries_per_s": (len(batch) * self.batch / sum(batch)
                              if batch else float("nan"), "1/s"),
        }

    def seed_free(self, op: str) -> bool:
        return op == "fit"  # the queries of every batch come from the seed


WORKLOADS = {w.name: w for w in (Specs, Sweep, RetrievalLarge)}
