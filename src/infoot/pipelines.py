"""End-to-end runs: spec parsing, fitting, projecting, scoring.

An :class:`ExperimentSpec` is the single JSON-serializable description of a
run (what data to generate, how to solve, how to project). The pipeline
functions consume a spec and return an :class:`EvalReport` plus the
artifacts the CLI writes out. Everything here is deterministic given the
spec: seeds are mandatory and the only timing information lives in the
report's ``wall_time`` field.
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

# Unused here; kept importable because perfbench/spans.py patches this name.
from ._parallel import parallel_map  # noqa: F401
from ._version import __version__
from .datasets import (ClusterSample, GeneratorConfig, _class_penalized,
                       class_conditional_cost, gen_clusters)
from .kernels import (DistanceMatrix, KdeModel, _euclidean, _finite, _integer,
                      _listed, _plan_values, _real, _shaped,
                      pairwise_distances)
# Unused here; kept importable because perfbench/spans.py patches this name.
from .kernels import build_kde_model  # noqa: F401
from .points import PointSet
from .projection import (ProjectionRequest, ScoreMatrix, barycentric_project,
                         conditional_project, importance_scores)
from .sinkhorn import CouplingMatrix
from .solver import AlignmentResult, SolverConfig, solve_fused_infoot

__all__ = [
    "ExperimentSpec",
    "EvalReport",
    "FitResult",
    "load_spec",
    "spec_from_dict",
    "version_stamp",
    "stratified_holdout",
    "nn_classify",
    "cluster_coherence",
    "precision_at_k",
    "outlier_hits",
    "fit_alignment",
    "project_source",
    "solve_pipeline",
    "project_pipeline",
    "adaptation_pipeline",
    "retrieval_pipeline",
    "circular_validation",
    "validate_bandwidth_pipeline",
]

DEFAULT_BANDWIDTH_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
PRECISION_KS = (1, 5, 15)
HOLDOUT_FRACTION = 0.1

# Metrics with these prefixes are fractions and must stay inside [0, 1].
_FRACTION_PREFIXES = ("accuracy", "coherence", "p_at_", "score")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one experiment run."""

    generator: GeneratorConfig
    solver: SolverConfig
    projection: ProjectionRequest
    bandwidth_grid: tuple[float, ...] = DEFAULT_BANDWIDTH_GRID
    # None fits adapt and validate-bandwidth with the plain euclidean source
    # cost; a number, with the class-conditional one at that penalty.
    class_penalty: float | None = None
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "bandwidth_grid", _grid(self.bandwidth_grid))
        if self.class_penalty is not None:
            object.__setattr__(self, "class_penalty", _real(
                "class_penalty", self.class_penalty, "nonnegative"))
        if not (self.out is None or isinstance(self.out, str)):
            raise TypeError(f"out must be a path string or null, "
                            f"got {self.out!r}")


def _grid(grid) -> tuple[float, ...]:
    """A nonempty bandwidth grid's entries, each checked by :func:`_real`
    and listed once."""
    grid = tuple(_real("bandwidth_grid entries", h, "positive")
                 for h in _listed("bandwidth_grid", grid, "real numbers"))
    if not grid:
        raise ValueError("bandwidth_grid must be nonempty")
    for i, h in enumerate(grid):
        if h in grid[:i]:
            raise ValueError(f"bandwidth_grid lists {h!r} twice")
    return grid


def _section(name: str, cls, data, **given):
    """``cls`` built from one spec section over ``given``: data that is not
    a JSON object, an unknown key, a missing one that no default or ``given``
    fills, or a value of the wrong type is a ValueError naming the section."""
    if not isinstance(data, dict):
        raise ValueError(f"invalid {name} value: expected a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
    values = given | data
    for f in fields(cls):
        if f.name not in values and f.default is f.default_factory is MISSING:
            raise ValueError(f"{name}.{f.name} is required")
    try:
        return cls(**values)
    except TypeError as err:
        raise ValueError(f"invalid {name} value: {err}") from None


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a spec from parsed JSON, rejecting unknown or missing keys."""
    if not isinstance(data, dict):
        raise ValueError("spec root must be a JSON object")
    generator = _section("generator", GeneratorConfig, data.get("generator", {}))
    solver = _section("solver", SolverConfig, data.get("solver", {}),
                      seed=generator.seed)
    projection = _section("projection", ProjectionRequest,
                          data.get("projection", {}))
    return _section("spec", ExperimentSpec, data | {
        "generator": generator, "solver": solver, "projection": projection})


def load_spec(path) -> ExperimentSpec:
    """Read and validate an experiment spec from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") \
            from None
    return spec_from_dict(data)


@functools.cache
def version_stamp() -> str:
    """Package version, plus the short git revision when inside a checkout.

    Computed once per process, as the revision cannot change under a
    running program and each lookup spawns ``git``.
    """
    stamp = __version__
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
        if proc.returncode == 0 and proc.stdout.strip():
            stamp = f"{stamp}+g{proc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return stamp


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one run together with the fully resolved configuration."""

    metrics: dict
    config: dict
    version: str
    wall_time: float

    def __post_init__(self):
        metrics = {key: _real(f"metric {key!r}", float(value))
                   for key, value in self.metrics.items()}
        for key, value in metrics.items():
            if key.startswith(_FRACTION_PREFIXES) \
                    and not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValueError(f"metric {key!r}={value} outside [0, 1]")
        object.__setattr__(self, "metrics", metrics)
        _real("wall_time", self.wall_time, "nonnegative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def stratified_holdout(labels, fraction: float = HOLDOUT_FRACTION,
                       seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (train, test) with per-class sampling.

    Each class contributes about ``fraction`` of its members to the test
    side, at least one when it has two or more members. Both index arrays
    come back sorted, so downstream order does not depend on the draw.
    """
    labels = _shaped("labels", labels, (None,))
    if labels.size < 2:
        raise ValueError("need a 1-d label vector with at least two samples")
    if not _real("fraction", fraction, "positive") < 1:
        raise ValueError("holdout fraction must lie in (0, 1)")
    rng = np.random.default_rng([_integer("seed", seed, 0), 0x5EED])
    test_parts = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        k = int(round(fraction * idx.size))
        if idx.size > 1:
            k = min(max(k, 1), idx.size - 1)
        else:
            k = 0
        if k > 0:
            test_parts.append(rng.choice(idx, size=k, replace=False))
    if not test_parts:
        raise ValueError("holdout produced no test samples; classes are "
                         "too small")
    test = np.sort(np.concatenate(test_parts))
    train = np.setdiff1d(np.arange(labels.size), test)
    return train, test


def nn_classify(train_points, train_labels, query_points) -> np.ndarray:
    """1-nearest-neighbour labels; ties go to the lowest training index."""
    train = _shaped("train_points", np.atleast_2d(
        _finite("train_points", train_points)), (None, None))
    if not train.size:
        raise ValueError("train_points must be nonempty")
    queries = _shaped("query_points", np.atleast_2d(
        _finite("query_points", query_points)), (None, train.shape[1]))
    d = _euclidean(queries, train)
    return _shaped("train_labels", train_labels, (train.shape[0],))[d.argmin(axis=1)]


def _best_pairing(mass: np.ndarray) -> np.ndarray:
    """The column paired with each row in the one-to-one pairing of largest
    total ``mass`` (k, k).

    The Hungarian method in its O(k^3) shortest-augmenting-path form: rows
    enter one at a time, and a Dijkstra search over the columns on reduced
    costs, kept nonnegative by the dual potentials ``u, v``, finds the
    cheapest path to a free column, along which the pairing is flipped.
    Index 0 of ``u, v, row_of`` is a virtual column that roots each search.
    """
    k = mass.shape[0]
    cost = np.zeros((k + 1, k + 1))
    cost[1:, 1:] = -mass
    u, v = np.zeros(k + 1), np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=int)  # 1-based row on each column, 0 free
    way = np.zeros(k + 1, dtype=int)     # previous column on the path
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(k + 1, np.inf)
        done = np.zeros(k + 1, dtype=bool)
        while row_of[j0] != 0:
            done[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = j0
            j1 = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
            j0 = j1
        while j0 != 0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    best = np.empty(k, dtype=int)
    best[row_of[1:] - 1] = np.arange(k)
    return best


def cluster_coherence(plan, source_ids, target_ids) -> float:
    """Fraction of coupling mass on the best one-to-one cluster pairing.

    Mass touching outlier samples (id < 0) counts toward the total but can
    never be coherent, so heavy outlier attraction lowers the score.
    """
    g = _plan_values(plan)
    total = g.sum()
    if not total > 0:
        raise ValueError("coherence needs a plan with positive total mass")
    source_ids = _shaped("source_ids", source_ids, (g.shape[0],))
    target_ids = _shaped("target_ids", target_ids, (g.shape[1],))
    src_classes = np.unique(source_ids[source_ids >= 0])
    tgt_classes = np.unique(target_ids[target_ids >= 0])
    if src_classes.size != tgt_classes.size:
        raise ValueError("coherence needs the same number of clusters on "
                         "both sides")
    k = src_classes.size
    mass = np.empty((k, k))
    for a, ca in enumerate(src_classes):
        rows = g[source_ids == ca]
        for b, cb in enumerate(tgt_classes):
            mass[a, b] = rows[:, target_ids == cb].sum()
    best = _best_pairing(mass)
    off = np.ones((k, k), dtype=bool)
    off[range(k), best] = False
    # The mass off the pairing is summed on its own rather than taken as
    # the total minus the paired mass, so a plan whose off-pairing mass is
    # below rounding scores exactly 1.
    outliers = (g[source_ids < 0].sum()
                + g[np.ix_(source_ids >= 0, target_ids < 0)].sum())
    return float(1.0 - (mass[off].sum() + outliers) / total)


def precision_at_k(scores, query_labels, target_labels,
                   ks=PRECISION_KS) -> dict[int, float]:
    """Mean fraction of same-class targets among the top-k scored ones.

    A row's top k are the targets a stable descending sort would put
    first: ties go to the lower target index, so results do not depend on
    sort internals. Rows are not sorted whole: ``np.argpartition`` selects
    each row's K = max(ks) largest scores, and ``np.lexsort`` orders that
    block by descending score, then target index. Only rows whose ties at
    the K-th score run past the block are sorted whole. Scores must be
    finite and each ``k`` an integer.
    """
    vals = _plan_values(scores, "scores", None)
    q, m = vals.shape
    query_labels = _shaped("query_labels", query_labels, (q,))
    target_labels = _shaped("target_labels", target_labels, (m,))
    ks = [_integer("k", k) for k in ks]
    for k in ks:
        if not 1 <= k <= m:
            raise ValueError(f"k={k} out of range for {m} targets")
    if not ks:
        return {}
    top = max(ks)
    block = np.argpartition(vals, m - top, axis=1)[:, m - top:]
    neg = -np.take_along_axis(vals, block, axis=1)
    order = np.take_along_axis(block, np.lexsort((block, neg), axis=1), axis=1)
    # The block holds every score at or above its last one unless ties
    # there run past it; those rows take a full stable sort.
    last = vals[np.arange(q), order[:, -1], None]
    spill = np.count_nonzero(vals >= last, axis=1) > top
    if spill.any():
        order[spill] = np.argsort(-vals[spill], axis=1,
                                  kind="stable")[:, :top]
    hit = target_labels[order] == query_labels[:, None]
    return {k: float(np.count_nonzero(hit[:, :k]) / (q * k)) for k in ks}


def outlier_hits(projected, outliers, radius: float) -> int:
    """Count projections that land within ``radius`` of any outlier."""
    radius = _real("radius", radius, "nonnegative")
    projected = _shaped("projected", np.atleast_2d(
        _finite("projected", projected)), (None, None))
    outliers = np.atleast_2d(_finite("outliers", outliers))
    if outliers.ndim == 2 and not outliers.size:  # no outliers, any width
        return 0
    d = _euclidean(projected, _shaped("outliers", outliers,
                                      (None, projected.shape[1])))
    return int(np.count_nonzero(d.min(axis=1) < radius))


@dataclass(frozen=True)
class FitResult:
    """A solved alignment bundled with the point sets it aligns."""

    result: AlignmentResult
    source: PointSet
    target: PointSet

    @property
    def model(self) -> KdeModel:
        """The KDE state the alignment was solved under."""
        return self.result.model


def fit_alignment(source: PointSet, target: PointSet, cfg: SolverConfig,
                  class_penalty: float | None = None) -> FitResult:
    """Solve the fused objective between two point sets.

    The cross cost is always the plain euclidean one (target labels are
    never assumed known). ``class_penalty`` switches the source
    intra-domain metric to the class-conditional one, which requires
    labeled source points.
    """
    return _fit(source, target, cfg, *_distances(source, target,
                                                  class_penalty))


def _distances(source: PointSet, target: PointSet,
               class_penalty: float | None
               ) -> tuple[DistanceMatrix, DistanceMatrix, np.ndarray]:
    """The source and target intra-domain matrices of a fit and its cross
    cost, as :func:`fit_alignment` defines them."""
    _shaped("target points", target.points, (None, source.d))
    if class_penalty is not None:
        dx = class_conditional_cost(source, class_penalty)
    else:
        dx = pairwise_distances(source, source)
    dy = pairwise_distances(target, target)
    cross = pairwise_distances(source, target)
    return dx, dy, cross.values


def _fit(source: PointSet, target: PointSet, cfg: SolverConfig,
         dx: DistanceMatrix, dy: DistanceMatrix, cross: np.ndarray
         ) -> FitResult:
    """:func:`fit_alignment` on distances already built."""
    result = solve_fused_infoot(cross, dx, dy, source.weights,
                                target.weights, cfg)
    return FitResult(result=result, source=source, target=target)


def _transposed(fit: FitResult, source: PointSet) -> FitResult:
    """The fit of the reverse problem, from ``fit.target`` (as ``source``,
    the same points and weights, relabeled) back to ``fit.source``, read
    off ``fit`` without a solve. Only for fits without a class penalty.

    The map (P, C, K_X, K_Y, p, q) -> (P^T, C^T, K_Y, K_X, q, p) leaves
    ``<P, C> - lam * MI(P)`` and every mirror-descent step unchanged and
    takes the start ``p q^T`` to ``q p^T``, so the reverse plan is the
    forward plan transposed, to the inner tolerance. Traces, flags and
    diagnostics are the forward fit's.
    """
    result = fit.result
    plan, model = result.coupling, result.model
    coupling = CouplingMatrix(plan.values.T, plan.col_marginal,
                              plan.row_marginal, strict=plan.strict)
    reverse = replace(result, coupling=coupling,
                      model=KdeModel(model.dist_y, model.dist_x,
                                     model.bandwidth))
    return FitResult(result=reverse, source=source, target=fit.source)


def project_source(fit: FitResult,
                   request: ProjectionRequest) -> np.ndarray:
    """Map every training source point per the requested projection mode."""
    if request.mode == "barycentric":
        return barycentric_project(fit.result.coupling, fit.target)
    return conditional_project(fit.model, fit.result.coupling, None,
                               fit.target)


def _base_metrics(fit: FitResult, source_ids, target_ids) -> dict:
    return {
        "coherence": cluster_coherence(fit.result.coupling,
                                       source_ids, target_ids),
        "mi": fit.result.mi_trace[-1],
        "objective": fit.result.objective_trace[-1],
        "converged": float(fit.result.converged),
        "outer_iterations": float(fit.result.iterations),
    }


def _report(spec: ExperimentSpec, metrics: dict, start: float) -> EvalReport:
    return EvalReport(
        metrics=metrics,
        config=asdict(spec),
        version=version_stamp(),
        wall_time=time.perf_counter() - start,
    )


def solve_pipeline(spec: ExperimentSpec
                   ) -> tuple[EvalReport, FitResult, ClusterSample]:
    """Generate data per the spec and solve the unsupervised alignment."""
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    fit = fit_alignment(sample.source, sample.target, spec.solver)
    metrics = _base_metrics(fit, sample.source_ids, sample.target_ids)
    return _report(spec, metrics, start), fit, sample


def project_pipeline(spec: ExperimentSpec
                     ) -> tuple[EvalReport, FitResult, ClusterSample,
                                np.ndarray]:
    """Solve, then project every source point into the target domain.

    When the sample carries outliers the report counts projections landing
    within half the clean RMS radius of any outlier, for both the requested
    mode and its counterpart (so robustness can be compared off one run).
    """
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    fit = fit_alignment(sample.source, sample.target, spec.solver)
    projected = project_source(fit, spec.projection)
    metrics = _base_metrics(fit, sample.source_ids, sample.target_ids)
    if sample.outlier_indices.size:
        radius = sample.data_sigma / 2.0
        other = ("barycentric" if spec.projection.mode == "conditional"
                 else "conditional")
        by_mode = {spec.projection.mode: projected,
                   other: project_source(fit, replace(spec.projection,
                                                      mode=other))}
        for mode in ("conditional", "barycentric"):
            metrics[f"outlier_hit_count_{mode}"] = float(
                outlier_hits(by_mode[mode], sample.target_outliers, radius))
    return _report(spec, metrics, start), fit, sample, projected


def adaptation_pipeline(spec: ExperimentSpec
                        ) -> tuple[EvalReport, FitResult, ClusterSample,
                                   np.ndarray]:
    """Label transfer across domains, scored on held-out target points.

    Protocol: hold out a stratified tenth of the target (labels hidden
    during fitting), align the source against the remaining targets,
    project the source per the spec, then 1-NN classify the held-out
    targets against the projected source. The source cost is the one
    :func:`validate_bandwidth_pipeline` tunes for: class-conditional when
    :attr:`ExperimentSpec.class_penalty` is set, plain euclidean when it is
    ``None``.
    """
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    if sample.target.n < 2:
        raise ValueError("adapt needs at least two target samples: it holds "
                         "out a tenth of them to score the label transfer; "
                         f"the spec generates {sample.target.n}")
    train_idx, test_idx = stratified_holdout(sample.target_ids,
                                             HOLDOUT_FRACTION,
                                             spec.generator.seed)
    train_target = PointSet(sample.target.points[train_idx],
                            labels=sample.target_ids[train_idx])
    fit = fit_alignment(sample.source, train_target, spec.solver,
                        class_penalty=spec.class_penalty)
    projected = project_source(fit, spec.projection)
    predicted = nn_classify(projected, sample.source_ids,
                            sample.target.points[test_idx])
    accuracy = float(np.mean(predicted == sample.target_ids[test_idx]))
    metrics = _base_metrics(fit, sample.source_ids,
                            sample.target_ids[train_idx]) | {
        "accuracy": accuracy,
        "n_train": float(train_idx.size),
        "n_test": float(test_idx.size),
    }
    return _report(spec, metrics, start), fit, sample, projected


def retrieval_pipeline(spec: ExperimentSpec
                       ) -> tuple[EvalReport, FitResult, ClusterSample,
                                  ScoreMatrix]:
    """Cross-domain retrieval scored by precision at k in {1, 5, 15}.

    A stratified tenth of the source becomes out-of-sample queries; the
    alignment is fit fully unsupervised on the rest. Each query ranks all
    targets by its importance weights and precision counts same-class hits.
    """
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    if sample.source.n < 2:
        raise ValueError("retrieve needs at least two source samples: it "
                         "holds out a tenth of them as queries; the spec "
                         f"generates {sample.source.n}")
    train_idx, query_idx = stratified_holdout(sample.source_ids,
                                              HOLDOUT_FRACTION,
                                              spec.generator.seed)
    train_source = PointSet(sample.source.points[train_idx],
                            labels=sample.source_ids[train_idx])
    fit = fit_alignment(train_source, sample.target, spec.solver)
    scores = importance_scores(fit.model, fit.result.coupling,
                               sample.source.points[query_idx],
                               fit.target, source_points=train_source)
    precisions = precision_at_k(scores, sample.source_ids[query_idx],
                                sample.target_ids)
    metrics = {
        "converged": float(fit.result.converged),
        "n_queries": float(query_idx.size),
    }
    for k, value in precisions.items():
        metrics[f"p_at_{k}"] = value
    return _report(spec, metrics, start), fit, sample, scores


def circular_validation(source: PointSet, target: PointSet,
                        cfg: SolverConfig, grid,
                        projection: ProjectionRequest | None = None,
                        class_penalty: float | None = None
                        ) -> tuple[float, list[tuple[float, float]]]:
    """Pick the kernel bandwidth without target labels.

    For each candidate h: solve source to target, project the source and
    pseudo-label every target by 1-NN; then solve the reverse direction
    treating the pseudo-labels as ground truth, project back and classify
    the source points. The score is the fraction of source points whose
    round-trip label survives. Returns the best h (ties prefer smaller h)
    and the full (h, score) list in ascending h order. The fits are those
    of :func:`fit_alignment`, but the distances, which do not depend on h,
    are built once per sweep.

    Without a class penalty each h is solved once: the reverse problem is
    the forward one transposed, so its fit is read off the forward fit
    (:func:`_transposed`) instead of being solved again. Its plan then
    equals a solved reverse plan to the inner tolerance, not bit for bit.
    With a class penalty the reverse fit is solved, as its source matrix
    follows the pseudo-labels of each h.
    """
    if source.labels is None:
        raise ValueError("circular validation needs labeled source points")
    if class_penalty is not None:
        class_penalty = _real("class_penalty", class_penalty, "nonnegative")
    grid = sorted(_grid(grid))
    projection = projection or ProjectionRequest()
    # No distance depends on h, so each is built once. A solved reverse fit
    # aligns the same points the other way round: its target matrix is the
    # plain source one and its cross cost the transpose, which is what
    # fit_alignment would build, bit for bit. Its class-conditional source
    # matrix follows the pseudo-labels of each h, on the target distances;
    # the forward fit's is the plain source matrix penalized by the source
    # labels.
    dx, dy, cross = _distances(source, target, None)
    if class_penalty is not None:
        back_dy = dx
        dx = _class_penalized(dx.values, source.labels, class_penalty)
        back_cross = np.ascontiguousarray(cross.T)
    scores = []
    for h in grid:
        cfg_h = replace(cfg, bandwidth=h)
        forward = _fit(source, target, cfg_h, dx, dy, cross)
        pseudo = nn_classify(project_source(forward, projection),
                             source.labels, target.points)
        pseudo_target = PointSet(target.points, labels=pseudo,
                                 weights=target.weights)
        if class_penalty is None:
            reverse = _transposed(forward, pseudo_target)
        else:
            back_dx = _class_penalized(dy.values, pseudo, class_penalty)
            reverse = _fit(pseudo_target, source, cfg_h, back_dx, back_dy,
                           back_cross)
        predicted = nn_classify(project_source(reverse, projection),
                                pseudo, source.points)
        scores.append(float(np.mean(predicted == source.labels)))
    best = int(np.argmax(scores))  # first occurrence = smallest h on ties
    return grid[best], list(zip(grid, scores))


def validate_bandwidth_pipeline(spec: ExperimentSpec
                                ) -> tuple[EvalReport, float,
                                           list[tuple[float, float]]]:
    """Run circular validation over the spec's bandwidth grid."""
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    chosen, pairs = circular_validation(
        sample.source, sample.target, spec.solver, spec.bandwidth_grid,
        spec.projection, class_penalty=spec.class_penalty)
    metrics = {"chosen_bandwidth": chosen}
    for h, score in pairs:
        # :g where it reads back as h, which keeps the keys it has always
        # given; otherwise repr, the shortest round-trip form, so that no
        # two grid values share a key.
        key = f"{h:g}" if float(f"{h:g}") == h else repr(h)
        metrics[f"score_h_{key}"] = score
    return _report(spec, metrics, start), chosen, pairs
