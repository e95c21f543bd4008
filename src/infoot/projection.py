"""Mapping source points into the target domain.

Two projectors share one coupling: the barycentric map averages target
points with plan weights, while the conditional map averages them with
importance weights

    w_j(x) ∝ f_plan(x, y_j) / (f_X(x) * f_Y(y_j)),

the ratio of the KDE joint to the KDE marginals. The conditional map is
defined for any query point, not just training samples, degrades
gracefully around outliers, and recovers the barycentric map as its
bandwidth shrinks. The same weights double as similarity scores for
retrieval.

Every query form takes one path. A training index, the coordinates of
an unseen point and a row of distances each become distances to the
source samples, and one step turns distance rows into weights. So a
duplicate of a training point gets that point's weights, bit for bit, at
any positive ``h_proj``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here; kept importable because perfbench/spans.py patches this name.
from ._parallel import parallel_map  # noqa: F401
from .kernels import (KdeModel, _euclidean, _floored_ratio, _plan_values,
                      _squared_kernel)
from .points import PointSet

__all__ = [
    "ProjectionRequest",
    "ScoreMatrix",
    "barycentric_project",
    "importance_weights",
    "importance_scores",
    "conditional_project",
]

_ROW_SUM_TOL = 1e-10
_MODES = ("barycentric", "conditional")


@dataclass(frozen=True)
class ProjectionRequest:
    """How the training source points are mapped into the target domain.

    ``bandwidth`` overrides the solver bandwidth for the conditional
    weights and is ignored by the barycentric map. Out-of-sample queries
    go to :func:`conditional_project` or :func:`importance_weights`
    directly.
    """

    mode: str = "conditional"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("projection bandwidth must be positive")


@dataclass(frozen=True)
class ScoreMatrix:
    """Importance weights of queries against every target sample, one
    probability row per query."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("score matrix must be 2-d")
        # Two reductions, no boolean temporaries: a NaN fails both
        # comparisons, and -inf fails the first.
        if vals.size and not (vals.min() >= 0 and vals.max() < np.inf):
            raise ValueError("scores must be finite and nonnegative")
        dev = np.max(np.abs(vals.sum(axis=1) - 1.0))
        if dev > _ROW_SUM_TOL:
            raise ValueError(f"score rows must sum to 1, max dev {dev:.3e}")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def barycentric_project(coupling, targets: PointSet) -> np.ndarray:
    """Map each source sample to the plan-weighted mean of the targets."""
    g = _plan_values(coupling)
    if g.shape[1] != targets.n:
        raise ValueError(f"plan has {g.shape[1]} columns for {targets.n} targets")
    row_mass = g.sum(axis=1)
    if not np.all(row_mass > 0):
        raise ValueError("plan has a zero-mass row; cannot project it")
    return (g @ targets.points) / row_mass[:, None]


def _checked_plan(model: KdeModel, coupling, targets: PointSet,
                  h_proj) -> tuple[np.ndarray, float]:
    """Plan values and projection bandwidth; the targets are checked
    against the model here, the plan where its factor is formed."""
    g = _plan_values(coupling)
    if targets.n != model.m:
        raise ValueError(f"targets have {targets.n} rows, model expects {model.m}")
    h = model.bandwidth if h_proj is None else float(h_proj)
    if not h > 0:
        raise ValueError("projection bandwidth must be positive")
    return g, h


def _distance_rows(model: KdeModel, queries,
                   source_points: PointSet | None) -> np.ndarray:
    """Distances (q, n) from index or coordinate queries to the source samples.

    An index or 1-d integer array selects rows of the model's source
    distances; anything else is coordinate rows, measured against
    ``source_points``.
    """
    arr = np.asarray(queries)
    if arr.dtype == bool:
        raise ValueError("queries must be integer indices or coordinate rows, "
                         "not bool")
    if arr.size == 0:
        raise ValueError("query batch is empty")
    if arr.ndim <= 1 and np.issubdtype(arr.dtype, np.integer):
        idx = arr.reshape(-1)
        bad = (idx < 0) | (idx >= model.n)
        if bad.any():
            raise ValueError(f"in-sample index {idx[bad][0]} out of range "
                             f"[0, {model.n})")
        return model.dist_x.values[idx]
    if source_points is None:
        raise ValueError(
            "out-of-sample query on a domain without coordinates: supply "
            "source_points for the euclidean metric, or query_distances "
            "holding the distances from the query to every training point")
    x = np.atleast_2d(arr.astype(float))
    if x.shape[1] != source_points.d:
        raise ValueError(f"query has {x.shape[1]} features, source has "
                         f"{source_points.d}")
    if source_points.n != model.n:
        raise ValueError(f"source_points has {source_points.n} rows, model "
                         f"expects {model.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("query coordinates must be finite")
    return _euclidean(x, source_points.points)


def _weights(model: KdeModel, g: np.ndarray, h: float, d: np.ndarray,
             normalize: bool) -> np.ndarray:
    """Importance weights of the queries at distances ``d`` (q, n) from the
    source samples.

    Each row's smallest squared distance is subtracted in the exponent, so
    its nearest sample gets kernel exactly 1. That leaves the weights as
    they are, and a query far from every sample keeps a row that does not
    underflow to all zeros. The joint is ``kq @ W`` with the model's
    plan-side factor ``W = g @ Ky(h).T``, so a batch costs one (q, n, m)
    product once the factor is kept.
    """
    w, target_sums = model.projection_factor(g, h)
    d2 = d * d
    d2 -= d2.min(axis=1, keepdims=True)
    kq = _squared_kernel(d2, h, model.dist_x.scale)
    _, weights = _floored_ratio(kq @ w, kq.sum(axis=1), target_sums)
    if normalize:
        weights /= weights.sum(axis=1, keepdims=True)
    return weights


def importance_weights(model: KdeModel, coupling, query, targets: PointSet,
                       h_proj: float | None = None, *,
                       source_points: PointSet | None = None,
                       query_distances=None,
                       normalize: bool = False) -> np.ndarray:
    """Importance weights of one query against every target sample.

    ``query`` is an integer index of a training source point, or a
    coordinate row for an unseen point (then ``source_points`` or
    ``query_distances`` must be given). ``h_proj`` defaults to the
    bandwidth the model was fitted with. Weights are strictly positive up
    to floating-point underflow; ``normalize=True`` rescales them to a
    probability row.
    """
    g, h = _checked_plan(model, coupling, targets, h_proj)
    query = np.asarray(query)
    if query.ndim == 0 and np.issubdtype(query.dtype, np.integer):
        d = _distance_rows(model, query, source_points)
    elif query_distances is None:
        d = _distance_rows(model, query.reshape(1, -1), source_points)
    else:
        d = np.asarray(query_distances, dtype=float)
        if d.shape != (model.n,):
            raise ValueError(f"query distances must have shape ({model.n},)")
        if not np.all(np.isfinite(d) & (d >= 0)):
            raise ValueError("query distances must be finite and nonnegative")
    return _weights(model, g, h, d.reshape(1, -1), normalize)[0]


def importance_scores(model: KdeModel, coupling, queries, targets: PointSet,
                      h_proj: float | None = None, *,
                      source_points: PointSet | None = None) -> ScoreMatrix:
    """Batch :func:`importance_weights`: one (q, n) distance block for all queries.

    ``queries`` is ``None`` (every training source point), an index or
    1-d integer array of them, or coordinate rows of unseen points (then
    ``source_points`` must be given). Each row equals the weights of its
    query scored alone, normalized to a probability row.
    """
    g, h = _checked_plan(model, coupling, targets, h_proj)
    d = model.dist_x.values if queries is None \
        else _distance_rows(model, queries, source_points)
    weights = _weights(model, g, h, d, normalize=True)
    return ScoreMatrix(weights)


def conditional_project(model: KdeModel, coupling, queries, targets: PointSet,
                        h_proj: float | None = None, *,
                        source_points: PointSet | None = None) -> np.ndarray:
    """Map queries to the importance-weighted mean of the target samples.

    The weights form a convex combination, so projections stay inside the
    hull of the targets. With a shrinking ``h_proj`` on distinct points the
    in-sample map approaches :func:`barycentric_project`.
    """
    scores = importance_scores(model, coupling, queries, targets, h_proj,
                               source_points=source_points)
    return scores.values @ targets.points

