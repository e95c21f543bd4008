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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here; kept importable because perfbench/spans.py patches this name.
from ._parallel import parallel_map  # noqa: F401
from .kernels import KdeModel, _euclidean, gaussian_kernel
from .points import PointSet
from .solver import JOINT_FLOOR, _plan_values

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
    """How source queries should be mapped into the target domain.

    ``indices`` selects in-sample queries, ``coordinates`` supplies
    out-of-sample rows (conditional mode only); leaving both unset maps
    every training source point. ``bandwidth`` overrides the solver
    bandwidth for the conditional weights and is ignored by the
    barycentric map.
    """

    mode: str = "conditional"
    bandwidth: float | None = None
    indices: np.ndarray | None = None
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("projection bandwidth must be positive")
        if self.indices is not None and self.coordinates is not None:
            raise ValueError("pass either indices or coordinates, not both")
        if self.coordinates is not None:
            if self.mode != "conditional":
                raise ValueError("out-of-sample queries need conditional mode")
            coords = np.atleast_2d(np.asarray(self.coordinates, dtype=float))
            object.__setattr__(self, "coordinates", coords)
        if self.indices is not None:
            object.__setattr__(self, "indices",
                               np.asarray(self.indices, dtype=int))


@dataclass(frozen=True)
class ScoreMatrix:
    """Importance weights of queries against every target sample."""

    values: np.ndarray
    normalized: bool

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("score matrix must be 2-d")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("scores must be finite and nonnegative")
        if self.normalized:
            dev = np.max(np.abs(vals.sum(axis=1) - 1.0))
            if dev > _ROW_SUM_TOL:
                raise ValueError(f"normalized rows must sum to 1, max dev {dev:.3e}")
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
    if np.any(row_mass <= 0):
        raise ValueError("plan has a zero-mass row; cannot project it")
    return (g @ targets.points) / row_mass[:, None]


def _target_side(model: KdeModel, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Target Gram and its row sums at bandwidth ``h`` (reusing the fitted scale)."""
    if h == model.bandwidth:
        ky = model.gram_y.values
    else:
        ky = gaussian_kernel(model.dist_y.values, h, model.gram_y.scale)
        np.fill_diagonal(ky, 1.0)
    return ky, ky.sum(axis=1)


def _checked_plan(model: KdeModel, coupling, targets: PointSet,
                  h_proj) -> tuple[np.ndarray, float]:
    """Plan values and projection bandwidth, validated against the model."""
    g = _plan_values(coupling)
    if g.shape != (model.n, model.m):
        raise ValueError(f"plan shape {g.shape} does not match model "
                         f"({model.n}, {model.m})")
    if targets.n != model.m:
        raise ValueError(f"targets have {targets.n} rows, model expects {model.m}")
    h = model.bandwidth if h_proj is None else float(h_proj)
    if h <= 0:
        raise ValueError("projection bandwidth must be positive")
    return g, h


def _index_block(model: KdeModel, idx: np.ndarray, h: float) -> np.ndarray:
    """Kernel rows of in-sample queries ``idx`` against the source samples."""
    bad = (idx < 0) | (idx >= model.n)
    if bad.any():
        raise ValueError(f"in-sample index {idx[bad][0]} out of range "
                         f"[0, {model.n})")
    if h == model.bandwidth:
        return model.gram_x.values[idx]
    kq = gaussian_kernel(model.dist_x.values[idx], h, model.gram_x.scale)
    kq[np.arange(idx.size), idx] = 1.0
    return kq


def _distance_block(model: KdeModel, d: np.ndarray, h: float) -> np.ndarray:
    """Kernel rows of queries at distances ``d`` (q, n) from the source samples.

    Each row's smallest squared distance is subtracted in the exponent, so
    its nearest sample gets kernel 1. The weights do not change when a row
    is scaled, and a query far from every sample keeps a row that does not
    underflow to all zeros.
    """
    d2 = d * d
    d2 -= d2.min(axis=1, keepdims=True)
    sigma = model.gram_x.scale
    return np.exp(-d2 / (2.0 * h * h * sigma * sigma))


def _coordinate_block(model: KdeModel, x: np.ndarray, h: float,
                      source_points: PointSet | None) -> np.ndarray:
    """Kernel rows of coordinate queries ``x`` (q, d) against the source samples."""
    if source_points is None:
        raise ValueError(
            "out-of-sample query on a domain without coordinates: supply "
            "source_points for the euclidean metric, or query_distances "
            "holding the distances from the query to every training point")
    if x.shape[1] != source_points.d:
        raise ValueError(f"query has {x.shape[1]} features, source has "
                         f"{source_points.d}")
    if source_points.n != model.n:
        raise ValueError(f"source_points has {source_points.n} rows, model "
                         f"expects {model.n}")
    return _distance_block(model, _euclidean(x, source_points.points), h)


def _query_array(queries) -> np.ndarray:
    arr = np.asarray(queries)
    if arr.dtype == bool:
        raise ValueError("queries must be integer indices or coordinate rows, "
                         "not bool")
    return arr


def _weights(model: KdeModel, g: np.ndarray, h: float, kq: np.ndarray,
             normalize: bool) -> np.ndarray:
    """Importance weights of the queries whose source kernel rows are ``kq``."""
    ky, my = _target_side(model, h)
    joint = np.maximum((kq @ g) @ ky.T, JOINT_FLOOR)
    weights = joint / np.outer(kq.sum(axis=1), my)
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
    query = _query_array(query)
    if query.ndim == 0 and np.issubdtype(query.dtype, np.integer):
        kq = _index_block(model, query.reshape(1), h)
    elif query_distances is not None:
        d = np.asarray(query_distances, dtype=float)
        if d.shape != (model.n,):
            raise ValueError(f"query distances must have shape ({model.n},)")
        if np.any(d < 0):
            raise ValueError("query distances must be nonnegative")
        kq = _distance_block(model, d.reshape(1, -1), h)
    else:
        kq = _coordinate_block(model, query.astype(float).reshape(1, -1), h,
                               source_points)
    return _weights(model, g, h, kq, normalize)[0]


def importance_scores(model: KdeModel, coupling, queries, targets: PointSet,
                      h_proj: float | None = None, *,
                      source_points: PointSet | None = None,
                      normalize: bool = True) -> ScoreMatrix:
    """Batch :func:`importance_weights`: one (q, n) kernel block for all queries.

    ``queries`` is ``None`` (every training source point), an index or
    1-d integer array of them, or coordinate rows of unseen points (then
    ``source_points`` must be given). Each row equals the weights of its
    query scored alone.
    """
    g, h = _checked_plan(model, coupling, targets, h_proj)
    if queries is None:
        kq = _index_block(model, np.arange(model.n), h)
    else:
        arr = _query_array(queries)
        if arr.size == 0:
            raise ValueError("query batch is empty")
        if arr.ndim <= 1 and np.issubdtype(arr.dtype, np.integer):
            kq = _index_block(model, arr.reshape(-1), h)
        else:
            kq = _coordinate_block(model, np.atleast_2d(arr.astype(float)), h,
                                   source_points)
    return ScoreMatrix(_weights(model, g, h, kq, normalize), normalized=normalize)


def conditional_project(model: KdeModel, coupling, queries, targets: PointSet,
                        h_proj: float | None = None, *,
                        source_points: PointSet | None = None) -> np.ndarray:
    """Map queries to the importance-weighted mean of the target samples.

    The weights form a convex combination, so projections stay inside the
    hull of the targets. With a shrinking ``h_proj`` on distinct points the
    in-sample map approaches :func:`barycentric_project`.
    """
    scores = importance_scores(model, coupling, queries, targets, h_proj,
                               source_points=source_points, normalize=True)
    return scores.values @ targets.points

