"""Seeded synthetic scenario generators and the class-conditional cost.

Samples come from a Gaussian mixture whose modes sit on a circle; the
target draws from the same modes, optionally rotated, with optional far
outliers appended. Cluster ids ride along as labels for evaluation and for
the class-conditional source cost; the solvers themselves never read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import DistanceMatrix, _integer, _real, pairwise_distances
from .points import PointSet

__all__ = [
    "GeneratorConfig",
    "ClusterSample",
    "gen_clusters",
    "class_conditional_cost",
]

DEFAULT_CLASS_PENALTY = 5000.0
OUTLIER_ID = -1


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the mixture sampler; ``seed`` is mandatory.

    ``sizes`` gives per-cluster source counts; ``target_sizes`` defaults to
    the same. ``identity`` copies the source samples verbatim into the
    target (before outliers), for self-adaptation baselines. Outliers are
    placed at ``outlier_scale`` times the clean target's RMS radius.
    """

    sizes: tuple[int, ...]
    seed: int
    target_sizes: tuple[int, ...] | None = None
    separation: float = 2.0
    spread: float = 0.3
    rotation: float = 0.0
    outliers: int = 0
    outlier_scale: float = 10.0
    identity: bool = False

    def __post_init__(self):
        _integer("seed", self.seed, 0)
        _integer("outliers", self.outliers, 0)
        _real("rotation", self.rotation)
        _real("spread", self.spread, "nonnegative")
        for name in ("separation", "outlier_scale"):
            _real(name, getattr(self, name), "positive")
        sizes = tuple(_integer("sizes", s, 1) for s in self.sizes)
        if not sizes:
            raise ValueError("sizes must be a nonempty tuple of counts")
        object.__setattr__(self, "sizes", sizes)
        if self.target_sizes is not None:
            tsizes = tuple(_integer("target_sizes", s, 1)
                           for s in self.target_sizes)
            if len(tsizes) != len(sizes):
                raise ValueError("target_sizes must match the cluster count")
            object.__setattr__(self, "target_sizes", tsizes)
        if not isinstance(self.identity, bool):
            raise TypeError(f"identity must be true or false, got {self.identity!r}")
        if self.identity and self.target_sizes is not None \
                and self.target_sizes != sizes:
            raise ValueError("identity targets copy the source sizes")

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class ClusterSample:
    """Generated pair of domains with evaluation-only ground truth: the
    cluster ids are the point sets' labels, with ``OUTLIER_ID`` on outliers."""

    source: PointSet
    target: PointSet
    data_sigma: float

    @property
    def source_ids(self) -> np.ndarray:
        return self.source.labels

    @property
    def target_ids(self) -> np.ndarray:
        return self.target.labels

    @property
    def outlier_indices(self) -> np.ndarray:
        return np.flatnonzero(self.target_ids == OUTLIER_ID)

    @property
    def target_outliers(self) -> np.ndarray:
        return self.target.points[self.outlier_indices]


def _mode_centers(k: int, separation: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(k) / k
    return separation * np.column_stack([np.cos(angles), np.sin(angles)])


def _sample_mixture(rng, centers, sizes, spread) -> tuple[np.ndarray, np.ndarray]:
    parts = []
    ids = []
    for c, size in enumerate(sizes):
        parts.append(centers[c] + spread * rng.standard_normal((size, 2)))
        ids.append(np.full(size, c, dtype=int))
    return np.vstack(parts), np.concatenate(ids)


def gen_clusters(cfg: GeneratorConfig) -> ClusterSample:
    """Draw a source/target pair from the configured Gaussian mixture.

    Same config, same output, bit for bit. The target is rotated about the
    origin by ``cfg.rotation``; outliers (cluster id -1) are appended last.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = _mode_centers(cfg.n_clusters, cfg.separation)

    src, src_ids = _sample_mixture(rng, centers, cfg.sizes, cfg.spread)
    if cfg.identity:
        tgt, tgt_ids = src.copy(), src_ids.copy()
    else:
        tsizes = cfg.target_sizes if cfg.target_sizes is not None else cfg.sizes
        tgt, tgt_ids = _sample_mixture(rng, centers, tsizes, cfg.spread)
    if cfg.rotation != 0.0:
        c, s = np.cos(cfg.rotation), np.sin(cfg.rotation)
        rot = np.array([[c, -s], [s, c]])
        tgt = tgt @ rot.T

    centroid = tgt.mean(axis=0)
    data_sigma = float(np.sqrt(np.mean(np.sum((tgt - centroid) ** 2, axis=1))))
    if cfg.outliers > 0:
        angles = rng.uniform(0.0, 2.0 * np.pi, cfg.outliers)
        radius = cfg.outlier_scale * data_sigma
        pts = centroid + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        tgt = np.vstack([tgt, pts])
        tgt_ids = np.concatenate([tgt_ids, np.full(cfg.outliers, OUTLIER_ID)])

    return ClusterSample(
        source=PointSet(src, labels=src_ids),
        target=PointSet(tgt, labels=tgt_ids),
        data_sigma=data_sigma,
    )


def class_conditional_cost(points: PointSet,
                           penalty: float = DEFAULT_CLASS_PENALTY) -> DistanceMatrix:
    """Intra-domain euclidean distances plus a flat class-mismatch penalty.

    Entry ``(i, j)`` is ``||x_i - x_j|| + penalty * [label_i != label_j]``,
    which keeps same-class samples kernel-close while pushing different
    classes far apart.
    """
    if points.labels is None:
        raise ValueError("class-conditional cost needs labeled points")
    penalty = _real("penalty", penalty, "nonnegative")
    return _class_penalized(pairwise_distances(points, points).values,
                            points.labels, penalty)


def _class_penalized(d: np.ndarray, labels: np.ndarray,
                     penalty: float) -> DistanceMatrix:
    """The class-conditional matrix of the euclidean distances ``d`` of
    points carrying ``labels``; :func:`class_conditional_cost` is this on
    distances it builds, so a caller holding them gets the same bits."""
    mismatch = labels[:, None] != labels[None, :]
    return DistanceMatrix(d + penalty * mismatch)
