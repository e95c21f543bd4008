"""Pairwise distances, Gaussian kernel Gram matrices, and KDE densities.

Every density ratio used by the solvers is built from the pieces here: a
distance matrix per domain, an unnormalized Gaussian kernel
``K(d) = exp(-d^2 / (2 h^2 sigma^2))``, the intra-domain Gram matrices, and
their row sums, which serve as (unnormalized) marginal density estimates.
Kernel normalizing constants are dropped throughout because only ratios of
densities are ever consumed.

The per-domain scale ``sigma`` is the median of the strictly positive
pairwise distances, which makes a bandwidth grid like ``{0.2, ..., 0.8}``
meaningful across datasets of different units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PointSet

__all__ = [
    "DistanceMatrix",
    "KernelGram",
    "KdeModel",
    "pairwise_distances",
    "load_distance_csv",
    "estimate_scale",
    "gaussian_kernel",
    "gaussian_gram",
    "build_kde_model",
    "joint_density",
]

_SYM_TOL = 1e-12
_KINDS = ("intra-source", "intra-target", "cross")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` (n, d) and ``b`` (m, d).

    Squared coordinate differences are summed one column at a time, in
    column order, into one (n, m) array, which is the arithmetic of SciPy's
    ``cdist`` and gives the same bits. Memory stays O(nm): no (n, m, d)
    difference tensor is built.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for ak, bk in zip(a.T, b.T):
        np.subtract.outer(ak, bk, out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class DistanceMatrix:
    """Nonnegative pairwise distances with a domain tag.

    Intra-domain matrices must be square, symmetric to 1e-12 and have a
    zero diagonal; cross matrices are unconstrained beyond nonnegativity.
    """

    values: np.ndarray
    kind: str = "cross"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"distance matrix must be 2-d, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(vals < 0):
            raise ValueError("distance matrix contains negative entries")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.is_intra:
            n, m = vals.shape
            if n != m:
                raise ValueError(f"intra-domain matrix must be square, got {vals.shape}")
            if np.any(np.diag(vals) != 0.0):
                raise ValueError("intra-domain matrix must have a zero diagonal")
            if np.max(np.abs(vals - vals.T)) > _SYM_TOL:
                raise ValueError("intra-domain matrix must be symmetric")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def is_intra(self) -> bool:
        return self.kind != "cross"

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class KernelGram:
    """Square Gaussian kernel matrix with its bandwidth and scale."""

    values: np.ndarray
    bandwidth: float
    scale: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {vals.shape}")
        if self.bandwidth <= 0 or self.scale <= 0:
            raise ValueError("bandwidth and scale must be positive")
        # Mathematically entries lie in (0, 1]; tiny bandwidths may underflow
        # to exact zero, which downstream division guards handle.
        if np.any(vals < 0) or np.any(vals > 1.0):
            raise ValueError("Gram entries must lie in [0, 1]")
        if np.any(np.diag(vals) != 1.0):
            raise ValueError("Gram diagonal must be exactly 1")
        if np.max(np.abs(vals - vals.T)) > _SYM_TOL:
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class KdeModel:
    """Precomputed KDE state for a source/target domain pair.

    ``marginal_x[i]`` is the row sum of ``gram_x`` and estimates the source
    marginal density at sample ``i`` up to a constant; same for the target.
    The distance matrices are retained so projections can re-kernelize at a
    different bandwidth while reusing the fitted scales.
    """

    gram_x: KernelGram
    gram_y: KernelGram
    marginal_x: np.ndarray
    marginal_y: np.ndarray
    dist_x: DistanceMatrix
    dist_y: DistanceMatrix

    def __post_init__(self):
        mx = np.asarray(self.marginal_x, dtype=float)
        my = np.asarray(self.marginal_y, dtype=float)
        if mx.shape != (self.gram_x.n,) or my.shape != (self.gram_y.n,):
            raise ValueError("marginal vectors must match Gram sizes")
        if np.any(mx <= 0) or np.any(my <= 0):
            raise ValueError("marginal densities must be strictly positive")
        object.__setattr__(self, "marginal_x", _readonly(mx))
        object.__setattr__(self, "marginal_y", _readonly(my))

    @property
    def n(self) -> int:
        return self.gram_x.n

    @property
    def m(self) -> int:
        return self.gram_y.n

    @property
    def bandwidth(self) -> float:
        return self.gram_x.bandwidth


def pairwise_distances(a: PointSet, b: PointSet, metric: str = "euclidean",
                       precomputed: np.ndarray | None = None,
                       kind: str | None = None) -> DistanceMatrix:
    """Euclidean distance matrix between two point sets.

    With ``metric="precomputed"`` the supplied matrix is validated (shape
    against the point sets, nonnegativity) and passed through. ``kind``
    defaults to ``"intra-source"`` when ``a is b`` and ``"cross"`` otherwise.
    """
    if kind is None:
        kind = "intra-source" if a is b else "cross"
    if metric == "euclidean":
        vals = _euclidean(a.points, b.points)
        if a is b:
            np.fill_diagonal(vals, 0.0)
    elif metric == "precomputed":
        if precomputed is None:
            raise ValueError("metric='precomputed' requires a matrix")
        vals = np.asarray(precomputed, dtype=float)
        if vals.shape != (a.n, b.n):
            raise ValueError(f"precomputed matrix has shape {vals.shape}, "
                             f"expected {(a.n, b.n)}")
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return DistanceMatrix(vals, kind=kind)


def load_distance_csv(path, kind: str = "intra-source") -> DistanceMatrix:
    """Read a precomputed distance matrix from a headerless numeric CSV."""
    vals = np.loadtxt(path, delimiter=",", ndmin=2)
    if kind != "cross" and vals.shape[0] != vals.shape[1]:
        raise ValueError(f"{path}: intra-domain matrix must be square, "
                         f"got shape {vals.shape}")
    return DistanceMatrix(vals, kind=kind)


def estimate_scale(d: DistanceMatrix) -> float:
    """Median of the strictly positive upper-triangular distances.

    Raises if no positive entry exists (all points identical), which marks
    the domain as degenerate for KDE purposes.
    """
    if not d.is_intra:
        raise ValueError("scale estimation needs an intra-domain matrix")
    iu = np.triu_indices(d.shape[0], k=1)
    upper = d.values[iu]
    positive = upper[upper > 0]
    if positive.size == 0:
        raise ValueError("degenerate domain: all pairwise distances are zero")
    return float(np.median(positive))


def gaussian_kernel(values: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """Entrywise ``exp(-d^2 / (2 h^2 sigma^2))`` without normalization."""
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if sigma <= 0:
        raise ValueError(f"scale must be positive, got {sigma}")
    d = np.asarray(values, dtype=float)
    return np.exp(-(d * d) / (2.0 * h * h * sigma * sigma))


def gaussian_gram(d: DistanceMatrix, h: float, sigma: float) -> KernelGram:
    """Gaussian kernel Gram matrix of an intra-domain distance matrix."""
    if not d.is_intra:
        raise ValueError("Gram construction needs an intra-domain matrix")
    vals = gaussian_kernel(d.values, h, sigma)
    np.fill_diagonal(vals, 1.0)
    return KernelGram(vals, bandwidth=float(h), scale=float(sigma))


def build_kde_model(dx: DistanceMatrix, dy: DistanceMatrix, h: float) -> KdeModel:
    """Fit the KDE state for a pair of intra-domain distance matrices.

    Each domain gets its own median-distance scale. A single-point domain
    has no pairwise distances, so its scale is fixed at 1; the Gram and
    marginal are then ``[[1]]`` and ``[1]`` for any bandwidth.
    """
    if not (dx.is_intra and dy.is_intra):
        raise ValueError("KDE model needs intra-domain distance matrices")
    sx = 1.0 if dx.shape[0] == 1 else estimate_scale(dx)
    sy = 1.0 if dy.shape[0] == 1 else estimate_scale(dy)
    gx = gaussian_gram(dx, h, sx)
    gy = gaussian_gram(dy, h, sy)
    return KdeModel(
        gram_x=gx,
        gram_y=gy,
        marginal_x=gx.values.sum(axis=1),
        marginal_y=gy.values.sum(axis=1),
        dist_x=dx,
        dist_y=dy,
    )


def joint_density(model: KdeModel, plan) -> np.ndarray:
    """Kernelized joint density on the sample grid: ``K_X @ plan @ K_Y.T``.

    Entry ``(i, j)`` sums ``plan[k, l] * K_X[i, k] * K_Y[j, l]`` over all
    pairs, i.e. the KDE joint induced by weighting sample pairs with the
    transport plan.
    """
    g = np.asarray(getattr(plan, "values", plan), dtype=float)
    if g.shape != (model.n, model.m):
        raise ValueError(f"plan shape {g.shape} does not match model "
                         f"({model.n}, {model.m})")
    return model.gram_x.values @ g @ model.gram_y.values.T
