"""Sample containers and CSV reading and writing.

A :class:`PointSet` bundles a domain's samples with optional class labels
and per-sample marginal weights. Weights default to the uniform histogram.
They are the Sinkhorn marginals, so one rule, :func:`check_marginal`, checks
both: strictly positive entries that sum to one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .kernels import _readonly

__all__ = ["PointSet", "load_points_csv", "save_points_csv", "uniform_weights",
           "check_marginal"]

_WEIGHT_SUM_TOL = 1e-12


def uniform_weights(n: int) -> np.ndarray:
    """Uniform histogram of length ``n``."""
    if n < 1:
        raise ValueError("need at least one sample")
    return np.full(n, 1.0 / n)


def check_marginal(w, name: str = "marginal") -> np.ndarray:
    """Validate a strictly positive histogram summing to one."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(w > 0):
        raise ValueError(f"{name} entries must be strictly positive")
    if not abs(w.sum() - 1.0) <= _WEIGHT_SUM_TOL:
        raise ValueError(f"{name} must sum to 1, got {w.sum()!r}")
    return w


@dataclass(frozen=True)
class PointSet:
    """Samples from one domain.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Feature rows, one per sample.
    labels : ndarray of int, shape (n,), optional
        Class ids used only for evaluation and class-conditional costs.
    weights : ndarray, shape (n,), optional
        Strictly positive marginal masses summing to one. Uniform by default.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d (n, d), got shape {pts.shape}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        object.__setattr__(self, "points", _readonly(pts))

        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
            object.__setattr__(self, "labels", _readonly(labels))

        if self.weights is None:
            w = uniform_weights(n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise ValueError(f"weights must have shape ({n},), got {w.shape}")
            check_marginal(w, "weights")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def load_points_csv(path) -> PointSet:
    """Read a point set from CSV.

    Expects a header row naming the feature columns; an optional trailing
    ``label`` column holds integer class ids. One sample per row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    has_labels = header and header[-1].strip().lower() == "label"
    ncols = len(header)
    data = np.empty((len(rows), ncols))
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} fields, expected {ncols}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 2}: {exc}") from None
    if has_labels:
        labels = data[:, -1]
        if np.any(labels != np.round(labels)):
            raise ValueError(f"{path}: label column must hold integers")
        return PointSet(data[:, :-1], labels=labels.astype(int))
    return PointSet(data)


def write_csv(path, rows, header=None) -> None:
    """Write ``rows`` (an array, or rows of Python scalars as ``.tolist()``
    gives them) as comma-separated lines ending in LF. Each cell goes
    through ``str``, which writes a Python float as its ``repr``: the
    shortest string that reads back to the same value."""
    if isinstance(rows, np.ndarray):
        rows = np.atleast_2d(rows).tolist()
    if header is not None:
        rows = [header, *rows]
    with open(path, "w", newline="\n") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_points_csv(path, ps: PointSet) -> None:
    """Write a point set in the format read by :func:`load_points_csv`."""
    header = [f"x{i}" for i in range(ps.d)]
    rows = ps.points.tolist()
    if ps.labels is not None:
        header.append("label")
        rows = [row + [lab] for row, lab in zip(rows, ps.labels.tolist())]
    write_csv(path, rows, header)
