"""Sample containers and CSV writing.

A :class:`PointSet` bundles a domain's samples with optional class labels
and per-sample marginal weights. Weights default to the uniform histogram.
They are the Sinkhorn marginals, so one rule, :func:`check_marginal`, checks
both: strictly positive entries that sum to one. Every CSV the package
writes goes through :func:`write_csv` in a float's shortest round-trip
form, so ``np.loadtxt`` reads it back exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import _finite, _readonly, _shaped

__all__ = ["PointSet", "save_points_csv", "uniform_weights", "check_marginal"]

_WEIGHT_SUM_TOL = 1e-12


def uniform_weights(n: int) -> np.ndarray:
    """Uniform histogram of length ``n``."""
    if n < 1:
        raise ValueError("need at least one sample")
    return np.full(n, 1.0 / n)


def check_marginal(w, name: str = "marginal") -> np.ndarray:
    """Validate a strictly positive histogram summing to one."""
    w = _shaped(name, np.asarray(w, dtype=float), (None,))
    if w.size < 1:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(w > 0):
        raise ValueError(f"{name} entries must be strictly positive")
    if not abs(w.sum() - 1.0) <= _WEIGHT_SUM_TOL:
        raise ValueError(f"{name} must sum to 1, got {float(w.sum())}")
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
        pts = _shaped("points", self.points, (None, None))
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        object.__setattr__(self, "points", _readonly(_finite("points", pts)))

        if self.labels is not None:
            labels = _shaped("labels", self.labels, (n,))
            if not np.issubdtype(labels.dtype, np.integer):
                # Whole floats such as 2.0 are ids; 1.7, NaN and inf are not.
                labels = np.asarray(labels, dtype=float)
                whole = np.isfinite(labels) & (labels == np.round(labels))
                if not whole.all():
                    raise ValueError(f"labels must be whole numbers, got "
                                     f"{labels[~whole][0]}")
            labels = labels.astype(int, copy=False)
            object.__setattr__(self, "labels", _readonly(labels))

        if self.weights is None:
            w = uniform_weights(n)
        else:
            w = check_marginal(_shaped("weights", self.weights, (n,)), "weights")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


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
    """Write a point set as CSV: a header of feature names ``x0, x1, ...``,
    plus a trailing ``label`` column when the set has labels, then one
    sample per row."""
    header = [f"x{i}" for i in range(ps.d)]
    rows = ps.points.tolist()
    if ps.labels is not None:
        header.append("label")
        rows = [row + [lab] for row, lab in zip(rows, ps.labels.tolist())]
    write_csv(path, rows, header)
