"""Pairwise distances, Gaussian kernel Gram matrices, and KDE densities.

Every density ratio used by the solvers is built from the pieces here: a
distance matrix per domain, an unnormalized Gaussian kernel
``K(d) = exp(-d^2 / (2 h^2 sigma^2))``, the intra-domain Gram matrices, and
their row sums, which serve as (unnormalized) marginal density estimates.
Kernel normalizing constants are dropped throughout because only ratios of
densities are ever consumed.

A :class:`KdeModel` is derived from its distance matrices and bandwidth
alone: it reads its scales off them, so its read-only Grams cannot
disagree with them. One step, ``_floored_ratio``, floors a KDE joint and
divides it by the outer product of the kernel row sums. The solver forms
each plan's joint ``(Kx @ G) @ Ky.T`` once and reads both the MI estimate
and its gradient off it. The conditional projection reaches the step
with ``Kq @ W``, where the plan-side factor ``W = G @ Ky(h).T`` and the
target row sums ``Ky(h) @ 1`` do not depend on the queries;
:meth:`KdeModel.projection_factor` keeps them for the last read-only plan
and projection bandwidth it was asked for.

The per-domain scale ``sigma`` is the median of the strictly positive
pairwise distances, which makes a bandwidth grid like ``{0.2, ..., 0.8}``
meaningful across datasets of different units.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .points import PointSet

__all__ = [
    "DistanceMatrix",
    "KdeModel",
    "pairwise_distances",
    "estimate_scale",
    "gaussian_kernel",
    "build_kde_model",
]

_SYM_TOL = 1e-12
# Gaussian kernels keep densities positive, but tiny bandwidths underflow;
# the joint is clamped before any division or log.
JOINT_FLOOR = 1e-300


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``; the caller's array stays writable."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when given; a bool or a
    non-integer is a TypeError, a smaller value a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _real(name: str, value, sign: str | None = None) -> float:
    """``value`` as a finite float, also ``> 0`` or ``>= 0`` when ``sign`` is
    ``"positive"`` or ``"nonnegative"``. A bool or a non-real is a
    TypeError; NaN, an infinity or a value out of range a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (sign is None or x > 0
                                  or x == 0 and sign == "nonnegative")):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}"
                         f"finite, got {value}")
    return x


def _listed(name: str, values, kind: str) -> tuple:
    """The entries of a list setting as a tuple; a string, bytes or a value
    that cannot be iterated is a TypeError that names the setting."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(iter(values))
        except TypeError:
            pass
    raise TypeError(f"{name} must be a list of {kind}, got {values!r}")


def _finite(name: str, a, sign: str | None = None) -> np.ndarray:
    """``a`` as a float array of finite entries, also ``>= 0`` when ``sign``
    is ``"nonnegative"``; otherwise a ValueError that names it. Two
    reductions and no boolean temporary: NaN fails both comparisons."""
    a = np.asarray(a, dtype=float)
    if a.size and not ((a.min() >= 0 if sign else a.min() > -np.inf)
                       and a.max() < np.inf):
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}")
    return a


def _shaped(name: str, a, shape: tuple) -> np.ndarray:
    """``a`` as an array with one axis per entry of ``shape`` and the
    lengths it gives, where ``None`` admits any length; otherwise a
    ValueError that names it, the shape it must have and the shape it has."""
    a = np.asarray(a)
    if a.ndim != len(shape):
        raise ValueError(f"{name} must be {len(shape)}-d, got shape {a.shape}")
    want = tuple(n if s is None else s for s, n in zip(shape, a.shape))
    if want != a.shape:
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    return a


def _plan_values(plan, name: str = "plan",
                 sign: str | None = "nonnegative") -> np.ndarray:
    """The values of a :class:`CouplingMatrix` or :class:`ScoreMatrix`, checked
    when built, or ``plan`` as a 2-d array that :func:`_finite` passes."""
    from .projection import ScoreMatrix  # both modules import this one
    from .sinkhorn import CouplingMatrix
    if isinstance(plan, (CouplingMatrix, ScoreMatrix)):
        return plan.values
    return _finite(name, _shaped(name, plan, (None, None)), sign)


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` (n, d) and ``b`` (m, d).

    Squared coordinate differences are summed one column at a time, in
    column order, into one (n, m) array, which is the arithmetic of SciPy's
    ``cdist`` and gives the same bits. Memory stays O(nm): no (n, m, d)
    difference tensor is built.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    out = at[0, :, None] - bt[0]
    out *= out
    diff = np.empty_like(out)
    for ak, bk in zip(at[1:], bt[1:]):
        np.subtract(ak[:, None], bk, out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class DistanceMatrix:
    """Finite nonnegative pairwise distances, read-only.

    A matrix is intra-domain (:attr:`is_intra`) when its values say so:
    square, a zero diagonal and symmetric to 1e-12. Only the KDE model and
    :func:`estimate_scale` need that, and they check it.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _finite("distance matrix", _shaped(
            "distance matrix", self.values, (None, None)), "nonnegative")
        object.__setattr__(self, "values", _readonly(vals))

    @cached_property
    def is_intra(self) -> bool:
        """Square, with a zero diagonal, and symmetric to 1e-12."""
        v = self.values
        return bool(v.shape[0] == v.shape[1] and np.all(np.diag(v) == 0.0)
                    and np.all(np.abs(v - v.T) <= _SYM_TOL))

    @cached_property
    def scale(self) -> float:
        """KDE scale of an intra-domain matrix: :func:`estimate_scale`, or
        1 for a single point, which has no pairwise distances.

        The values are read-only, so the median is taken once per matrix
        however many models are built on it.
        """
        return 1.0 if self.shape[0] == 1 else estimate_scale(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class KdeModel:
    """KDE state for a source/target domain pair, derived from the two
    intra-domain distance matrices and the bandwidth.

    Each domain gets its own median-distance scale,
    :attr:`DistanceMatrix.scale`. A single-point domain has no pairwise
    distances, so its scale is fixed at 1 and its Gram is ``[[1]]`` for
    any bandwidth. The row sums of ``gram_x``, kept read-only as
    ``row_sums_x``, estimate the source marginal density at each sample up
    to a constant; same for the target. Projections kernelize
    query-to-source distances at the projection bandwidth on every call,
    and take the plan-side factor at that bandwidth from
    :meth:`projection_factor`, which keeps it between calls.
    """

    dist_x: DistanceMatrix
    dist_y: DistanceMatrix
    bandwidth: float
    gram_x: np.ndarray = field(init=False, repr=False)
    gram_y: np.ndarray = field(init=False, repr=False)
    row_sums_x: np.ndarray = field(init=False, repr=False)
    row_sums_y: np.ndarray = field(init=False, repr=False)
    # (h, plan, W, r_y) for the last read-only plan that owns its data and
    # projection bandwidth scored; at most one, so memory stays one (n, m)
    # factor and one m-vector.
    _factor: tuple | None = field(init=False, repr=False, compare=False,
                                  default=None)

    def __post_init__(self):
        if not (self.dist_x.is_intra and self.dist_y.is_intra):
            raise ValueError("KDE model needs intra-domain distance matrices: "
                             "square, zero diagonal, symmetric to 1e-12")
        h = _real("bandwidth", self.bandwidth, "positive")
        object.__setattr__(self, "bandwidth", h)
        for side, d in (("x", self.dist_x), ("y", self.dist_y)):
            gram = gaussian_kernel(d.values, h, d.scale)
            sums = gram.sum(axis=1)
            gram.flags.writeable = sums.flags.writeable = False
            object.__setattr__(self, f"gram_{side}", gram)
            object.__setattr__(self, f"row_sums_{side}", sums)

    @property
    def n(self) -> int:
        return self.dist_x.shape[0]

    @property
    def m(self) -> int:
        return self.dist_y.shape[0]

    def projection_factor(self, g: np.ndarray,
                          h: float) -> tuple[np.ndarray, np.ndarray]:
        """The plan-side factor ``W = g @ Ky(h).T`` (n, m) and the target
        row sums ``Ky(h) @ 1`` (m,), where ``Ky(h)`` is the target Gram at
        bandwidth ``h``; both read-only.

        Neither depends on the queries, so the pair is kept for the last
        ``h`` and plan asked for when the plan is a read-only array that
        owns its data, as :attr:`CouplingMatrix.values` is. It is served
        again only for the same ``h`` and that same array. A writable plan
        may change in place, so its pair is recomputed on every call. At
        the fitted bandwidth ``Ky`` and its row sums are ``gram_y`` and
        ``row_sums_y``; at another they are built on a miss and not kept.
        """
        memo = self._factor
        if memo is not None and memo[0] == h and g is memo[1]:
            return memo[2], memo[3]
        g = _shaped("plan", g, (self.n, self.m))
        if h == self.bandwidth:
            ky, row_sums = self.gram_y, self.row_sums_y
        else:
            ky = gaussian_kernel(self.dist_y.values, h, self.dist_y.scale)
            row_sums = ky.sum(axis=1)
        w = g @ ky.T
        w.flags.writeable = row_sums.flags.writeable = False
        if not g.flags.writeable and g.base is None:
            object.__setattr__(self, "_factor", (h, g, w, row_sums))
        return w, row_sums


def pairwise_distances(a: PointSet, b: PointSet) -> DistanceMatrix:
    """Euclidean distance matrix between two point sets.

    Distances already in memory are wrapped directly with
    ``DistanceMatrix(values)``.
    """
    vals = _euclidean(a.points, b.points)
    if a is b:
        np.fill_diagonal(vals, 0.0)
    return DistanceMatrix(vals)


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
    h = _real("bandwidth", h, "positive")
    sigma = _real("scale", sigma, "positive")
    d = np.asarray(values, dtype=float)
    return _squared_kernel(d * d, h, sigma)


def _squared_kernel(d2: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """:func:`gaussian_kernel` of the squared distances ``d2``, which it
    overwrites.

    Working in place saves two temporaries the size of ``d2``, and
    ``d2 / -denom`` has the bits of ``-d2 / denom``. A zero distance has
    kernel exactly 1 at every positive bandwidth. When ``2 h^2 sigma^2``
    underflows to zero, the kernel is its small-bandwidth limit: 1 at zero
    distance and 0 elsewhere. Otherwise an exponent that overflows, as
    large distances do at a subnormal ``2 h^2 sigma^2``, becomes -inf,
    whose kernel 0 is the right value at any scale, so the overflow
    warning is silenced.
    """
    denom = 2.0 * h * h * sigma * sigma
    if denom == 0.0:
        return (d2 == 0.0).astype(float)
    with np.errstate(over="ignore"):
        d2 /= -denom
    return np.exp(d2, out=d2)


def build_kde_model(dx: DistanceMatrix, dy: DistanceMatrix, h: float) -> KdeModel:
    """Fit the KDE state for a pair of intra-domain distance matrices."""
    return KdeModel(dx, dy, h)


def _floored_ratio(joint: np.ndarray, rx: np.ndarray,
                   ry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A KDE joint floored at ``JOINT_FLOOR`` in place, and its ratio to the
    outer product of the kernel row sums ``rx`` and ``ry``."""
    np.maximum(joint, JOINT_FLOOR, out=joint)
    return joint, joint / np.outer(rx, ry)

