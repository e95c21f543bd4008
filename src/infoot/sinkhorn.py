"""Entropic-regularized optimal transport and a small exact-assignment solver.

:func:`sinkhorn` minimizes ``<plan, C> - eps * H(plan)`` over the
transportation polytope, always in the log domain so small ``eps`` does not
underflow. It starts with alternating diagonal scaling (Sinkhorn sweeps).
Sweeps converge linearly at a rate that degrades as the kernel
``exp(-C / eps)`` grows ill-conditioned, and on such problems they stall
for thousands of iterations. A solve that has not converged after
``NEWTON_WARMUP`` sweeps is therefore finished by a Sinkhorn-Newton polish
(Brauer, Clason, Lorenz & Wirth, arXiv:1710.06635): damped Newton steps on
the dual in the log-scalings, which converge quadratically near the
solution. :func:`exact_assignment` is an O(n^3) Hungarian solver for the
uniform equal-size special case, kept mainly as an independent oracle for
tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kernels import _plan_values, _readonly

__all__ = [
    "CouplingMatrix",
    "SinkhornReport",
    "sinkhorn",
    "entropy",
    "exact_assignment",
]

MARGINAL_TOL = 1e-8
MASS_TOL = 1e-10
_ASSIGNMENT_MAX_N = 64
# Sinkhorn sweeps a solve gets before Newton steps take over. Well-conditioned
# solves converge within it and never reach the polish.
NEWTON_WARMUP = 50
# Armijo sufficient-increase constant and how often a step may be halved.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# Relative ridge on the Newton system: plan entries that underflow to zero
# can disconnect it.
_RIDGE = 1e-12
_LOG_MAX = math.log(np.finfo(float).max)


def check_marginal(w, name: str = "marginal") -> np.ndarray:
    """Validate a strictly positive histogram summing to one."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(w > 0):
        raise ValueError(f"{name} entries must be strictly positive")
    if not abs(w.sum() - 1.0) <= MASS_TOL:
        raise ValueError(f"{name} must sum to 1, got {w.sum()!r}")
    return w


@dataclass(frozen=True)
class CouplingMatrix:
    """Transport plan with its prescribed marginals.

    Row sums must match ``row_marginal`` and column sums ``col_marginal``
    within ``MARGINAL_TOL``; total mass must be one within ``MASS_TOL``.
    ``strict=False`` skips the marginal checks so that flagged
    non-converged solver output can still be returned and inspected.
    """

    values: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    strict: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        p = check_marginal(self.row_marginal, "row marginal")
        q = check_marginal(self.col_marginal, "col marginal")
        if vals.shape != (p.size, q.size):
            raise ValueError(f"plan shape {vals.shape} does not match marginals "
                             f"({p.size}, {q.size})")
        if not np.all(vals >= 0):
            raise ValueError("plan entries must be nonnegative")
        if not abs(vals.sum() - 1.0) <= MASS_TOL:
            raise ValueError(f"plan mass must be 1, got {vals.sum()!r}")
        if self.strict:
            err = self.marginal_violation(vals, p, q)
            if not max(err) <= MARGINAL_TOL:
                raise ValueError(f"plan violates marginals: max row dev {err[0]:.3e}, "
                                 f"max col dev {err[1]:.3e}")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "row_marginal", _readonly(p))
        object.__setattr__(self, "col_marginal", _readonly(q))

    @staticmethod
    def marginal_violation(vals, p, q) -> tuple[float, float]:
        """Largest row and largest column deviation from ``p`` and ``q``."""
        row_dev = np.abs(vals.sum(axis=1) - p)
        col_dev = np.abs(vals.sum(axis=0) - q)
        return float(row_dev.max()), float(col_dev.max())

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class SinkhornReport:
    """Diagnostics of one Sinkhorn solve."""

    iterations: int
    violation: float
    converged: bool
    potential_source: np.ndarray
    potential_target: np.ndarray
    wall_time: float = 0.0

    def __post_init__(self):
        if self.violation < 0:
            raise ValueError("violation must be nonnegative")


def logsumexp(X, axis: int) -> np.ndarray:
    """Max-shifted ``log(sum(exp(X)))`` along ``axis`` of a finite 2-d array.

    Written out instead of calling ``scipy.special.logsumexp``, whose
    argument handling dominates its cost on the small matrices Sinkhorn
    sees.
    """
    mx = X.max(axis=axis, keepdims=True)
    out = np.log(np.exp(X - mx).sum(axis=axis, keepdims=True)) + mx
    return out.squeeze(axis)


def sinkhorn_log_kernel(S, p, q, max_iter, tol):
    """Run stabilized Sinkhorn scaling on the log-kernel ``S``.

    Alternating potential updates with
    ``log(plan) = a[:, None] + b[None, :] + S``, stopped on the L1
    violation of both marginals. Returns
    ``(a, b, iterations, violation, converged)`` where ``a`` and ``b`` are
    the log-domain scalings.
    """
    S = np.asarray(S, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    logp = np.log(p)
    logq = np.log(q)
    a = np.zeros(S.shape[0])
    b = np.zeros(S.shape[1])
    viol = np.inf
    # The row log-sum-exp that measures the row violation of one iterate is
    # the one the next row update needs, so each iteration makes two passes.
    row_lse = logsumexp(S, axis=1)
    for it in range(1, max_iter + 1):
        a = logp - row_lse
        col_lse = logsumexp(S + a[:, None], axis=0)
        b = logq - col_lse
        col_viol = np.abs(np.exp(b + col_lse) - q).sum()
        row_lse = logsumexp(S + b[None, :], axis=1)
        row_viol = np.abs(np.exp(a + row_lse) - p).sum()
        viol = row_viol + col_viol
        if viol <= tol:
            return a, b, it, float(viol), True
    return a, b, max_iter, float(viol), False


def sinkhorn(C, p, q, eps: float, max_iter: int = 1000, tol: float = 1e-9
             ) -> tuple[CouplingMatrix, SinkhornReport]:
    """Solve ``min <plan, C> - eps * H(plan)`` over couplings of ``p, q``.

    Iterates until the L1 violation of both marginals drops below ``tol`` or
    ``max_iter`` is hit; the latter is reported through the ``converged``
    flag rather than an exception. The first ``NEWTON_WARMUP`` iterations
    are log-domain Sinkhorn sweeps; a solve still unconverged after them
    continues with damped Sinkhorn-Newton steps, each followed by an exact
    scaling of the smaller side so the plan keeps unit mass. Newton steps
    count toward ``max_iter`` and ``report.iterations`` like sweeps do.
    Should backtracking find no Newton step that increases the dual (as
    happens once rounding dominates), the rest of the budget goes back to
    sweeps.
    """
    start = time.perf_counter()
    C = np.ascontiguousarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix contains non-finite entries")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    p = check_marginal(p, "row marginal")
    q = check_marginal(q, "col marginal")
    if C.shape != (p.size, q.size):
        raise ValueError(f"cost shape {C.shape} does not match marginals "
                         f"({p.size}, {q.size})")

    S = np.ascontiguousarray(-C / eps)
    max_iter = int(max_iter)
    a, b, iters, viol, converged = sinkhorn_log_kernel(
        S, p, q, min(max_iter, NEWTON_WARMUP), tol)
    if not converged and iters < max_iter:
        a, b, iters, viol, converged = _newton_polish(
            S, p, q, a, b, iters, max_iter, tol)
    if not converged and iters < max_iter:
        # Sweeps resume from the polish's scalings: the kernel starts from
        # b = 0, so shift the log-kernel by b instead.
        a, db, more, viol, converged = sinkhorn_log_kernel(
            S + b[None, :], p, q, max_iter - iters, tol)
        b = b + db
        iters += more
    plan = np.exp(a[:, None] + b[None, :] + S)
    # Feasibility strictness reflects the plan actually produced: a loose
    # caller tolerance can stop short of the class invariant even when the
    # iteration "converged" in the caller's sense.
    dev = CouplingMatrix.marginal_violation(plan, p, q)
    strict = bool(converged) and max(dev) <= MARGINAL_TOL
    coupling = CouplingMatrix(plan, p, q, strict=strict)
    report = SinkhornReport(
        iterations=int(iters),
        violation=float(viol),
        converged=bool(converged),
        potential_source=eps * np.asarray(a),
        potential_target=eps * np.asarray(b),
        wall_time=time.perf_counter() - start,
    )
    return coupling, report


def _newton_polish(S, p, q, a, b, iters, max_iter, tol):
    """Damped Newton ascent on the dual of the log-domain problem.

    The dual ``<a, p> + <b, q> - sum(exp(S + a + b))`` is concave in the
    log-scalings, with gradient the marginal residuals ``(p - r, q - c)``
    and Hessian ``[[diag(r), P], [P^T, diag(c)]]`` of the plan ``P`` and
    its row and column sums ``r, c``. The Newton system is solved through
    its Schur complement on the smaller side, so memory stays O(nm).
    Each accepted step is followed by the exact scaling of the smaller
    side, which only increases the dual further and restores unit mass.
    Returns the kernel's ``(a, b, iterations, violation, converged)``,
    counting one iteration per Newton step, and returns early,
    unconverged, when backtracking finds no step that increases the dual.
    """
    if S.shape[1] > S.shape[0]:
        b, a, iters, viol, converged = _newton_polish(
            S.T, q, p, b, a, iters, max_iter, tol)
        return a, b, iters, viol, converged
    n, m = S.shape
    logq = np.log(q)
    log_nm = math.log(n * m)
    plan = np.exp(S + a[:, None] + b[None, :])
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    viol = float(np.abs(r - p).sum() + np.abs(c - q).sum())
    while iters < max_iter:
        gp, gq = p - r, q - c
        # Eliminating the row block leaves a weighted graph Laplacian on the
        # columns, singular along the gauge (a + t, b - t). The rank-one term
        # gives that direction an eigenvalue of mean(c) and so pins
        # sum(db) = 0, which the right-hand side already satisfies; with the
        # ridge, the system is positive definite.
        r_reg = r + _RIDGE * r.max()
        scaled = plan / r_reg[:, None]
        K = -(plan.T @ scaled)
        K[np.diag_indices(m)] += c + _RIDGE * c.max()
        K += c.mean() / m
        db = np.linalg.solve(K, gq - scaled.T @ gp)
        da = (gp - plan @ db) / r_reg
        slope = float(gp @ da + gq @ db)
        # Armijo on the dual's increase t * slope - sum(P * (expm1(D) - D))
        # with D = t * (da_i + db_j), a form that stays exact for tiny steps,
        # where two dual values would differ only in rounding. Where the
        # plan has split into blocks with only underflowed entries between
        # them, the ridge alone sets the step's length across blocks, and it
        # can be huge: the first trial is cut so that the plan's mass cannot
        # overflow, and backtracking goes on from there.
        step = da[:, None] + db[None, :]
        t = min(1.0, (_LOG_MAX - log_nm) / max(np.abs(step).max(), 1.0))
        for _ in range(_MAX_HALVINGS):
            D = t * step
            curvature = float((plan * (np.expm1(D) - D)).sum())
            if curvature <= (1.0 - _ARMIJO) * t * slope:
                break
            t *= 0.5
        else:
            return a, b, iters, viol, False
        a = a + t * da
        b = logq - logsumexp(S + a[:, None], axis=0)
        iters += 1
        plan = np.exp(S + a[:, None] + b[None, :])
        r, c = plan.sum(axis=1), plan.sum(axis=0)
        viol = float(np.abs(r - p).sum() + np.abs(c - q).sum())
        if viol <= tol:
            return a, b, iters, viol, True
    return a, b, iters, viol, False


def entropy(plan) -> float:
    """Plan entropy ``-sum(g * log(g))`` with the ``0 log 0 = 0`` convention."""
    g = _plan_values(plan)
    return float(-(g * np.log(np.where(g == 0, 1.0, g))).sum())


def exact_assignment(C) -> tuple[np.ndarray, float]:
    """Optimal assignment for a square cost matrix with uniform weights.

    Returns ``(perm, value)`` where row ``i`` is assigned to column
    ``perm[i]`` and ``value`` is the mean of the selected entries, i.e. the
    transport cost under uniform ``1/n`` weights. Dual-potential Hungarian
    search, O(n^3); guarded to ``n <= 64`` since it exists as a test oracle.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"assignment needs a square matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix contains non-finite entries")
    n = C.shape[0]
    if n > _ASSIGNMENT_MAX_N:
        raise ValueError(f"assignment solver is capped at n <= {_ASSIGNMENT_MAX_N}")

    # Shortest-augmenting-path Hungarian with potentials, 1-indexed columns;
    # match[j] is the row currently assigned to column j (0 = free).
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = C[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    perm = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        perm[match[j] - 1] = j - 1
    value = float(C[np.arange(n), perm].mean())
    return perm, value
