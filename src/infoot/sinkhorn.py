"""Entropic-regularized optimal transport in one scaling loop.

:func:`sinkhorn` minimizes ``<plan, C> - eps * H(plan)`` over the
transportation polytope with one loop, :func:`sinkhorn_log_kernel`, on
one scaling state (Schmitzer, arXiv:1610.06519; Peyre & Cuturi,
arXiv:1803.00567, section 4.4). The plan is ``diag(u) K diag(v)`` on a
stabilized kernel ``K = exp(S + a + b)``, ``S = -C / eps``, built with
one ``exp`` pass from log potentials ``a, b``. Each iteration updates the
row scaling ``u`` and then takes the exact column scaling
``v = q / (K^T u)``: mat-vecs with ``K`` instead of log-sum-exps over
``S``.

The first ``NEWTON_WARMUP`` row updates are Sinkhorn sweeps,
``u = p / (K v)``, from zero log-scalings or, given ``init``, from a
target potential such as the previous solve's in a sequence of nearby
costs (Thornton & Cuturi, arXiv:2206.07630). A warm-started solve mostly
converges within them. Sweeps converge linearly at a rate that degrades
as the kernel grows ill-conditioned, and on such problems they stall for
thousands of iterations, so every later row update is a damped
Sinkhorn-Newton step on the dual (Brauer, Clason, Lorenz & Wirth,
arXiv:1710.06635), ``u <- u * exp(t * da)``, which converges
quadratically near the solution; its Schur product skips the terms of
plan entries below ``sqrt(tiny)``, which would only add subnormals.
Should the line search find no step that increases the dual (as happens
once rounding dominates), sweeps take the rest of the budget. Both kinds
of iteration share the column scaling, the absorption and the stopping
test, which reads the row marginal alone. Small ``eps`` cannot underflow
the kernel: when a scaling leaves ``[1e-50, 1e50]`` or a sum of ``K``
underflows, the scalings are absorbed into ``(a, b)`` and ``K`` is
rebuilt. What leaves the module is log potentials, and the returned plan
is ``exp(S + a + b)`` of them, so its tiny entries are what a log-domain
solver gives; the loop keeps its name, ``sinkhorn_log_kernel``, for that
contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (_finite, _integer, _plan_values, _readonly, _real,
                      _shaped)
from .points import check_marginal

__all__ = [
    "CouplingMatrix",
    "SinkhornReport",
    "sinkhorn",
    "entropy",
]

MARGINAL_TOL = 1e-8
MASS_TOL = 1e-10
# Sinkhorn sweeps a solve gets before Newton steps take over. Warm-started
# and well-conditioned solves converge within them and take no Newton step.
NEWTON_WARMUP = 5
# Armijo sufficient-increase constant and how often a step may be halved.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# Relative ridge on the Newton system: plan entries that underflow to zero
# can disconnect it.
_RIDGE = 1e-12
_LOG_MAX = math.log(np.finfo(float).max)
# Plan entries below this are left out of the Newton system's Schur product.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
# Safe range of the scalings on a stabilized kernel; outside it they are
# folded into the log potentials and the kernel is rebuilt.
_SCALE_MIN, _SCALE_MAX = 1e-50, 1e50


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
        p = check_marginal(self.row_marginal, "row marginal")
        q = check_marginal(self.col_marginal, "col marginal")
        self._settle(np.asarray(self.values, dtype=float), p, q)

    @classmethod
    def _of_solve(cls, vals, p, q, converged: bool) -> CouplingMatrix:
        """The plan ``vals`` of a solve over marginals that have passed
        :func:`check_marginal`, strict when the solve converged and the
        plan meets ``MARGINAL_TOL``.

        Strictness reflects the plan actually produced: a loose solver
        tolerance can stop short of the class invariant even when the
        iteration converged in the caller's sense. The plan gets every
        check of the constructor, its deviation from the marginals computed
        once; the marginals themselves are not checked again.
        """
        dev = cls.marginal_violation(vals, p, q)
        self = object.__new__(cls)
        object.__setattr__(self, "strict",
                           bool(converged) and max(dev) <= MARGINAL_TOL)
        self._settle(vals, p, q, dev, own=True)
        return self

    def _settle(self, vals, p, q, dev=None, own=False):
        """Check the plan against the checked marginals ``p, q``, reusing
        its largest deviations ``dev`` from them when given, then store
        read-only copies; with ``own``, ``vals`` is a fresh C-contiguous
        array nobody else holds, stored read-only without a copy."""
        _finite("plan entries", _shaped("plan", vals, (p.size, q.size)),
                "nonnegative")
        if not abs(vals.sum() - 1.0) <= MASS_TOL:
            raise ValueError(f"plan mass must be 1, got {float(vals.sum())}")
        if self.strict:
            if dev is None:
                dev = self.marginal_violation(vals, p, q)
            if not max(dev) <= MARGINAL_TOL:
                raise ValueError(f"plan violates marginals: max row dev "
                                 f"{dev[0]:.3e}, max col dev {dev[1]:.3e}")
        if own:
            vals.flags.writeable = False
        else:
            vals = _readonly(vals)
        object.__setattr__(self, "values", vals)
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
    # Newton steps, already counted in ``iterations``.
    newton_steps: int = 0

    def __post_init__(self):
        # Written so that NaN fails it.
        if not self.violation >= 0:
            raise ValueError(f"violation must be nonnegative, got {self.violation}")


def _in_range(x: np.ndarray) -> bool:
    """Whether every scaling in ``x`` lies in ``[_SCALE_MIN, _SCALE_MAX]``;
    written so that NaN fails it."""
    return bool(x.min() >= _SCALE_MIN and x.max() <= _SCALE_MAX)


def _peaked_kernel(S, b):
    """``(a, K)`` with ``K = exp(S + a[:, None] + b[None, :])`` and
    ``a = -max_j (S + b)``, so every row of ``K`` peaks at exactly 1 and its
    sums can neither underflow nor overflow. ``K`` takes the layout of
    ``S``; pass ``S.T`` and transpose ``K`` to peak the columns instead.

    ``p / K.sum(axis=1)`` is then the exact row scaling for the target
    potential ``b``: the log-domain row update taken with one ``exp`` pass.
    """
    K = S + b[None, :]
    a = -K.max(axis=1)
    K += a[:, None]
    return a, np.exp(K, out=K)


def sinkhorn_log_kernel(S, p, q, max_iter, tol, b=None):
    """Run stabilized Sinkhorn iterations on the log-kernel ``S``.

    The plan is ``diag(u) K diag(v)`` with ``K = exp(S + a + b)`` built
    once from log potentials ``a, b``, and an iteration updates only the
    scalings: a row update of ``u``, then the column scaling
    ``v = q / (K^T u)``. The first ``NEWTON_WARMUP`` row updates are
    sweeps, ``u = p / (K v)``; each later one is a damped Newton step,
    ``u <- u * exp(t * da)`` (:func:`_newton_row_step`), until a line
    search finds no step and sweeps take the rest of the budget. Should
    ``u`` or ``v`` leave ``[_SCALE_MIN, _SCALE_MAX]``, or a row or column
    sum of ``K`` underflow, the scalings are folded into ``(a, b)`` and
    that update is redone in the log domain, rebuilding ``K`` with one
    ``exp`` pass (absorption). Starts from the target log-scaling ``b``
    (zero when omitted) and stops on the L1 violation of the row marginal
    alone: the column update that ends every iteration makes the column
    marginal exact to rounding. Returns ``(a, b, iterations, violation,
    converged, newton_steps)`` where ``a`` and ``b`` are the log-domain
    scalings of the last iterate, ``violation`` is its row violation and
    the iterations include the Newton steps.
    """
    S = np.asarray(S, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    b = np.zeros(S.shape[1]) if b is None else np.asarray(b, dtype=float)
    a, K = _peaked_kernel(S, b)
    u, v = np.ones(S.shape[0]), np.ones(S.shape[1])
    # The row sums that measure the row violation of one iterate are the
    # ones the next sweep needs, so a sweep makes two mat-vecs.
    Kv = K.sum(axis=1)
    log_nm = math.log(S.size)
    newton, newton_steps = True, 0
    viol = np.inf
    # An underflowed sum divides to inf, which the range checks catch.
    with np.errstate(divide="ignore", over="ignore"):
        for it in range(1, max_iter + 1):
            step = None
            if newton and it > NEWTON_WARMUP:
                step = _newton_row_step(K, u, v, p, q, log_nm)
                newton = step is not None
            # ``log_u`` is set when the row scaling is to be absorbed.
            log_u = None
            if step is None:
                u = p / Kv
                if not _in_range(u):
                    b = b + np.log(v)
                    a, K = _peaked_kernel(S, b)
                    u = p / K.sum(axis=1)
            else:
                newton_steps += 1
                log_u = np.log(u) + step
                u = np.exp(log_u)
                if _in_range(u):
                    log_u = None
            if log_u is None:
                v = q / (u @ K)
                if not _in_range(v):
                    log_u = np.log(u)
            if log_u is not None:
                a = a + log_u
                b, K = _peaked_kernel(S.T, a)
                K = K.T
                u = np.ones_like(u)
                v = q / K.sum(axis=0)
            Kv = K @ v
            viol = np.abs(u * Kv - p).sum()
            if viol <= tol:
                return (a + np.log(u), b + np.log(v), it, float(viol), True,
                        newton_steps)
    return (a + np.log(u), b + np.log(v), max_iter, float(viol), False,
            newton_steps)


def sinkhorn(C, p, q, eps: float, max_iter: int = 1000, tol: float = 1e-9,
             init=None) -> tuple[CouplingMatrix, SinkhornReport]:
    """Solve ``min <plan, C> - eps * H(plan)`` over couplings of ``p, q``.

    Iterates until the L1 violation of the row marginal drops below ``tol``
    or ``max_iter`` is hit; the latter is reported through the ``converged``
    flag rather than an exception, with the plan rescaled to unit mass.
    ``init`` is an optional starting target potential in cost units, as in
    ``report.potential_target``; passing the potential of a solve on a
    nearby cost (a warm start) saves most of the iterations, and ``None``
    starts from zero. The solve is one call of
    :func:`sinkhorn_log_kernel`: the first ``NEWTON_WARMUP`` iterations are
    stabilized Sinkhorn sweeps, and a solve still unconverged after them
    continues with damped Sinkhorn-Newton steps on the row scaling, each
    followed by the exact column scaling so the plan keeps unit mass.
    Newton steps count toward ``max_iter`` and ``report.iterations`` like
    sweeps do; ``report.newton_steps`` says how many there were. Should
    backtracking find no Newton step that increases the dual (as happens
    once rounding dominates), the rest of the budget goes back to sweeps.
    """
    eps = _real("eps", eps, "positive")
    max_iter = _integer("max_iter", max_iter, 1)
    tol = _real("tol", tol, "positive")
    p = check_marginal(p, "row marginal")
    q = check_marginal(q, "col marginal")
    C = np.ascontiguousarray(_finite("cost matrix", _shaped(
        "cost matrix", C, (p.size, q.size))))
    if init is not None:
        init = _finite("init", _shaped("init", init, (q.size,))) / eps

    S = C / -eps
    # A cost passed as a temporary dies here, before the kernel is built
    # (on CPython >= 3.11; before it, the caller's stack holds it).
    del C
    a, b, iters, viol, converged, newton_steps = sinkhorn_log_kernel(
        S, p, q, max_iter, tol, init)
    plan = np.add.outer(a, b)
    plan += S
    del S
    if not converged:
        # Once |S| nears 1e9, rounding in S + a + b costs the plan the unit
        # mass its scalings keep, and at far smaller eps exp overflows: a
        # capped solve's plan is peaked at 1 and rescaled to unit mass.
        plan -= plan.max()
    np.exp(plan, out=plan)
    if not converged:
        plan /= plan.sum()
    coupling = CouplingMatrix._of_solve(plan, p, q, converged)
    report = SinkhornReport(
        iterations=int(iters),
        violation=float(viol),
        converged=bool(converged),
        potential_source=eps * np.asarray(a),
        potential_target=eps * np.asarray(b),
        newton_steps=newton_steps,
    )
    return coupling, report


def _newton_row_step(K, u, v, p, q, log_nm):
    """Log of the factor by which a damped Newton step scales the rows of
    the plan ``diag(u) K diag(v)``, or ``None`` when backtracking finds no
    step that increases the dual.

    The dual ``<a, p> + <b, q> - sum(exp(S + a + b))`` is concave in the
    log-scalings, with gradient the marginal residuals ``(p - r, q - c)``
    and Hessian ``[[diag(r), P], [P^T, diag(c)]]`` of the plan ``P`` and
    its row and column sums ``r, c``. Only the row part of the step is
    taken: the exact column scaling that follows it can only increase the
    dual further, and it restores unit mass. The plan and the step's
    temporaries are freed on return.
    """
    plan = K * u[:, None]
    plan *= v[None, :]
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    gp, gq = p - r, q - c
    da, db = _newton_direction(plan, r, c, gp, gq)
    t = _armijo_step(plan, da, db, float(gp @ da + gq @ db), log_nm)
    return None if t is None else t * da


def _newton_direction(plan, r, c, gp, gq):
    """Newton direction ``(da, db)`` of the dual at ``plan``, whose row and
    column sums are ``r`` and ``c`` and gradient ``(gp, gq)``.

    The system is solved through its Schur complement on the smaller side,
    so memory stays O(nm): on the columns, or on the rows of a plan with
    more columns than rows, which is solved transposed. Its temporaries
    are freed on return, before the caller's line search allocates its
    own.
    """
    if plan.shape[1] > plan.shape[0]:
        db, da = _newton_direction(plan.T, c, r, gq, gp)
        return da, db
    m = plan.shape[1]
    # Eliminating the row block leaves a weighted graph Laplacian on the
    # columns, singular along the gauge (a + t, b - t). The rank-one term
    # gives that direction an eigenvalue of mean(c) and so pins
    # sum(db) = 0, which the right-hand side already satisfies; with the
    # ridge, the system is positive definite.
    r_reg = r + _RIDGE * r.max()
    scaled = plan / r_reg[:, None]
    rhs = gq - scaled.T @ gp
    # The Schur product skips the terms of plan entries below sqrt(tiny):
    # far below the diagonal (about c_j) and the ridge, they would add only
    # subnormal products, which the CPU computes on a slow path.
    scaled[plan < _SQRT_TINY] = 0.0
    K = plan.T @ scaled
    # Freed before the solve copies K, so this phase stays below the peak
    # of the line search.
    del scaled
    K *= -1
    K[np.diag_indices(m)] += c + _RIDGE * c.max()
    K += c.mean() / m
    db = np.linalg.solve(K, rhs)
    da = (gp - plan @ db) / r_reg
    return da, db


def _armijo_step(plan, da, db, slope, log_nm):
    """Backtracked length of the Newton step ``(da, db)``, or ``None``.

    Armijo on the dual's increase t * slope - sum(P * (expm1(D) - D)) with
    D = t * (da_i + db_j), a form that stays exact for tiny steps, where
    two dual values would differ only in rounding. Where the plan has split
    into blocks with only underflowed entries between them, the ridge alone
    sets the step's length across blocks, and it can be huge: the first
    trial is cut so that the plan's mass cannot overflow, and backtracking
    goes on from there. ``None`` means no trial increased the dual enough.
    Each trial rebuilds ``D`` in place, so the halvings share two n x m
    buffers, freed on return.
    """
    # Rounding is monotone, so the largest |da_i + db_j| is taken at the
    # extremes of da and db.
    reach = max(abs(da.max() + db.max()), abs(da.min() + db.min()))
    t = min(1.0, (_LOG_MAX - log_nm) / max(reach, 1.0))
    D = np.empty(plan.shape)
    E = np.empty(plan.shape)
    for _ in range(_MAX_HALVINGS):
        np.add(da[:, None], db[None, :], out=D)
        D *= t
        np.expm1(D, out=E)
        E -= D
        E *= plan
        if float(E.sum()) <= (1.0 - _ARMIJO) * t * slope:
            return t
        t *= 0.5
    return None


def entropy(plan) -> float:
    """Plan entropy ``-sum(g * log(g))`` with the ``0 log 0 = 0`` convention."""
    g = _plan_values(plan)
    return float(-(g * np.log(np.where(g == 0, 1.0, g))).sum())

