"""Kernelized mutual information and projected-gradient transport solvers.

The estimator treats plan entries as pair weights inside a KDE joint
density, giving

    MI(plan) = sum_ij plan_ij * log( n*m * J_ij / (Mx_i * My_j) )

with ``J = K_X @ plan @ K_Y.T`` and ``Mx, My`` the Gram row sums. The
solvers maximize this quantity (optionally traded off against a geometric
cross cost) by mirror descent on the transport polytope: each outer step
solves a Sinkhorn problem whose cost is the current linearization, with
step size tied to ``1/eps``. That cost moves little from one step to the
next, so each solve after a fit's first starts from the previous step's
target potential.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .kernels import (DistanceMatrix, KdeModel, _density_ratio, _integer,
                      _plan_values, build_kde_model)
from .sinkhorn import (MARGINAL_TOL, CouplingMatrix, SinkhornReport,
                       check_marginal, entropy, sinkhorn)

__all__ = [
    "SolverConfig",
    "AlignmentResult",
    "mutual_information",
    "mi_gradient",
    "solve_infoot",
    "solve_fused_infoot",
    "limit_check",
]


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for the projected-gradient solvers.

    ``lam`` weighs the mutual-information term against the cross cost and
    ``eps`` is the entropic strength of the inner Sinkhorn solves (which
    also fixes the mirror-descent step size ``1/eps``).
    """

    lam: float = 100.0
    eps: float = 1.0
    bandwidth: float = 0.5
    outer_iters: int = 50
    outer_tol: float = 1e-6
    inner_max_iter: int = 1000
    inner_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        for name in ("eps", "bandwidth", "outer_tol", "inner_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("outer_iters", "inner_max_iter"):
            _integer(name, getattr(self, name))
        if not (self.outer_iters >= 1 and self.inner_max_iter >= 1):
            raise ValueError("iteration limits must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AlignmentResult:
    """Final coupling plus per-outer-iteration traces and diagnostics.

    ``model`` is the KDE state the plan was solved under, so projections
    can reuse it instead of rebuilding it.
    """

    coupling: CouplingMatrix
    objective_trace: list[float]
    mi_trace: list[float]
    converged: bool
    wall_time: float
    config: SolverConfig
    model: KdeModel
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.objective_trace) != len(self.mi_trace):
            raise ValueError("objective and MI traces must have equal length")

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)

    def to_dict(self) -> dict:
        """JSON-ready summary (traces, config echo, timing); no plan values."""
        return {
            "objective_trace": [float(v) for v in self.objective_trace],
            "mi_trace": [float(v) for v in self.mi_trace],
            "converged": bool(self.converged),
            "iterations": self.iterations,
            "wall_time": float(self.wall_time),
            "config": self.config.to_dict(),
            "diagnostics": self.diagnostics,
        }


def mutual_information(model: KdeModel, plan) -> float:
    """KDE-estimated mutual information of a transport plan.

    Includes the ``log(n*m)`` offset, so the independent plan built from
    uniform marginals scores exactly zero.
    """
    g = _plan_values(plan)
    _, ratio = _density_ratio(model.gram_x, g, model.gram_y)
    mask = g > 0
    return float(np.sum(g[mask] * np.log((model.n * model.m) * ratio[mask])))


def mi_gradient(model: KdeModel, plan) -> np.ndarray:
    """Gradient of the mutual-information estimate in matrix form.

    Computed as ``log(J ./ (Mx My^T)) + K_X (plan ./ J) K_Y^T`` with
    ``J = K_X plan K_Y^T``, which costs O(n^2 m + n m^2). The constant
    ``log(n*m)`` present in :func:`mutual_information` is dropped; it
    shifts every entry equally and Sinkhorn is invariant to cost shifts.
    """
    g = _plan_values(plan)
    joint, ratio = _density_ratio(model.gram_x, g, model.gram_y)
    return np.log(ratio) + model.gram_x @ (g / joint) @ model.gram_y.T


def _pgd(C, model: KdeModel, p, q, cfg: SolverConfig, lam: float) -> AlignmentResult:
    """Shared projected-gradient loop for the plain and fused objectives."""
    start = time.perf_counter()
    g = np.outer(p, q)
    objective_trace: list[float] = []
    mi_trace: list[float] = []
    inner_iters: list[int] = []
    inner_newton: list[int] = []
    inner_ok = True
    outer_converged = False
    delta = math.inf
    init = None
    for _ in range(cfg.outer_iters):
        cost = C - lam * mi_gradient(model, g)
        coupling, rep = sinkhorn(cost, p, q, cfg.eps, max_iter=cfg.inner_max_iter,
                                 tol=cfg.inner_tol, init=init)
        init = rep.potential_target
        inner_iters.append(rep.iterations)
        inner_newton.append(rep.newton_steps)
        inner_ok = inner_ok and rep.converged
        g_new = coupling.values
        delta = float(np.abs(g_new - g).sum())
        mi = mutual_information(model, g_new)
        mi_trace.append(mi)
        objective_trace.append(float(np.sum(g_new * C)) - lam * mi)
        g = g_new
        if delta < cfg.outer_tol:
            outer_converged = True
            break
    converged = outer_converged and inner_ok
    rises = np.diff(objective_trace)
    max_rise = float(rises.max()) if rises.size else 0.0
    dev = CouplingMatrix.marginal_violation(g, p, q)
    strict = inner_ok and max(dev) <= MARGINAL_TOL
    coupling = CouplingMatrix(g, p, q, strict=strict)
    return AlignmentResult(
        coupling=coupling,
        objective_trace=objective_trace,
        mi_trace=mi_trace,
        converged=converged,
        wall_time=time.perf_counter() - start,
        config=cfg,
        model=model,
        diagnostics={
            "outer_iterations": len(objective_trace),
            "outer_converged": outer_converged,
            "final_plan_delta": delta,
            "inner_iterations": inner_iters,
            "inner_newton_steps": inner_newton,
            "inner_converged": inner_ok,
            "objective_max_rise": max_rise,
            "lam_effective": lam,
        },
    )


def solve_infoot(dx: DistanceMatrix, dy: DistanceMatrix, p, q,
                 cfg: SolverConfig) -> AlignmentResult:
    """Maximize the mutual-information estimate over couplings of ``p, q``.

    Needs only intra-domain distances, so source and target may live in
    different spaces. Runs the fused loop with a zero cross cost and unit
    trade-off weight (``cfg.lam`` is ignored here); the objective trace is
    then simply the negated MI trace.
    """
    p = check_marginal(p, "row marginal")
    q = check_marginal(q, "col marginal")
    model = build_kde_model(dx, dy, cfg.bandwidth)
    C = np.zeros((model.n, model.m))
    return _pgd(C, model, p, q, cfg, lam=1.0)


def solve_fused_infoot(C, dx: DistanceMatrix, dy: DistanceMatrix, p, q,
                       cfg: SolverConfig) -> AlignmentResult:
    """Minimize ``<plan, C> - lam * MI(plan)`` over couplings of ``p, q``.

    Each outer step re-solves an entropic transport problem on the current
    linearization, so the quantity that decreases monotonically is the
    entropic value ``objective - eps * entropy(plan)``. The raw objective
    trace follows it closely and is itself nonincreasing for moderate
    ``lam``; at large trade-off weights (``lam/eps >~ 10``) it can tick
    upward near the fixed point while the plan's entropy relaxes. The
    largest such rise is reported in ``diagnostics["objective_max_rise"]``.
    """
    p = check_marginal(p, "row marginal")
    q = check_marginal(q, "col marginal")
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise ValueError("cross cost contains non-finite entries")
    model = build_kde_model(dx, dy, cfg.bandwidth)
    if C.shape != (model.n, model.m):
        raise ValueError(f"cross cost shape {C.shape} does not match domains "
                         f"({model.n}, {model.m})")
    return _pgd(C, model, p, q, cfg, lam=cfg.lam)


def limit_check(dx: DistanceMatrix, dy: DistanceMatrix, plan, h: float
                ) -> tuple[float, float]:
    """Evaluate the MI estimate against its small-bandwidth limit.

    Returns ``(MI at bandwidth h, log(n*m) - H(plan))``. As ``h`` shrinks
    the kernel concentrates on exact sample matches and the two sides
    agree; this requires pairwise-distinct points within each domain.
    """
    for d, side in ((dx, "source"), (dy, "target")):
        off = d.values[~np.eye(d.shape[0], dtype=bool)]
        if off.size and np.any(off == 0):
            raise ValueError(f"duplicate {side} points: the small-bandwidth "
                             "limit needs pairwise-distinct samples")
    g = _plan_values(plan)
    model = build_kde_model(dx, dy, h)
    lhs = mutual_information(model, g)
    rhs = math.log(model.n * model.m) - entropy(g)
    return lhs, rhs
