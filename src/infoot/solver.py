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
target potential. The MI value of a step's plan and the next step's
gradient are read off one KDE joint, so a K-step fit forms K+1 joints
and K gradients.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (DistanceMatrix, KdeModel, _finite, _floored_ratio,
                      _integer, _plan_values, _real, _shaped,
                      build_kde_model)
from .points import check_marginal
from .sinkhorn import CouplingMatrix, SinkhornReport, sinkhorn

__all__ = [
    "SolverConfig",
    "AlignmentResult",
    "mutual_information",
    "mi_gradient",
    "solve_infoot",
    "solve_fused_infoot",
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
        _real("lam", self.lam, "nonnegative")
        for name in ("eps", "bandwidth", "outer_tol", "inner_tol"):
            _real(name, getattr(self, name), "positive")
        for name, minimum in (("outer_iters", 1), ("inner_max_iter", 1),
                              ("seed", 0)):
            _integer(name, getattr(self, name), minimum)


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


def _mi_and_gradient(model: KdeModel, g: np.ndarray
                     ) -> tuple[float, Callable[[], np.ndarray]]:
    """The MI estimate of an (n, m) plan ``g`` and a callable that returns
    its gradient, both read off one floored KDE joint ``J = K_X @ g @ K_Y.T``.

    The gradient's back-product ``K_X (g ./ J) K_Y.T`` is formed only when
    the callable is called, so a caller that needs just the value skips it.
    The callable may be called once: it forms ``g ./ J`` in the joint's
    buffer and the log ratio in the ratio's, and lets go of ``g``, the
    joint and the ratio.
    """
    kx, ky = model.gram_x, model.gram_y
    g = _shaped("plan", g, (model.n, model.m))
    joint, ratio = _floored_ratio(kx @ g @ ky.T, kx.sum(axis=1), ky.sum(axis=1))
    mask = g > 0
    terms = ratio[mask]
    terms *= model.n * model.m
    np.log(terms, out=terms)
    terms *= g[mask]
    mi = float(terms.sum())
    held = [g, joint, ratio]

    def gradient():
        g, joint, ratio = held
        held.clear()
        back = kx @ np.divide(g, joint, out=joint) @ ky.T
        del joint
        back += np.log(ratio, out=ratio)
        return back

    return mi, gradient


def mutual_information(model: KdeModel, plan) -> float:
    """KDE-estimated mutual information of a transport plan.

    Includes the ``log(n*m)`` offset, so the independent plan built from
    uniform marginals scores exactly zero.
    """
    return _mi_and_gradient(model, _plan_values(plan))[0]


def mi_gradient(model: KdeModel, plan) -> np.ndarray:
    """Gradient of the mutual-information estimate in matrix form.

    Computed as ``log(J ./ (Mx My^T)) + K_X (plan ./ J) K_Y^T`` with
    ``J = K_X plan K_Y^T``, which costs O(n^2 m + n m^2). The constant
    ``log(n*m)`` present in :func:`mutual_information` is dropped; it
    shifts every entry equally and Sinkhorn is invariant to cost shifts.
    """
    return _mi_and_gradient(model, _plan_values(plan))[1]()


def solve_infoot(dx: DistanceMatrix, dy: DistanceMatrix, p, q,
                 cfg: SolverConfig) -> AlignmentResult:
    """Maximize the mutual-information estimate over couplings of ``p, q``.

    Needs only intra-domain distances, so source and target may live in
    different spaces. This is :func:`solve_fused_infoot` on a zero cross
    cost at ``lam = 1``, which the result's ``config`` states; the
    objective trace is then simply the negated MI trace.
    """
    C = np.zeros((dx.shape[0], dy.shape[0]))
    return solve_fused_infoot(C, dx, dy, p, q, replace(cfg, lam=1.0))


def _step_cost(grad: np.ndarray, C: np.ndarray, lam: float) -> np.ndarray:
    """The linearized cost ``C - lam * grad``, with its bits, built in the
    buffer of ``grad``, which it overwrites."""
    grad *= -lam
    grad += C
    return grad


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
    start = time.perf_counter()
    p = check_marginal(p, "row marginal")
    q = check_marginal(q, "col marginal")
    C = _finite("cross cost",
                _shaped("cross cost", C, (dx.shape[0], dy.shape[0])))
    model = build_kde_model(dx, dy, cfg.bandwidth)
    g = np.outer(p, q)
    objective_trace: list[float] = []
    mi_trace: list[float] = []
    inner_iters: list[int] = []
    inner_newton: list[int] = []
    inner_ok = True
    outer_converged = False
    delta = math.inf
    init = None
    _, gradient = _mi_and_gradient(model, g)
    for _ in range(cfg.outer_iters):
        # No local keeps the step's cost, so on CPython >= 3.11, where a
        # callee owns a temporary argument, sinkhorn frees it once S is built.
        coupling, rep = sinkhorn(_step_cost(gradient(), C, cfg.lam), p, q,
                                 cfg.eps, max_iter=cfg.inner_max_iter,
                                 tol=cfg.inner_tol, init=init)
        init = rep.potential_target
        inner_iters.append(rep.iterations)
        inner_newton.append(rep.newton_steps)
        inner_ok = inner_ok and rep.converged
        delta = float(np.abs(coupling.values - g).sum())
        g = coupling.values
        mi, gradient = _mi_and_gradient(model, g)
        mi_trace.append(mi)
        objective_trace.append(float(np.sum(g * C)) - cfg.lam * mi)
        if delta < cfg.outer_tol:
            outer_converged = True
            break
    converged = outer_converged and inner_ok
    rises = np.diff(objective_trace)
    max_rise = float(rises.max()) if rises.size else 0.0
    # The last solve has checked its plan, g, and made it strict only if it
    # converged and meets MARGINAL_TOL; the fit's plan is strict only if
    # every inner solve converged.
    if coupling.strict and not inner_ok:
        coupling = replace(coupling, strict=False)
    return AlignmentResult(
        coupling=coupling,
        objective_trace=objective_trace,
        mi_trace=mi_trace,
        converged=converged,
        wall_time=time.perf_counter() - start,
        config=cfg,
        model=model,
        diagnostics={
            "outer_converged": outer_converged,
            "final_plan_delta": delta,
            "inner_iterations": inner_iters,
            "inner_newton_steps": inner_newton,
            "inner_converged": inner_ok,
            "objective_max_rise": max_rise,
        },
    )
