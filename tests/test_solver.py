"""Mutual-information estimate, its gradient, and the outer solvers.

Frozen values below come from an independent double-loop implementation
of the estimator on the fixed 3x2 instance (see test_kernels for the
matching kernel-level values); gradients were cross-checked there with
central differences at step 1e-6.
"""

import numpy as np
import pytest

from infoot import (PointSet, SolverConfig, build_kde_model, entropy,
                    limit_check, mi_gradient, mutual_information,
                    pairwise_distances, sinkhorn, solve_fused_infoot,
                    solve_infoot, uniform_weights)

X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
Y = PointSet(np.array([[1.0, 1.0], [2.0, 0.0]]))
PLAN = np.array([[0.20, 0.10], [0.05, 0.25], [0.25, 0.15]])
H = 0.5

MI_FROZEN = 0.047271655766771975
FD_GRAD_00 = 0.9281011009373841  # includes the log(n*m) constant
FD_GRAD_11 = 1.149427477333681
LOGNM_MINUS_H = 0.11211158547130329


def _model(h=H):
    return build_kde_model(pairwise_distances(X, X),
                           pairwise_distances(Y, Y, kind="intra-target"), h)


def _random_instance(rng, n_max=20, h=None):
    n, m = rng.integers(3, n_max, size=2)
    xs = PointSet(rng.normal(size=(n, 2)))
    ys = PointSet(rng.normal(size=(m, 2)))
    h = h if h is not None else float(rng.uniform(0.2, 0.8))
    model = build_kde_model(pairwise_distances(xs, xs),
                            pairwise_distances(ys, ys, kind="intra-target"), h)
    return model, xs, ys


def test_mutual_information_frozen_value():
    assert abs(mutual_information(_model(), PLAN) - MI_FROZEN) < 1e-13


def test_independence_null_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(8):
        model, xs, ys = _random_instance(rng)
        p = uniform_weights(model.n)
        q = uniform_weights(model.m)
        assert abs(mutual_information(model, np.outer(p, q))) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(4):
        model, _, _ = _random_instance(rng, n_max=8)
        g = rng.uniform(0.2, 1.0, (model.n, model.m))
        g /= g.sum()
        grad = mi_gradient(model, g)
        lognm = np.log(model.n * model.m)
        step = 1e-6
        for i, j in ((0, 0), (model.n - 1, model.m - 1), (1, 0)):
            up = g.copy()
            up[i, j] += step
            dn = g.copy()
            dn[i, j] -= step
            fd = (mutual_information(model, up)
                  - mutual_information(model, dn)) / (2 * step)
            assert abs(grad[i, j] + lognm - fd) < 1e-5 * max(1.0, abs(fd))


def test_gradient_frozen_entries():
    grad = mi_gradient(_model(), PLAN)
    lognm = np.log(6.0)
    assert abs(grad[0, 0] + lognm - FD_GRAD_00) < 1e-6
    assert abs(grad[1, 1] + lognm - FD_GRAD_11) < 1e-6


def test_limit_check_frozen_target():
    mi, target = limit_check(pairwise_distances(X, X),
                             pairwise_distances(Y, Y, kind="intra-target"),
                             PLAN, h=1e-3)
    assert abs(target - LOGNM_MINUS_H) < 1e-14
    assert abs(mi - target) < 1e-3


def test_limit_gap_shrinks_with_bandwidth():
    dx = pairwise_distances(X, X)
    dy = pairwise_distances(Y, Y, kind="intra-target")
    gaps = []
    for h in (0.1, 0.03, 0.01, 0.003, 0.001):
        mi, target = limit_check(dx, dy, PLAN, h)
        gaps.append(abs(mi - target))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_limit_check_rejects_duplicates():
    dup = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        limit_check(pairwise_distances(dup, dup),
                    pairwise_distances(Y, Y, kind="intra-target"),
                    np.full((3, 2), 1 / 6), h=0.01)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(bandwidth=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(outer_iters=0)
    cfg = SolverConfig()
    assert cfg.lam == 100.0 and cfg.eps == 1.0


@pytest.mark.parametrize("name", ["lam", "eps", "bandwidth", "outer_tol",
                                  "inner_tol"])
def test_solver_config_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: float("nan")})

def test_plain_solver_traces_and_feasibility():
    rng = np.random.default_rng(31)
    xs = PointSet(rng.normal(size=(9, 2)))
    ys = PointSet(rng.normal(size=(7, 2)))
    p, q = uniform_weights(9), uniform_weights(7)
    res = solve_infoot(pairwise_distances(xs, xs),
                       pairwise_distances(ys, ys, kind="intra-target"),
                       p, q, SolverConfig(bandwidth=0.5))
    assert len(res.objective_trace) == len(res.mi_trace) == res.iterations
    # plain objective is the negated MI trace
    np.testing.assert_allclose(res.objective_trace,
                               [-v for v in res.mi_trace], atol=1e-12)
    assert res.mi_trace[-1] > 0.0
    dev = np.abs(res.coupling.values.sum(axis=1) - p).max()
    assert dev < 1e-8


def test_objective_nonincreasing_at_unit_tradeoff():
    rng = np.random.default_rng(37)
    for _ in range(3):
        _, xs, ys = _random_instance(rng, n_max=12)
        C = pairwise_distances(xs, ys).values
        res = solve_fused_infoot(
            C, pairwise_distances(xs, xs),
            pairwise_distances(ys, ys, kind="intra-target"),
            uniform_weights(xs.n), uniform_weights(ys.n),
            SolverConfig(lam=1.0, eps=1.0, bandwidth=0.5))
        trace = res.objective_trace
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
        assert res.diagnostics["objective_max_rise"] <= 1e-6


def test_entropic_value_nonincreasing_at_large_tradeoff():
    # Each outer step minimizes the linearized entropic problem, so the
    # guaranteed descent quantity is objective - eps * entropy whenever the
    # inner solves converge. The raw objective ticks upward near the fixed
    # point when lam/eps is large; this instance exhibits a ~4e-4 rise.
    rng = np.random.default_rng(6)
    n, m = rng.integers(3, 40, size=2)
    xs = PointSet(rng.normal(size=(n, 2)))
    ys = PointSet(rng.normal(size=(m, 2)))
    h = float(rng.uniform(0.2, 0.8))
    C = pairwise_distances(xs, ys).values
    dx = pairwise_distances(xs, xs)
    dy = pairwise_distances(ys, ys, kind="intra-target")
    res = solve_fused_infoot(
        C, dx, dy, uniform_weights(n), uniform_weights(m),
        SolverConfig(lam=100.0, eps=1.0, bandwidth=h, inner_max_iter=5000))
    assert res.diagnostics["inner_converged"]
    assert res.diagnostics["objective_max_rise"] > 1e-6

    # replay the recurrence to evaluate the entropic value per iterate
    model = build_kde_model(dx, dy, h)
    p, q = uniform_weights(n), uniform_weights(m)
    g = np.outer(p, q)
    values = []
    for _ in range(res.iterations):
        cost = C - 100.0 * mi_gradient(model, g)
        coupling, rep = sinkhorn(cost, p, q, 1.0, max_iter=5000, tol=1e-9)
        assert rep.converged
        g = coupling.values
        values.append(float((g * C).sum())
                      - 100.0 * mutual_information(model, g)
                      - entropy(g))
    assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))


def test_plain_mi_trace_nondecreasing():
    rng = np.random.default_rng(67)
    for _ in range(3):
        model, xs, ys = _random_instance(rng, n_max=20)
        res = solve_infoot(pairwise_distances(xs, xs),
                           pairwise_distances(ys, ys, kind="intra-target"),
                           uniform_weights(xs.n), uniform_weights(ys.n),
                           SolverConfig(bandwidth=0.5, inner_max_iter=5000))
        tr = res.mi_trace
        assert all(b >= a - 1e-6 for a, b in zip(tr, tr[1:]))


def test_zero_lambda_reduces_to_plain_sinkhorn():
    rng = np.random.default_rng(41)
    xs = PointSet(rng.normal(size=(6, 2)))
    ys = PointSet(rng.normal(size=(8, 2)))
    p, q = uniform_weights(6), uniform_weights(8)
    C = pairwise_distances(xs, ys).values
    res = solve_fused_infoot(
        C, pairwise_distances(xs, xs),
        pairwise_distances(ys, ys, kind="intra-target"), p, q,
        SolverConfig(lam=0.0, eps=0.5, bandwidth=0.5))
    direct, _ = sinkhorn(C, p, q, eps=0.5)
    np.testing.assert_allclose(res.coupling.values, direct.values, atol=1e-8)


def test_permutation_equivariance():
    rng = np.random.default_rng(43)
    xs = PointSet(rng.normal(size=(7, 2)))
    ys = PointSet(rng.normal(size=(6, 2)))
    p, q = uniform_weights(7), uniform_weights(6)
    C = pairwise_distances(xs, ys).values
    cfg = SolverConfig(lam=5.0, eps=1.0, bandwidth=0.5)
    base = solve_fused_infoot(
        C, pairwise_distances(xs, xs),
        pairwise_distances(ys, ys, kind="intra-target"), p, q, cfg)
    perm = rng.permutation(7)
    xs_p = PointSet(xs.points[perm])
    res_p = solve_fused_infoot(
        C[perm], pairwise_distances(xs_p, xs_p),
        pairwise_distances(ys, ys, kind="intra-target"), p, q, cfg)
    np.testing.assert_allclose(res_p.coupling.values,
                               base.coupling.values[perm], atol=1e-8)


def test_fused_solver_diagnostics_and_result_dict():
    rng = np.random.default_rng(47)
    xs = PointSet(rng.normal(size=(5, 2)))
    ys = PointSet(rng.normal(size=(5, 2)))
    res = solve_fused_infoot(
        pairwise_distances(xs, ys).values, pairwise_distances(xs, xs),
        pairwise_distances(ys, ys, kind="intra-target"),
        uniform_weights(5), uniform_weights(5),
        SolverConfig(lam=10.0, eps=1.0, bandwidth=0.4))
    d = res.diagnostics
    for key in ("outer_iterations", "outer_converged", "final_plan_delta",
                "inner_iterations", "inner_converged", "lam_effective"):
        assert key in d
    payload = res.to_dict()
    assert payload["converged"] == res.converged
    assert len(payload["objective_trace"]) == res.iterations


def test_solver_rejects_bad_cross_cost():
    dx = pairwise_distances(X, X)
    dy = pairwise_distances(Y, Y, kind="intra-target")
    p, q = uniform_weights(3), uniform_weights(2)
    with pytest.raises(ValueError):
        solve_fused_infoot(np.full((3, 2), np.nan), dx, dy, p, q,
                           SolverConfig(bandwidth=0.5))
    with pytest.raises(ValueError):
        solve_fused_infoot(np.zeros((2, 3)), dx, dy, p, q,
                           SolverConfig(bandwidth=0.5))
