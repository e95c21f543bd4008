"""Mutual-information estimate, its gradient, and the outer solvers.

Frozen values below come from an independent double-loop implementation
of the estimator on the fixed 3x2 instance (see test_kernels for the
matching kernel-level values); gradients were cross-checked there with
central differences at step 1e-6.
"""

import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infoot import (GeneratorConfig, PointSet, SolverConfig, build_kde_model,
                    circular_validation, cluster_coherence, entropy,
                    fit_alignment, gen_clusters, load_spec, mi_gradient,
                    mutual_information, pairwise_distances, sinkhorn,
                    solve_fused_infoot, solve_infoot, uniform_weights)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

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
                           pairwise_distances(Y, Y), h)


def _random_instance(rng, n_max=20, h=None):
    n, m = rng.integers(3, n_max, size=2)
    xs = PointSet(rng.normal(size=(n, 2)))
    ys = PointSet(rng.normal(size=(m, 2)))
    h = h if h is not None else float(rng.uniform(0.2, 0.8))
    model = build_kde_model(pairwise_distances(xs, xs),
                            pairwise_distances(ys, ys), h)
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
    # As h shrinks on distinct points, the MI estimate tends to the plan's
    # Shannon MI, log(n*m) - H(plan) under uniform marginals.
    target = math.log(PLAN.size) - entropy(PLAN)
    assert abs(target - LOGNM_MINUS_H) < 1e-14
    assert abs(mutual_information(_model(1e-3), PLAN) - target) < 1e-3


def test_limit_gap_shrinks_with_bandwidth():
    target = math.log(PLAN.size) - entropy(PLAN)
    gaps = [abs(mutual_information(_model(h), PLAN) - target)
            for h in (0.1, 0.03, 0.01, 0.003, 0.001)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_mi_value_builds_no_gradient(monkeypatch):
    gradients = _count_gradients(monkeypatch)
    assert abs(mutual_information(_model(), PLAN) - MI_FROZEN) < 1e-13
    assert gradients == []
    mi_gradient(_model(), PLAN)
    assert len(gradients) == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(bandwidth=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(outer_iters=0)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -3$"):
        SolverConfig(seed=-3)
    for name in ("outer_iters", "inner_max_iter", "seed"):
        for value in (2.5, 3.0, True, "3"):
            with pytest.raises(TypeError, match=name):
                SolverConfig(**{name: value})
    assert SolverConfig(outer_iters=np.int64(3)).outer_iters == 3
    cfg = SolverConfig()
    assert cfg.lam == 100.0 and cfg.eps == 1.0


# NaN keeps the bare field name as its id; the other bad values add theirs.
_BAD_REALS = {"nan": float("nan"), "inf": math.inf, "-inf": -math.inf,
              "True": True, "str": "1"}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=name if key == "nan" else f"{name}-{key}")
    for name in ("lam", "eps", "bandwidth", "outer_tol", "inner_tol")
    for key, value in _BAD_REALS.items()])
def test_solver_config_rejects_nan(name, value):
    # One rule for every real setting: a bool or a string is the wrong
    # type, NaN and the infinities are out of range.
    error = TypeError if isinstance(value, (bool, str)) else ValueError
    with pytest.raises(error, match=f"^{name} must be"):
        SolverConfig(**{name: value})

def test_plain_solver_traces_and_feasibility():
    rng = np.random.default_rng(31)
    xs = PointSet(rng.normal(size=(9, 2)))
    ys = PointSet(rng.normal(size=(7, 2)))
    p, q = uniform_weights(9), uniform_weights(7)
    res = solve_infoot(pairwise_distances(xs, xs),
                       pairwise_distances(ys, ys),
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
            pairwise_distances(ys, ys),
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
    dy = pairwise_distances(ys, ys)
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
                           pairwise_distances(ys, ys),
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
        pairwise_distances(ys, ys), p, q,
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
        pairwise_distances(ys, ys), p, q, cfg)
    perm = rng.permutation(7)
    xs_p = PointSet(xs.points[perm])
    res_p = solve_fused_infoot(
        C[perm], pairwise_distances(xs_p, xs_p),
        pairwise_distances(ys, ys), p, q, cfg)
    np.testing.assert_allclose(res_p.coupling.values,
                               base.coupling.values[perm], atol=1e-8)


def test_fused_solver_diagnostics_and_result_dict():
    rng = np.random.default_rng(47)
    xs = PointSet(rng.normal(size=(5, 2)))
    ys = PointSet(rng.normal(size=(5, 2)))
    res = solve_fused_infoot(
        pairwise_distances(xs, ys).values, pairwise_distances(xs, xs),
        pairwise_distances(ys, ys),
        uniform_weights(5), uniform_weights(5),
        SolverConfig(lam=10.0, eps=1.0, bandwidth=0.4))
    d = res.diagnostics
    assert set(d) == {"outer_converged", "final_plan_delta",
                      "inner_iterations", "inner_newton_steps",
                      "inner_converged", "objective_max_rise"}
    assert len(d["inner_iterations"]) == res.iterations == len(res.mi_trace)
    assert len(d["inner_newton_steps"]) == res.iterations
    assert res.converged == (d["outer_converged"] and d["inner_converged"])
    assert res.config.lam == 10.0


def test_solve_infoot_is_the_fused_solver_on_a_zero_cost_at_unit_lam():
    # Pure InfoOT is the fused objective with C = 0 and lam = 1, whatever
    # lam the caller's config holds; the result's config is the one solved.
    rng = np.random.default_rng(53)
    xs = PointSet(rng.normal(size=(7, 2)))
    ys = PointSet(rng.normal(size=(6, 3)))
    dx, dy = pairwise_distances(xs, xs), pairwise_distances(ys, ys)
    p = rng.uniform(0.5, 1.5, size=7)
    p /= p.sum()
    q = uniform_weights(6)
    cfg = SolverConfig(lam=100.0, eps=0.5, bandwidth=0.4, outer_iters=12)
    res = solve_infoot(dx, dy, p, q, cfg)
    fused = solve_fused_infoot(np.zeros((7, 6)), dx, dy, p, q,
                               replace(cfg, lam=1.0))
    assert res.iterations > 1
    assert np.array_equal(res.coupling.values, fused.coupling.values)
    assert res.objective_trace == fused.objective_trace
    assert res.mi_trace == fused.mi_trace
    assert res.config.lam == 1.0
    assert res.config == fused.config == replace(cfg, lam=1.0)


def test_fit_after_an_unconverged_inner_solve_is_not_strict(monkeypatch):
    # The last solve's plan meets its marginals, but an earlier solve
    # stopped at its cap, so the fit's plan must not claim strictness.
    import infoot.solver

    solve = infoot.solver.sinkhorn
    last = []

    def capped_first(cost, p, q, eps, max_iter, tol, init):
        coupling, report = solve(cost, p, q, eps, max_iter=1 if init is None
                                 else max_iter, tol=tol, init=init)
        last[:] = [coupling]
        return coupling, report

    monkeypatch.setattr(infoot.solver, "sinkhorn", capped_first)
    rng = np.random.default_rng(47)
    xs = PointSet(rng.normal(size=(5, 2)))
    ys = PointSet(rng.normal(size=(4, 2)))
    res = solve_fused_infoot(
        pairwise_distances(xs, ys).values, pairwise_distances(xs, xs),
        pairwise_distances(ys, ys),
        uniform_weights(5), uniform_weights(4),
        SolverConfig(lam=10.0, eps=1.0, bandwidth=0.4))
    assert not res.diagnostics["inner_converged"]
    assert last[0].strict and not res.coupling.strict
    assert np.array_equal(res.coupling.values, last[0].values)


def _count_joints(monkeypatch) -> list:
    """Record each KDE joint the solver forms: every one passes through
    ``_floored_ratio`` as ``infoot.solver`` sees it."""
    import infoot.solver

    floored_ratio = infoot.solver._floored_ratio
    joints = []

    def counted(joint, rx, ry):
        joints.append(joint.shape)
        return floored_ratio(joint, rx, ry)

    monkeypatch.setattr(infoot.solver, "_floored_ratio", counted)
    return joints


def _count_gradients(monkeypatch) -> list:
    """Record each MI gradient the solver builds: every one is a call of
    the callable ``_mi_and_gradient`` returns, as ``infoot.solver`` sees it."""
    import infoot.solver

    mi_and_gradient = infoot.solver._mi_and_gradient
    gradients = []

    def counted(model, g):
        mi, gradient = mi_and_gradient(model, g)

        def counted_gradient():
            gradients.append(g.shape)
            return gradient()

        return mi, counted_gradient

    monkeypatch.setattr(infoot.solver, "_mi_and_gradient", counted)
    return gradients


def test_headline_fit_inner_effort(monkeypatch):
    # The two_cluster_rotated spec at the bandwidth circular validation
    # picks. Each inner solve starts from the previous step's potential and
    # hands the rest to Newton steps after a short warm-up; started cold
    # with a 50-sweep warm-up, the same fit took 2228 inner iterations.
    spec = load_spec(SPEC_DIR / "two_cluster_rotated.json")
    sample = gen_clusters(spec.generator)
    joints = _count_joints(monkeypatch)
    gradients = _count_gradients(monkeypatch)
    fit = fit_alignment(sample.source, sample.target,
                        replace(spec.solver, bandwidth=0.2))
    d = fit.result.diagnostics
    assert fit.result.converged
    # One joint per plan: the start p q^T, then each step's solved plan
    # gives both its MI value and the next step's gradient. The last
    # plan's gradient is never built.
    assert len(joints) == fit.result.iterations + 1
    assert len(gradients) == fit.result.iterations == 35
    assert sum(d["inner_iterations"]) <= 400
    assert len(d["inner_newton_steps"]) == len(d["inner_iterations"])
    assert sum(d["inner_newton_steps"]) > 0
    assert all(0 <= k <= n for k, n in zip(d["inner_newton_steps"],
                                           d["inner_iterations"]))
    assert cluster_coherence(fit.result.coupling, sample.source_ids,
                             sample.target_ids) == 1.0


def test_sweep_forms_one_joint_per_plan(monkeypatch):
    # The sweep's settings: 7 bandwidths, 3 outer steps each and no early
    # stop, and the reverse fits read off the forward ones, so 7 * (3 + 1)
    # joints; an MI value and a gradient built apart would take 7 * 3 * 2.
    # Each fit's last plan needs no gradient, so 7 * 3 are built.
    spec = load_spec(SPEC_DIR / "two_cluster_rotated.json")
    sample = gen_clusters(spec.generator)
    cfg = replace(spec.solver, outer_iters=3, inner_max_iter=300,
                  inner_tol=1e-7)
    joints = _count_joints(monkeypatch)
    gradients = _count_gradients(monkeypatch)
    circular_validation(sample.source, sample.target, cfg,
                        spec.bandwidth_grid, spec.projection)
    assert len(spec.bandwidth_grid) == 7
    assert len(joints) == 28
    assert len(gradients) == 21


def test_fit_equals_a_replay_through_the_public_mi_functions():
    # The solver reads each plan's MI value and next gradient off one joint;
    # the public functions, each forming its own joint, give the same bits.
    rng = np.random.default_rng(29)
    xs = PointSet(rng.normal(size=(9, 2)))
    ys = PointSet(rng.normal(size=(7, 2)))
    # A writable cross cost, so that a write into it would go through.
    C = pairwise_distances(xs, ys).values.copy()
    dx = pairwise_distances(xs, xs)
    dy = pairwise_distances(ys, ys)
    p, q = uniform_weights(9), uniform_weights(7)
    cfg = SolverConfig(lam=10.0, eps=0.5, bandwidth=0.4, outer_iters=12)
    C_before = C.copy()
    res = solve_fused_infoot(C, dx, dy, p, q, cfg)
    assert res.iterations > 1
    # Each step's cost is built in a buffer of the solver's own, never in C.
    assert C.flags.writeable
    np.testing.assert_array_equal(C, C_before)
    model = build_kde_model(dx, dy, cfg.bandwidth)
    g, init = np.outer(p, q), None
    mi_trace, objective_trace = [], []
    for _ in range(res.iterations):
        cost = C - cfg.lam * mi_gradient(model, g)
        coupling, rep = sinkhorn(cost, p, q, cfg.eps,
                                 max_iter=cfg.inner_max_iter,
                                 tol=cfg.inner_tol, init=init)
        init, g = rep.potential_target, coupling.values
        mi_trace.append(mutual_information(model, g))
        objective_trace.append(float(np.sum(g * C)) - cfg.lam * mi_trace[-1])
    assert np.array_equal(res.coupling.values, g)
    assert res.mi_trace == mi_trace
    assert res.objective_trace == objective_trace


def test_solver_rejects_bad_cross_cost():
    dx = pairwise_distances(X, X)
    dy = pairwise_distances(Y, Y)
    p, q = uniform_weights(3), uniform_weights(2)
    with pytest.raises(ValueError):
        solve_fused_infoot(np.full((3, 2), np.nan), dx, dy, p, q,
                           SolverConfig(bandwidth=0.5))
    with pytest.raises(ValueError):
        solve_fused_infoot(np.zeros((2, 3)), dx, dy, p, q,
                           SolverConfig(bandwidth=0.5))


def _traced_peak(fn, *args):
    """Peak bytes traced above the start while ``fn(*args)`` runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("h", [0.5, 0.2])
def test_fit_peak_memory_in_square_arrays(h):
    # A Newton step reads and writes six n x n arrays (two Grams, dx, dy,
    # the cross cost, the previous plan) and holds five of its own at its
    # peak: S, K, the Newton plan and two step buffers. The step's cost is
    # freed once S is built; before Python 3.11 the caller's stack keeps
    # that temporary alive through the solve, one array more.
    extra = 0.0 if sys.version_info >= (3, 11) else 1.0
    # A first fit pays for lazy imports and first-call caches.
    warm = gen_clusters(GeneratorConfig(sizes=(5, 5), seed=1, rotation=0.6))
    fit_alignment(warm.source, warm.target, SolverConfig(bandwidth=h))
    n = 200
    data = gen_clusters(GeneratorConfig(sizes=(n // 2, n // 2), seed=0,
                                        rotation=0.6))
    cfg = SolverConfig(bandwidth=h)
    peak = _traced_peak(fit_alignment, data.source, data.target, cfg)
    assert peak / (n * n * 8) <= 11.6 + extra
    # Pure InfoOT on distances built beforehand: its zero cross cost is a
    # zero-stride view, so the solve holds one n x n array fewer.
    dx = pairwise_distances(data.source, data.source)
    dy = pairwise_distances(data.target, data.target)
    peak = _traced_peak(solve_infoot, dx, dy, data.source.weights,
                        data.target.weights, cfg)
    assert peak / (n * n * 8) <= 7.6 + extra
