"""Entropic OT solver and the exact-assignment oracle.

The 3x3 instance's expected values were frozen from an independent
probability-domain scaling implementation run to machine precision; the
assignment values were frozen from factorial enumeration.
"""

import importlib
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import xlogy

import infoot
from infoot import (CouplingMatrix, SinkhornReport, check_marginal, entropy,
                    exact_assignment, sinkhorn, uniform_weights)
from infoot.sinkhorn import NEWTON_WARMUP, sinkhorn_log_kernel

C3 = np.array([[0.0, 1.0, 2.0],
               [1.5, 0.2, 0.9],
               [2.0, 0.8, 0.1]])
P3 = np.array([0.2, 0.3, 0.5])
Q3 = np.array([0.5, 0.2, 0.3])

# Frozen: probability-domain Sinkhorn at eps=0.1, 200k scaling rounds.
PLAN_00 = 0.19999999998014695
PLAN_12 = 7.010025325111589e-07
COST_3 = 0.625250114564739

# Frozen: factorial enumeration of the 4x4 instance below.
A4 = np.array([[4.0, 1.0, 3.0, 2.0],
               [2.0, 0.5, 5.0, 3.0],
               [3.0, 2.0, 2.5, 4.0],
               [4.0, 3.0, 1.0, 2.5]])
PERM_4 = (3, 1, 0, 2)
VALUE_4 = 1.625

# Frozen: factorial enumeration of default_rng(424242).uniform(0,10,(7,7)).round(3).
PERM_7 = (6, 1, 2, 5, 3, 0, 4)
VALUE_7 = 1.1265714285714286


def test_check_marginal_validation():
    with pytest.raises(ValueError):
        check_marginal(np.array([0.5, 0.5, 0.0]))  # zero entry
    with pytest.raises(ValueError):
        check_marginal(np.array([0.4, 0.4]))  # sum != 1
    with pytest.raises(ValueError):
        check_marginal(np.zeros((2, 2)))  # not a vector
    w = check_marginal([0.25, 0.75])
    assert w.dtype == float


def test_sinkhorn_matches_probability_domain_oracle():
    coupling, report = sinkhorn(C3, P3, Q3, eps=0.1, max_iter=5000, tol=1e-12)
    assert report.converged
    assert abs(coupling.values[0, 0] - PLAN_00) < 1e-10
    assert abs(coupling.values[1, 2] - PLAN_12) < 1e-12
    cost = float((coupling.values * C3).sum())
    assert abs(cost - COST_3) < 1e-10


def test_sinkhorn_marginal_feasibility():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, m = rng.integers(2, 15, size=2)
        C = rng.uniform(0, 5, (n, m))
        p = rng.uniform(0.5, 1.5, n)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, m)
        q /= q.sum()
        coupling, report = sinkhorn(C, p, q, eps=0.05, max_iter=20000)
        assert report.converged
        row_dev, col_dev = CouplingMatrix.marginal_violation(
            coupling.values, p, q)
        assert row_dev < 1e-8 and col_dev < 1e-8


def test_newton_polish_matches_sweeps_run_to_convergence():
    # Sweeps alone need 371 iterations here; the solve switches to Newton
    # steps after NEWTON_WARMUP of them. With more columns than rows it
    # takes the transposed Schur complement. The reference is the NumPy
    # sweep kernel run to the same tolerance.
    rng = np.random.default_rng(7)
    C = rng.uniform(0, 1, (6, 11))
    p = rng.uniform(0.5, 1.5, 6)
    p /= p.sum()
    q = rng.uniform(0.5, 1.5, 11)
    q /= q.sum()
    eps = 0.02
    a, b, sweeps, _, swept = sinkhorn_log_kernel(
        np.ascontiguousarray(-C / eps), p, q, 20000, 1e-12)
    assert swept and sweeps > NEWTON_WARMUP
    coupling, report = sinkhorn(C, p, q, eps=eps, max_iter=20000, tol=1e-12)
    assert report.converged and report.violation <= 1e-12
    assert NEWTON_WARMUP < report.iterations < sweeps
    reference = np.exp(a[:, None] + b[None, :] - C / eps)
    np.testing.assert_allclose(coupling.values, reference, rtol=0, atol=1e-11)
    # Potentials are unique up to one constant moved between the sides.
    shift = report.potential_source - eps * a
    np.testing.assert_allclose(shift, shift[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(report.potential_target - eps * b, -shift[0],
                               rtol=0, atol=1e-9)


def test_kernel_accepts_readonly_views():
    S = np.zeros((2, 2))
    S.flags.writeable = False
    p = uniform_weights(2)
    p.flags.writeable = False
    a, b, iters, viol, conv = sinkhorn_log_kernel(S, p, p, 10, 1e-9)
    assert conv


def test_backend_reported():
    # The benchmark stamps this value on every result and refuses to
    # compare results whose stamps differ.
    assert infoot.BACKEND == "python"


def test_sinkhorn_constant_cost_gives_independent_plan():
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.3, 0.5])
    coupling, _ = sinkhorn(np.full((2, 3), 4.2), p, q, eps=1.0)
    np.testing.assert_allclose(coupling.values, np.outer(p, q), atol=1e-12)


def test_sinkhorn_leaves_caller_arrays_writable():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = np.array([0.4, 0.6])
    q = np.array([0.5, 0.5])
    coupling, _ = sinkhorn(C, p, q, eps=1.0)
    assert C.flags.writeable and p.flags.writeable and q.flags.writeable
    assert not coupling.row_marginal.flags.writeable
    p[0] = 0.0  # the coupling holds its own copy
    assert coupling.row_marginal[0] == 0.4


def test_sinkhorn_single_cell():
    coupling, report = sinkhorn(np.array([[3.0]]), [1.0], [1.0], eps=1.0)
    assert coupling.values[0, 0] == 1.0
    assert report.converged


def test_sinkhorn_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(1)
    C = rng.uniform(0, 20, (6, 6))
    p = q = uniform_weights(6)
    coupling, report = sinkhorn(C, p, q, eps=0.01, max_iter=2)
    assert not report.converged
    assert not coupling.strict
    assert abs(coupling.values.sum() - 1.0) < 1e-10


def test_sinkhorn_input_validation():
    p = q = uniform_weights(2)
    with pytest.raises(ValueError):
        sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), p, q, eps=1.0)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), p, q, eps=0.0)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 3)), p, q, eps=1.0)  # shape mismatch


def test_sinkhorn_small_eps_large_cost_is_stable():
    # Log-domain scaling must survive cost range ~10 at eps = 1e-3, where a
    # probability-domain implementation underflows. Convergence at that eps
    # is glacial, so only finiteness and near-feasibility are asserted.
    rng = np.random.default_rng(5)
    C = rng.uniform(0, 10, (8, 8))
    p = q = uniform_weights(8)
    coupling, report = sinkhorn(C, p, q, eps=1e-3, max_iter=20000, tol=1e-9)
    assert np.all(np.isfinite(coupling.values))
    assert report.violation < 1e-3
    assert abs(coupling.values.sum() - 1.0) < 1e-6


def test_sinkhorn_objective_stationary_when_doubling_iterations():
    rng = np.random.default_rng(11)
    C = rng.uniform(0, 3, (7, 7))
    p = q = uniform_weights(7)

    def objective(max_iter):
        coupling, _ = sinkhorn(C, p, q, eps=0.05, max_iter=max_iter, tol=1e-30)
        g = coupling.values
        ent = entropy(g)
        return float((g * C).sum()) - 0.05 * ent

    assert abs(objective(2000) - objective(4000)) < 1e-6


def test_coupling_matrix_invariants():
    p = q = uniform_weights(2)
    good = np.full((2, 2), 0.25)
    CouplingMatrix(good, p, q)
    with pytest.raises(ValueError):
        CouplingMatrix(-good, p, q)
    with pytest.raises(ValueError):
        CouplingMatrix(good * 2.0, p, q)  # mass 2
    skew = np.array([[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(ValueError):
        CouplingMatrix(skew, p, q)  # infeasible rows
    relaxed = CouplingMatrix(skew, p, q, strict=False)
    assert abs(relaxed.values.sum() - 1.0) < 1e-15


def test_nan_fails_marginal_and_plan_checks():
    with pytest.raises(ValueError, match="strictly positive"):
        check_marginal([np.nan, 0.5, 0.5])
    p = q = uniform_weights(2)
    with pytest.raises(ValueError, match="nonnegative"):
        CouplingMatrix(np.full((2, 2), np.nan), p, q)
    with pytest.raises(ValueError, match="eps"):
        sinkhorn(C3, P3, Q3, eps=np.nan)


def test_report_rejects_nan_violation():
    with pytest.raises(ValueError, match="violation"):
        SinkhornReport(1, float("nan"), True, np.zeros(1), np.zeros(1))


def _polished_instance():
    # The instance of the Newton polish test above: a cold solve reaches
    # the polish.
    rng = np.random.default_rng(7)
    C = rng.uniform(0, 1, (6, 11))
    p = rng.uniform(0.5, 1.5, 6)
    p /= p.sum()
    q = rng.uniform(0.5, 1.5, 11)
    q /= q.sum()
    return C, p, q, 0.02


def test_warm_start_from_own_potential_is_immediate():
    C, p, q, eps = _polished_instance()
    cold, cold_rep = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12)
    assert cold_rep.converged and cold_rep.newton_steps > 0
    assert cold_rep.iterations == NEWTON_WARMUP + cold_rep.newton_steps
    warm, warm_rep = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12,
                              init=cold_rep.potential_target)
    assert warm_rep.converged and warm_rep.iterations <= 2
    np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-12)


def test_warm_start_on_perturbed_cost_saves_iterations():
    C, p, q, eps = _polished_instance()
    _, rep = sinkhorn(C, p, q, eps, max_iter=20000)
    noise = np.random.default_rng(8).uniform(0, 1, C.shape)
    moved = C + 0.05 * noise
    cold, cold_rep = sinkhorn(moved, p, q, eps, max_iter=20000)
    warm, warm_rep = sinkhorn(moved, p, q, eps, max_iter=20000,
                              init=rep.potential_target)
    assert cold_rep.converged and warm_rep.converged
    assert warm_rep.iterations < cold_rep.iterations
    np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-10)


def test_sweeps_resume_when_the_polish_finds_no_ascent_step(monkeypatch):
    # A polish whose line search fails at once hands its whole budget back
    # to sweeps, which then run as if the polish had never started.
    sinkhorn_module = importlib.import_module("infoot.sinkhorn")
    C, p, q, eps = _polished_instance()
    normal, _ = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12)
    _, _, sweeps, _, _ = sinkhorn_log_kernel(
        np.ascontiguousarray(-C / eps), p, q, 20000, 1e-12)
    monkeypatch.setattr(sinkhorn_module, "_armijo_step", lambda *args: None)
    resumed, rep = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12)
    assert rep.converged and rep.violation <= 1e-12
    assert rep.newton_steps == 0 and rep.iterations > NEWTON_WARMUP
    assert rep.iterations == sweeps
    np.testing.assert_allclose(resumed.values, normal.values, rtol=0,
                               atol=1e-9)
    _, capped = sinkhorn(C, p, q, eps, max_iter=100, tol=1e-12)
    assert not capped.converged and capped.iterations == 100
    assert capped.newton_steps == 0


@pytest.mark.parametrize("max_iter", [1, 3, 50])
def test_kernel_start_equals_shifted_log_kernel(max_iter):
    C, p, q, eps = _polished_instance()
    S = -C / eps
    b0 = np.random.default_rng(9).normal(size=q.size)
    a1, b1, it1, viol1, conv1 = sinkhorn_log_kernel(S, p, q, max_iter, 1e-12, b0)
    a2, b2, it2, viol2, conv2 = sinkhorn_log_kernel(S + b0[None, :], p, q,
                                                    max_iter, 1e-12)
    assert (it1, conv1) == (it2, conv2)
    np.testing.assert_allclose(a1, a2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b1, b2 + b0, rtol=0, atol=1e-12)
    assert abs(viol1 - viol2) <= 1e-12


@pytest.mark.parametrize("init", [np.zeros(2), np.zeros((3, 1)),
                                  np.array([0.0, np.nan, 0.0]),
                                  np.array([0.0, np.inf, 0.0])])
def test_sinkhorn_rejects_bad_init(init):
    with pytest.raises(ValueError, match="init"):
        sinkhorn(C3, P3, Q3, eps=0.1, init=init)


def test_entropy_against_direct_sum():
    g = np.array([[0.2, 0.1], [0.05, 0.25], [0.25, 0.15]])
    direct = -sum(v * np.log(v) for v in g.ravel())
    assert abs(entropy(g) - direct) < 1e-14
    assert abs(entropy(g) - 1.6796478837567517) < 1e-14
    assert entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0  # 0 log 0 = 0


def test_entropy_matches_xlogy_with_zero_entries():
    rng = np.random.default_rng(5)
    g = rng.uniform(size=(300, 300))
    g[rng.uniform(size=g.shape) < 0.3] = 0.0
    g /= g.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = entropy(g)
    expected = -xlogy(g, g).sum()
    assert abs(value - expected) <= 1e-15 * abs(expected)


def test_assignment_frozen_4x4():
    perm, value = exact_assignment(A4)
    assert tuple(perm) == PERM_4
    assert value == VALUE_4


def test_assignment_frozen_7x7():
    A7 = np.random.default_rng(424242).uniform(0.0, 10.0, (7, 7)).round(3)
    perm, value = exact_assignment(A7)
    assert tuple(perm) == PERM_7
    assert abs(value - VALUE_7) < 1e-12


def test_assignment_matches_enumeration_and_scipy():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        A = rng.uniform(0, 1, (5, 5))
        perm, value = exact_assignment(A)
        brute = min(sum(A[i, s[i]] for i in range(5)) / 5.0
                    for s in itertools.permutations(range(5)))
        assert abs(value - brute) < 1e-12
        rows, cols = linear_sum_assignment(A)
        assert abs(value - A[rows, cols].mean()) < 1e-12


def test_assignment_guards():
    with pytest.raises(ValueError):
        exact_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        exact_assignment(np.zeros((65, 65)))
