"""Entropic OT solver: the Sinkhorn loop, its Newton steps and absorption.

The 3x3 instance's expected values were frozen from an independent
probability-domain scaling implementation run to machine precision.
"""

import importlib
import sys
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

import infoot
from infoot import (CouplingMatrix, SinkhornReport, check_marginal, entropy,
                    sinkhorn, uniform_weights)
from infoot.sinkhorn import (MARGINAL_TOL, NEWTON_WARMUP,
                             sinkhorn_log_kernel)

C3 = np.array([[0.0, 1.0, 2.0],
               [1.5, 0.2, 0.9],
               [2.0, 0.8, 0.1]])
P3 = np.array([0.2, 0.3, 0.5])
Q3 = np.array([0.5, 0.2, 0.3])

# Frozen: probability-domain Sinkhorn at eps=0.1, 200k scaling rounds.
PLAN_00 = 0.19999999998014695
PLAN_12 = 7.010025325111589e-07
COST_3 = 0.625250114564739


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


def _newton_instance():
    # A cold solve of this instance takes Newton steps.
    rng = np.random.default_rng(7)
    C = rng.uniform(0, 1, (6, 11))
    p = rng.uniform(0.5, 1.5, 6)
    p /= p.sum()
    q = rng.uniform(0.5, 1.5, 11)
    q /= q.sum()
    return C, p, q, 0.02


def test_newton_polish_matches_sweeps_run_to_convergence():
    # Sweeps alone need 371 iterations here; the loop switches to Newton
    # steps after NEWTON_WARMUP of them. With more columns than rows it
    # takes the Schur complement of the transposed plan. The reference is
    # log-domain sweeps run to the same tolerance.
    C, p, q, eps = _newton_instance()
    a, b, sweeps, _, swept = _log_domain_sweeps(
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
    assert sinkhorn_log_kernel(S, p, p, 10, 1e-9)[4]


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


def test_converged_solve_off_the_marginal_tolerance_is_not_strict():
    # A loose caller tolerance converges in the caller's sense while the
    # plan still misses MARGINAL_TOL; the plan must say so, not raise.
    coupling, report = sinkhorn(C3, P3, Q3, eps=0.1, tol=1e-3)
    assert report.converged
    assert max(CouplingMatrix.marginal_violation(
        coupling.values, P3, Q3)) > MARGINAL_TOL
    assert not coupling.strict
    tight, report = sinkhorn(C3, P3, Q3, eps=0.1)
    assert report.converged and tight.strict


def test_sinkhorn_checks_its_plan_once(monkeypatch):
    sinkhorn_module = importlib.import_module("infoot.sinkhorn")
    checked, deviations = [], []
    check = sinkhorn_module.check_marginal
    violation = CouplingMatrix.marginal_violation

    def counted_check(w, name="marginal"):
        checked.append(name)
        return check(w, name)

    def counted_violation(vals, p, q):
        deviations.append(vals.shape)
        return violation(vals, p, q)

    monkeypatch.setattr(sinkhorn_module, "check_marginal", counted_check)
    monkeypatch.setattr(CouplingMatrix, "marginal_violation",
                        staticmethod(counted_violation))
    coupling, _ = sinkhorn(C3, P3, Q3, eps=0.1)
    assert coupling.strict
    assert checked == ["row marginal", "col marginal"]
    assert deviations == [(3, 3)]
    # The public constructor still checks everything itself.
    CouplingMatrix(coupling.values, P3, Q3)
    assert len(checked) == 4 and len(deviations) == 2


def test_sinkhorn_input_validation():
    p = q = uniform_weights(2)
    with pytest.raises(ValueError):
        sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), p, q, eps=1.0)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), p, q, eps=0.0)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 3)), p, q, eps=1.0)  # shape mismatch
    # Iteration limits are integers, as in SolverConfig: a float or a bool
    # would otherwise be truncated to another budget without a word.
    for bad in (2.5, True):
        with pytest.raises(TypeError, match="max_iter"):
            sinkhorn(C3, P3, Q3, eps=0.1, max_iter=bad)
    _, report = sinkhorn(C3, P3, Q3, eps=0.1, max_iter=np.int64(3))
    assert report.iterations <= 3


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


def test_warm_start_from_own_potential_is_immediate():
    C, p, q, eps = _newton_instance()
    cold, cold_rep = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12)
    assert cold_rep.converged and cold_rep.newton_steps > 0
    assert cold_rep.iterations == NEWTON_WARMUP + cold_rep.newton_steps
    warm, warm_rep = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12,
                              init=cold_rep.potential_target)
    assert warm_rep.converged and warm_rep.iterations <= 2
    np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-12)


def test_warm_start_on_perturbed_cost_saves_iterations():
    C, p, q, eps = _newton_instance()
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
    # A line search that finds no step switches the loop to sweeps for the
    # rest of the budget. Failing at once, the loop runs the sweeps alone;
    # failing after two Newton steps, the sweeps go on from where those
    # left off, and the line search is not tried again.
    sinkhorn_module = importlib.import_module("infoot.sinkhorn")
    C, p, q, eps = _newton_instance()
    S = np.ascontiguousarray(-C / eps)
    sweeps = _log_domain_sweeps(S, p, q, 20000, 1e-12)[2]
    armijo = sinkhorn_module._armijo_step
    for found in (0, 2):
        def solve(max_iter, found=found):
            searches = []

            def failing(*args):
                searches.append(args)
                return armijo(*args) if len(searches) <= found else None

            monkeypatch.setattr(sinkhorn_module, "_armijo_step", failing)
            coupling, rep = sinkhorn(C, p, q, eps, max_iter=max_iter,
                                     tol=1e-12)
            assert rep.newton_steps == found and len(searches) == found + 1
            return coupling, rep

        coupling, rep = solve(20000)
        assert rep.converged and rep.violation <= 1e-12
        if found:
            assert rep.iterations > NEWTON_WARMUP + found
        else:
            assert rep.iterations == sweeps
        _assert_same_solution(coupling, rep, S, p, q, eps)
        _, capped = solve(100)
        assert not capped.converged and capped.iterations == 100


@pytest.mark.parametrize("max_iter", [1, 3, 50])
def test_kernel_start_equals_shifted_log_kernel(max_iter, sweeps_only):
    # Sweeps from the target log-scaling b0 are log-domain sweeps on the
    # log-kernel shifted by b0.
    C, p, q, eps = _newton_instance()
    S = -C / eps
    b0 = np.random.default_rng(9).normal(size=q.size)
    a1, b1, it1, viol1, conv1, _ = sinkhorn_log_kernel(S, p, q, max_iter,
                                                       1e-12, b0)
    a2, b2, it2, viol2, conv2 = _log_domain_sweeps(S + b0[None, :], p, q,
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


def _log_domain_sweeps(S, p, q, max_iter, tol, b=None):
    """Reference: Sinkhorn sweeps on the log potentials, two log-sum-exp
    passes per iteration, with no scaling kernel and so nothing to absorb.
    Same contract as ``sinkhorn_log_kernel``."""
    def lse(X, axis):
        mx = X.max(axis=axis, keepdims=True)
        return (np.log(np.exp(X - mx).sum(axis=axis, keepdims=True))
                + mx).squeeze(axis)

    logp, logq = np.log(p), np.log(q)
    a = np.zeros(S.shape[0])
    b = np.zeros(S.shape[1]) if b is None else b
    viol = np.inf
    row_lse = lse(S + b[None, :], axis=1)
    for it in range(1, max_iter + 1):
        a = logp - row_lse
        col_lse = lse(S + a[:, None], axis=0)
        b = logq - col_lse
        col_viol = np.abs(np.exp(b + col_lse) - q).sum()
        row_lse = lse(S + b[None, :], axis=1)
        row_viol = np.abs(np.exp(a + row_lse) - p).sum()
        viol = row_viol + col_viol
        if viol <= tol:
            return a, b, it, float(viol), True
    return a, b, max_iter, float(viol), False


def _absorbing_instance(n, m):
    rng = np.random.default_rng(0)
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, m)
    return rng.uniform(0, 1, (n, m)), p / p.sum(), q / q.sum()


@pytest.fixture
def sweeps_only(monkeypatch):
    """The loop runs sweeps alone: its Newton steps never start."""
    monkeypatch.setattr(importlib.import_module("infoot.sinkhorn"),
                        "NEWTON_WARMUP", sys.maxsize)


def _spy(monkeypatch):
    """What the loop does, in order: ``"build"`` for each stabilized
    kernel it builds (its first, then one per absorption), ``"newton"``
    for each Newton step, and ``"newton out of range"`` for one that takes
    the row scaling out of the safe range."""
    module = importlib.import_module("infoot.sinkhorn")
    build, row_step = module._peaked_kernel, module._newton_row_step
    events = []

    def spy_build(S, b):
        events.append("build")
        return build(S, b)

    def spy_step(K, u, v, p, q, log_nm):
        step = row_step(K, u, v, p, q, log_nm)
        if step is not None:
            out = np.abs(np.log(u) + step).max() > np.log(module._SCALE_MAX)
            events.append("newton out of range" if out else "newton")
        return step

    monkeypatch.setattr(module, "_peaked_kernel", spy_build)
    monkeypatch.setattr(module, "_newton_row_step", spy_step)
    return events


def _assert_same_solution(coupling, report, S, p, q, eps):
    # The entropic optimum is unique and its potentials are unique up to
    # one constant moved between the sides.
    a, b, _, _, done = _log_domain_sweeps(S, p, q, 100000, 1e-13)
    assert done
    reference = np.exp(a[:, None] + b[None, :] + S)
    np.testing.assert_allclose(coupling.values, reference, rtol=0, atol=1e-12)
    shift = report.potential_source / eps - a
    np.testing.assert_allclose(shift, shift[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.potential_target / eps - b, -shift[0],
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_cold_solve_absorbs_when_the_cost_spans_past_exp(shape, monkeypatch):
    # exp underflows below -745, so a kernel exp(-C / eps) over this span
    # loses whole columns unless the scalings are folded back into the
    # log potentials.
    C, p, q = _absorbing_instance(*shape)
    eps = 1 / 2000
    S = np.ascontiguousarray(-C / eps)
    assert np.ptp(S) > 1500
    # The sweeps follow the log-domain iterates themselves, not just the
    # solution they converge to.
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("infoot.sinkhorn"),
                      "NEWTON_WARMUP", sys.maxsize)
        a, b, it, viol, _, _ = sinkhorn_log_kernel(S, p, q, 40, 1e-300)
    ra, rb, rit, rviol, _ = _log_domain_sweeps(S, p, q, 40, 1e-300)
    assert it == rit == 40 and abs(viol - rviol) <= 1e-12
    np.testing.assert_allclose(a, ra, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b, rb, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.exp(a[:, None] + b[None, :] + S),
                               np.exp(ra[:, None] + rb[None, :] + S),
                               rtol=0, atol=1e-12)
    # The Newton steps move the row scalings past the safe range, and the
    # step that does so is absorbed before the next one.
    events = _spy(monkeypatch)
    coupling, report = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12)
    assert report.converged and report.newton_steps > 0
    out = [i for i, e in enumerate(events) if e == "newton out of range"]
    assert out and all(events[i + 1] == "build" for i in out)
    _assert_same_solution(coupling, report, S, p, q, eps)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
@pytest.mark.parametrize("sweeps", [1, NEWTON_WARMUP])
def test_stale_warm_start_absorbs_in_the_sweeps(shape, sweeps, monkeypatch):
    # A target potential from some other problem: one column sits so far
    # below the others that its sum on the first kernel underflows to 0.
    C, p, q = _absorbing_instance(*shape)
    eps = 0.02
    S = np.ascontiguousarray(-C / eps)
    init = 1000 * eps * np.random.default_rng(100).normal(size=shape[1])
    first = S + init[None, :] / eps
    first = np.exp(first - first.max(axis=1, keepdims=True))
    assert first.sum(axis=0).min() == 0.0
    # One sweep ends on the absorbing one, so what it returns is what the
    # absorption left.
    events = _spy(monkeypatch)
    a, b, it, viol, _, newton_steps = sinkhorn_log_kernel(
        S, p, q, sweeps, 1e-300, init / eps)
    assert events.count("build") > 1 and newton_steps == 0
    ra, rb, _, rviol, _ = _log_domain_sweeps(S, p, q, sweeps, 1e-300,
                                             init / eps)
    assert abs(viol - rviol) <= 1e-12
    np.testing.assert_allclose(a, ra, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b, rb, rtol=0, atol=1e-9)
    coupling, report = sinkhorn(C, p, q, eps, max_iter=20000, tol=1e-12,
                                init=init)
    assert report.converged and report.newton_steps > 0
    _assert_same_solution(coupling, report, S, p, q, eps)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_sweeps_absorb_row_scalings_below_range(shape, sweeps_only,
                                                monkeypatch):
    # A row peaked at 1 keeps its sum above 1, so a row scaling leaves the
    # safe range only through its marginal: here one row's mass is 1e-60,
    # below the range, and every sweep folds the row scalings back.
    C, p, q = _absorbing_instance(*shape)
    p[1] = 1e-60
    p /= p.sum()
    S = np.ascontiguousarray(-C / 0.02)
    b0 = np.random.default_rng(3).normal(size=shape[1])
    events = _spy(monkeypatch)
    a, b, it, viol, _, _ = sinkhorn_log_kernel(S, p, q, 20, 1e-300, b0)
    assert events == ["build"] * (1 + 20)
    ra, rb, _, rviol, _ = _log_domain_sweeps(S, p, q, 20, 1e-300, b0)
    assert abs(viol - rviol) <= 1e-12
    np.testing.assert_allclose(a, ra, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b, rb, rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
@pytest.mark.parametrize("side, drop", [("cols", 1000.0), ("cols", 200.0),
                                        ("rows", 200.0)])
def test_polish_absorbs_out_of_range_scalings(shape, side, drop,
                                              monkeypatch):
    # Newton steps from the first iteration on, started at the solution
    # with one scaling off by exp(-drop). The loop takes the rows from the
    # target potential it starts at, so a column is put off through that
    # potential: lowered by 1000, it underflows to all zeros on the first
    # kernel; lowered by 200, it needs a column scaling of about exp(200).
    # A row is put off by lowering the first Newton step on it, and the
    # steps that raise it back leave the safe range too.
    module = importlib.import_module("infoot.sinkhorn")
    monkeypatch.setattr(module, "NEWTON_WARMUP", 0)
    C, p, q = _absorbing_instance(*shape)
    S = np.ascontiguousarray(-C / 0.02)
    a, b, _, _, done = _log_domain_sweeps(S, p, q, 100000, 1e-13)
    assert done
    b0 = b.copy()
    if side == "cols":
        b0[1] -= drop
        first = S + b0[None, :]
        first = np.exp(first - first.max(axis=1, keepdims=True))
        assert (first.sum(axis=0).min() == 0.0) == (drop == 1000.0)
    else:
        row_step = module._newton_row_step

        def lowered(*args):
            step = row_step(*args)
            if not lowered.done:
                step[1] -= drop
                lowered.done = True
            return step

        lowered.done = False
        monkeypatch.setattr(module, "_newton_row_step", lowered)
    events = _spy(monkeypatch)
    a1, b1, iters, viol, converged, newton_steps = sinkhorn_log_kernel(
        S, p, q, 100, 1e-12, b0)
    assert converged and viol <= 1e-12 and newton_steps == iters
    assert events.count("build") > 1
    if side == "rows":
        assert events[:3] == ["build", "newton out of range", "build"]
        assert events.count("newton out of range") > 1
    np.testing.assert_allclose(np.exp(a1[:, None] + b1[None, :] + S),
                               np.exp(a[:, None] + b[None, :] + S),
                               rtol=0, atol=1e-12)
    shift = a1 - a
    np.testing.assert_allclose(shift, shift[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(b1 - b, -shift[0], rtol=0, atol=1e-9)
